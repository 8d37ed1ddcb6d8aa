//! Differential tests for `Hierarchy::l1_rehit`: a hierarchy that tries the
//! rehit before every access must stay byte for byte the hierarchy that
//! always takes the full `Hierarchy::access`: every access result, the
//! statistics of every cache and the complete replacement state.
//!
//! `PROPTEST_CASES` raises the case count (CI runs these in release at
//! 4096).

use compass_arch::{Access, AccessClass, AccessResult, ArchConfig, Hierarchy};
use compass_mem::PAddr;
use proptest::prelude::*;

/// Two hierarchies over one configuration: `fast` tries the rehit first.
struct Twin {
    fast: Hierarchy,
    full: Hierarchy,
    rehits: u64,
}

impl Twin {
    fn new(cfg: ArchConfig) -> Self {
        Self {
            fast: Hierarchy::new(cfg.clone()),
            full: Hierarchy::new(cfg),
            rehits: 0,
        }
    }

    fn access(
        &mut self,
        cpu: usize,
        paddr: PAddr,
        write: bool,
        home: usize,
        now: u64,
    ) -> Result<AccessResult, TestCaseError> {
        let acc = Access {
            write,
            class: if cpu.is_multiple_of(2) {
                AccessClass::User
            } else {
                AccessClass::Kernel
            },
        };
        let fast = match self.fast.l1_rehit(cpu, paddr, acc) {
            Some(res) => {
                self.rehits += 1;
                res
            }
            None => self.fast.access(cpu, paddr, acc, home, now),
        };
        let full = self.full.access(cpu, paddr, acc, home, now);
        prop_assert_eq!(fast, full, "cpu {} {:?} write {}", cpu, paddr, write);
        prop_assert_eq!(self.fast.epoch_victims(), self.full.epoch_victims());
        Ok(full)
    }

    /// Everything observable agrees, down to every way's LRU stamp.
    fn agree(&self) -> Result<(), TestCaseError> {
        let (a, b) = (&self.fast, &self.full);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.dir_stats(), b.dir_stats());
        for cpu in 0..a.config().ncpus() {
            prop_assert_eq!(a.l1_stats(cpu), b.l1_stats(cpu));
            prop_assert_eq!(a.l2_stats(cpu), b.l2_stats(cpu));
        }
        let snap = |h: &Hierarchy| {
            let mut w = compass_snap::Writer::new();
            h.encode_snapshot(&mut w);
            w.into_bytes()
        };
        prop_assert!(snap(a) == snap(b), "replacement state diverged");
        a.check_invariants().map_err(TestCaseError::fail)?;
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Op {
    cpu: usize,
    line: u64,
    /// 0: a fresh line; otherwise this CPU repeats its previous line.
    repeat: u8,
    word: u64,
    write: bool,
}

fn ops(ncpus: usize, lines: u64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..ncpus, 0..lines, 0u8..4, 0u64..8, any::<bool>()).prop_map(
            |(cpu, line, repeat, word, write)| Op {
                cpu,
                line,
                repeat,
                word,
                write,
            },
        ),
        1..400,
    )
}

fn run(cfg: ArchConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let nodes = cfg.nodes;
    let mut twin = Twin::new(cfg);
    let mut last = vec![0u64; twin.full.config().ncpus()];
    for (i, op) in ops.iter().enumerate() {
        let line = if op.repeat == 0 {
            op.line
        } else {
            last[op.cpu]
        };
        last[op.cpu] = line;
        // Lines spread across sets and pages; words within a line.
        let paddr = PAddr(line * 64 + (line % 3) * 4096 + op.word * 4);
        twin.access(
            op.cpu,
            paddr,
            op.write,
            (line % nodes as u64) as usize,
            100 * i as u64,
        )?;
    }
    twin.agree()
}

proptest! {
    #[test]
    fn l1_rehit_matches_access_ccnuma(ops in ops(4, 64)) {
        run(ArchConfig::ccnuma(2, 2), &ops)?;
    }

    #[test]
    fn l1_rehit_matches_access_simple(ops in ops(4, 64)) {
        run(ArchConfig::simple_smp(4), &ops)?;
    }

    #[test]
    fn l1_rehit_matches_access_coma(ops in ops(4, 64)) {
        run(ArchConfig::coma(2, 2), &ops)?;
    }
}

fn ccnuma() -> Twin {
    Twin::new(ArchConfig::ccnuma(2, 2))
}

const P: PAddr = PAddr(0x4000);

#[test]
fn a_repeat_read_is_a_rehit() {
    let mut t = ccnuma();
    t.access(0, P, false, 0, 0).unwrap();
    assert_eq!(t.rehits, 0, "the first read misses");
    let hit = t.access(0, PAddr(P.0 + 8), false, 0, 100).unwrap();
    assert!(hit.l1_hit);
    assert_eq!(t.rehits, 1);
    t.agree().unwrap();
}

#[test]
fn another_cpus_write_invalidates_the_remembered_line() {
    let mut t = ccnuma();
    t.access(0, P, false, 0, 0).unwrap();
    t.access(0, P, false, 0, 100).unwrap();
    assert_eq!(t.rehits, 1);
    t.access(2, P, true, 0, 200).unwrap(); // cpu 2, on node 1
    let after = t.access(0, P, false, 0, 300).unwrap();
    assert!(!after.l1_hit, "the invalidated line must miss again");
    assert_eq!(t.rehits, 1);
    t.agree().unwrap();
}

#[test]
fn a_write_after_a_read_on_an_exclusive_line_takes_the_full_access() {
    let mut t = ccnuma();
    t.access(0, P, false, 0, 0).unwrap(); // granted Exclusive
    let w = t.access(0, P, true, 0, 100).unwrap();
    assert!(w.l1_hit, "the silent E->M upgrade stays in the L1");
    assert_eq!(
        t.rehits, 0,
        "a write to an Exclusive line changes its state"
    );
    t.access(0, P, true, 0, 200).unwrap();
    assert_eq!(t.rehits, 1, "a write to the Modified line is a rehit");
    t.agree().unwrap();
}

#[test]
fn a_write_after_a_read_on_a_shared_line_upgrades_through_the_directory() {
    let mut t = ccnuma();
    t.access(1, P, false, 0, 0).unwrap();
    t.access(0, P, false, 0, 100).unwrap(); // both Shared now
    let w = t.access(0, P, true, 0, 200).unwrap();
    assert!(!w.l1_hit, "a write to a Shared line is an upgrade");
    assert_eq!(t.rehits, 0);
    t.agree().unwrap();
}

#[test]
fn an_external_downgrade_then_a_write_upgrades_again() {
    let mut t = ccnuma();
    t.access(0, P, true, 0, 0).unwrap();
    t.access(0, P, true, 0, 100).unwrap();
    assert_eq!(t.rehits, 1, "a write to the Modified line is a rehit");
    t.access(2, P, false, 0, 200).unwrap(); // forward: owner M -> S
    let r = t.access(0, P, false, 0, 300).unwrap();
    assert!(r.l1_hit);
    assert_eq!(t.rehits, 2, "a read takes the downgraded Shared line");
    let w = t.access(0, P, true, 0, 400).unwrap();
    assert!(!w.l1_hit, "a write to the downgraded line must upgrade");
    assert_eq!(t.rehits, 2);
    t.agree().unwrap();
}
