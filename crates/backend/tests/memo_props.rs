//! Differential tests for the per-CPU translation memo
//! (`Vm::translate_memo`): a VM that serves repeat references from the
//! memo must give every reference the frame and home a fresh full
//! `Vm::translate` gives, and end with the same TLB, fault and placement
//! counters, across demand faults, unmaps, shm detach/re-attach,
//! context-switch TLB flushes and block copies. A copy alternates a
//! kernel page with a user page, so it is what exercises the memo's older
//! entry.
//!
//! `PROPTEST_CASES` raises the case count (CI runs these in release at
//! 4096).

use compass_backend::vm::{Translation, Vm, VmFault};
use compass_isa::{CpuId, ProcessId, SegId};
use compass_mem::{PAddr, PlacementPolicy, VAddr, PAGE_SIZE};
use proptest::prelude::*;

const NPROCS: usize = 3;
const NODES: usize = 2;
const NCPUS: usize = 4;
const HEAP: u32 = 0x1000_0000;
const KERNEL: u32 = 0xC000_0000;

/// What one reference came to, as the engine charges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Served {
    paddr: PAddr,
    home: usize,
    /// A TLB miss, soft fault or DSM transfer: the reference had a
    /// translation cost, which a memo hit never has.
    costly: bool,
}

impl From<Translation> for Served {
    fn from(t: Translation) -> Self {
        Self {
            paddr: t.paddr,
            home: t.home,
            costly: t.tlb_miss || t.soft_fault || t.dsm.is_some(),
        }
    }
}

/// Two VMs fed the same operations: `fast` tries the memo first.
struct Twin {
    fast: Vm,
    full: Vm,
    seg: SegId,
    /// The shm window's base (the same in every attacher).
    shm: VAddr,
    memo_hits: u64,
}

impl Twin {
    fn new(placement: PlacementPolicy) -> Self {
        let vm = || Vm::new(NPROCS, NODES, NCPUS, 1 << 24, placement, 16, 2, false);
        let (mut fast, mut full) = (vm(), vm());
        let seg = fast.shmget(7, 4 * PAGE_SIZE).unwrap();
        assert_eq!(full.shmget(7, 4 * PAGE_SIZE).unwrap(), seg);
        let mut shm = None;
        for pid in 0..NPROCS as u32 {
            let (base, _) = fast.shmat(seg, ProcessId(pid)).unwrap();
            full.shmat(seg, ProcessId(pid)).unwrap();
            shm = Some(base);
        }
        Self {
            fast,
            full,
            seg,
            shm: shm.expect("NPROCS > 0"),
            memo_hits: 0,
        }
    }

    fn reference(
        &mut self,
        pid: ProcessId,
        cpu: CpuId,
        va: VAddr,
        write: bool,
    ) -> Result<Result<Served, VmFault>, TestCaseError> {
        let node = cpu.index() * NODES / NCPUS;
        let fast = match self.fast.translate_memo(pid, cpu, va, write) {
            Some((paddr, home)) => {
                self.memo_hits += 1;
                Ok(Served {
                    paddr,
                    home,
                    costly: false,
                })
            }
            None => self
                .fast
                .translate(pid, cpu, node, va, write)
                .map(Served::from),
        };
        let full = self
            .full
            .translate(pid, cpu, node, va, write)
            .map(Served::from);
        prop_assert_eq!(fast, full, "{} on {} at {} write {}", pid, cpu, va, write);
        self.fast.check_invariants().map_err(TestCaseError::fail)?;
        Ok(full)
    }

    /// `lines` line pairs of a block copy from `src` to `dst`, starting
    /// `offset` bytes into both pages (clipped at the page end).
    fn copy(
        &mut self,
        pid: ProcessId,
        cpu: CpuId,
        src: VAddr,
        dst: VAddr,
        offset: u32,
        lines: u32,
    ) -> Result<Result<(), VmFault>, TestCaseError> {
        let mut off = offset;
        for _ in 0..lines {
            if off >= PAGE_SIZE {
                break;
            }
            if let Err(f) = self.reference(pid, cpu, src + off, false)? {
                return Ok(Err(f));
            }
            if let Err(f) = self.reference(pid, cpu, dst + off, true)? {
                return Ok(Err(f));
            }
            off += 64;
        }
        Ok(Ok(()))
    }

    fn unmap(&mut self, pid: ProcessId, va: VAddr) {
        let a = self.fast.unmap_region(pid, va, PAGE_SIZE);
        assert_eq!(a, self.full.unmap_region(pid, va, PAGE_SIZE));
    }

    fn shmat(&mut self, pid: ProcessId) {
        let a = self.fast.shmat(self.seg, pid);
        assert_eq!(a, self.full.shmat(self.seg, pid));
    }

    fn shmdt(&mut self, pid: ProcessId) {
        let a = self.fast.shmdt(self.seg, pid);
        assert_eq!(a, self.full.shmdt(self.seg, pid));
    }

    fn flush(&mut self, cpu: CpuId) {
        self.fast.on_context_switch(cpu);
        self.full.on_context_switch(cpu);
    }

    fn agree(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.fast.tlb_stats(), self.full.tlb_stats());
        prop_assert_eq!(self.fast.stats(), self.full.stats());
        prop_assert_eq!(self.fast.placement_stats(), self.full.placement_stats());
        self.fast.check_invariants().map_err(TestCaseError::fail)?;
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A reference; `page` 0-3 heap, 4-7 shm, 8-9 kernel. A `repeat`
    /// reference takes the CPU's previous page.
    Ref {
        pid: u32,
        cpu: usize,
        page: u32,
        repeat: bool,
        offset: u32,
        write: bool,
    },
    Unmap {
        pid: u32,
        page: u32,
    },
    ShmDt {
        pid: u32,
    },
    ShmAt {
        pid: u32,
    },
    Flush {
        cpu: usize,
    },
    /// A `KernelCtx::copy`-shaped run: `lines` line pairs, each a read of
    /// one page and a write of the other, between kernel page `kpage`
    /// and user page `upage` (heap or shm).
    Copy {
        pid: u32,
        cpu: usize,
        kpage: u32,
        upage: u32,
        to_user: bool,
        lines: u32,
        offset: u32,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (
        0u8..20,
        0u32..NPROCS as u32,
        0usize..NCPUS,
        0u32..10,
        0u32..PAGE_SIZE,
        any::<bool>(),
    )
        .prop_map(|(kind, pid, cpu, page, offset, write)| match kind {
            0 => Op::Unmap {
                pid,
                page: page % 4,
            },
            1 => Op::ShmDt { pid },
            2 => Op::ShmAt { pid },
            3 => Op::Flush { cpu },
            16..=19 => Op::Copy {
                pid,
                cpu,
                kpage: 8 + page % 2,
                upage: page % 8,
                to_user: write,
                lines: 1 + offset % 8,
                offset: offset & !63,
            },
            k => Op::Ref {
                pid,
                cpu,
                page,
                repeat: k >= 8,
                offset: offset & !3,
                write,
            },
        });
    prop::collection::vec(op, 1..300)
}

fn run(placement: PlacementPolicy, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut t = Twin::new(placement);
    let shm = t.shm;
    let va_of = |page: u32| match page {
        0..=3 => VAddr(HEAP + page * PAGE_SIZE),
        4..=7 => shm + (page - 4) * PAGE_SIZE,
        _ => VAddr(KERNEL + (page - 8) * PAGE_SIZE),
    };
    let mut last = [0u32; NCPUS];
    for op in ops {
        match *op {
            Op::Ref {
                pid,
                cpu,
                page,
                repeat,
                offset,
                write,
            } => {
                let page = if repeat { last[cpu] } else { page };
                last[cpu] = page;
                let va = va_of(page) + offset;
                let _ = t.reference(ProcessId(pid), CpuId(cpu as u16), va, write)?;
            }
            Op::Unmap { pid, page } => t.unmap(ProcessId(pid), va_of(page)),
            Op::ShmDt { pid } => t.shmdt(ProcessId(pid)),
            Op::ShmAt { pid } => t.shmat(ProcessId(pid)),
            Op::Flush { cpu } => t.flush(CpuId(cpu as u16)),
            Op::Copy {
                pid,
                cpu,
                kpage,
                upage,
                to_user,
                lines,
                offset,
            } => {
                let (k, u) = (va_of(kpage), va_of(upage));
                let (src, dst) = if to_user { (k, u) } else { (u, k) };
                // A copy faulting on an unattached shm page stops there,
                // as the engine's run would.
                let _ = t.copy(ProcessId(pid), CpuId(cpu as u16), src, dst, offset, lines)?;
                last[cpu] = if to_user { upage } else { kpage };
            }
        }
    }
    t.agree()
}

proptest! {
    #[test]
    fn memo_translation_matches_full_translate(ops in ops(), eager in any::<bool>()) {
        let placement = if eager {
            PlacementPolicy::RoundRobin
        } else {
            PlacementPolicy::FirstTouch
        };
        run(placement, &ops)?;
    }
}

const P0: ProcessId = ProcessId(0);
const P1: ProcessId = ProcessId(1);
const C0: CpuId = CpuId(0);

fn served(r: Result<Result<Served, VmFault>, TestCaseError>) -> Served {
    r.unwrap().unwrap()
}

#[test]
fn a_repeat_reference_is_served_from_the_memo() {
    let mut t = Twin::new(PlacementPolicy::FirstTouch);
    let va = VAddr(HEAP);
    assert!(served(t.reference(P0, C0, va, true)).costly);
    let again = served(t.reference(P0, C0, va + 64, false));
    assert!(!again.costly);
    assert_eq!(t.memo_hits, 1);
    t.agree().unwrap();
}

#[test]
fn a_page_unmapped_and_faulted_again_is_not_served_from_the_memo() {
    let mut t = Twin::new(PlacementPolicy::FirstTouch);
    let va = VAddr(HEAP);
    let first = served(t.reference(P0, C0, va, true));
    t.unmap(P0, va);
    let second = served(t.reference(P0, C0, va, true));
    assert_ne!(
        first.paddr, second.paddr,
        "the demand fault takes a new frame"
    );
    assert_eq!(t.memo_hits, 0);
    assert_eq!(t.full.stats().soft_faults, 2);
    t.agree().unwrap();
}

#[test]
fn a_tlb_flush_between_two_references_sends_the_second_to_the_page_walk() {
    let mut t = Twin::new(PlacementPolicy::FirstTouch);
    let va = VAddr(HEAP);
    served(t.reference(P0, C0, va, false));
    t.flush(C0);
    assert!(served(t.reference(P0, C0, va, false)).costly, "a TLB miss");
    assert_eq!(t.memo_hits, 0);
    assert_eq!(t.full.tlb_stats().misses, 2);
    t.agree().unwrap();
}

#[test]
fn a_write_through_a_memo_a_read_took_retranslates() {
    let mut t = Twin::new(PlacementPolicy::FirstTouch);
    let va = VAddr(HEAP);
    served(t.reference(P0, C0, va, true));
    served(t.reference(P0, C0, va, false));
    assert_eq!(t.memo_hits, 1, "a read takes a write's memo");
    t.unmap(P0, VAddr(HEAP + PAGE_SIZE)); // moves the generation only
    served(t.reference(P0, C0, va, false)); // retranslated by a read
    served(t.reference(P0, C0, va, true));
    assert_eq!(t.memo_hits, 1, "a write does not take a read's memo");
    served(t.reference(P0, C0, va, true));
    assert_eq!(t.memo_hits, 2);
    t.agree().unwrap();
}

/// The bottom-half daemon runs on the IRQ CPU without a context switch,
/// so its references and an application's alternate on one TLB with no
/// flush between them: each must see its own page table.
#[test]
fn the_daemon_and_an_application_alternating_on_one_cpu_keep_apart() {
    let mut t = Twin::new(PlacementPolicy::FirstTouch);
    let (app, daemon) = (P0, P1);
    let heap = VAddr(HEAP);
    let kernel = VAddr(KERNEL);
    for round in 0..4u32 {
        let a = served(t.reference(app, C0, heap + 8 * round, true));
        let d = served(t.reference(daemon, C0, heap + 8 * round, true));
        assert_ne!(a.paddr.ppn(), d.paddr.ppn(), "private pages stay apart");
        let ka = served(t.reference(app, C0, kernel, false));
        let kd = served(t.reference(daemon, C0, kernel, false));
        assert_eq!(ka.paddr, kd.paddr, "kernel space is V=R for both");
    }
    assert_eq!(t.memo_hits, 0, "every reference changed process or page");
    served(t.reference(daemon, C0, kernel + 4, false));
    assert_eq!(t.memo_hits, 1);
    t.agree().unwrap();
}

#[test]
fn a_page_copy_takes_full_translations_for_its_first_two_references_only() {
    for to_user in [true, false] {
        let mut t = Twin::new(PlacementPolicy::FirstTouch);
        let (kernel, user) = (VAddr(KERNEL), VAddr(HEAP + 2 * PAGE_SIZE));
        let (src, dst) = if to_user {
            (kernel, user)
        } else {
            (user, kernel)
        };
        // The user page is mapped already (a demand fault moves the page
        // table's generation, which retires both entries).
        served(t.reference(P0, CpuId(1), user, true));
        let lines = PAGE_SIZE / 64;
        t.copy(P0, C0, src, dst, 0, lines).unwrap().unwrap();
        assert_eq!(
            t.memo_hits,
            2 * lines as u64 - 2,
            "copy to user {to_user}: only the first read and the first write translate"
        );
        t.agree().unwrap();
    }
}
