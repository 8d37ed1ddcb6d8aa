//! A small set-associative TLB model, one per simulated CPU.
//!
//! TLB behaviour matters for commercial workloads (large working sets, many
//! processes). The backend consults the TLB before the page table; a miss
//! charges a page-walk penalty. Entries are tagged with the owning process
//! so a context switch can either flush or rely on tags (PowerPC TLBs are
//! tagged; we flush on context switch by default to model the pessimistic
//! AIX behaviour and expose scheduler affinity effects).

use crate::addr::VAddr;
use compass_isa::ProcessId;

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page walk charged).
    pub misses: u64,
    /// Whole-TLB flushes (context switches).
    pub flushes: u64,
}

impl TlbStats {
    /// Miss ratio in [0, 1]; 0 when no lookups were made.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TlbEntry {
    pid: ProcessId,
    vpn: u32,
    /// LRU timestamp within the set.
    stamp: u64,
}

/// A TLB slot: `(set, way)`. [`Tlb::access_slot`] reports the slot a
/// page's entry occupies, and [`Tlb::rehit`] checks that slot again.
pub type TlbSlot = (usize, usize);

/// A set-associative TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<Vec<Option<TlbEntry>>>,
    assoc: usize,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `assoc`-way
    /// associativity. `entries` must be a multiple of `assoc` and the set
    /// count must be a power of two.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(
            assoc > 0 && entries.is_multiple_of(assoc),
            "bad TLB geometry"
        );
        let nsets = entries / assoc;
        assert!(
            nsets.is_power_of_two(),
            "TLB set count must be a power of two"
        );
        Self {
            sets: vec![vec![None; assoc]; nsets],
            assoc,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// A PowerPC-604-style 128-entry 2-way TLB.
    pub fn powerpc_604() -> Self {
        Self::new(128, 2)
    }

    #[inline]
    fn set_of(&self, vpn: u32) -> usize {
        (vpn as usize) & (self.sets.len() - 1)
    }

    /// Looks up the page containing `va` for process `pid`; fills the entry
    /// on miss. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, pid: ProcessId, va: VAddr) -> bool {
        self.access_slot(pid, va).0
    }

    /// [`Tlb::access`], also returning the slot that holds the page's
    /// entry afterwards (the one it hit or filled).
    pub fn access_slot(&mut self, pid: ProcessId, va: VAddr) -> (bool, TlbSlot) {
        self.tick += 1;
        let vpn = va.vpn();
        let set = self.set_of(vpn);
        let ways = &mut self.sets[set];
        for (way, slot) in ways.iter_mut().enumerate() {
            if let Some(e) = slot {
                if e.pid == pid && e.vpn == vpn {
                    e.stamp = self.tick;
                    self.stats.hits += 1;
                    return (true, (set, way));
                }
            }
        }
        self.stats.misses += 1;
        // Fill: pick an empty way or evict the LRU.
        let (way, victim) = ways
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, w)| w.map_or(0, |e| e.stamp))
            .expect("assoc > 0");
        *victim = Some(TlbEntry {
            pid,
            vpn,
            stamp: self.tick,
        });
        (false, (set, way))
    }

    /// [`Tlb::access`] without the set scan, for a page whose entry an
    /// earlier [`Tlb::access_slot`] reported at `slot`: when the slot
    /// still holds `pid`'s entry for `va`, books the hit exactly as
    /// `access` would (tick, stamp, hit count) and returns `true`.
    /// Otherwise changes nothing and returns `false`; the caller then
    /// takes the full `access`. A page has at most one entry, in its own
    /// set, so a slot that holds it is where `access` would find it.
    #[inline]
    pub fn rehit(&mut self, pid: ProcessId, va: VAddr, (set, way): TlbSlot) -> bool {
        match &mut self.sets[set][way] {
            Some(e) if e.pid == pid && e.vpn == va.vpn() => {
                self.tick += 1;
                e.stamp = self.tick;
                self.stats.hits += 1;
                true
            }
            _ => false,
        }
    }

    /// Checks that `slot` is a way of the set the page at `va` maps to,
    /// so a [`Tlb::rehit`] there books only hits a full lookup would find.
    pub fn check_slot(&self, (set, way): TlbSlot, va: VAddr) -> Result<(), String> {
        let want = self.set_of(va.vpn());
        if set != want || way >= self.assoc {
            return Err(format!(
                "TLB slot ({set}, {way}) is not a way of {va}'s set {want}"
            ));
        }
        Ok(())
    }

    /// Invalidates one page mapping (munmap/shmdt/page migration).
    pub fn invalidate_page(&mut self, pid: ProcessId, va: VAddr) {
        let vpn = va.vpn();
        let set = self.set_of(vpn);
        for way in self.sets[set].iter_mut() {
            if matches!(way, Some(e) if e.pid == pid && e.vpn == vpn) {
                *way = None;
            }
        }
    }

    /// Flushes everything (context switch).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.iter_mut().for_each(|w| *w = None);
        }
        self.stats.flushes += 1;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Associativity (for report formatting).
    pub fn assoc(&self) -> usize {
        self.assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    #[test]
    fn repeat_access_hits() {
        let mut t = Tlb::new(8, 2);
        let va = VAddr(0x1000_0000);
        assert!(!t.access(P0, va));
        assert!(t.access(P0, va));
        assert!(t.access(P0, va + 8)); // same page
        assert_eq!(t.stats().hits, 2);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn entries_are_process_tagged() {
        let mut t = Tlb::new(8, 2);
        let va = VAddr(0x1000_0000);
        assert!(!t.access(P0, va));
        assert!(!t.access(P1, va), "different process must miss");
    }

    #[test]
    fn lru_eviction_within_set() {
        // 4 sets, 2 ways. Three pages in the same set evict the LRU.
        let mut t = Tlb::new(8, 2);
        let stride = 4 * PAGE_SIZE; // same set in a 4-set TLB
        let a = VAddr(0x1000_0000);
        let b = a + stride;
        let c = b + stride;
        t.access(P0, a);
        t.access(P0, b);
        t.access(P0, a); // a is MRU
        t.access(P0, c); // evicts b
        assert!(t.access(P0, a));
        assert!(!t.access(P0, b), "b should have been evicted");
    }

    #[test]
    fn flush_empties_everything() {
        let mut t = Tlb::new(8, 2);
        let va = VAddr(0x1000_0000);
        t.access(P0, va);
        t.flush();
        assert!(!t.access(P0, va));
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn invalidate_single_page() {
        let mut t = Tlb::new(8, 2);
        let a = VAddr(0x1000_0000);
        let b = VAddr(0x2000_0000);
        t.access(P0, a);
        t.access(P0, b);
        t.invalidate_page(P0, a);
        assert!(!t.access(P0, a));
        assert!(t.access(P0, b));
    }

    #[test]
    fn rehit_books_exactly_what_access_books() {
        let a = VAddr(0x1000_0000);
        let b = a + 4 * PAGE_SIZE; // same set in a 4-set TLB
        let mut fast = Tlb::new(8, 2);
        let mut full = Tlb::new(8, 2);
        let mut slots = [(0, 0); 2];
        for t in [&mut fast, &mut full] {
            slots = [t.access_slot(P0, a).1, t.access_slot(P0, b).1];
        }
        assert_ne!(slots[0], slots[1]);
        assert!(!fast.rehit(P0, a, slots[1]), "a is not in b's slot");
        assert!(!fast.rehit(P1, b, slots[1]), "the entry is process-tagged");
        assert!(fast.rehit(P0, b + 8, slots[1]));
        assert!(full.access(P0, b + 8));
        assert_eq!(fast.stats(), full.stats());
        // The LRU order is the same too: a new page in the set evicts a
        // in both, so b still hits.
        fast.access(P0, b + 4 * PAGE_SIZE);
        full.access(P0, b + 4 * PAGE_SIZE);
        assert!(fast.access(P0, b) && full.access(P0, b));
        assert_eq!(fast.stats(), full.stats());
        assert!(
            !fast.rehit(P0, a, slots[0]),
            "a's slot now holds another page"
        );
        fast.check_slot(slots[1], b).unwrap();
        assert!(fast.check_slot(slots[1], b + PAGE_SIZE).is_err());
        assert!(fast.check_slot((slots[1].0, 2), b).is_err());
        fast.flush();
        assert!(!fast.rehit(P0, b, slots[1]), "a flush empties the slot");
    }

    #[test]
    fn access_and_access_slot_book_the_same() {
        let mut a = Tlb::new(8, 2);
        let mut b = Tlb::new(8, 2);
        for i in 0..40u32 {
            let va = VAddr(0x1000_0000 + (i * 7 % 11) * PAGE_SIZE);
            let (hit, (set, way)) = b.access_slot(P0, va);
            assert_eq!(a.access(P0, va), hit);
            assert_eq!(set, (va.vpn() & 3) as usize);
            assert!(way < 2);
            assert!(b.rehit(P0, va, (set, way)), "the slot holds the entry");
            assert!(a.access(P0, va));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn miss_ratio_math() {
        let mut t = Tlb::new(8, 2);
        let va = VAddr(0x1000_0000);
        t.access(P0, va);
        t.access(P0, va);
        t.access(P0, va);
        t.access(P0, va);
        assert!((t.stats().miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(TlbStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad TLB geometry")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(7, 2);
    }
}
