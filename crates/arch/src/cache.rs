//! Set-associative caches with MESI line states.
//!
//! The same structure serves as L1, L2, and (with a node-sized geometry)
//! the COMA attraction memory. The cache is a pure state machine over
//! *line indices* (`paddr >> line_shift`); the hierarchy composes probes,
//! fills, invalidations and evictions into protocol transactions.

use crate::config::CacheConfig;

/// MESI states of a resident line (absence of the line is Invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Clean, possibly in other caches.
    Shared,
    /// Clean and exclusively owned.
    Exclusive,
    /// Dirty and exclusively owned.
    Modified,
}

impl LineState {
    /// True if a local write is allowed without a coherence transaction.
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }

    /// True if an eviction must write data back.
    #[inline]
    pub fn dirty(self) -> bool {
        matches!(self, LineState::Modified)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    /// Full line index (`paddr >> line_shift`).
    idx: u64,
    state: LineState,
    /// LRU stamp.
    stamp: u64,
}

/// Per-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found the line.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Evicted lines that were dirty (writebacks).
    pub writebacks: u64,
    /// Lines removed by external invalidations.
    pub invalidations: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_ratio(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

/// A set-associative cache over line indices.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Option<Line>>>,
    set_mask: u64,
    line_shift: u32,
    tick: u64,
    /// The slot `(set, way)` the most recent probe hit or fill used,
    /// which [`Cache::rehit`] checks first.
    mru: (usize, usize),
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from a validated geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache geometry");
        let sets = cfg.sets() as usize;
        Self {
            sets: vec![vec![None; cfg.assoc as usize]; sets],
            set_mask: sets as u64 - 1,
            line_shift: cfg.line.trailing_zeros(),
            tick: 0,
            mru: (0, 0),
            stats: CacheStats::default(),
        }
    }

    /// Line index of a physical address in this cache's geometry.
    #[inline]
    pub fn line_of(&self, paddr: u64) -> u64 {
        paddr >> self.line_shift
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_size(&self) -> u32 {
        1 << self.line_shift
    }

    #[inline]
    fn set_of(&self, idx: u64) -> usize {
        (idx & self.set_mask) as usize
    }

    /// Probes for a line; a hit refreshes LRU and returns the state.
    /// Counts a hit or a miss.
    pub fn probe(&mut self, idx: u64) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(idx);
        for (way, slot) in self.sets[set].iter_mut().enumerate() {
            if let Some(line) = slot {
                if line.idx == idx {
                    line.stamp = tick;
                    self.stats.hits += 1;
                    self.mru = (set, way);
                    return Some(line.state);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// [`Cache::probe`] without the set scan, for a line that still sits
    /// in the slot the most recent probe hit or fill used. A read takes
    /// any state; a write only a Modified line (it changes no state). On
    /// success books exactly the hit `probe` would (tick, LRU stamp, hit
    /// count) and returns the state; otherwise changes nothing.
    #[inline]
    pub fn rehit(&mut self, idx: u64, write: bool) -> Option<LineState> {
        let (set, way) = self.mru;
        match &mut self.sets[set][way] {
            Some(line) if line.idx == idx && (!write || line.state == LineState::Modified) => {
                self.tick += 1;
                line.stamp = self.tick;
                self.stats.hits += 1;
                Some(line.state)
            }
            _ => None,
        }
    }

    /// Checks that an occupied MRU slot sits in the set its line maps to,
    /// so a [`Cache::rehit`] books only hits a probe would find.
    pub fn check_mru(&self) -> Result<(), String> {
        let (set, way) = self.mru;
        match self.sets[set][way] {
            Some(l) if self.set_of(l.idx) != set => Err(format!(
                "MRU slot ({set}, {way}) holds line {:#x} of set {}",
                l.idx,
                self.set_of(l.idx)
            )),
            _ => Ok(()),
        }
    }

    /// Checks residency without touching LRU or counters.
    pub fn peek(&self, idx: u64) -> Option<LineState> {
        let set = self.set_of(idx);
        self.sets[set]
            .iter()
            .flatten()
            .find(|l| l.idx == idx)
            .map(|l| l.state)
    }

    /// Inserts (fills) a line in `state`, evicting the set's LRU victim if
    /// the set is full. Returns the victim `(line index, state)` if one was
    /// evicted. The line must not already be resident.
    pub fn insert(&mut self, idx: u64, state: LineState) -> Option<(u64, LineState)> {
        debug_assert!(self.peek(idx).is_none(), "insert of resident line {idx:#x}");
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(idx);
        let ways = &mut self.sets[set];
        // Prefer an empty way.
        if let Some(way) = ways.iter().position(|w| w.is_none()) {
            ways[way] = Some(Line {
                idx,
                state,
                stamp: tick,
            });
            self.mru = (set, way);
            return None;
        }
        // Evict LRU.
        let (way, victim_way) = ways
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, w)| w.as_ref().map_or(0, |l| l.stamp))
            .expect("assoc > 0");
        self.mru = (set, way);
        let victim = victim_way.take().expect("set full");
        *victim_way = Some(Line {
            idx,
            state,
            stamp: tick,
        });
        self.stats.evictions += 1;
        if victim.state.dirty() {
            self.stats.writebacks += 1;
        }
        Some((victim.idx, victim.state))
    }

    /// Changes a resident line's state (upgrade/downgrade). A protocol
    /// bug can ask for an absent line; that debug-asserts (so test builds
    /// still catch it loudly) but degrades to a graceful no-op in release
    /// builds, returning `false` so the caller can count or report it
    /// instead of tearing the whole simulation down.
    pub fn set_state(&mut self, idx: u64, state: LineState) -> bool {
        let set = self.set_of(idx);
        match self.sets[set].iter_mut().flatten().find(|l| l.idx == idx) {
            Some(line) => {
                line.state = state;
                true
            }
            None => {
                debug_assert!(false, "set_state on absent line {idx:#x}");
                false
            }
        }
    }

    /// Removes a line due to an external invalidation; returns its state.
    pub fn invalidate(&mut self, idx: u64) -> Option<LineState> {
        let set = self.set_of(idx);
        for way in self.sets[set].iter_mut() {
            if matches!(way, Some(l) if l.idx == idx) {
                let state = way.take().map(|l| l.state);
                self.stats.invalidations += 1;
                return state;
            }
        }
        None
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident lines (test/diagnostic helper).
    pub fn resident(&self) -> usize {
        self.sets.iter().map(|s| s.iter().flatten().count()).sum()
    }

    /// Iterates over all resident lines as `(line index, state)` pairs,
    /// without touching LRU or counters (invariant checks, diagnostics).
    pub fn lines(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.sets
            .iter()
            .flat_map(|s| s.iter().flatten().map(|l| (l.idx, l.state)))
    }

    /// Serializes the complete replacement state: the raw way layout,
    /// per-line LRU stamps and the LRU clock.
    /// Nothing in the simulator reads or writes it: only the benchmark's
    /// checkpoint probe does, and it goes with that probe (ROADMAP item 1a).
    pub fn encode_snapshot(&self, w: &mut compass_snap::Writer) {
        w.u64(self.tick);
        for f in [
            self.stats.hits,
            self.stats.misses,
            self.stats.evictions,
            self.stats.writebacks,
            self.stats.invalidations,
        ] {
            w.u64(f);
        }
        w.u64(self.sets.len() as u64);
        w.u64(self.sets.first().map_or(0, |s| s.len()) as u64);
        for set in &self.sets {
            for way in set {
                match way {
                    None => w.u8(0),
                    Some(l) => {
                        w.u8(1);
                        w.u64(l.idx);
                        w.u8(match l.state {
                            LineState::Shared => 0,
                            LineState::Exclusive => 1,
                            LineState::Modified => 2,
                        });
                        w.u64(l.stamp);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 32-byte lines = 256 bytes.
        Cache::new(CacheConfig {
            size: 256,
            assoc: 2,
            line: 32,
        })
    }

    #[test]
    fn probe_miss_then_hit_after_insert() {
        let mut c = tiny();
        let idx = c.line_of(0x1000);
        assert_eq!(c.probe(idx), None);
        c.insert(idx, LineState::Exclusive);
        assert_eq!(c.probe(idx), Some(LineState::Exclusive));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 128).
        let a = c.line_of(0x0000);
        let b = c.line_of(0x0080);
        let d = c.line_of(0x0100);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.probe(a); // refresh a
        let victim = c.insert(d, LineState::Shared).unwrap();
        assert_eq!(victim.0, b, "LRU line must be evicted");
        assert!(c.peek(a).is_some());
        assert!(c.peek(b).is_none());
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        let a = c.line_of(0x0000);
        let b = c.line_of(0x0080);
        let d = c.line_of(0x0100);
        c.insert(a, LineState::Modified);
        c.insert(b, LineState::Shared);
        // Evicts a (LRU) which is dirty.
        let (vidx, vstate) = c.insert(d, LineState::Shared).unwrap();
        assert_eq!(vidx, a);
        assert_eq!(vstate, LineState::Modified);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = tiny();
        let a = c.line_of(0x40);
        c.insert(a, LineState::Shared);
        assert_eq!(c.invalidate(a), Some(LineState::Shared));
        assert_eq!(c.invalidate(a), None);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn set_state_upgrades() {
        let mut c = tiny();
        let a = c.line_of(0x40);
        c.insert(a, LineState::Shared);
        c.set_state(a, LineState::Modified);
        assert_eq!(c.peek(a), Some(LineState::Modified));
    }

    /// Debug builds panic; release builds refuse the call with `false`.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "absent line"))]
    fn set_state_on_absent_line_panics() {
        let mut c = tiny();
        assert!(!c.set_state(5, LineState::Shared));
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_stats() {
        let mut c = tiny();
        let a = c.line_of(0x0000);
        let b = c.line_of(0x0080);
        let d = c.line_of(0x0100);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        let before = c.stats();
        assert!(c.peek(a).is_some());
        assert_eq!(c.stats(), before);
        // a was inserted first and peek must not refresh it: a is victim.
        let victim = c.insert(d, LineState::Shared).unwrap();
        assert_eq!(victim.0, a);
    }

    #[test]
    fn rehit_serves_only_the_mru_slot_and_books_like_probe() {
        let mut fast = tiny();
        let mut full = tiny();
        let a = fast.line_of(0x0000);
        let b = fast.line_of(0x0080); // same set as a
        for c in [&mut fast, &mut full] {
            c.insert(a, LineState::Shared);
            c.insert(b, LineState::Modified);
        }
        assert_eq!(fast.rehit(a, false), None, "a is not in the MRU slot");
        assert_eq!(fast.rehit(b, true), Some(LineState::Modified));
        assert_eq!(full.probe(b), Some(LineState::Modified));
        assert_eq!(fast.stats(), full.stats());
        assert_eq!(fast.probe(a), Some(LineState::Shared));
        assert_eq!(fast.rehit(a, true), None, "a write needs a Modified line");
        assert_eq!(fast.rehit(a, false), Some(LineState::Shared));
        fast.invalidate(a);
        assert_eq!(fast.rehit(a, false), None, "an invalidated slot is empty");
        fast.check_mru().unwrap();
    }

    #[test]
    fn writable_and_dirty_predicates() {
        assert!(!LineState::Shared.writable());
        assert!(LineState::Exclusive.writable());
        assert!(LineState::Modified.writable());
        assert!(LineState::Modified.dirty());
        assert!(!LineState::Exclusive.dirty());
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        let a = c.line_of(0);
        c.probe(a);
        c.insert(a, LineState::Shared);
        c.probe(a);
        c.probe(a);
        c.probe(a);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-12);
    }
}
