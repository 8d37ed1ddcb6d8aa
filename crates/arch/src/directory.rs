//! The coherence directory.
//!
//! Full-map directory over coherence-granularity lines: each entry records
//! whether a line is uncached, shared by a set of CPUs, or owned
//! (Exclusive/Modified) by one CPU. The hierarchy asks the directory what a
//! read or write requires — a memory fetch, a cache-to-cache forward, a set
//! of invalidations — and charges latencies accordingly; the directory
//! itself is pure bookkeeping.
//!
//! Entries are logically distributed across home nodes (the backend's
//! page-home map decides a line's home); a single hash map keyed by line
//! index represents the union, since the home is recoverable from the
//! address. The map is sparse: a line no cache holds has no entry, so it
//! holds at most as many entries as the caches hold lines, and every
//! request is one map probe.

use compass_isa::FoldHashMap;
use std::collections::hash_map::Entry;

/// Directory state of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirEntry {
    /// Memory holds the only copy.
    Uncached,
    /// Clean copies at the CPUs in the mask.
    Shared(u64),
    /// One CPU holds the line Exclusive or Modified.
    Owned(u16),
}

/// Where read data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Home memory.
    Memory,
    /// Another CPU's cache (cache-to-cache forward).
    Cache(u16),
}

/// What a read miss requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// State to install at the requester (Exclusive when it will be the
    /// only sharer, Shared otherwise).
    pub grant_exclusive: bool,
    /// Data source.
    pub source: Source,
    /// CPU that must downgrade Modified→Shared (writeback to home).
    pub downgrade: Option<u16>,
}

/// What a write miss/upgrade requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// CPUs whose copies must be invalidated, as a mask (bit `c` is CPU
    /// `c`).
    pub invalidate: u64,
    /// Data source; `None` when the requester already holds valid data
    /// (Shared→Modified upgrade).
    pub source: Option<Source>,
}

/// Directory counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Read misses served.
    pub reads: u64,
    /// Write misses/upgrades served.
    pub writes: u64,
    /// Upgrades (write by a current sharer, no data transfer).
    pub upgrades: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Cache-to-cache forwards (3-hop transactions).
    pub forwards: u64,
    /// Writebacks accepted (dirty evictions and downgrades).
    pub writebacks: u64,
}

/// The full-map directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: FoldHashMap<u64, DirEntry>,
    stats: DirStats,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// State of a line (Uncached when no cache holds it).
    pub fn entry(&self, line: u64) -> DirEntry {
        self.entries
            .get(&line)
            .copied()
            .unwrap_or(DirEntry::Uncached)
    }

    /// Number of lines some cache holds: the map keeps no Uncached entry,
    /// so it never outgrows the caches it tracks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no cache holds any line.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serves a read miss by `cpu`.
    pub fn read(&mut self, line: u64, cpu: u16) -> ReadOutcome {
        self.stats.reads += 1;
        let slot = match self.entries.entry(line) {
            Entry::Vacant(v) => {
                v.insert(DirEntry::Owned(cpu));
                return ReadOutcome {
                    grant_exclusive: true,
                    source: Source::Memory,
                    downgrade: None,
                };
            }
            Entry::Occupied(o) => o.into_mut(),
        };
        match *slot {
            DirEntry::Uncached => unreachable!("uncached lines have no entry"),
            DirEntry::Shared(mask) => {
                debug_assert_eq!(mask & (1 << cpu), 0, "read miss by sharer {cpu}");
                *slot = DirEntry::Shared(mask | (1 << cpu));
                ReadOutcome {
                    grant_exclusive: false,
                    source: Source::Memory,
                    downgrade: None,
                }
            }
            DirEntry::Owned(owner) => {
                debug_assert_ne!(owner, cpu, "read miss by owner {cpu}");
                *slot = DirEntry::Shared((1 << owner) | (1 << cpu));
                self.stats.forwards += 1;
                self.stats.writebacks += 1; // owner's downgrade writes back
                ReadOutcome {
                    grant_exclusive: false,
                    source: Source::Cache(owner),
                    downgrade: Some(owner),
                }
            }
        }
    }

    /// Serves a write miss or upgrade by `cpu`.
    pub fn write(&mut self, line: u64, cpu: u16) -> WriteOutcome {
        self.stats.writes += 1;
        let previous = self.entries.insert(line, DirEntry::Owned(cpu));
        match previous.unwrap_or(DirEntry::Uncached) {
            DirEntry::Uncached => WriteOutcome {
                invalidate: 0,
                source: Some(Source::Memory),
            },
            DirEntry::Shared(mask) => {
                let already_sharer = mask & (1 << cpu) != 0;
                let invalidate = mask & !(1 << cpu);
                self.stats.invalidations += u64::from(invalidate.count_ones());
                if already_sharer {
                    self.stats.upgrades += 1;
                }
                WriteOutcome {
                    invalidate,
                    source: if already_sharer {
                        None
                    } else {
                        Some(Source::Memory)
                    },
                }
            }
            DirEntry::Owned(owner) => {
                debug_assert_ne!(owner, cpu, "write miss by owner {cpu}");
                self.stats.invalidations += 1;
                self.stats.forwards += 1;
                WriteOutcome {
                    invalidate: 1 << owner,
                    source: Some(Source::Cache(owner)),
                }
            }
        }
    }

    /// Handles an eviction notice from `cpu` (replacement hint keeping the
    /// directory exact). `dirty` marks a Modified writeback. A line that
    /// no cache holds any more loses its entry.
    pub fn evict(&mut self, line: u64, cpu: u16, dirty: bool) {
        if dirty {
            self.stats.writebacks += 1;
        }
        let Entry::Occupied(mut o) = self.entries.entry(line) else {
            debug_assert!(false, "eviction of uncached line {line:#x}");
            return;
        };
        match *o.get() {
            DirEntry::Uncached => unreachable!("uncached lines have no entry"),
            DirEntry::Shared(mask) => {
                let new = mask & !(1 << cpu);
                debug_assert_ne!(mask, new, "evicting non-sharer {cpu}");
                if new == 0 {
                    o.remove();
                } else {
                    *o.get_mut() = DirEntry::Shared(new);
                }
            }
            DirEntry::Owned(owner) => {
                debug_assert_eq!(owner, cpu, "eviction of line owned elsewhere");
                o.remove();
            }
        }
    }

    /// Counters.
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    /// Iterates over every cached line's entry as `(line, entry)` pairs
    /// (invariant checks); none is [`DirEntry::Uncached`].
    pub fn entries(&self) -> impl Iterator<Item = (u64, DirEntry)> + '_ {
        self.entries.iter().map(|(&l, &e)| (l, e))
    }

    /// Serializes all entries (sorted by line index, so two identical
    /// directories always produce identical bytes regardless of hash-map
    /// iteration order) plus the counters.
    /// Nothing in the simulator reads or writes it: only the benchmark's
    /// checkpoint probe does, and it goes with that probe (ROADMAP item 1a).
    pub fn encode_snapshot(&self, w: &mut compass_snap::Writer) {
        let mut lines: Vec<(u64, DirEntry)> = self.entries.iter().map(|(&l, &e)| (l, e)).collect();
        lines.sort_unstable_by_key(|&(l, _)| l);
        w.u64(lines.len() as u64);
        for (line, e) in lines {
            w.u64(line);
            match e {
                DirEntry::Uncached => w.u8(0),
                DirEntry::Shared(mask) => {
                    w.u8(1);
                    w.u64(mask);
                }
                DirEntry::Owned(owner) => {
                    w.u8(2);
                    w.u16(owner);
                }
            }
        }
        for f in [
            self.stats.reads,
            self.stats.writes,
            self.stats.upgrades,
            self.stats.invalidations,
            self.stats.forwards,
            self.stats.writebacks,
        ] {
            w.u64(f);
        }
    }

    /// Invariant check used by property tests: no entry is kept for an
    /// uncached line, each entry's mask is non-empty, owned entries name a
    /// valid CPU.
    pub fn check_invariants(&self, ncpus: u16) -> Result<(), String> {
        for (&line, &e) in &self.entries {
            match e {
                DirEntry::Uncached => {
                    return Err(format!("line {line:#x}: entry kept while uncached"));
                }
                DirEntry::Shared(mask) => {
                    if mask == 0 {
                        return Err(format!("line {line:#x}: empty sharer mask"));
                    }
                    if mask >> ncpus != 0 {
                        return Err(format!("line {line:#x}: sharer beyond ncpus"));
                    }
                }
                DirEntry::Owned(owner) => {
                    if owner >= ncpus {
                        return Err(format!("line {line:#x}: owner beyond ncpus"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_grants_exclusive_from_memory() {
        let mut d = Directory::new();
        let o = d.read(7, 0);
        assert!(o.grant_exclusive);
        assert_eq!(o.source, Source::Memory);
        assert_eq!(d.entry(7), DirEntry::Owned(0));
    }

    #[test]
    fn second_read_forwards_from_owner_and_downgrades() {
        let mut d = Directory::new();
        d.read(7, 0);
        let o = d.read(7, 1);
        assert!(!o.grant_exclusive);
        assert_eq!(o.source, Source::Cache(0));
        assert_eq!(o.downgrade, Some(0));
        assert_eq!(d.entry(7), DirEntry::Shared(0b11));
        assert_eq!(d.stats().forwards, 1);
    }

    #[test]
    fn write_to_shared_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.read(7, 0);
        d.read(7, 1);
        d.read(7, 2);
        let o = d.write(7, 1);
        assert_eq!(o.invalidate, 0b101);
        assert_eq!(o.source, None, "sharer upgrade needs no data");
        assert_eq!(d.entry(7), DirEntry::Owned(1));
        assert_eq!(d.stats().upgrades, 1);
        assert_eq!(d.stats().invalidations, 2);
    }

    #[test]
    fn write_by_non_sharer_fetches_and_invalidates() {
        let mut d = Directory::new();
        d.read(7, 0);
        d.read(7, 1);
        let o = d.write(7, 5);
        assert_eq!(o.invalidate, 0b11);
        assert_eq!(o.source, Some(Source::Memory));
        assert_eq!(d.entry(7), DirEntry::Owned(5));
    }

    #[test]
    fn write_steals_from_owner() {
        let mut d = Directory::new();
        d.write(7, 0);
        let o = d.write(7, 3);
        assert_eq!(o.invalidate, 0b1);
        assert_eq!(o.source, Some(Source::Cache(0)));
        assert_eq!(d.entry(7), DirEntry::Owned(3));
    }

    #[test]
    fn evictions_return_line_to_uncached() {
        let mut d = Directory::new();
        d.read(7, 0);
        d.read(7, 1);
        d.evict(7, 0, false);
        assert_eq!(d.entry(7), DirEntry::Shared(0b10));
        d.evict(7, 1, false);
        assert_eq!(d.entry(7), DirEntry::Uncached);
        assert!(d.is_empty(), "the last sharer's eviction drops the entry");
        d.write(7, 2);
        let wb_before = d.stats().writebacks;
        d.evict(7, 2, true);
        assert_eq!(d.entry(7), DirEntry::Uncached);
        assert_eq!(d.stats().writebacks, wb_before + 1);
        assert!(d.is_empty(), "an uncached line keeps no entry");
    }

    #[test]
    fn invariants_hold_after_a_sequence() {
        // Drive the directory through a legal request sequence (reads only
        // on a genuine miss, writes only by non-owners), mirroring what the
        // hierarchy guarantees, and check invariants throughout.
        let mut d = Directory::new();
        let mut held: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 4];
        for i in 0..200u64 {
            let line = i % 10;
            let cpu = (i % 4) as usize;
            match d.entry(line) {
                DirEntry::Owned(o) if o as usize == cpu => {
                    // Silent E/M behaviour: nothing reaches the directory.
                }
                DirEntry::Shared(mask) if mask & (1 << cpu) != 0 => {
                    // Sharer: either upgrade-write or do nothing.
                    if i % 3 == 0 {
                        let out = d.write(line, cpu as u16);
                        for (v, h) in held.iter_mut().enumerate() {
                            if out.invalidate & (1 << v) != 0 {
                                h.remove(&line);
                            }
                        }
                    }
                }
                _ => {
                    if i % 3 == 0 {
                        let out = d.write(line, cpu as u16);
                        for (v, h) in held.iter_mut().enumerate() {
                            if out.invalidate & (1 << v) != 0 {
                                h.remove(&line);
                            }
                        }
                    } else {
                        d.read(line, cpu as u16);
                    }
                    held[cpu].insert(line);
                }
            }
            d.check_invariants(4).unwrap();
        }
    }
}
