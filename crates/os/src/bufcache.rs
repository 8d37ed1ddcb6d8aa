//! The disk buffer cache.
//!
//! Fixed pool of page-sized buffers indexed by `(inode, file block)`.
//! Buffers are pure *timing state*: functional file content lives only in
//! the filesystem inodes, so there is a single source of truth. Each
//! buffer owns simulated kernel addresses for its header and data page so
//! kernel code walking the cache generates a realistic reference stream
//! (hash probes touch the header; copies touch the data page).
//!
//! Functional methods here do no event posting: callers (syscall and
//! interrupt-handler code) hold the simulated `BUF` lock and issue the
//! touches through their `KernelCtx`, keeping policy and instrumentation
//! in one readable place.

use crate::kmem::KernelHeap;
use compass_mem::VAddr;
use std::collections::HashMap;

/// Buffer (and file-block) size in bytes.
pub const BUF_SIZE: u32 = 4096;
/// 512-byte disk blocks per buffer.
pub const DISK_BLOCKS_PER_BUF: u32 = BUF_SIZE / 512;

/// Index of a buffer in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub usize);

/// One cache buffer.
#[derive(Debug)]
pub struct Buffer {
    /// Simulated address of the buffer header (hash chains, flags).
    pub hdr_addr: VAddr,
    /// Simulated address of the data page.
    pub data_addr: VAddr,
    /// The `(inode, file-block)` this buffer caches, if any.
    pub tag: Option<(u64, u64)>,
    /// Content matches the tag (I/O finished).
    pub valid: bool,
    /// Content newer than disk.
    pub dirty: bool,
    /// A disk transfer is in flight.
    pub io_pending: bool,
    lru: u64,
}

/// Cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufStats {
    /// Lookups that found a valid or in-flight buffer.
    pub hits: u64,
    /// Lookups that had to claim a buffer.
    pub misses: u64,
    /// Dirty victims written back at replacement.
    pub writebacks: u64,
}

/// Information about a replaced dirty victim the caller must write back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// The victim's identity.
    pub tag: (u64, u64),
}

/// The buffer cache.
pub struct BufCache {
    bufs: Vec<Buffer>,
    map: HashMap<(u64, u64), BufId>,
    tick: u64,
    stats: BufStats,
}

impl BufCache {
    /// Builds a cache of `n` buffers, allocating their simulated header
    /// and data addresses from the kernel heap.
    pub fn new(n: usize, heap: &KernelHeap) -> Self {
        assert!(n > 0);
        let bufs = (0..n)
            .map(|_| Buffer {
                hdr_addr: heap.alloc(64),
                data_addr: heap.alloc_pages(BUF_SIZE),
                tag: None,
                valid: false,
                dirty: false,
                io_pending: false,
                lru: 0,
            })
            .collect();
        Self {
            bufs,
            map: HashMap::new(),
            tick: 0,
            stats: BufStats::default(),
        }
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Always at least one buffer.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Looks up `(inode, blk)`; refreshes LRU on hit.
    pub fn lookup(&mut self, inode: u64, blk: u64) -> Option<BufId> {
        self.tick += 1;
        match self.map.get(&(inode, blk)) {
            Some(&id) => {
                self.bufs[id.0].lru = self.tick;
                self.stats.hits += 1;
                Some(id)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Claims a buffer for `(inode, blk)` after a failed lookup: evicts
    /// the LRU buffer without pending I/O. Returns the buffer and the
    /// dirty victim the caller must write back, if any.
    ///
    /// Panics if every buffer has I/O pending (the cache is undersized for
    /// the workload — surfacing that loudly beats silent corruption).
    pub fn claim(&mut self, inode: u64, blk: u64) -> (BufId, Option<Writeback>) {
        self.tick += 1;
        let victim = self
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.io_pending)
            .min_by_key(|(_, b)| b.lru)
            .map(|(i, _)| BufId(i))
            .expect("buffer cache wedged: all buffers have I/O pending");
        let b = &mut self.bufs[victim.0];
        let mut wb = None;
        if let Some(old) = b.tag.take() {
            self.map.remove(&old);
            if b.dirty {
                self.stats.writebacks += 1;
                wb = Some(Writeback { tag: old });
            }
        }
        b.tag = Some((inode, blk));
        b.valid = false;
        b.dirty = false;
        b.io_pending = false;
        b.lru = self.tick;
        self.map.insert((inode, blk), victim);
        (victim, wb)
    }

    /// Borrows a buffer.
    pub fn buf(&self, id: BufId) -> &Buffer {
        &self.bufs[id.0]
    }

    /// Mutably borrows a buffer.
    pub fn buf_mut(&mut self, id: BufId) -> &mut Buffer {
        &mut self.bufs[id.0]
    }

    /// Buffer currently caching `(inode, blk)` regardless of LRU/stats
    /// (used by wakeups and fsync scans).
    pub fn peek(&self, inode: u64, blk: u64) -> Option<BufId> {
        self.map.get(&(inode, blk)).copied()
    }

    /// All dirty, valid buffers of an inode (fsync/msync scan order is
    /// block order for determinism).
    pub fn dirty_of(&self, inode: u64) -> Vec<BufId> {
        let mut v: Vec<(u64, BufId)> = self
            .map
            .iter()
            .filter(|(&(ino, _), &id)| {
                ino == inode && self.bufs[id.0].dirty && self.bufs[id.0].valid
            })
            .map(|(&(_, blk), &id)| (blk, id))
            .collect();
        v.sort_unstable_by_key(|&(blk, _)| blk);
        v.into_iter().map(|(_, id)| id).collect()
    }

    /// Counters.
    pub fn stats(&self) -> BufStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(n: usize) -> (BufCache, KernelHeap) {
        let heap = KernelHeap::new();
        let c = BufCache::new(n, &heap);
        (c, heap)
    }

    #[test]
    fn lookup_miss_claim_hit() {
        let (mut c, _h) = cache(4);
        assert_eq!(c.lookup(1, 0), None);
        let (id, wb) = c.claim(1, 0);
        assert!(wb.is_none());
        c.buf_mut(id).valid = true;
        assert_eq!(c.lookup(1, 0), Some(id));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn claim_evicts_lru_and_reports_dirty_victim() {
        let (mut c, _h) = cache(2);
        let (a, _) = c.claim(1, 0);
        c.buf_mut(a).valid = true;
        c.buf_mut(a).dirty = true;
        let (b, _) = c.claim(1, 1);
        c.buf_mut(b).valid = true;
        // Refresh a so b is LRU.
        c.lookup(1, 0);
        let (v, wb) = c.claim(1, 2);
        assert_eq!(v, b, "clean LRU buffer must be the victim");
        assert!(wb.is_none());
        // Now a is LRU and dirty.
        let (_, wb2) = c.claim(1, 3);
        assert_eq!(wb2, Some(Writeback { tag: (1, 0) }));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn io_pending_buffers_are_not_victims() {
        let (mut c, _h) = cache(2);
        let (a, _) = c.claim(1, 0);
        c.buf_mut(a).io_pending = true;
        let (b, _) = c.claim(1, 1);
        assert_ne!(a, b);
        // Claiming again must evict b (a is pinned).
        let (v, _) = c.claim(1, 2);
        assert_eq!(v, b);
    }

    #[test]
    fn dirty_of_lists_in_block_order() {
        let (mut c, _h) = cache(4);
        for blk in [3u64, 1, 2] {
            let (id, _) = c.claim(7, blk);
            c.buf_mut(id).valid = true;
            c.buf_mut(id).dirty = true;
        }
        let (clean, _) = c.claim(7, 9);
        c.buf_mut(clean).valid = true;
        let order: Vec<u64> = c
            .dirty_of(7)
            .into_iter()
            .map(|id| c.buf(id).tag.unwrap().1)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn eviction_under_pressure_cycles_a_single_buffer() {
        // The degenerate one-buffer cache: every new block evicts the
        // previous one, dirty victims always surface for writeback, and
        // the map never aliases two tags to the same buffer.
        let (mut c, _h) = cache(1);
        for blk in 0..4u64 {
            assert_eq!(c.lookup(9, blk), None);
            let (id, wb) = c.claim(9, blk);
            assert_eq!(id, BufId(0));
            if blk == 0 {
                assert!(wb.is_none());
            } else {
                assert_eq!(wb, Some(Writeback { tag: (9, blk - 1) }));
                assert_eq!(c.peek(9, blk - 1), None, "victim left in the map");
            }
            assert!(!c.buf(id).valid, "claimed buffer must need fresh I/O");
            c.buf_mut(id).valid = true;
            c.buf_mut(id).dirty = true;
        }
        assert_eq!(c.stats().writebacks, 3);
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn reclaimed_block_needs_fresh_io() {
        let (mut c, _h) = cache(1);
        let (a, _) = c.claim(1, 0);
        c.buf_mut(a).valid = true;
        c.claim(1, 1); // evicts (1, 0)
        assert_eq!(c.lookup(1, 0), None, "evicted block must miss");
        let (b, _) = c.claim(1, 0);
        assert!(!c.buf(b).valid, "stale content must not survive eviction");
    }

    #[test]
    #[should_panic(expected = "buffer cache wedged")]
    fn all_buffers_pinned_panics_loudly() {
        let (mut c, _h) = cache(2);
        for blk in 0..2u64 {
            let (id, _) = c.claim(1, blk);
            c.buf_mut(id).io_pending = true;
        }
        c.claim(1, 2);
    }

    #[test]
    fn simulated_addresses_are_kernel_and_distinct() {
        let (c, _h) = cache(3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..3 {
            let b = c.buf(BufId(i));
            assert!(b.hdr_addr.is_kernel());
            assert!(b.data_addr.is_kernel());
            assert!(seen.insert(b.hdr_addr));
            assert!(seen.insert(b.data_addr));
        }
    }
}
