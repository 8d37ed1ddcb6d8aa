//! A malloc-style allocator over a simulated address region.
//!
//! Frontend workloads are real Rust code, but the *addresses* they touch
//! must come from their simulated 32-bit address space so the backend's
//! page tables, caches and NUMA placement see realistic reference streams.
//! `SimAlloc` hands out simulated addresses the way a libc malloc would:
//! size-class free lists for small blocks, page-aligned carving for large
//! ones. The same allocator also serves the OS server's simulated kernel
//! heap (kmem), so kernel structures (mbufs, buffer headers, PCBs) get
//! stable kernel-space addresses.

use crate::addr::VAddr;

/// Alignment guaranteed for every allocation.
pub const MIN_ALIGN: u32 = 16;

/// Size classes for the small-block free lists (bytes).
const SIZE_CLASSES: [u32; 10] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// A simple region allocator producing simulated virtual addresses.
#[derive(Debug, Clone)]
pub struct SimAlloc {
    base: u32,
    end: u32,
    brk: u32,
    free_lists: Vec<Vec<u32>>,
    /// Bytes currently live (for stats / leak checks in tests).
    live_bytes: u64,
    /// Total allocation calls served.
    allocs: u64,
}

/// Error returned when the region is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSimMemory;

impl std::fmt::Display for OutOfSimMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulated region exhausted")
    }
}

impl std::error::Error for OutOfSimMemory {}

impl SimAlloc {
    /// Creates an allocator over `[base, end)`. `base` must be aligned.
    pub fn new(base: VAddr, end: VAddr) -> Self {
        assert!(base.0.is_multiple_of(MIN_ALIGN), "unaligned region base");
        assert!(base.0 < end.0, "empty region");
        Self {
            base: base.0,
            end: end.0,
            brk: base.0,
            free_lists: vec![Vec::new(); SIZE_CLASSES.len()],
            live_bytes: 0,
            allocs: 0,
        }
    }

    fn class_of(size: u32) -> Option<usize> {
        SIZE_CLASSES.iter().position(|&c| size <= c)
    }

    /// Rounds `size` up to its allocation granule.
    fn granule(size: u32) -> u32 {
        match Self::class_of(size) {
            Some(c) => SIZE_CLASSES[c],
            // Large blocks: 16-byte aligned exact size.
            None => (size + MIN_ALIGN - 1) & !(MIN_ALIGN - 1),
        }
    }

    /// Allocates `size` bytes; returns the simulated address.
    pub fn alloc(&mut self, size: u32) -> Result<VAddr, OutOfSimMemory> {
        assert!(size > 0, "zero-size simulated allocation");
        self.allocs += 1;
        let granule = Self::granule(size);
        if let Some(class) = Self::class_of(size) {
            if let Some(addr) = self.free_lists[class].pop() {
                self.live_bytes += granule as u64;
                return Ok(VAddr(addr));
            }
        }
        let addr = self.brk;
        let new_brk = addr.checked_add(granule).ok_or(OutOfSimMemory)?;
        if new_brk > self.end {
            return Err(OutOfSimMemory);
        }
        self.brk = new_brk;
        self.live_bytes += granule as u64;
        Ok(VAddr(addr))
    }

    /// Frees a block previously returned by [`SimAlloc::alloc`] with the
    /// same `size`. Large blocks are leaked (matching the coarse behaviour
    /// of a one-shot simulation run); small blocks are recycled.
    pub fn free(&mut self, addr: VAddr, size: u32) {
        let granule = Self::granule(size);
        self.live_bytes = self.live_bytes.saturating_sub(granule as u64);
        if let Some(class) = Self::class_of(size) {
            debug_assert!(
                addr.0 >= self.base && addr.0 < self.brk,
                "free of foreign address {addr}"
            );
            self.free_lists[class].push(addr.0);
        }
    }

    /// Allocates a page-aligned block of `size` bytes (for page-granular
    /// structures such as database buffer pools).
    pub fn alloc_pages(&mut self, size: u32) -> Result<VAddr, OutOfSimMemory> {
        use crate::addr::PAGE_SIZE;
        let aligned_brk = (self.brk + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        let bytes = (size + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        let new_brk = aligned_brk.checked_add(bytes).ok_or(OutOfSimMemory)?;
        if new_brk > self.end {
            return Err(OutOfSimMemory);
        }
        self.brk = new_brk;
        self.live_bytes += bytes as u64;
        self.allocs += 1;
        Ok(VAddr(aligned_brk))
    }

    /// Highest address handed out so far (exclusive).
    pub fn high_water(&self) -> VAddr {
        VAddr(self.brk)
    }

    /// Bytes currently live.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Total allocations served.
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HEAP_BASE, HEAP_END, PAGE_SIZE};

    fn heap() -> SimAlloc {
        SimAlloc::new(VAddr(HEAP_BASE), VAddr(HEAP_END))
    }

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut a = heap();
        let x = a.alloc(24).unwrap();
        let y = a.alloc(24).unwrap();
        assert_ne!(x, y);
        assert_eq!(x.0 % MIN_ALIGN, 0);
        assert_eq!(y.0 % MIN_ALIGN, 0);
        // 24 bytes lands in the 32-byte class.
        assert!(y.0 - x.0 >= 24);
    }

    #[test]
    fn free_recycles_small_blocks() {
        let mut a = heap();
        let x = a.alloc(100).unwrap();
        a.free(x, 100);
        let y = a.alloc(100).unwrap();
        assert_eq!(x, y, "freed block should be recycled");
    }

    #[test]
    fn live_bytes_tracks_alloc_free() {
        let mut a = heap();
        let x = a.alloc(64).unwrap();
        assert_eq!(a.live_bytes(), 64);
        a.free(x, 64);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn alloc_pages_is_page_aligned() {
        let mut a = heap();
        let _ = a.alloc(8).unwrap();
        let p = a.alloc_pages(3 * PAGE_SIZE + 1).unwrap();
        assert_eq!(p.0 % PAGE_SIZE, 0);
        let q = a.alloc_pages(PAGE_SIZE).unwrap();
        assert!(q.0 >= p.0 + 4 * PAGE_SIZE);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut a = SimAlloc::new(VAddr(HEAP_BASE), VAddr(HEAP_BASE + 64));
        assert!(a.alloc(64).is_ok());
        assert_eq!(a.alloc(64), Err(OutOfSimMemory));
    }

    #[test]
    fn large_blocks_use_exact_granules() {
        let mut a = heap();
        let x = a.alloc(100_000).unwrap();
        let y = a.alloc(16).unwrap();
        assert!(y.0 - x.0 >= 100_000);
        assert!(y.0 - x.0 < 100_000 + 2 * MIN_ALIGN);
    }
}
