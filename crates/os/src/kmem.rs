//! The simulated kernel heap.
//!
//! Kernel data structures (buffer headers, buffer data, mbufs, inodes,
//! protocol control blocks, descriptor tables) are allocated simulated
//! addresses in the kernel region so that kernel code's memory behaviour
//! can be simulated. "If one process running in the kernel mode makes some
//! changes to the kernel memory … another process running in the kernel
//! mode should be able to see these changes" (§3.1) — every process's
//! kernel code and the daemon share this single heap, mirroring the
//! shared kernel address space.
//!
//! Determinism: every allocation must happen while the caller holds a
//! *simulated* kernel lock (the structure's subsystem lock or
//! [`crate::server::locks::KMEM`]), so allocation order — and therefore the
//! simulated addresses — is identical on every run.

use compass_mem::{SimAlloc, VAddr, KERNEL_BASE};
use parking_lot::Mutex;

/// Top of the usable kernel heap (leave a guard page below 4 GiB).
pub const KERNEL_HEAP_END: u32 = 0xFFFF_F000;
/// Start of the kernel heap. Static kernel data — lock words, per-process
/// descriptor-table areas — lives below this in the first megabyte.
pub const KERNEL_HEAP_BASE: u32 = KERNEL_BASE + 0x100_000;

/// The shared kernel heap.
pub struct KernelHeap {
    inner: Mutex<SimAlloc>,
}

impl Default for KernelHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelHeap {
    /// Creates the heap.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(SimAlloc::new(
                VAddr(KERNEL_HEAP_BASE),
                VAddr(KERNEL_HEAP_END),
            )),
        }
    }

    /// Allocates `size` bytes of simulated kernel memory.
    pub fn alloc(&self, size: u32) -> VAddr {
        self.inner
            .lock()
            .alloc(size)
            .expect("simulated kernel heap exhausted")
    }

    /// Allocates page-aligned kernel memory (buffer-cache data).
    pub fn alloc_pages(&self, size: u32) -> VAddr {
        self.inner
            .lock()
            .alloc_pages(size)
            .expect("simulated kernel heap exhausted")
    }

    /// Frees a block.
    pub fn free(&self, addr: VAddr, size: u32) {
        self.inner.lock().free(addr, size);
    }

    /// Live bytes (tests).
    pub fn live_bytes(&self) -> u64 {
        self.inner.lock().live_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_addresses_are_in_kernel_space() {
        let h = KernelHeap::new();
        let a = h.alloc(128);
        assert!(a.is_kernel());
        let b = h.alloc_pages(8192);
        assert!(b.is_kernel());
        assert_eq!(b.0 % compass_mem::PAGE_SIZE, 0);
    }

    #[test]
    fn free_recycles() {
        let h = KernelHeap::new();
        let a = h.alloc(256);
        h.free(a, 256);
        assert_eq!(h.alloc(256), a);
    }
}
