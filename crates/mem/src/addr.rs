//! Simulated address types and the 32-bit process address-space layout.
//!
//! The layout follows the AIX convention the paper assumes: user text, a
//! large heap, a shared-memory attach window, a downward-growing stack, and
//! a high kernel region that is identity-mapped ("V=R") into a reserved
//! physical range so kernel data structures have stable physical homes.

use std::fmt;
use std::ops::{Add, Sub};

/// Page size of the simulated machine (4 KiB, as on PowerPC AIX).
pub const PAGE_SIZE: u32 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Base of the user text region.
pub const TEXT_BASE: u32 = 0x0001_0000;
/// Base of the user heap (data) region.
pub const HEAP_BASE: u32 = 0x1000_0000;
/// End (exclusive) of the user heap region.
pub const HEAP_END: u32 = 0x7000_0000;
/// Base of the shared-memory attach window.
pub const SHM_BASE: u32 = 0x7000_0000;
/// End (exclusive) of the shared-memory attach window.
pub const SHM_END: u32 = 0xA000_0000;
/// Top of the user stack (stacks grow down from here).
pub const STACK_TOP: u32 = 0xBFFF_F000;
/// Lowest address the stack may grow down to.
pub const STACK_LIMIT: u32 = 0xA000_0000;
/// Base of the simulated kernel address space.
pub const KERNEL_BASE: u32 = 0xC000_0000;

/// Physical page number from which the kernel's identity-mapped frames are
/// carved. Chosen far above any user frame so the two can never collide.
pub const KERNEL_PPN_BASE: u64 = 1 << 40;

/// A simulated 32-bit virtual address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u32);

/// A simulated physical address. Physical memory spans all NUMA nodes so it
/// is wider than a single process's 32-bit virtual space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub u64);

impl VAddr {
    /// Virtual page number.
    #[inline]
    pub fn vpn(self) -> u32 {
        self.0 >> PAGE_SHIFT
    }

    /// Offset within the page.
    #[inline]
    pub fn page_offset(self) -> u32 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// First address of the containing page.
    #[inline]
    pub fn page_base(self) -> VAddr {
        VAddr(self.0 & !(PAGE_SIZE - 1))
    }

    /// Rounds up to the next page boundary (saturating at the top of the
    /// address space).
    #[inline]
    pub fn page_align_up(self) -> VAddr {
        VAddr(
            self.0
                .checked_add(PAGE_SIZE - 1)
                .map(|v| v & !(PAGE_SIZE - 1))
                .unwrap_or(!(PAGE_SIZE - 1)),
        )
    }

    /// The architectural region this address belongs to.
    pub fn region(self) -> Region {
        match self.0 {
            a if a >= KERNEL_BASE => Region::Kernel,
            a if a >= STACK_LIMIT => Region::Stack,
            a if a >= SHM_BASE => Region::Shm,
            a if a >= HEAP_BASE => Region::Heap,
            a if a >= TEXT_BASE => Region::Text,
            _ => Region::Unmapped,
        }
    }

    /// True if the address lies in the simulated kernel space.
    #[inline]
    pub fn is_kernel(self) -> bool {
        self.0 >= KERNEL_BASE
    }

    /// Overflow-checked offset add (`Add<u32>` wraps, which is fine for
    /// instrumented address arithmetic but not for page-table walks near
    /// the top of the 32-bit space).
    #[inline]
    pub fn checked_add(self, off: u32) -> Option<VAddr> {
        self.0.checked_add(off).map(VAddr)
    }

    /// Overflow-checked address of page `idx` of a region based at `self`.
    #[inline]
    pub fn checked_page(self, idx: u32) -> Option<VAddr> {
        idx.checked_mul(PAGE_SIZE)
            .and_then(|off| self.checked_add(off))
    }
}

impl PAddr {
    /// Physical page (frame) number.
    #[inline]
    pub fn ppn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Offset within the frame.
    #[inline]
    pub fn page_offset(self) -> u32 {
        (self.0 & (PAGE_SIZE as u64 - 1)) as u32
    }

    /// Builds a physical address from a frame number and an in-page offset.
    #[inline]
    pub fn from_parts(ppn: u64, offset: u32) -> PAddr {
        debug_assert!(offset < PAGE_SIZE);
        PAddr((ppn << PAGE_SHIFT) | offset as u64)
    }

    /// Cache-line address (line base) for a given line size (power of two).
    #[inline]
    pub fn line(self, line_size: u32) -> u64 {
        debug_assert!(line_size.is_power_of_two());
        self.0 & !(line_size as u64 - 1)
    }
}

impl Add<u32> for VAddr {
    type Output = VAddr;
    #[inline]
    fn add(self, rhs: u32) -> VAddr {
        VAddr(self.0.wrapping_add(rhs))
    }
}

impl Sub<u32> for VAddr {
    type Output = VAddr;
    #[inline]
    fn sub(self, rhs: u32) -> VAddr {
        VAddr(self.0.wrapping_sub(rhs))
    }
}

impl Add<u64> for PAddr {
    type Output = PAddr;
    #[inline]
    fn add(self, rhs: u64) -> PAddr {
        PAddr(self.0.wrapping_add(rhs))
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{:#010x}", self.0)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::Debug for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#012x}", self.0)
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

/// Architectural regions of the simulated 32-bit address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Below the text base; never mapped (null-pointer guard).
    Unmapped,
    /// Instrumented program text.
    Text,
    /// Process-private heap and static data.
    Heap,
    /// System-V shared-memory attach window.
    Shm,
    /// Process stack.
    Stack,
    /// Simulated kernel space (identity-mapped).
    Kernel,
}

/// Translates a kernel virtual address to its identity-mapped physical
/// address. Kernel space is "V=R" as on AIX: `paddr = KERNEL_PPN_BASE
/// frames + offset from KERNEL_BASE`.
#[inline]
pub fn kernel_vtop(va: VAddr) -> PAddr {
    debug_assert!(va.is_kernel(), "kernel_vtop on user address {va}");
    let offset = (va.0 - KERNEL_BASE) as u64;
    PAddr((KERNEL_PPN_BASE << PAGE_SHIFT) + offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_the_space() {
        assert_eq!(VAddr(0x0).region(), Region::Unmapped);
        assert_eq!(VAddr(TEXT_BASE).region(), Region::Text);
        assert_eq!(VAddr(HEAP_BASE).region(), Region::Heap);
        assert_eq!(VAddr(HEAP_END - 1).region(), Region::Heap);
        assert_eq!(VAddr(SHM_BASE).region(), Region::Shm);
        assert_eq!(VAddr(STACK_TOP).region(), Region::Stack);
        assert_eq!(VAddr(KERNEL_BASE).region(), Region::Kernel);
        assert_eq!(VAddr(u32::MAX).region(), Region::Kernel);
    }

    #[test]
    fn page_arithmetic() {
        let a = VAddr(0x1000_1234);
        assert_eq!(a.vpn(), 0x10001);
        assert_eq!(a.page_offset(), 0x234);
        assert_eq!(a.page_base(), VAddr(0x1000_1000));
        assert_eq!(a.page_align_up(), VAddr(0x1000_2000));
        assert_eq!(VAddr(0x1000_1000).page_align_up(), VAddr(0x1000_1000));
    }

    #[test]
    fn page_align_up_saturates_at_top() {
        let a = VAddr(u32::MAX - 5);
        assert_eq!(a.page_align_up().0 % PAGE_SIZE, 0);
    }

    #[test]
    fn paddr_parts_roundtrip() {
        let p = PAddr::from_parts(0x1234, 0x56);
        assert_eq!(p.ppn(), 0x1234);
        assert_eq!(p.page_offset(), 0x56);
    }

    #[test]
    fn cache_line_masks_low_bits() {
        let p = PAddr(0x1000_007f);
        assert_eq!(p.line(64), 0x1000_0040);
        assert_eq!(p.line(128), 0x1000_0000);
    }

    #[test]
    fn kernel_identity_map_is_monotonic_and_disjoint_from_user() {
        let k0 = kernel_vtop(VAddr(KERNEL_BASE));
        let k1 = kernel_vtop(VAddr(KERNEL_BASE + PAGE_SIZE));
        assert_eq!(k1.ppn(), k0.ppn() + 1);
        assert!(k0.ppn() >= KERNEL_PPN_BASE);
    }
}
