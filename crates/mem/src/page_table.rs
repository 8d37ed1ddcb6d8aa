//! Two-level per-process page tables.
//!
//! "Each process has its own page table model, with page table entries for
//! each shared page. … When an address is passed to the simulator backend,
//! it performs the virtual to physical address translation by checking the
//! process' page table for the appropriate address." (§3.3.1)
//!
//! A 32-bit space with 4 KiB pages has a 20-bit virtual page number, split
//! 10/10 into a directory of leaf tables, so sparse address spaces stay
//! cheap.

use crate::addr::{kernel_vtop, PAddr, VAddr};
use serde::{Deserialize, Serialize};

const L1_BITS: u32 = 10;
const L2_BITS: u32 = 10;
const L2_ENTRIES: usize = 1 << L2_BITS;

/// Per-page protection / bookkeeping flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageFlags {
    /// Page may be written.
    pub writable: bool,
    /// Page belongs to a shared segment (shm attach or mmap MAP_SHARED).
    pub shared: bool,
    /// Software-DSM protection: writes trap for coherence (used by the
    /// software-DSM memory-system model).
    pub dsm_write_protected: bool,
}

impl PageFlags {
    /// Ordinary private read-write page.
    pub const RW: PageFlags = PageFlags {
        writable: true,
        shared: false,
        dsm_write_protected: false,
    };

    /// Shared read-write page.
    pub const SHARED_RW: PageFlags = PageFlags {
        writable: true,
        shared: true,
        dsm_write_protected: false,
    };
}

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pte {
    /// Physical frame number.
    pub ppn: u64,
    /// Protection and bookkeeping.
    pub flags: PageFlags,
}

/// Translation failure reasons; the backend turns these into page-fault
/// traps (§3.2 notes the scheme "can accurately simulate traps (such as
/// page faults) caused by memory reference instructions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TranslateError {
    /// No mapping exists for the page (demand-zero fault or wild access).
    NotMapped,
    /// A store hit a read-only page.
    WriteProtected,
    /// A store hit a software-DSM write-protected page.
    DsmWriteFault,
}

/// A two-level page table for one simulated process.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    dir: Vec<Option<Box<[Option<Pte>; L2_ENTRIES]>>>,
    mapped_pages: u64,
    /// Bumped by every call that may change an entry (`map`, `unmap`,
    /// `lookup_mut`), so a memoised translation can tell it is stale.
    generation: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        let mut dir = Vec::new();
        dir.resize_with(1 << L1_BITS, || None);
        Self {
            dir,
            mapped_pages: 0,
            generation: 0,
        }
    }

    #[inline]
    fn split(vpn: u32) -> (usize, usize) {
        (
            (vpn >> L2_BITS) as usize,
            (vpn & ((1 << L2_BITS) - 1)) as usize,
        )
    }

    /// Installs a mapping for the page containing `va`.
    ///
    /// Returns the previous entry if one existed (remap).
    pub fn map(&mut self, va: VAddr, ppn: u64, flags: PageFlags) -> Option<Pte> {
        self.generation += 1;
        let (i1, i2) = Self::split(va.vpn());
        let leaf = self.dir[i1].get_or_insert_with(|| Box::new([None; L2_ENTRIES]));
        let old = leaf[i2].replace(Pte { ppn, flags });
        if old.is_none() {
            self.mapped_pages += 1;
        }
        old
    }

    /// Removes the mapping for the page containing `va`.
    pub fn unmap(&mut self, va: VAddr) -> Option<Pte> {
        self.generation += 1;
        let (i1, i2) = Self::split(va.vpn());
        let old = self.dir[i1].as_mut().and_then(|leaf| leaf[i2].take());
        if old.is_some() {
            self.mapped_pages -= 1;
        }
        old
    }

    /// Looks up the entry for the page containing `va`.
    #[inline]
    pub fn lookup(&self, va: VAddr) -> Option<&Pte> {
        let (i1, i2) = Self::split(va.vpn());
        self.dir[i1].as_ref().and_then(|leaf| leaf[i2].as_ref())
    }

    /// Mutable entry lookup (used to flip DSM protection bits).
    #[inline]
    pub fn lookup_mut(&mut self, va: VAddr) -> Option<&mut Pte> {
        self.generation += 1;
        let (i1, i2) = Self::split(va.vpn());
        self.dir[i1].as_mut().and_then(|leaf| leaf[i2].as_mut())
    }

    /// Translates `va` for an access of the given kind.
    ///
    /// Kernel addresses are identity-mapped and always succeed: the kernel
    /// runs with translation effectively off (V=R), as on AIX.
    pub fn translate(&self, va: VAddr, is_write: bool) -> Result<PAddr, TranslateError> {
        if va.is_kernel() {
            return Ok(kernel_vtop(va));
        }
        let pte = self.lookup(va).ok_or(TranslateError::NotMapped)?;
        if is_write {
            if !pte.flags.writable {
                return Err(TranslateError::WriteProtected);
            }
            if pte.flags.dsm_write_protected {
                return Err(TranslateError::DsmWriteFault);
            }
        }
        Ok(PAddr::from_parts(pte.ppn, va.page_offset()))
    }

    /// The change counter: it moves on every `map`, `unmap` and
    /// `lookup_mut`, so an unchanged value means every entry is as it was.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of mapped (user) pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Iterates over all mapped pages as `(vpn, pte)` pairs (invariant
    /// checks and diagnostics; kernel identity mappings are not stored and
    /// therefore not yielded).
    pub fn iter(&self) -> impl Iterator<Item = (u32, Pte)> + '_ {
        self.dir.iter().enumerate().flat_map(|(i1, leaf)| {
            leaf.iter().flat_map(move |l| {
                l.iter().enumerate().filter_map(move |(i2, e)| {
                    e.map(|pte| ((((i1 << L2_BITS as usize) | i2) as u32), pte))
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{KERNEL_BASE, PAGE_SIZE};

    #[test]
    fn map_translate_roundtrip() {
        let mut pt = PageTable::new();
        let va = VAddr(0x1000_2000);
        pt.map(va, 42, PageFlags::RW);
        let pa = pt.translate(va + 0x123, false).unwrap();
        assert_eq!(pa, PAddr::from_parts(42, 0x123));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn unmapped_page_faults() {
        let pt = PageTable::new();
        assert_eq!(
            pt.translate(VAddr(0x1000_0000), false),
            Err(TranslateError::NotMapped)
        );
    }

    #[test]
    fn write_to_read_only_page_faults() {
        let mut pt = PageTable::new();
        let va = VAddr(0x2000_0000);
        pt.map(
            va,
            7,
            PageFlags {
                writable: false,
                shared: false,
                dsm_write_protected: false,
            },
        );
        assert!(pt.translate(va, false).is_ok());
        assert_eq!(pt.translate(va, true), Err(TranslateError::WriteProtected));
    }

    #[test]
    fn dsm_write_protection_traps_writes_only() {
        let mut pt = PageTable::new();
        let va = VAddr(0x7000_0000);
        pt.map(
            va,
            9,
            PageFlags {
                writable: true,
                shared: true,
                dsm_write_protected: true,
            },
        );
        assert!(pt.translate(va, false).is_ok());
        assert_eq!(pt.translate(va, true), Err(TranslateError::DsmWriteFault));
        pt.lookup_mut(va).unwrap().flags.dsm_write_protected = false;
        assert!(pt.translate(va, true).is_ok());
    }

    #[test]
    fn kernel_addresses_bypass_the_table() {
        let pt = PageTable::new();
        let pa = pt.translate(VAddr(KERNEL_BASE + 0x100), true).unwrap();
        assert_eq!(pa.page_offset(), 0x100);
    }

    #[test]
    fn remap_returns_old_entry_and_keeps_count() {
        let mut pt = PageTable::new();
        let va = VAddr(0x1000_0000);
        assert!(pt.map(va, 1, PageFlags::RW).is_none());
        let old = pt.map(va, 2, PageFlags::RW).unwrap();
        assert_eq!(old.ppn, 1);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn unmap_removes_mapping() {
        let mut pt = PageTable::new();
        let va = VAddr(0x1000_0000);
        pt.map(va, 1, PageFlags::RW);
        assert_eq!(pt.unmap(va).unwrap().ppn, 1);
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.translate(va, false), Err(TranslateError::NotMapped));
        assert!(pt.unmap(va).is_none());
    }

    #[test]
    fn every_mutating_call_moves_the_generation() {
        let mut pt = PageTable::new();
        let va = VAddr(0x1000_0000);
        let g0 = pt.generation();
        pt.map(va, 1, PageFlags::RW);
        let g1 = pt.generation();
        assert!(g1 > g0);
        let _ = pt.translate(va, true);
        let _ = pt.lookup(va);
        assert_eq!(pt.generation(), g1, "reads leave it alone");
        let _ = pt.lookup_mut(va);
        let g2 = pt.generation();
        assert!(g2 > g1);
        pt.unmap(va);
        assert!(pt.generation() > g2);
    }

    #[test]
    fn adjacent_pages_are_independent() {
        let mut pt = PageTable::new();
        let a = VAddr(0x1000_0000);
        let b = VAddr(0x1000_0000 + PAGE_SIZE);
        pt.map(a, 10, PageFlags::RW);
        pt.map(b, 11, PageFlags::RW);
        assert_eq!(pt.translate(a, false).unwrap().ppn(), 10);
        assert_eq!(pt.translate(b, false).unwrap().ppn(), 11);
    }
}
