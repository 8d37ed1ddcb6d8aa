//! Simulated memory substrate for the COMPASS reproduction.
//!
//! COMPASS gives every simulated application process its own 32-bit virtual
//! address space (the paper calls out MINT's single shared 32-bit space as a
//! limitation it avoids). The backend owns one page table per process,
//! performs virtual-to-physical translation for every memory-reference
//! event, and keeps "a hash table of the home nodes of each of the pages
//! hashed by physical address" for NUMA placement (§3.3.1).
//!
//! This crate provides those building blocks:
//!
//! * [`addr`] — address types and the AIX-flavoured region layout;
//! * [`frame`] — per-node physical frame allocation;
//! * [`page_table`] — two-level per-process page tables;
//! * [`tlb`] — a small per-CPU TLB model;
//! * [`alloc`] — a malloc-style allocator for simulated process heaps (used
//!   by frontends so workload data structures get realistic addresses);
//! * [`shm`] — System-V-style shared segments (`shmget`/`shmat`/`shmdt`);
//! * [`placement`] — home-node placement policies (round-robin, block,
//!   first-touch) and the page-home map.

pub mod addr;
pub mod alloc;
pub mod frame;
pub mod page_table;
pub mod placement;
pub mod shm;
pub mod tlb;

pub use addr::{PAddr, Region, VAddr, KERNEL_BASE, PAGE_SHIFT, PAGE_SIZE};
pub use alloc::SimAlloc;
pub use frame::FrameAllocator;
pub use page_table::{PageFlags, PageTable, TranslateError};
pub use placement::{HomeMap, PlacementPolicy};
pub use shm::{ShmError, ShmRegistry, ShmSegment};
pub use tlb::{Tlb, TlbSlot, TlbStats};
