//! Virtual-memory management in the backend (category 2, §3.3.1).
//!
//! Per-process page tables, demand paging, shared-segment attach, the
//! page-home hash table with round-robin / block / first-touch placement,
//! per-CPU TLBs, and — for the software-DSM memory system — page-level
//! coherence driven by the translations themselves. The engine's side —
//! charging one reference's translation and hierarchy access — is the
//! `impl Backend` block at the end of this file.
//!
//! # The reference memo
//!
//! Most references repeat the same CPU's previous page, and many its
//! previous L1 line: on the `sci` benchmark 99.8 % of all references are
//! served from the memo below, and 83 % of all references by an L1 rehit
//! as well. Each CPU therefore keeps its last full translation: process,
//! page, that process's page-table generation, whether the translating
//! reference was a write, frame and home node. A reference is
//! served from the memo ([`Vm::translate_memo`]) when it names the same
//! process and page, the page table's generation has not moved (every
//! `map`, `unmap` and `lookup_mut` moves it), it is not a write through a
//! memo a read took, and the page's TLB entry still sits in the TLB's MRU
//! slot ([`Tlb::rehit`], which books the hit exactly as `Tlb::access`
//! would). Such a reference skips the page walk, the `HomeMap` probe, the
//! TLB set scan and the CPU-to-node lookup. Its hierarchy access then
//! tries [`compass_arch::Hierarchy::l1_rehit`], which serves a read, or a
//! write to a Modified line, whose line still sits in the L1's MRU slot,
//! booking exactly the L1 hit `Hierarchy::access` would; anything else
//! takes the full `access` with the memoised home.
//!
//! Both halves check themselves against the live structures on every use,
//! so no unmap, flush, invalidation or downgrade has to remember to reset
//! them: a TLB flush empties the slot, another CPU's invalidation empties
//! the L1 slot, a downgrade leaves a Shared line a write will not take.
//! Every simulated number is the same with or without them. The
//! software-DSM memory system bypasses the memo, because its page
//! residency (`dsm_access`) must see every reference; so does a machine
//! without TLBs, which has no MRU slot to check.

use crate::engine::Backend;
use compass_arch::{Access, AccessClass};
use compass_comm::ExecMode;
use compass_isa::{CpuId, Cycles, FoldHashMap, NodeId, ProcessId, SegId};
use compass_mem::{
    addr, FrameAllocator, HomeMap, PAddr, PageFlags, PageTable, PlacementPolicy, Region, ShmError,
    ShmRegistry, Tlb, TlbStats, VAddr, PAGE_SIZE,
};
use compass_obs::{Ctr, TraceKind};
use std::collections::HashMap;

/// Per-invalidation cost of a DSM write fault, in cycles.
const DSM_INVAL: Cycles = 500;

/// Page-level residency for the software-DSM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageRes {
    /// Read copies at the nodes in the mask.
    Shared(u64),
    /// One node holds the page writable.
    Excl(u16),
}

/// A software-DSM protocol action the engine must charge for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsmTransfer {
    /// Node the page moves from (current owner / any holder).
    pub from: usize,
    /// Node the page moves to.
    pub to: usize,
    /// Bytes moved (a page).
    pub bytes: u32,
    /// Number of remote invalidations performed (write faults).
    pub invalidations: u32,
}

/// A reference the VM cannot satisfy. These used to be `panic!`s that
/// tore the whole process down; they are now data so the engine can
/// return a structured [`crate::RunError::WildAccess`] with a per-process
/// dump and unwind every frontend through port poisoning (ISSUE 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmFault {
    /// The faulting process.
    pub pid: ProcessId,
    /// The faulting virtual address.
    pub va: VAddr,
    /// What went wrong.
    pub kind: VmFaultKind,
}

/// Why a reference could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmFaultKind {
    /// A shared-memory address with no segment mapped over it (touch
    /// after detach, or a stray pointer into the attach window).
    UnattachedShm,
    /// The address falls inside a segment the process never attached.
    NotAttached(SegId),
    /// The address lies in no mappable region at all.
    Wild(Region),
    /// The simulated machine ran out of physical frames while handling a
    /// demand fault.
    OutOfMemory,
}

impl std::fmt::Display for VmFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            VmFaultKind::UnattachedShm => {
                write!(f, "{} touched unattached shm address {}", self.pid, self.va)
            }
            VmFaultKind::NotAttached(seg) => write!(
                f,
                "{} touched segment {seg} at {} without attaching",
                self.pid, self.va
            ),
            VmFaultKind::Wild(region) => {
                write!(f, "{} wild access to {} ({region:?})", self.pid, self.va)
            }
            VmFaultKind::OutOfMemory => write!(
                f,
                "simulated memory exhausted demand-faulting {} for {}",
                self.va, self.pid
            ),
        }
    }
}

/// Outcome of translating one reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub paddr: PAddr,
    /// Home node of the page.
    pub home: usize,
    /// True if this reference TLB-missed.
    pub tlb_miss: bool,
    /// True if this reference took a soft (demand-zero / lazy-attach)
    /// fault.
    pub soft_fault: bool,
    /// Software-DSM transfer triggered, if any.
    pub dsm: Option<DsmTransfer>,
}

/// VM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Demand-zero / lazy-attach faults.
    pub soft_faults: u64,
    /// Pages mapped in total.
    pub pages_mapped: u64,
    /// DSM read transfers.
    pub dsm_read_faults: u64,
    /// DSM write faults (ownership moves).
    pub dsm_write_faults: u64,
}

/// One CPU's memoised translation (see "The reference memo" in the module
/// docs).
#[derive(Debug, Clone, Copy)]
struct Memo {
    pid: ProcessId,
    /// The page; [`NO_PAGE`] while the CPU has translated nothing.
    vpn: u32,
    /// `pid`'s page-table generation when the memo was taken.
    generation: u64,
    /// The memo was taken by a write (or a kernel address), so a write
    /// through it takes no fault.
    writable: bool,
    ppn: u64,
    home: usize,
}

/// A virtual page number no 32-bit address has.
const NO_PAGE: u32 = u32::MAX;

impl Memo {
    const EMPTY: Memo = Memo {
        pid: ProcessId(0),
        vpn: NO_PAGE,
        generation: 0,
        writable: false,
        ppn: 0,
        home: 0,
    };
}

/// The backend's VM manager.
pub struct Vm {
    tables: Vec<PageTable>,
    tlbs: Vec<Tlb>,
    frames: FrameAllocator,
    homes: HomeMap,
    shm: ShmRegistry,
    placement: PlacementPolicy,
    nodes: usize,
    dsm_enabled: bool,
    dsm_pages: FoldHashMap<u64, PageRes>,
    /// Per-CPU reference memos; empty (memo off) under software DSM or
    /// without TLBs.
    memo: Vec<Memo>,
    stats: VmStats,
}

impl Vm {
    /// Creates the VM manager for `nprocs` processes on `nodes` nodes with
    /// `ncpus` TLBs.
    #[allow(clippy::too_many_arguments)] // a constructor mirroring the config
    pub fn new(
        nprocs: usize,
        nodes: usize,
        ncpus: usize,
        mem_per_node: u64,
        placement: PlacementPolicy,
        tlb_entries: usize,
        tlb_assoc: usize,
        dsm_enabled: bool,
    ) -> Self {
        let tlbs = if tlb_entries > 0 {
            (0..ncpus)
                .map(|_| Tlb::new(tlb_entries, tlb_assoc))
                .collect()
        } else {
            Vec::new()
        };
        let memo = if dsm_enabled || tlbs.is_empty() {
            Vec::new()
        } else {
            vec![Memo::EMPTY; ncpus]
        };
        Self {
            tables: (0..nprocs).map(|_| PageTable::new()).collect(),
            tlbs,
            memo,
            frames: FrameAllocator::new(nodes, mem_per_node),
            homes: HomeMap::new(),
            shm: ShmRegistry::new(),
            placement,
            nodes,
            dsm_enabled,
            dsm_pages: FoldHashMap::default(),
            stats: VmStats::default(),
        }
    }

    /// `shmget`: create or find the segment; eager policies allocate and
    /// place every frame now. Frame exhaustion is reported as
    /// [`ShmError::OutOfMemory`] (the frontend stub surfaces it as an
    /// ENOMEM-style failure) — the per-node demand is checked *before*
    /// the descriptor is created, so a failed call leaves no half-placed
    /// segment behind.
    pub fn shmget(&mut self, key: u32, len: u32) -> Result<SegId, ShmError> {
        if let Some(id) = self.shm.lookup(key) {
            return Ok(id);
        }
        if self.placement.is_eager() {
            if len == 0 {
                return Err(ShmError::BadLength);
            }
            let rounded =
                len.checked_add(PAGE_SIZE - 1).ok_or(ShmError::BadLength)? & !(PAGE_SIZE - 1);
            let mut need = vec![0u64; self.nodes];
            for idx in 0..(rounded / PAGE_SIZE) as u64 {
                need[self.placement.eager_home(idx, self.nodes).index()] += 1;
            }
            for (node, n) in need.iter().enumerate() {
                if self.frames.free_frames(NodeId::from(node)) < *n {
                    return Err(ShmError::OutOfMemory);
                }
            }
        }
        let seg = self.shm.shmget(key, len)?;
        if self.placement.is_eager() {
            let pages = self.shm.segment(seg).expect("just created").pages() as u64;
            for idx in 0..pages {
                let home = self.placement.eager_home(idx, self.nodes);
                let ppn = self
                    .frames
                    .alloc_on(home)
                    .expect("per-node demand pre-checked");
                self.homes.place_eager(ppn, home);
                self.shm.segment_mut(seg).expect("just created").frames[idx as usize] = Some(ppn);
                self.stats.pages_mapped += 1;
            }
        }
        Ok(seg)
    }

    /// `shmat`: attach and install PTEs for already-materialised frames
    /// (eager placement); first-touch frames fault in lazily. Returns the
    /// common base address and the number of PTEs installed (the engine
    /// charges per-page setup cost).
    pub fn shmat(&mut self, seg: SegId, pid: ProcessId) -> Result<(VAddr, u32), ShmError> {
        let base = self.shm.shmat(seg, pid)?;
        let segment = self.shm.segment(seg).expect("attach succeeded");
        let frames: Vec<(u32, Option<u64>)> = segment
            .frames
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u32, *f))
            .collect();
        let mut installed = 0;
        for (idx, frame) in frames {
            if let Some(ppn) = frame {
                let va = base
                    .checked_page(idx)
                    .expect("shm window bounds the segment below the address-space top");
                self.tables[pid.index()].map(va, ppn, PageFlags::SHARED_RW);
                installed += 1;
            }
        }
        Ok((base, installed))
    }

    /// `shmdt`: detach and remove PTEs. Returns the number removed.
    pub fn shmdt(&mut self, seg: SegId, pid: ProcessId) -> Result<u32, ShmError> {
        let base = self.shm.shmdt(seg, pid)?;
        let pages = self.shm.segment(seg).expect("detach succeeded").pages();
        let mut removed = 0;
        for idx in 0..pages {
            let Some(va) = base.checked_page(idx) else {
                break;
            };
            if self.unmap_page(pid, va) {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Removes the mappings of an arbitrary region (munmap). `base`/`len`
    /// come straight from a control event, so a range running past the
    /// top of the 32-bit space is clipped rather than wrapped (a wrapped
    /// walk would silently unmap pages near address zero).
    pub fn unmap_region(&mut self, pid: ProcessId, base: VAddr, len: u32) -> u32 {
        let pages = len.div_ceil(PAGE_SIZE);
        let mut removed = 0;
        for i in 0..pages {
            let Some(va) = base.checked_page(i) else {
                break;
            };
            if self.unmap_page(pid, va) {
                removed += 1;
            }
        }
        removed
    }

    /// Removes `pid`'s mapping of the page at `va` and shoots its entry
    /// down in every CPU's TLB, not only the current one: the process may
    /// have run anywhere. Returns whether a page was mapped.
    fn unmap_page(&mut self, pid: ProcessId, va: VAddr) -> bool {
        if self.tables[pid.index()].unmap(va).is_none() {
            return false;
        }
        for tlb in &mut self.tlbs {
            tlb.invalidate_page(pid, va);
        }
        true
    }

    /// Serves a repeat of `cpu`'s memoised page (see "The reference memo"
    /// in the module docs): the physical address and home node a full
    /// [`Vm::translate`] would return, with the TLB hit booked. `None`
    /// when the memo does not apply; nothing is booked then, and the
    /// caller takes `translate`.
    #[inline]
    pub fn translate_memo(
        &mut self,
        pid: ProcessId,
        cpu: CpuId,
        va: VAddr,
        write: bool,
    ) -> Option<(PAddr, usize)> {
        let m = *self.memo.get(cpu.index())?;
        let hit = m.vpn == va.vpn()
            && m.pid == pid
            && (m.writable || !write)
            && m.generation == self.tables[pid.index()].generation()
            && self.tlbs[cpu.index()].rehit(pid, va);
        hit.then(|| (PAddr::from_parts(m.ppn, va.page_offset()), m.home))
    }

    /// Translates one reference, taking demand-zero / lazy-attach faults
    /// as needed and driving software-DSM residency.
    ///
    /// `node` is the referencing CPU's node (first-touch placement and DSM
    /// locality); `cpu` indexes the TLB.
    pub fn translate(
        &mut self,
        pid: ProcessId,
        cpu: CpuId,
        node: usize,
        va: VAddr,
        write: bool,
    ) -> Result<Translation, VmFault> {
        let mut soft_fault = false;
        // Kernel space bypasses the page table (V=R).
        let paddr = if va.is_kernel() {
            addr::kernel_vtop(va)
        } else {
            match self.tables[pid.index()].translate(va, write) {
                Ok(p) => p,
                Err(_) => {
                    self.demand_fault(pid, node, va)?;
                    soft_fault = true;
                    self.tables[pid.index()]
                        .translate(va, write)
                        .expect("fault handling installed a mapping")
                }
            }
        };
        let home = self
            .homes
            .home_or_first_touch(paddr.ppn(), NodeId::from(node))
            .index();
        let tlb_miss = if self.tlbs.is_empty() {
            false
        } else {
            !self.tlbs[cpu.index()].access(pid, va)
        };
        let dsm = if self.dsm_enabled && !va.is_kernel() {
            // (The old COMPASS_DSM_TRACE env dump lived here — per-ref
            // env reads made runs non-hermetic; DSM transfers now surface
            // through the observability counters/trace instead.)
            self.dsm_access(paddr.ppn(), node, home, write)
        } else {
            None
        };
        if let Some(m) = self.memo.get_mut(cpu.index()) {
            *m = Memo {
                pid,
                vpn: va.vpn(),
                generation: self.tables[pid.index()].generation(),
                writable: write || va.is_kernel(),
                ppn: paddr.ppn(),
                home,
            };
        }
        Ok(Translation {
            paddr,
            home,
            tlb_miss,
            soft_fault,
            dsm,
        })
    }

    /// Handles a not-mapped fault: demand-zero for private regions,
    /// lazy frame materialisation for first-touch shared segments.
    /// Unsatisfiable references (wild addresses, unattached segments,
    /// frame exhaustion) come back as a [`VmFault`], not a panic.
    fn demand_fault(&mut self, pid: ProcessId, node: usize, va: VAddr) -> Result<(), VmFault> {
        let fault = |kind| VmFault { pid, va, kind };
        match va.region() {
            Region::Heap | Region::Stack | Region::Text => {
                // Private page: always placed at the toucher's node (the
                // eager policies in the paper govern *shared* data).
                let home = NodeId::from(node);
                let ppn = self
                    .frames
                    .alloc_on(home)
                    .map_err(|_| fault(VmFaultKind::OutOfMemory))?;
                self.stats.soft_faults += 1;
                self.homes.place_eager(ppn, home);
                self.tables[pid.index()].map(va, ppn, PageFlags::RW);
                self.stats.pages_mapped += 1;
            }
            Region::Shm => {
                let seg = self
                    .shm
                    .segment_containing(va)
                    .ok_or(fault(VmFaultKind::UnattachedShm))?
                    .id;
                let segment = self.shm.segment(seg).expect("segment exists");
                if !segment.attached.contains(&pid) {
                    return Err(fault(VmFaultKind::NotAttached(seg)));
                }
                let idx = ((va.0 - segment.base.0) / PAGE_SIZE) as usize;
                let base = segment.base;
                let existing = segment.frames[idx];
                let ppn = match existing {
                    Some(ppn) => ppn,
                    None => {
                        // First-touch: materialise here, home = toucher.
                        let home = NodeId::from(node);
                        let ppn = self
                            .frames
                            .alloc_on(home)
                            .map_err(|_| fault(VmFaultKind::OutOfMemory))?;
                        self.homes.place_eager(ppn, home);
                        self.shm.segment_mut(seg).expect("segment exists").frames[idx] = Some(ppn);
                        self.stats.pages_mapped += 1;
                        ppn
                    }
                };
                self.stats.soft_faults += 1;
                let page_va = base
                    .checked_page(idx as u32)
                    .expect("shm window bounds the segment below the address-space top");
                self.tables[pid.index()].map(page_va, ppn, PageFlags::SHARED_RW);
            }
            r => return Err(fault(VmFaultKind::Wild(r))),
        }
        Ok(())
    }

    /// Software-DSM page protocol: single writer, multiple readers.
    fn dsm_access(
        &mut self,
        ppn: u64,
        node: usize,
        home: usize,
        write: bool,
    ) -> Option<DsmTransfer> {
        let me = node as u16;
        let entry = self
            .dsm_pages
            .entry(ppn)
            .or_insert(PageRes::Excl(home as u16));
        match (*entry, write) {
            (PageRes::Excl(owner), false) if owner == me => None,
            (PageRes::Excl(owner), true) if owner == me => None,
            (PageRes::Shared(mask), false) if mask & (1 << me) != 0 => None,
            (PageRes::Excl(owner), false) => {
                // Read fault: fetch a copy from the owner.
                *entry = PageRes::Shared((1 << owner) | (1 << me));
                self.stats.dsm_read_faults += 1;
                Some(DsmTransfer {
                    from: owner as usize,
                    to: node,
                    bytes: PAGE_SIZE,
                    invalidations: 0,
                })
            }
            (PageRes::Shared(mask), false) => {
                // Read fault: fetch from any holder (lowest for determinism).
                let from = mask.trailing_zeros() as usize;
                *entry = PageRes::Shared(mask | (1 << me));
                self.stats.dsm_read_faults += 1;
                Some(DsmTransfer {
                    from,
                    to: node,
                    bytes: PAGE_SIZE,
                    invalidations: 0,
                })
            }
            (PageRes::Excl(owner), true) => {
                *entry = PageRes::Excl(me);
                self.stats.dsm_write_faults += 1;
                Some(DsmTransfer {
                    from: owner as usize,
                    to: node,
                    bytes: PAGE_SIZE,
                    invalidations: 1,
                })
            }
            (PageRes::Shared(mask), true) => {
                // Write fault: invalidate all other copies, take ownership.
                let holder = mask.trailing_zeros() as usize;
                let others = (mask & !(1 << me)).count_ones();
                let had_copy = mask & (1 << me) != 0;
                *entry = PageRes::Excl(me);
                self.stats.dsm_write_faults += 1;
                Some(DsmTransfer {
                    from: holder,
                    to: node,
                    bytes: if had_copy { 0 } else { PAGE_SIZE },
                    invalidations: others,
                })
            }
        }
    }

    /// TLB flush on context switch.
    pub fn on_context_switch(&mut self, cpu: CpuId) {
        if let Some(t) = self.tlbs.get_mut(cpu.index()) {
            t.flush();
        }
    }

    /// Summed TLB statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        let mut s = TlbStats::default();
        for t in &self.tlbs {
            let ts = t.stats();
            s.hits += ts.hits;
            s.misses += ts.misses;
            s.flushes += ts.flushes;
        }
        s
    }

    /// VM counters.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Placement counters and per-node page histogram.
    pub fn placement_stats(&self) -> (compass_mem::placement::PlacementStats, Vec<u64>) {
        (self.homes.stats(), self.homes.pages_per_node(self.nodes))
    }

    /// Cross-structure consistency checks (the `check-invariants` feature
    /// runs this after every engine step):
    /// - every mapped PTE names a frame the allocator actually handed out;
    /// - a private (non-shared) frame belongs to at most one process;
    /// - materialised shm frames are allocated, and any attacher's PTE over
    ///   a shm page agrees with the segment's frame table;
    /// - every CPU memo whose generation is current names the frame its
    ///   page table maps (writable, if the memo says so) and the home the
    ///   `HomeMap` records, and every TLB's MRU slot sits in its page's set.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_memos()?;
        let mut private_owner: HashMap<u64, usize> = HashMap::new();
        for (pid, table) in self.tables.iter().enumerate() {
            for (vpn, pte) in table.iter() {
                if !self.frames.is_allocated(pte.ppn) {
                    return Err(format!(
                        "process {pid}: vpn {vpn:#x} maps unallocated frame {:#x}",
                        pte.ppn
                    ));
                }
                if !pte.flags.shared {
                    if let Some(prev) = private_owner.insert(pte.ppn, pid) {
                        if prev != pid {
                            return Err(format!(
                                "private frame {:#x} mapped by processes {prev} and {pid}",
                                pte.ppn
                            ));
                        }
                    }
                }
            }
        }
        for i in 0..self.shm.len() {
            let seg = self.shm.segment(SegId(i as u32)).expect("index in range");
            for (idx, frame) in seg.frames.iter().enumerate() {
                let va = seg.base + (idx as u32) * PAGE_SIZE;
                match frame {
                    Some(ppn) => {
                        if !self.frames.is_allocated(*ppn) {
                            return Err(format!(
                                "segment {}: page {idx} backed by unallocated frame {ppn:#x}",
                                seg.id
                            ));
                        }
                        for &pid in &seg.attached {
                            if let Some(pte) = self.tables[pid.index()].lookup(va) {
                                if pte.ppn != *ppn {
                                    return Err(format!(
                                        "segment {}: {pid} maps page {idx} to frame {:#x}, \
                                         segment says {ppn:#x}",
                                        seg.id, pte.ppn
                                    ));
                                }
                            }
                        }
                    }
                    None => {
                        // A PTE over an unmaterialised page means the frame
                        // table and a page table disagree.
                        for &pid in &seg.attached {
                            if self.tables[pid.index()].lookup(va).is_some() {
                                return Err(format!(
                                    "segment {}: {pid} maps unmaterialised page {idx}",
                                    seg.id
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The memo half of [`Vm::check_invariants`].
    fn check_memos(&self) -> Result<(), String> {
        for (cpu, tlb) in self.tlbs.iter().enumerate() {
            tlb.check_mru().map_err(|e| format!("cpu {cpu}: {e}"))?;
        }
        for (cpu, m) in self.memo.iter().enumerate() {
            if m.vpn == NO_PAGE {
                continue;
            }
            let table = &self.tables[m.pid.index()];
            if m.generation != table.generation() {
                continue; // a stale memo is never served
            }
            let va = VAddr(m.vpn << addr::PAGE_SHIFT);
            let ppn = if va.is_kernel() {
                addr::kernel_vtop(va).ppn()
            } else {
                let Some(pte) = table.lookup(va) else {
                    return Err(format!("cpu {cpu}: memo names unmapped {va} of {}", m.pid));
                };
                if m.writable && (!pte.flags.writable || pte.flags.dsm_write_protected) {
                    return Err(format!(
                        "cpu {cpu}: memo says {va} of {} is writable",
                        m.pid
                    ));
                }
                pte.ppn
            };
            if ppn != m.ppn {
                return Err(format!(
                    "cpu {cpu}: memo maps {va} of {} to frame {:#x}, the page table to {ppn:#x}",
                    m.pid, m.ppn
                ));
            }
            if self.homes.home(ppn).map(NodeId::index) != Some(m.home) {
                return Err(format!(
                    "cpu {cpu}: memo homes frame {ppn:#x} on node {}, the home map on {:?}",
                    m.home,
                    self.homes.home(ppn)
                ));
            }
        }
        Ok(())
    }
}

/// The access class a reference made in `mode` is attributed to.
pub(crate) fn class_of(mode: ExecMode) -> AccessClass {
    match mode {
        ExecMode::User => AccessClass::User,
        ExecMode::Kernel => AccessClass::Kernel,
        ExecMode::Interrupt => AccessClass::Interrupt,
    }
}

impl Backend {
    /// One memory reference by `pid` at `now`: its translation costs plus
    /// the hierarchy access. `None` when the VM cannot map it — the fault
    /// is latched and the run unwinds before the next step.
    pub(crate) fn reference(
        &mut self,
        pid: ProcessId,
        vaddr: VAddr,
        write: bool,
        mode: ExecMode,
        now: Cycles,
    ) -> Option<Cycles> {
        let cpu = self.cpu_for(pid);
        let c = cpu.index();
        let acc = Access {
            write,
            class: class_of(mode),
        };
        // A repeat of the CPU's last page costs no translation, and is an
        // L1 rehit when its line is where it was (module docs, "The
        // reference memo").
        let (paddr, home, lat) = match self.vm.translate_memo(pid, cpu, vaddr, write) {
            Some((paddr, home)) => {
                if let Some(res) = self.arch.l1_rehit(c, paddr, acc, home, now) {
                    return Some(res.latency);
                }
                (paddr, home, 0)
            }
            None => {
                let node = self.arch.hierarchy().node_of(c);
                let tr = match self.vm.translate(pid, cpu, node, vaddr, write) {
                    Ok(tr) => tr,
                    Err(fault) => {
                        self.latch(|b| b.wild_access_error(fault));
                        return None;
                    }
                };
                (tr.paddr, tr.home, self.charge_translation(&tr, now))
            }
        };
        let res = self.arch.access(c, paddr, acc, home, now);
        Some(lat + res.latency)
    }

    /// TLB-miss, soft-fault and software-DSM costs of one translation.
    fn charge_translation(&mut self, tr: &Translation, now: Cycles) -> Cycles {
        let mut lat = 0;
        if tr.tlb_miss {
            lat += self.cfg.arch.lat.tlb_miss;
            self.obs.inc(Ctr::TlbMisses);
        }
        if tr.soft_fault {
            lat += self.cfg.arch.lat.soft_fault;
            self.soft_faults += 1;
            self.obs.inc(Ctr::PageFaults);
            let cost = self.cfg.arch.lat.soft_fault;
            self.obs
                .record(now, u32::MAX, TraceKind::PageFault, cost, 0);
        }
        if let Some(d) = tr.dsm {
            self.obs.inc(Ctr::DsmTransfers);
            lat += self.arch.dsm(d, now);
            lat += d.invalidations as u64 * DSM_INVAL;
        }
        lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);
    const C0: CpuId = CpuId(0);

    fn vm(nodes: usize, placement: PlacementPolicy) -> Vm {
        Vm::new(2, nodes, 2, 1 << 30, placement, 16, 2, false)
    }

    #[test]
    fn demand_zero_heap_fault_then_hit() {
        let mut v = vm(2, PlacementPolicy::FirstTouch);
        let va = VAddr(0x1000_0000);
        let t1 = v.translate(P0, C0, 1, va, true).unwrap();
        assert!(t1.soft_fault);
        assert_eq!(t1.home, 1, "first-touch home is the toucher's node");
        let t2 = v.translate(P0, C0, 0, va + 4, false).unwrap();
        assert!(!t2.soft_fault);
        assert_eq!(t2.paddr.ppn(), t1.paddr.ppn());
        assert_eq!(t2.home, 1, "home sticks after first touch");
    }

    #[test]
    fn private_pages_of_processes_are_distinct() {
        let mut v = vm(1, PlacementPolicy::FirstTouch);
        let va = VAddr(0x1000_0000);
        let a = v.translate(P0, C0, 0, va, true).unwrap();
        let b = v.translate(P1, C0, 0, va, true).unwrap();
        assert_ne!(a.paddr.ppn(), b.paddr.ppn());
    }

    #[test]
    fn shm_round_robin_places_pages_across_nodes() {
        let mut v = vm(4, PlacementPolicy::RoundRobin);
        let seg = v.shmget(99, 8 * PAGE_SIZE).unwrap();
        let (base, installed) = v.shmat(seg, P0).unwrap();
        assert_eq!(installed, 8);
        let homes: Vec<usize> = (0..8)
            .map(|i| {
                v.translate(P0, C0, 0, base + i * PAGE_SIZE, false)
                    .unwrap()
                    .home
            })
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn shm_is_shared_between_processes() {
        let mut v = vm(2, PlacementPolicy::RoundRobin);
        let seg = v.shmget(7, PAGE_SIZE).unwrap();
        let (base, _) = v.shmat(seg, P0).unwrap();
        let (base1, _) = v.shmat(seg, P1).unwrap();
        assert_eq!(base, base1);
        let a = v.translate(P0, C0, 0, base, true).unwrap();
        let b = v.translate(P1, C0, 1, base, false).unwrap();
        assert_eq!(a.paddr, b.paddr, "same frame through both page tables");
    }

    #[test]
    fn first_touch_shm_materialises_lazily() {
        let mut v = vm(2, PlacementPolicy::FirstTouch);
        let seg = v.shmget(7, 2 * PAGE_SIZE).unwrap();
        let (base, installed) = v.shmat(seg, P0).unwrap();
        assert_eq!(installed, 0, "no frames yet under first-touch");
        let t = v.translate(P0, C0, 1, base + PAGE_SIZE, true).unwrap();
        assert!(t.soft_fault);
        assert_eq!(t.home, 1);
    }

    #[test]
    fn shmdt_unmaps() {
        let mut v = vm(1, PlacementPolicy::RoundRobin);
        let seg = v.shmget(7, PAGE_SIZE).unwrap();
        let (base, _) = v.shmat(seg, P0).unwrap();
        v.translate(P0, C0, 0, base, false).unwrap();
        assert_eq!(v.shmdt(seg, P0).unwrap(), 1);
        // Touching after detach is a structured fault, not a panic.
        let fault = v.translate(P0, C0, 0, base, false).unwrap_err();
        assert_eq!(fault.kind, VmFaultKind::NotAttached(seg));
        assert_eq!(fault.pid, P0);
        assert_eq!(fault.va, base);
        assert!(fault.to_string().contains("without attaching"));
    }

    #[test]
    fn kernel_addresses_translate_without_mappings() {
        let mut v = vm(2, PlacementPolicy::FirstTouch);
        let t = v.translate(P0, C0, 1, VAddr(0xC000_1000), true).unwrap();
        assert!(!t.soft_fault);
        assert_eq!(t.home, 1, "kernel page homed by first toucher");
    }

    #[test]
    fn tlb_miss_reported_once_then_hits() {
        let mut v = vm(1, PlacementPolicy::FirstTouch);
        let va = VAddr(0x1000_0000);
        assert!(v.translate(P0, C0, 0, va, false).unwrap().tlb_miss);
        assert!(!v.translate(P0, C0, 0, va + 8, false).unwrap().tlb_miss);
        v.on_context_switch(C0);
        assert!(v.translate(P0, C0, 0, va, false).unwrap().tlb_miss);
        assert_eq!(v.tlb_stats().flushes, 1);
    }

    #[test]
    fn eager_shmget_reports_oom_instead_of_panicking() {
        // 4 pages of memory per node, one node: an 8-page eager segment
        // must fail cleanly with OutOfMemory and leave no segment behind.
        let mut v = Vm::new(
            2,
            1,
            2,
            4 * PAGE_SIZE as u64,
            PlacementPolicy::RoundRobin,
            16,
            2,
            false,
        );
        assert_eq!(
            v.shmget(9, 8 * PAGE_SIZE),
            Err(ShmError::OutOfMemory),
            "frame exhaustion must be an error, not a panic"
        );
        // The failed call must not have created the segment or leaked
        // frames: a fitting request for the same key succeeds afresh.
        let seg = v.shmget(9, 4 * PAGE_SIZE).unwrap();
        let (_, installed) = v.shmat(seg, P0).unwrap();
        assert_eq!(installed, 4);
        v.check_invariants().unwrap();
    }

    #[test]
    fn oom_precheck_does_not_leak_frames() {
        let mut v = Vm::new(
            2,
            2,
            2,
            2 * PAGE_SIZE as u64,
            PlacementPolicy::RoundRobin,
            16,
            2,
            false,
        );
        // 2 nodes x 2 frames: 6 pages round-robin needs 3 per node.
        assert_eq!(v.shmget(1, 6 * PAGE_SIZE), Err(ShmError::OutOfMemory));
        // All 4 frames are still free: two 2-page segments fit.
        assert!(v.shmget(2, 2 * PAGE_SIZE).is_ok());
        assert!(v.shmget(3, 2 * PAGE_SIZE).is_ok());
    }

    #[test]
    fn unmap_region_near_address_space_top_does_not_wrap() {
        let mut v = vm(1, PlacementPolicy::FirstTouch);
        // Map a page near zero; a wrapping walk from the top would hit it.
        let low = VAddr(0x1000_0000);
        v.translate(P0, C0, 0, low, true).unwrap();
        let removed = v.unmap_region(P0, VAddr(u32::MAX - PAGE_SIZE + 1), 4 * PAGE_SIZE);
        assert_eq!(removed, 0, "clipped walk must not touch wrapped pages");
        assert!(
            !v.translate(P0, C0, 0, low, false).unwrap().soft_fault,
            "the low page must still be mapped"
        );
    }

    #[test]
    fn an_unmapped_page_leaves_no_tlb_entry_on_any_cpu() {
        let mut v = vm(1, PlacementPolicy::RoundRobin);
        let c1 = CpuId(1);
        let va = VAddr(0x1000_0000);
        assert!(v.translate(P0, c1, 0, va, true).unwrap().tlb_miss);
        assert!(!v.translate(P0, c1, 0, va, false).unwrap().tlb_miss);
        // Unmapped while P0 runs on CPU 0; CPU 1 still caches the page.
        v.translate(P0, C0, 0, va, false).unwrap();
        assert_eq!(v.unmap_region(P0, va, PAGE_SIZE), 1);
        let t = v.translate(P0, c1, 0, va, false).unwrap();
        assert!(t.soft_fault);
        assert!(t.tlb_miss, "re-fault on CPU 1 hit a stale TLB entry");

        // The same for a detached and re-attached shared page.
        let seg = v.shmget(7, PAGE_SIZE).unwrap();
        let (base, _) = v.shmat(seg, P0).unwrap();
        v.translate(P0, c1, 0, base, false).unwrap();
        assert_eq!(v.shmdt(seg, P0).unwrap(), 1);
        v.shmat(seg, P0).unwrap();
        assert!(v.translate(P0, c1, 0, base, false).unwrap().tlb_miss);
    }

    #[test]
    fn dsm_write_fault_invalidates_readers() {
        let mut v = Vm::new(2, 2, 2, 1 << 30, PlacementPolicy::FirstTouch, 0, 1, true);
        let seg = v.shmget(1, PAGE_SIZE).unwrap();
        let (base, _) = v.shmat(seg, P0).unwrap();
        v.shmat(seg, P1).unwrap();
        // P0@node0 writes (first touch: owner node0, no transfer).
        let t0 = v.translate(P0, C0, 0, base, true).unwrap();
        assert_eq!(t0.dsm, None);
        // P1@node1 reads: page copy moves 0 -> 1.
        let t1 = v.translate(P1, CpuId(1), 1, base, false).unwrap();
        let d1 = t1.dsm.unwrap();
        assert_eq!((d1.from, d1.to, d1.bytes), (0, 1, PAGE_SIZE));
        // P1@node1 writes: invalidate node0's copy; already has data.
        let t2 = v.translate(P1, CpuId(1), 1, base, true).unwrap();
        let d2 = t2.dsm.unwrap();
        assert_eq!(d2.invalidations, 1);
        assert_eq!(d2.bytes, 0, "writer already held a copy");
        // Node-1 reads now local.
        assert_eq!(v.translate(P1, CpuId(1), 1, base, false).unwrap().dsm, None);
        assert_eq!(v.stats().dsm_read_faults, 1);
        assert_eq!(v.stats().dsm_write_faults, 1);
    }
}
