//! The composed memory system.
//!
//! One `Hierarchy` models the entire memory side of the target machine:
//! per-CPU L1 (and optional L2) caches, per-node buses and memory
//! controllers, the inter-node network, the coherence directory, and —
//! for COMA — per-node attraction memories. The backend calls
//! [`Hierarchy::access`] once per memory-reference event, in global
//! simulated-time order, and charges the returned latency to the process.
//!
//! Protocol notes:
//! * MESI with a full-map directory at L2-line granularity; L1 is managed
//!   as sectored sublines of the coherence line and kept inclusive in L2.
//! * Evictions send replacement hints so the directory stays exact.
//! * Dirty evictions are posted writes: they consume memory-controller
//!   occupancy but add no latency to the evicting access.
//! * The COMA attraction memory is a node-level cache in front of the
//!   directory: it absorbs capacity misses to remote homes (the essential
//!   COMA effect); write invalidations purge AM copies on other nodes.
//!   Master-copy relocation is simplified to writeback-to-home (see
//!   DESIGN.md).

use crate::bus::BusyResource;
use crate::cache::{Cache, LineState};
use crate::config::{ArchConfig, MemSysKind};
use crate::directory::{DirEntry, Directory, Source};
use crate::interconnect::Interconnect;
use crate::stats::{AccessClass, MemStats};
use compass_isa::Cycles;
use compass_mem::PAddr;
use compass_snap::Writer;

/// One memory access as the backend presents it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// True for stores and read-modify-writes.
    pub write: bool,
    /// Attribution class.
    pub class: AccessClass,
}

/// What an access cost and where it was served (for tests and traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles.
    pub latency: Cycles,
    /// Served by the L1.
    pub l1_hit: bool,
    /// Involved the directory of a remote home node.
    pub remote: bool,
}

/// The composed memory system.
pub struct Hierarchy {
    cfg: ArchConfig,
    /// Per-CPU L1s.
    l1: Vec<Cache>,
    /// Per-CPU L2s (empty when the architecture has no L2).
    l2: Vec<Cache>,
    /// Per-node COMA attraction memories (empty unless COMA).
    am: Vec<Cache>,
    /// Per-node buses.
    bus: Vec<BusyResource>,
    /// Per-node memory controllers.
    mem: Vec<BusyResource>,
    dir: Directory,
    net: Interconnect,
    stats: MemStats,
    coh_shift: u32,
    /// Node of each CPU (`ArchConfig::node_of_cpu`, built once so the
    /// access path reads it instead of dividing).
    cpu_node: Box<[usize]>,
    /// CPUs whose private L1 state was changed *externally* by the most
    /// recent [`Hierarchy::access`] (directory invalidation, owner
    /// downgrade, L2-inclusion back-invalidation); cleared at the start of
    /// the next access. Pure observation — it feeds no latency or
    /// statistic.
    epoch_victims: Vec<usize>,
}

impl Hierarchy {
    /// Builds the memory system from a validated configuration.
    pub fn new(cfg: ArchConfig) -> Self {
        cfg.validate().expect("invalid architecture configuration");
        let (ncpus, nodes) = (cfg.ncpus(), cfg.nodes);
        let caches = |n: usize, g| (0..n).map(|_| Cache::new(g)).collect();
        Self {
            l1: caches(ncpus, cfg.l1),
            l2: cfg.l2.map_or_else(Vec::new, |g| caches(ncpus, g)),
            am: match (cfg.kind, cfg.attraction) {
                (MemSysKind::Coma, Some(g)) => caches(nodes, g),
                _ => Vec::new(),
            },
            bus: vec![BusyResource::new(); nodes],
            mem: vec![BusyResource::new(); nodes],
            dir: Directory::new(),
            net: Interconnect::new(cfg.topology, nodes),
            stats: MemStats::default(),
            coh_shift: cfg.coherence_line().trailing_zeros(),
            cpu_node: (0..ncpus).map(|c| cfg.node_of_cpu(c)).collect(),
            epoch_victims: Vec::new(),
            cfg,
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &ArchConfig {
        &self.cfg
    }

    /// Deterministic hash of the architecture configuration (the first
    /// word of `BackendConfig::config_hash`). FNV over the `Debug`
    /// rendering is stable across processes and builds of
    /// the same source (unlike `DefaultHasher`, whose keys are
    /// unspecified).
    pub fn config_hash(cfg: &ArchConfig) -> u64 {
        compass_snap::fnv1a64(format!("{cfg:?}").as_bytes())
    }

    /// Serializes the complete memory-system state — every cache (exact
    /// LRU layout included), bus and memory-controller occupancy, the
    /// directory, the network and the counters. Taken at a quiesced cut,
    /// this is the whole timing-relevant state of the architecture model.
    /// Nothing in the simulator reads or writes it: only the benchmark's
    /// checkpoint probe does, and it goes with that probe (ROADMAP item 1a).
    pub fn encode_snapshot(&self, w: &mut Writer) {
        for caches in [&self.l1, &self.l2, &self.am] {
            w.u64(caches.len() as u64);
            for c in caches {
                c.encode_snapshot(w);
            }
        }
        w.u64(self.cfg.nodes as u64);
        for (bus, mem) in self.bus.iter().zip(&self.mem) {
            bus.encode_snapshot(w);
            mem.encode_snapshot(w);
        }
        self.dir.encode_snapshot(w);
        self.net.encode_snapshot(w);
        self.stats.encode_snapshot(w);
    }

    /// Coherence line index of an address.
    #[inline]
    pub fn coh_line(&self, paddr: PAddr) -> u64 {
        paddr.0 >> self.coh_shift
    }

    /// Coherence line size in bytes.
    #[inline]
    pub fn coh_line_size(&self) -> u32 {
        1 << self.coh_shift
    }

    /// The node `cpu` sits on.
    #[inline]
    pub fn node_of(&self, cpu: usize) -> usize {
        self.cpu_node[cpu]
    }

    #[inline]
    fn has_l2(&self) -> bool {
        self.cfg.l2.is_some()
    }

    // ---- Protocol helpers --------------------------------------------

    /// Invalidate every L1 subline of a coherence line at `cpu`.
    fn l1_back_invalidate(&mut self, cpu: usize, coh: u64) {
        let sublines = (self.coh_line_size() / self.cfg.l1.line) as u64;
        let base = coh * sublines;
        let l1 = &mut self.l1[cpu];
        for s in 0..sublines {
            l1.invalidate(base + s);
        }
    }

    /// Invalidate a coherence line from a CPU's whole private hierarchy.
    fn invalidate_at_cpu(&mut self, cpu: usize, coh: u64) {
        self.l1_back_invalidate(cpu, coh);
        if self.has_l2() {
            self.l2[cpu].invalidate(coh);
        }
        self.stats.invalidations_delivered += 1;
        self.epoch_victims.push(cpu);
    }

    /// Fill a coherence line into a CPU's L2 (when present), sending a
    /// replacement hint for the victim.
    fn fill_l2(&mut self, cpu: usize, coh: u64, state: LineState, now: Cycles) {
        if !self.has_l2() {
            return;
        }
        if let Some((victim, vstate)) = self.l2[cpu].insert(coh, state) {
            // Inclusion: purge the victim's L1 sublines.
            self.l1_back_invalidate(cpu, victim);
            self.epoch_victims.push(cpu);
            self.dir.evict(victim, cpu as u16, vstate.dirty());
            if vstate.dirty() {
                // Posted writeback: occupancy only, off the critical path.
                let home = self.node_of(cpu); // victim data drains via local ctrl
                let occ = self.cfg.lat.mem_access / 2;
                self.mem[home].acquire(now, occ);
            }
        }
    }

    /// Fill the touched L1 subline.
    fn fill_l1(&mut self, cpu: usize, paddr: PAddr, state: LineState) {
        let l1 = &mut self.l1[cpu];
        let idx = l1.line_of(paddr.0);
        if l1.peek(idx).is_none() {
            // L1 evictions are silent: L2 keeps the authoritative state.
            let _ = l1.insert(idx, state);
        } else {
            l1.set_state(idx, state);
        }
    }

    /// Performs one access and returns its latency breakdown.
    ///
    /// `home` is the line's home node (from the backend's page-home map);
    /// `now` is the global simulated time the access starts.
    pub fn access(
        &mut self,
        cpu: usize,
        paddr: PAddr,
        acc: Access,
        home: usize,
        now: Cycles,
    ) -> AccessResult {
        debug_assert!(cpu < self.cfg.ncpus(), "cpu {cpu} out of range");
        debug_assert!(home < self.cfg.nodes, "home {home} out of range");
        self.epoch_victims.clear();
        let ci = acc.class.index();
        self.stats.accesses[ci] += 1;

        let lat = self.cfg.lat;
        let coh = self.coh_line(paddr);
        let mut total = lat.l1_hit;

        // ---- L1 ----
        let l1idx = self.l1[cpu].line_of(paddr.0);
        let l1_state = self.l1[cpu].probe(l1idx);
        match l1_state {
            Some(st) if !acc.write => {
                let _ = st;
                self.stats.l1_hits[ci] += 1;
                self.stats.latency[ci] += total;
                return AccessResult {
                    latency: total,
                    l1_hit: true,
                    remote: false,
                };
            }
            Some(st) if st.writable() => {
                // Write hit on E/M: silent E->M upgrade, propagated to L2.
                if st == LineState::Exclusive {
                    self.l1[cpu].set_state(l1idx, LineState::Modified);
                    if self.has_l2() {
                        // L2 must hold the line (inclusion).
                        self.l2[cpu].set_state(coh, LineState::Modified);
                    }
                }
                self.stats.l1_hits[ci] += 1;
                self.stats.latency[ci] += total;
                return AccessResult {
                    latency: total,
                    l1_hit: true,
                    remote: false,
                };
            }
            _ => {}
        }
        // From here on: L1 miss, or write hit on a Shared line (upgrade).
        let l1_upgrade = l1_state.is_some(); // write on Shared

        // ---- L2 ----
        let mut l2_upgrade = false;
        if self.has_l2() {
            match self.l2[cpu].probe(coh) {
                Some(st) if !acc.write => {
                    total += lat.l2_hit;
                    self.stats.l2_hits[ci] += 1;
                    self.fill_l1(cpu, paddr, st);
                    self.stats.latency[ci] += total;
                    return AccessResult {
                        latency: total,
                        l1_hit: false,
                        remote: false,
                    };
                }
                Some(st) if st.writable() => {
                    total += lat.l2_hit;
                    self.stats.l2_hits[ci] += 1;
                    self.l2[cpu].set_state(coh, LineState::Modified);
                    self.fill_l1(cpu, paddr, LineState::Modified);
                    self.stats.latency[ci] += total;
                    return AccessResult {
                        latency: total,
                        l1_hit: false,
                        remote: false,
                    };
                }
                Some(_) => {
                    // Shared in L2, write: upgrade through the directory.
                    total += lat.l2_hit;
                    l2_upgrade = true;
                }
                None => {}
            }
        }

        let upgrade = if self.has_l2() {
            l2_upgrade
        } else {
            l1_upgrade
        };

        // ---- Node level ----
        let mynode = self.node_of(cpu);
        let remote = home != mynode;
        if remote {
            self.stats.remote_accesses[ci] += 1;
        } else {
            self.stats.local_accesses[ci] += 1;
        }

        let simple = self.cfg.kind == MemSysKind::Simple;
        if !simple {
            total += self.bus[mynode].acquire(now + total, lat.bus_occupancy);
        }

        // ---- COMA attraction memory (data fetches only) ----
        let line_bytes = self.coh_line_size();
        let am_hit = self.cfg.kind == MemSysKind::Coma
            && !upgrade
            && !acc.write
            && self.am[mynode].probe(coh).is_some();
        if am_hit {
            total += lat.am_hit;
            self.stats.am_hits[ci] += 1;
            // Served by the local attraction memory: still a directory
            // read so sharing stays exact, but no network/memory cost.
            let outcome = self.dir.read(coh, cpu as u16);
            if let Some(owner) = outcome.downgrade {
                // Rare: AM copy coexisting with a dirty owner elsewhere —
                // treat as a forward (conservative).
                self.l2_downgrade(owner as usize, coh);
                total += lat.net_fixed;
                self.stats.forwards += 1;
            }
            let grant = if outcome.grant_exclusive {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
            self.fill_l2(cpu, coh, grant, now + total);
            self.fill_l1(cpu, paddr, grant);
            self.stats.latency[ci] += total;
            return AccessResult {
                latency: total,
                l1_hit: false,
                remote: false,
            };
        }

        // ---- Directory transaction at the home node ----
        if !simple {
            total += self.net.send(&lat, now + total, mynode, home, 16);
            total += lat.dir_lookup;
        }

        let grant = if acc.write {
            let outcome = self.dir.write(coh, cpu as u16);
            // Deliver invalidations (parallel sends; first costs full
            // round trip, extras a small serialisation adder).
            let n_inv = u64::from(outcome.invalidate.count_ones());
            if n_inv > 0 && !simple {
                total += lat.invalidate + 4 * (n_inv - 1);
            }
            let mut victims = outcome.invalidate;
            while victims != 0 {
                self.invalidate_at_cpu(victims.trailing_zeros() as usize, coh);
                victims &= victims - 1;
            }
            for (n, am) in self.am.iter_mut().enumerate() {
                if n != mynode {
                    am.invalidate(coh);
                }
            }
            match outcome.source {
                None => { /* upgrade: data already present */ }
                Some(Source::Memory) => {
                    if simple {
                        total += lat.mem_access;
                    } else {
                        total += self.mem[home].acquire(now + total, lat.mem_access);
                        total += self.net.send(&lat, now + total, home, mynode, line_bytes);
                    }
                }
                Some(Source::Cache(owner)) => {
                    total += self.forward_cost(owner as usize, mynode, home, now + total);
                    self.stats.forwards += 1;
                }
            }
            LineState::Modified
        } else {
            let outcome = self.dir.read(coh, cpu as u16);
            match outcome.source {
                Source::Memory => {
                    if simple {
                        total += lat.mem_access;
                    } else {
                        total += self.mem[home].acquire(now + total, lat.mem_access);
                        total += self.net.send(&lat, now + total, home, mynode, line_bytes);
                    }
                }
                Source::Cache(owner) => {
                    total += self.forward_cost(owner as usize, mynode, home, now + total);
                    self.stats.forwards += 1;
                    if let Some(owner) = outcome.downgrade {
                        self.l2_downgrade(owner as usize, coh);
                    }
                }
            }
            if outcome.grant_exclusive {
                LineState::Exclusive
            } else {
                LineState::Shared
            }
        };

        // ---- Fill ----
        if upgrade {
            if self.has_l2() {
                self.l2[cpu].set_state(coh, LineState::Modified);
                self.fill_l1(cpu, paddr, LineState::Modified);
            } else {
                self.l1[cpu].set_state(l1idx, LineState::Modified);
            }
        } else if !self.has_l2() {
            // Simple mode: the L1 is the coherence cache.
            if let Some((victim, vstate)) = self.l1[cpu].insert(l1idx, grant) {
                self.dir.evict(victim, cpu as u16, vstate.dirty());
            }
        } else {
            self.fill_l2(cpu, coh, grant, now + total);
            self.fill_l1(cpu, paddr, grant);
            if self.cfg.kind == MemSysKind::Coma && self.am[mynode].peek(coh).is_none() {
                if let Some((_, vstate)) = self.am[mynode].insert(coh, grant) {
                    if vstate.dirty() {
                        // Simplified master relocation: write back to home.
                        self.mem[mynode].acquire(now + total, lat.mem_access / 2);
                    }
                }
            }
        }

        self.stats.latency[ci] += total;
        AccessResult {
            latency: total,
            l1_hit: false,
            remote,
        }
    }

    /// [`Hierarchy::access`] for a repeat reference: a read, or a write to
    /// a Modified line, whose L1 line still sits in the slot that CPU's
    /// most recent L1 probe hit or fill used. Books exactly the L1 hit
    /// `access` would (per-class counters, the cache's hit count and LRU
    /// stamp, latency) without the set scan. `None` means nothing was
    /// booked and the caller takes `access`.
    #[inline]
    pub fn l1_rehit(&mut self, cpu: usize, paddr: PAddr, acc: Access) -> Option<AccessResult> {
        let l1 = &mut self.l1[cpu];
        l1.rehit(l1.line_of(paddr.0), acc.write)?;
        self.epoch_victims.clear();
        let ci = acc.class.index();
        let latency = self.cfg.lat.l1_hit;
        self.stats.accesses[ci] += 1;
        self.stats.l1_hits[ci] += 1;
        self.stats.latency[ci] += latency;
        Some(AccessResult {
            latency,
            l1_hit: true,
            remote: false,
        })
    }

    /// Owner-side downgrade M→S after a read forward.
    fn l2_downgrade(&mut self, owner: usize, coh: u64) {
        self.epoch_victims.push(owner);
        if !self.has_l2() {
            if self.l1[owner].peek(coh).is_some() {
                self.l1[owner].set_state(coh, LineState::Shared);
            }
        } else {
            if self.l2[owner].peek(coh).is_some() {
                self.l2[owner].set_state(coh, LineState::Shared);
            }
            // Sectored L1 sublines also downgrade.
            let sublines = (self.coh_line_size() / self.cfg.l1.line) as u64;
            let base = coh * sublines;
            let l1 = &mut self.l1[owner];
            for s in 0..sublines {
                if l1.peek(base + s).is_some() {
                    l1.set_state(base + s, LineState::Shared);
                }
            }
        }
    }

    /// Latency of a 3-hop cache-to-cache forward
    /// (requester → home → owner → requester).
    fn forward_cost(&mut self, owner: usize, mynode: usize, home: usize, now: Cycles) -> Cycles {
        let lat = self.cfg.lat;
        if self.cfg.kind == MemSysKind::Simple {
            return lat.mem_access; // idealised snoop: flat cost
        }
        let owner_node = self.node_of(owner);
        let line_bytes = self.coh_line_size();
        let mut t = self.net.send(&lat, now, home, owner_node, 16);
        t += lat.l2_hit; // owner cache lookup
        t += self.net.send(&lat, now + t, owner_node, mynode, line_bytes);
        t
    }

    /// Charges a software-DSM page transfer (the backend calls this when
    /// its page-fault handling decides a page must move).
    pub fn dsm_page_transfer(&mut self, from: usize, to: usize, bytes: u32, now: Cycles) -> Cycles {
        let lat = self.cfg.lat;
        self.stats.dsm_faults += 1;
        self.stats.dsm_bytes += bytes as u64;
        let wire = self.net.send(&lat, now, from, to, bytes);
        lat.dsm_fault_fixed + wire + (bytes as u64 * lat.dsm_per_byte_x100) / 100
    }

    /// Counts a software-DSM fault that moved ownership without a data
    /// copy (write fault by a current reader).
    pub fn count_dsm_fault(&mut self) {
        self.stats.dsm_faults += 1;
    }

    /// CPUs whose private L1/L2 state the most recent
    /// [`Hierarchy::access`] changed from the outside (invalidations,
    /// downgrades, inclusion back-invalidations). May contain duplicates.
    /// Nothing in the simulator reads or writes it: only the benchmark's
    /// checkpoint probe does, and it goes with that probe (ROADMAP item 1a).
    pub fn epoch_victims(&self) -> &[usize] {
        &self.epoch_victims
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Directory statistics.
    pub fn dir_stats(&self) -> crate::directory::DirStats {
        self.dir.stats()
    }

    /// Per-CPU L1 statistics.
    pub fn l1_stats(&self, cpu: usize) -> crate::cache::CacheStats {
        self.l1[cpu].stats()
    }

    /// Per-CPU L2 statistics (zeros when no L2 is configured).
    pub fn l2_stats(&self, cpu: usize) -> crate::cache::CacheStats {
        self.l2.get(cpu).map(|c| c.stats()).unwrap_or_default()
    }

    /// The cache coherence operates on for a CPU: L2 when present, else L1.
    fn coherence_cache(&self, cpu: usize) -> &Cache {
        if self.has_l2() {
            &self.l2[cpu]
        } else {
            &self.l1[cpu]
        }
    }

    /// Checks cross-structure protocol invariants (the `check-invariants`
    /// feature calls this after every engine step; property tests call it
    /// directly):
    ///
    /// * directory sanity (non-empty sharer masks, CPUs in range);
    /// * **inclusion** — every resident L1 subline's coherence line is
    ///   resident in L2 (when an L2 exists) and no more privileged than
    ///   its L2 line;
    /// * **MESI exclusivity** — a line resident E/M in a coherence cache
    ///   is directory-Owned by exactly that CPU; a Shared resident is in
    ///   the directory's sharer mask; Owned/Shared directory entries have
    ///   their owner/sharers actually resident. The COMA attraction memory
    ///   is exempt: its evictions are silent, so the directory tracks only
    ///   the per-CPU caches exactly.
    pub fn check_invariants(&self) -> Result<(), String> {
        let ncpus = self.cfg.ncpus();
        self.dir.check_invariants(ncpus as u16)?;
        for (cpu, l1) in self.l1.iter().enumerate() {
            l1.check_mru().map_err(|e| format!("cpu {cpu} L1: {e}"))?;
        }

        // Inclusion: L1 ⊆ L2, never more privileged.
        if self.has_l2() {
            let sublines = (self.coh_line_size() / self.cfg.l1.line) as u64;
            for cpu in 0..ncpus {
                for (idx, st) in self.l1[cpu].lines() {
                    let coh = idx / sublines;
                    let Some(l2st) = self.l2[cpu].peek(coh) else {
                        return Err(format!(
                            "cpu {cpu}: L1 subline {idx:#x} resident but its \
                             coherence line {coh:#x} is absent from L2 (inclusion)"
                        ));
                    };
                    if st.writable() && !l2st.writable() {
                        return Err(format!(
                            "cpu {cpu}: L1 subline {idx:#x} is {st:?} but its \
                             L2 line {coh:#x} is only {l2st:?}"
                        ));
                    }
                }
            }
        }

        // Exclusivity, cache side: every coherence-cache resident agrees
        // with the directory.
        for cpu in 0..ncpus {
            for (line, st) in self.coherence_cache(cpu).lines() {
                match self.dir.entry(line) {
                    DirEntry::Uncached => {
                        return Err(format!(
                            "cpu {cpu}: line {line:#x} resident {st:?} but \
                             directory says Uncached"
                        ));
                    }
                    DirEntry::Shared(mask) => {
                        if st != LineState::Shared {
                            return Err(format!(
                                "cpu {cpu}: line {line:#x} is {st:?} but the \
                                 directory has it Shared({mask:#b})"
                            ));
                        }
                        if mask & (1 << cpu) == 0 {
                            return Err(format!(
                                "cpu {cpu}: line {line:#x} resident Shared but \
                                 absent from sharer mask {mask:#b}"
                            ));
                        }
                    }
                    DirEntry::Owned(owner) => {
                        if owner as usize != cpu {
                            return Err(format!(
                                "cpu {cpu}: line {line:#x} resident {st:?} but \
                                 directory-owned by cpu {owner}"
                            ));
                        }
                        if st == LineState::Shared {
                            return Err(format!(
                                "cpu {cpu}: line {line:#x} directory-owned but \
                                 only Shared in the cache"
                            ));
                        }
                    }
                }
            }
        }

        // Exclusivity, directory side: owners and sharers are resident.
        for (line, entry) in self.dir.entries() {
            match entry {
                DirEntry::Uncached => {}
                DirEntry::Shared(mask) => {
                    for cpu in 0..ncpus {
                        if mask & (1 << cpu) != 0 && self.coherence_cache(cpu).peek(line).is_none()
                        {
                            return Err(format!(
                                "line {line:#x}: directory sharer cpu {cpu} \
                                 does not hold the line"
                            ));
                        }
                    }
                }
                DirEntry::Owned(owner) => {
                    if self.coherence_cache(owner as usize).peek(line).is_none() {
                        return Err(format!(
                            "line {line:#x}: directory owner cpu {owner} does \
                             not hold the line"
                        ));
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

    fn read() -> Access {
        Access {
            write: false,
            class: AccessClass::User,
        }
    }

    fn write() -> Access {
        Access {
            write: true,
            class: AccessClass::User,
        }
    }

    fn ccnuma() -> Hierarchy {
        Hierarchy::new(ArchConfig::ccnuma(2, 2))
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut h = ccnuma();
        let p = PAddr(0x1000);
        let miss = h.access(0, p, read(), 0, 0);
        assert!(!miss.l1_hit);
        let hit = h.access(0, p, read(), 0, 10_000);
        assert!(hit.l1_hit);
        assert!(hit.latency < miss.latency);
        assert_eq!(hit.latency, h.config().lat.l1_hit);
    }

    #[test]
    fn remote_home_costs_more_than_local() {
        let mut h = ccnuma();
        let local = h.access(0, PAddr(0x1000), read(), 0, 0); // cpu0 on node0
        let mut h2 = ccnuma();
        let remote = h2.access(0, PAddr(0x1000), read(), 1, 0);
        assert!(remote.remote);
        assert!(!local.remote);
        assert!(
            remote.latency > local.latency,
            "remote {} <= local {}",
            remote.latency,
            local.latency
        );
    }

    #[test]
    fn write_invalidates_other_reader() {
        let mut h = ccnuma();
        let p = PAddr(0x2000);
        h.access(0, p, read(), 0, 0);
        h.access(1, p, read(), 0, 1_000);
        // CPU1 writes: CPU0's copy must be invalidated.
        h.access(1, p, write(), 0, 2_000);
        assert!(h.stats().invalidations_delivered >= 1);
        assert!(
            h.epoch_victims().contains(&0),
            "invalidated CPU must be reported as a victim"
        );
        // CPU0's next read misses again.
        let r = h.access(0, p, read(), 0, 3_000);
        assert!(!r.l1_hit);
        h.check_invariants().unwrap();
    }

    #[test]
    fn read_after_remote_write_forwards_from_owner() {
        let mut h = ccnuma();
        let p = PAddr(0x3000);
        h.access(0, p, write(), 0, 0);
        let before = h.stats().forwards;
        h.access(2, p, read(), 0, 1_000); // cpu2 on node1
        assert_eq!(h.stats().forwards, before + 1, "3-hop forward expected");
        h.check_invariants().unwrap();
    }

    #[test]
    fn silent_e_to_m_upgrade_is_one_cycle() {
        let mut h = ccnuma();
        let p = PAddr(0x4000);
        h.access(0, p, read(), 0, 0); // Exclusive grant
        let w = h.access(0, p, write(), 0, 1_000);
        assert!(w.l1_hit, "E->M must not leave the L1");
        assert_eq!(w.latency, h.config().lat.l1_hit);
    }

    #[test]
    fn shared_write_is_an_upgrade_without_data_fetch() {
        let mut h = ccnuma();
        let p = PAddr(0x5000);
        h.access(0, p, read(), 0, 0);
        h.access(1, p, read(), 0, 100); // both Shared now
        let dir_writes_before = h.dir_stats().writes;
        h.access(0, p, write(), 0, 200);
        let ds = h.dir_stats();
        assert_eq!(ds.writes, dir_writes_before + 1);
        assert!(ds.upgrades >= 1);
        h.check_invariants().unwrap();
    }

    #[test]
    fn simple_backend_is_cheaper_per_miss_than_ccnuma() {
        let mut s = Hierarchy::new(ArchConfig::simple_smp(4));
        let mut c = ccnuma();
        let ps = PAddr(0x9000);
        let miss_s = s.access(0, ps, read(), 0, 0).latency;
        let miss_c = c.access(0, ps, read(), 1, 0).latency; // remote in ccnuma
        assert!(miss_s < miss_c);
    }

    #[test]
    fn l2_absorbs_l1_capacity_misses() {
        let mut h = ccnuma();
        // Touch enough lines to overflow one L1 set but stay in L2.
        let stride = 32 * 1024; // L1 is 32 KiB: same set, different tags
        for i in 0..8u64 {
            h.access(0, PAddr(0x10_0000 + i * stride), read(), 0, i * 1_000);
        }
        // Re-touch the first: L1 may miss but L2 should hit.
        let before_l2_hits = h.stats().l2_hits[0];
        h.access(0, PAddr(0x10_0000), read(), 0, 100_000);
        assert!(
            h.stats().l2_hits[0] > before_l2_hits,
            "expected an L2 hit on re-reference"
        );
    }

    #[test]
    fn coma_attraction_memory_absorbs_repeat_remote_reads() {
        let mut h = Hierarchy::new(ArchConfig::coma(2, 1));
        let p = PAddr(0x7000);
        // cpu0/node0 reads a line homed on node1: remote fetch + AM fill.
        let first = h.access(0, p, read(), 1, 0);
        assert!(first.remote);
        // Evict it from L1+L2 by touching many conflicting lines.
        // (Cheaper: invalidate via another CPU's write and re-read —
        // instead we just check the AM hit counter after an L2 eviction
        // scenario below.)
        // Touch conflicting lines to push p out of its L1 and L2 sets. A
        // 256 KiB stride aliases in both L1 (32 KiB) and L2 (1 MiB, 4096
        // sets) but spreads across the much larger attraction memory, so p
        // survives there.
        for i in 1..=12u64 {
            h.access(0, PAddr(0x7000 + i * 256 * 1024), read(), 0, i * 10_000);
        }
        let am_before = h.stats().am_hits[0];
        h.access(0, p, read(), 1, 10_000_000);
        assert!(
            h.stats().am_hits[0] > am_before,
            "re-reference should hit the attraction memory"
        );
    }

    #[test]
    fn dsm_transfer_charges_fixed_plus_per_byte() {
        let mut h = Hierarchy::new(ArchConfig::sw_dsm(2, 1));
        let small = h.dsm_page_transfer(0, 1, 256, 0);
        let big = h.dsm_page_transfer(0, 1, 4096, 1_000_000);
        assert!(big > small);
        assert_eq!(h.stats().dsm_faults, 2);
        assert_eq!(h.stats().dsm_bytes, 256 + 4096);
    }

    #[test]
    fn kernel_accesses_are_attributed_separately() {
        let mut h = ccnuma();
        h.access(
            0,
            PAddr(0x8000),
            Access {
                write: false,
                class: AccessClass::Kernel,
            },
            0,
            0,
        );
        assert_eq!(h.stats().accesses[AccessClass::Kernel.index()], 1);
        assert_eq!(h.stats().accesses[AccessClass::User.index()], 0);
    }

    #[test]
    fn stats_latency_matches_returned_latency() {
        let mut h = ccnuma();
        let mut sum = 0;
        for i in 0..20u64 {
            sum += h
                .access(0, PAddr(0x1000 + i * 8), read(), 0, i * 100)
                .latency;
        }
        assert_eq!(h.stats().latency[0], sum);
    }

    #[test]
    fn the_directory_keeps_an_entry_only_for_cached_lines() {
        // Small L2s, so a short stream overruns every cache many times.
        let mut cfg = ArchConfig::ccnuma(2, 2);
        cfg.l2 = Some(crate::config::CacheConfig {
            size: 64 * 1024,
            assoc: 4,
            line: 64,
        });
        let l2 = cfg.l2.unwrap();
        let resident_max = cfg.ncpus() * (l2.sets() * l2.assoc) as usize;
        let mut h = Hierarchy::new(cfg);
        let line = u64::from(h.coh_line_size());
        // One line shared by every CPU, then a stream four times the
        // caches' footprint, read and written from every CPU.
        let first = PAddr(0x100_0000);
        for cpu in 0..4 {
            h.access(cpu, first, read(), 0, cpu as u64);
        }
        assert_eq!(h.dir.len(), 1);
        let lines = 4 * resident_max as u64;
        for i in 0..lines {
            let p = PAddr(0x200_0000 + i * line);
            let acc = if i % 3 == 0 { write() } else { read() };
            // Each CPU takes runs of one line per set, so it fills them all.
            let cpu = (i / u64::from(l2.sets()) % 4) as usize;
            h.access(cpu, p, acc, (i % 2) as usize, 1_000 + i);
            assert!(
                h.dir.len() <= resident_max,
                "{} entries for {resident_max} cache lines",
                h.dir.len()
            );
        }
        assert!(
            h.dir.len() > resident_max / 2,
            "the stream filled the caches"
        );
        assert!(
            h.dir.entries().all(|(l, _)| l != h.coh_line(first)),
            "a line evicted from every cache keeps no entry"
        );
        h.check_invariants().unwrap();
    }
}
