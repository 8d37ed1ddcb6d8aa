//! Architecture configuration: geometries, latencies, memory-system kind.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u32,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.size / (self.line * self.assoc)
    }

    /// Validates the geometry (power-of-two sets and line).
    pub fn validate(&self) -> Result<(), String> {
        if !self.line.is_power_of_two() {
            return Err(format!("line size {} not a power of two", self.line));
        }
        if !self.size.is_multiple_of(self.line * self.assoc) {
            return Err(format!(
                "size {} not divisible by line*assoc {}",
                self.size,
                self.line * self.assoc
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} not a power of two", self.sets()));
        }
        Ok(())
    }

    /// A PowerPC-604-style 32 KiB 4-way L1 with 32-byte lines.
    pub fn l1_604() -> Self {
        CacheConfig {
            size: 32 * 1024,
            assoc: 4,
            line: 32,
        }
    }

    /// A 1 MiB 4-way L2 with 64-byte lines.
    pub fn l2_1m() -> Self {
        CacheConfig {
            size: 1024 * 1024,
            assoc: 4,
            line: 64,
        }
    }
}

/// Latency and occupancy parameters, in target cycles.
///
/// The defaults approximate a late-90s CC-NUMA built from 133 MHz nodes:
/// single-cycle L1, ~8-cycle L2, ~60-cycle local memory, and a network
/// whose remote round trip lands in the few-hundred-cycle range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyParams {
    /// L1 hit time.
    pub l1_hit: u64,
    /// L2 hit time (beyond the L1 probe).
    pub l2_hit: u64,
    /// DRAM access at the memory controller.
    pub mem_access: u64,
    /// Directory lookup/update.
    pub dir_lookup: u64,
    /// Node bus occupancy per transaction.
    pub bus_occupancy: u64,
    /// Fixed network overhead per message.
    pub net_fixed: u64,
    /// Network latency per hop.
    pub net_per_hop: u64,
    /// Network cost per byte of payload (cache line transfers).
    pub net_per_byte_x100: u64,
    /// Cost to invalidate one remote sharer (round trip folded in).
    pub invalidate: u64,
    /// COMA attraction-memory hit time (beyond the L2 probe).
    pub am_hit: u64,
    /// TLB miss page-walk penalty.
    pub tlb_miss: u64,
    /// Backend cost charged for a soft (demand-zero) page fault.
    pub soft_fault: u64,
    /// Software-DSM page transfer: fixed cost (fault + protocol).
    pub dsm_fault_fixed: u64,
    /// Software-DSM page transfer: per-byte cost ×100.
    pub dsm_per_byte_x100: u64,
}

impl Default for LatencyParams {
    fn default() -> Self {
        LatencyParams {
            l1_hit: 1,
            l2_hit: 8,
            mem_access: 60,
            dir_lookup: 12,
            bus_occupancy: 6,
            net_fixed: 40,
            net_per_hop: 20,
            net_per_byte_x100: 50, // 0.5 cycles/byte
            invalidate: 30,
            am_hit: 25,
            tlb_miss: 30,
            soft_fault: 400,
            dsm_fault_fixed: 8_000,
            dsm_per_byte_x100: 400, // 4 cycles/byte: software copies
        }
    }
}

/// Which memory system the backend simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSysKind {
    /// The paper's "simple backend": one-level cache per processor and a
    /// flat memory latency; coherence bookkeeping without directory or
    /// network costs.
    Simple,
    /// Cache-coherent NUMA with a full directory protocol (the paper's
    /// "complex backend" / "complete CCNUMA system").
    CcNuma,
    /// Cache-only memory architecture: per-node attraction memory between
    /// the processor caches and the directory (§5 mentions COMA studies).
    Coma,
    /// Software DSM: page-granularity coherence driven by page faults
    /// (§5). Line-level behaviour is local; remote data moves page-wise.
    SoftDsm,
}

/// Full architecture configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Memory-system kind.
    pub kind: MemSysKind,
    /// Number of NUMA nodes (1 = a bus-based SMP).
    pub nodes: usize,
    /// CPUs per node.
    pub cpus_per_node: usize,
    /// L1 geometry.
    pub l1: CacheConfig,
    /// Optional L2 geometry (the complex backend has one).
    pub l2: Option<CacheConfig>,
    /// COMA attraction-memory geometry (per node); only used when `kind`
    /// is [`MemSysKind::Coma`].
    pub attraction: Option<CacheConfig>,
    /// Latency parameters.
    pub lat: LatencyParams,
    /// Interconnect topology.
    pub topology: crate::interconnect::Topology,
}

impl ArchConfig {
    /// Total CPU count.
    pub fn ncpus(&self) -> usize {
        self.nodes * self.cpus_per_node
    }

    /// Node hosting a CPU.
    pub fn node_of_cpu(&self, cpu: usize) -> usize {
        cpu / self.cpus_per_node
    }

    /// The paper's *simple backend*: a 4-way SMP with one cache level.
    pub fn simple_smp(ncpus: usize) -> Self {
        ArchConfig {
            kind: MemSysKind::Simple,
            nodes: 1,
            cpus_per_node: ncpus,
            l1: CacheConfig::l1_604(),
            l2: None,
            attraction: None,
            lat: LatencyParams::default(),
            topology: crate::interconnect::Topology::Crossbar,
        }
    }

    /// The paper's *complex backend*: a CC-NUMA with two cache levels.
    pub fn ccnuma(nodes: usize, cpus_per_node: usize) -> Self {
        ArchConfig {
            kind: MemSysKind::CcNuma,
            nodes,
            cpus_per_node,
            l1: CacheConfig::l1_604(),
            l2: Some(CacheConfig::l2_1m()),
            attraction: None,
            lat: LatencyParams::default(),
            topology: crate::interconnect::Topology::Crossbar,
        }
    }

    /// A COMA machine of the same shape as [`ArchConfig::ccnuma`].
    pub fn coma(nodes: usize, cpus_per_node: usize) -> Self {
        ArchConfig {
            attraction: Some(CacheConfig {
                size: 8 * 1024 * 1024,
                assoc: 8,
                line: 64,
            }),
            kind: MemSysKind::Coma,
            ..Self::ccnuma(nodes, cpus_per_node)
        }
    }

    /// A software-DSM cluster of the same shape.
    pub fn sw_dsm(nodes: usize, cpus_per_node: usize) -> Self {
        ArchConfig {
            kind: MemSysKind::SoftDsm,
            ..Self::ccnuma(nodes, cpus_per_node)
        }
    }

    /// Validates geometries and shape.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.cpus_per_node == 0 {
            return Err("need at least one node and one CPU per node".into());
        }
        self.l1.validate()?;
        if let Some(l2) = &self.l2 {
            l2.validate()?;
            if l2.line < self.l1.line {
                return Err("L2 line must be >= L1 line (inclusion)".into());
            }
            if l2.line % self.l1.line != 0 {
                return Err("L2 line must be a multiple of L1 line".into());
            }
        }
        if self.kind == MemSysKind::Coma && self.attraction.is_none() {
            return Err("COMA requires an attraction-memory geometry".into());
        }
        if let Some(am) = &self.attraction {
            am.validate()?;
        }
        Ok(())
    }

    /// The line size coherence operates at (L2 line when present).
    pub fn coherence_line(&self) -> u32 {
        self.l2.map_or(self.l1.line, |l2| l2.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_math() {
        let c = CacheConfig::l1_604();
        assert_eq!(c.sets(), 256);
        c.validate().unwrap();
    }

    #[test]
    fn bad_geometries_rejected() {
        assert!(CacheConfig {
            size: 1000,
            assoc: 3,
            line: 32
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size: 32 * 1024,
            assoc: 4,
            line: 48
        }
        .validate()
        .is_err());
    }

    #[test]
    fn presets_validate() {
        ArchConfig::simple_smp(4).validate().unwrap();
        ArchConfig::ccnuma(4, 2).validate().unwrap();
        ArchConfig::coma(4, 2).validate().unwrap();
        ArchConfig::sw_dsm(2, 4).validate().unwrap();
    }

    #[test]
    fn cpu_to_node_mapping() {
        let c = ArchConfig::ccnuma(4, 2);
        assert_eq!(c.ncpus(), 8);
        assert_eq!(c.node_of_cpu(0), 0);
        assert_eq!(c.node_of_cpu(1), 0);
        assert_eq!(c.node_of_cpu(2), 1);
        assert_eq!(c.node_of_cpu(7), 3);
    }

    #[test]
    fn coma_requires_attraction_memory() {
        let mut c = ArchConfig::coma(2, 2);
        c.attraction = None;
        assert!(c.validate().is_err());
    }

    #[test]
    fn coherence_line_prefers_l2() {
        assert_eq!(ArchConfig::simple_smp(1).coherence_line(), 32);
        assert_eq!(ArchConfig::ccnuma(1, 1).coherence_line(), 64);
    }

    #[test]
    fn l2_line_must_contain_l1_line() {
        let mut c = ArchConfig::ccnuma(1, 1);
        c.l2 = Some(CacheConfig {
            size: 1024 * 1024,
            assoc: 4,
            line: 16,
        });
        assert!(c.validate().is_err());
    }
}
