//! Backend configuration.

use crate::devices::{DiskParams, NetParams};
use compass_arch::ArchConfig;
use compass_isa::Cycles;
use compass_mem::PlacementPolicy;

/// Process-scheduler policies (§3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// "In the default or FCFS scheduler a process will be assigned the
    /// first available processor."
    Fcfs,
    /// "In the optimized or affinity scheduler, if more than one processor
    /// is free, the process will try to choose a processor it has used
    /// before, preferably the one it was using before it was blocked",
    /// falling back to processors on the same node.
    Affinity,
}

/// Backend configuration.
#[derive(Debug, Clone)]
pub struct BackendConfig {
    /// Target architecture model.
    pub arch: ArchConfig,
    /// Scheduler policy.
    pub sched: SchedPolicy,
    /// Pre-emption interval; `None` disables the pre-emptive scheduler.
    /// "The pre-emption interval can be changed in the simulator. The
    /// pre-emptive scheduler can be used with the default or optimized
    /// scheduler." (§3.3.2)
    pub preempt_interval: Option<Cycles>,
    /// Page placement policy (§3.3.1).
    pub placement: PlacementPolicy,
    /// Simulated memory per node, bytes.
    pub mem_per_node: u64,
    /// Number of simulated disks.
    pub disks: usize,
    /// Disk timing parameters.
    pub disk: DiskParams,
    /// Network/NIC timing parameters.
    pub net: NetParams,
    /// TLB entries per CPU (0 disables the TLB model).
    pub tlb_entries: usize,
    /// TLB associativity.
    pub tlb_assoc: usize,
    /// Interval-timer period per CPU; `None` disables timer interrupts.
    pub timer_interval: Option<Cycles>,
    /// Read by nothing: every poster is a task, so a stuck run is reported
    /// at once ([`crate::error::DeadlockKind::HostTimeout`]). Kept only
    /// because the benchmark sets it; it goes with ROADMAP item 1(a).
    pub deadlock_ms: u64,
    /// Which simulated CPU device interrupts are routed to.
    pub irq_cpu: usize,
    /// Event-batch depth, which is every port ring's capacity: a
    /// frontend, in user code and on the syscall path, and the bottom-half
    /// daemon's interrupt handlers publish non-blocking while the ring
    /// keeps a slot for the blocking post that cuts the batch (1 =
    /// classic per-event rendezvous). Credit accounting makes results
    /// identical at any depth (see the engine module docs), so this is
    /// purely a host-performance knob. At most 4096: a deeper batch
    /// buys nothing and the depth is the ring allocation.
    pub batch_depth: usize,
}

impl BackendConfig {
    /// Deterministic hash of the simulated configuration — the
    /// architecture hash ([`compass_arch::Hierarchy::config_hash`])
    /// followed by every backend knob that
    /// shapes the simulation, including the stats-neutral `batch_depth`:
    /// two configurations that differ only in transport are still distinct
    /// *runs* even though their statistics are identical, and the fleet
    /// runner dedupes on exactly this hash. `deadlock_ms` is excluded: it
    /// is read by nothing, so it shapes no simulation.
    ///
    /// The encoding is explicit, field by field, so the hash moves only
    /// when a field's value does — never because a type's `Debug`
    /// rendering changed. Destructuring makes a new field a compile error
    /// here until it is encoded (or deliberately excluded).
    pub fn config_hash(&self) -> u64 {
        let BackendConfig {
            arch,
            sched,
            preempt_interval,
            placement,
            mem_per_node,
            disks,
            disk,
            net,
            tlb_entries,
            tlb_assoc,
            timer_interval,
            deadlock_ms: _,
            irq_cpu,
            batch_depth,
        } = self;
        let mut w = compass_snap::Writer::new();
        w.u64(compass_arch::Hierarchy::config_hash(arch));
        w.u8(match sched {
            SchedPolicy::Fcfs => 0,
            SchedPolicy::Affinity => 1,
        });
        encode_opt(&mut w, *preempt_interval);
        match placement {
            PlacementPolicy::RoundRobin => w.u8(0),
            PlacementPolicy::Block(pages) => {
                w.u8(1);
                w.u32(*pages);
            }
            PlacementPolicy::FirstTouch => w.u8(2),
        }
        w.u64(*mem_per_node);
        w.u64(*disks as u64);
        let DiskParams {
            positioning,
            per_block,
            issue_overhead,
        } = disk;
        for v in [positioning, per_block, issue_overhead] {
            w.u64(*v);
        }
        let NetParams {
            per_frame,
            per_byte_x100,
            mtu,
            issue_overhead,
        } = net;
        w.u64(*per_frame);
        w.u64(*per_byte_x100);
        w.u32(*mtu);
        w.u64(*issue_overhead);
        w.u64(*tlb_entries as u64);
        w.u64(*tlb_assoc as u64);
        encode_opt(&mut w, *timer_interval);
        w.u64(*irq_cpu as u64);
        w.u64(*batch_depth as u64);
        compass_snap::fnv1a64(&w.into_bytes())
    }

    /// A reasonable default around a given architecture.
    pub fn new(arch: ArchConfig) -> Self {
        BackendConfig {
            arch,
            sched: SchedPolicy::Fcfs,
            preempt_interval: None,
            placement: PlacementPolicy::FirstTouch,
            mem_per_node: 1 << 32, // 4 GiB per node: placement studies never exhaust
            disks: 2,
            disk: DiskParams::default(),
            net: NetParams::default(),
            tlb_entries: 128,
            tlb_assoc: 2,
            timer_interval: None,
            deadlock_ms: 10_000,
            irq_cpu: 0,
            batch_depth: 64,
        }
    }

    /// Validates shape parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.arch.validate()?;
        if self.irq_cpu >= self.arch.ncpus() {
            return Err(format!(
                "irq_cpu {} out of range ({} cpus)",
                self.irq_cpu,
                self.arch.ncpus()
            ));
        }
        if self.tlb_entries > 0 {
            if self.tlb_assoc == 0 || !self.tlb_entries.is_multiple_of(self.tlb_assoc) {
                return Err("bad TLB geometry".into());
            }
            if !(self.tlb_entries / self.tlb_assoc).is_power_of_two() {
                return Err("TLB set count must be a power of two".into());
            }
        }
        if let Some(p) = self.preempt_interval {
            if p == 0 {
                return Err("zero pre-emption interval".into());
            }
        }
        if !(1..=4096).contains(&self.batch_depth) {
            return Err(format!("batch_depth {} not in 1..=4096", self.batch_depth));
        }
        Ok(())
    }
}

/// Encodes an optional cycle count as a presence flag plus the value.
fn encode_opt(w: &mut compass_snap::Writer, v: Option<Cycles>) {
    w.bool(v.is_some());
    w.u64(v.unwrap_or(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_tracks_every_simulated_knob_but_not_the_unused_window() {
        let base = BackendConfig::new(ArchConfig::ccnuma(2, 2));
        assert_eq!(base.config_hash(), base.clone().config_hash());

        let mut c = base.clone();
        c.deadlock_ms += 1;
        assert_eq!(base.config_hash(), c.config_hash(), "deadlock_ms leaked in");

        let mut arch = base.clone();
        arch.arch = ArchConfig::simple_smp(4);
        let mut sched = base.clone();
        sched.sched = SchedPolicy::Affinity;
        let mut batch = base.clone();
        batch.batch_depth += 1;
        let mut preempt = base.clone();
        preempt.preempt_interval = Some(400_000);
        let mut timer = base.clone();
        timer.timer_interval = Some(400_000);
        let mut block = base.clone();
        block.placement = PlacementPolicy::Block(2);
        let hashes =
            [&base, &arch, &sched, &batch, &preempt, &timer, &block].map(|c| c.config_hash());
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "configs {i} and {j} collide");
            }
        }
    }

    #[test]
    fn default_config_validates() {
        BackendConfig::new(ArchConfig::ccnuma(2, 2))
            .validate()
            .unwrap();
        BackendConfig::new(ArchConfig::simple_smp(4))
            .validate()
            .unwrap();
    }

    #[test]
    fn bad_irq_cpu_rejected() {
        let mut c = BackendConfig::new(ArchConfig::simple_smp(2));
        c.irq_cpu = 5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_tlb_rejected() {
        let mut c = BackendConfig::new(ArchConfig::simple_smp(2));
        c.tlb_entries = 100;
        c.tlb_assoc = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_preempt_interval_rejected() {
        let mut c = BackendConfig::new(ArchConfig::simple_smp(2));
        c.preempt_interval = Some(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_batch_depth_rejected() {
        let mut c = BackendConfig::new(ArchConfig::simple_smp(2));
        c.batch_depth = 0;
        assert!(c.validate().is_err());
    }
}
