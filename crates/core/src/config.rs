//! Whole-simulation configuration.

use compass_arch::ArchConfig;
use compass_backend::BackendConfig;
use compass_isa::{InstClass, TimingModel};
use compass_obs::ObsConfig;
use compass_os::KernelConfig;

/// Everything a simulation run is parameterised by.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Backend (architecture + engine + scheduler + devices).
    pub backend: BackendConfig,
    /// OS-server cost model.
    pub kernel: KernelConfig,
    /// Frontend instruction timing.
    pub timing: TimingModel,
    /// Enable §3.2's user-mode pseudo-interrupt delivery in addition to
    /// the bottom-half kernel daemon. Turns batching off for every poster:
    /// the runner gives each port a one-slot ring whatever
    /// `backend.batch_depth` says, so the frontends (user and syscall
    /// code) and the daemon all post per event (the frontend checks the interrupt
    /// flag on every reply, and interrupt work must see the
    /// authoritative clock).
    pub pseudo_irq: bool,
    /// Observability: counters, structured trace, progress snapshots.
    /// Off by default; never consulted by simulation logic, so it cannot
    /// change simulated results.
    pub obs: ObsConfig,
}

impl SimConfig {
    /// Defaults around an architecture.
    pub fn new(arch: ArchConfig) -> Self {
        let backend = BackendConfig::new(arch);
        let kernel = KernelConfig {
            ndisks: backend.disks,
            ..KernelConfig::default()
        };
        Self {
            backend,
            kernel,
            timing: TimingModel::powerpc_604(),
            pseudo_irq: false,
            obs: ObsConfig::default(),
        }
    }

    /// Canonical hash of the whole simulated configuration: the backend
    /// hash ([`compass_backend::BackendConfig::config_hash`], which folds
    /// [`compass_arch::Hierarchy::config_hash`] with every engine knob)
    /// followed by the kernel cost model, instruction timing and the
    /// frontend knobs. Observability is excluded — it is
    /// observation-only by construction and proven stats-neutral by
    /// simcheck, so two runs differing only in `obs` are the same
    /// configuration. The fleet runner dedupes lattice points on this.
    ///
    /// Like the backend hash, the encoding is explicit and field by field
    /// (no `Debug` rendering), and destructuring forces a new field to be
    /// encoded or deliberately excluded here.
    pub fn config_hash(&self) -> u64 {
        let SimConfig {
            backend,
            kernel,
            timing,
            pseudo_irq,
            obs: _,
        } = self;
        let KernelConfig {
            touch_gran,
            nbufs,
            mss,
            checksum_per_byte_x100,
            tcp_per_packet,
            ip_per_packet,
            disk_intr,
            ether_intr,
            timer_intr,
            path_per_byte,
            select_per_fd,
            ndisks,
        } = kernel;
        let mut w = compass_snap::Writer::new();
        w.u64(backend.config_hash());
        w.u32(*touch_gran);
        w.u64(*nbufs as u64);
        w.u32(*mss);
        for v in [
            checksum_per_byte_x100,
            tcp_per_packet,
            ip_per_packet,
            disk_intr,
            ether_intr,
            timer_intr,
            path_per_byte,
            select_per_fd,
        ] {
            w.u64(*v);
        }
        w.u64(*ndisks as u64);
        for class in InstClass::ALL {
            w.u64(timing.cost(class));
        }
        w.u32(timing.clock_mhz);
        w.bool(*pseudo_irq);
        compass_snap::fnv1a64(&w.into_bytes())
    }

    /// Validates cross-component consistency. Nonsensical knob
    /// combinations are rejected here, at build time, instead of failing
    /// (or being silently meaningless) deep inside a run.
    pub fn validate(&self) -> Result<(), String> {
        self.backend.validate()?;
        if self.kernel.ndisks != self.backend.disks {
            return Err(format!(
                "kernel stripes over {} disks but the backend models {}",
                self.kernel.ndisks, self.backend.disks
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_ignores_observability_but_not_transport() {
        let base = SimConfig::new(ArchConfig::ccnuma(2, 2));
        let mut obs = SimConfig::new(ArchConfig::ccnuma(2, 2));
        obs.obs.counters = true;
        assert_eq!(base.config_hash(), obs.config_hash());

        let mut batch = SimConfig::new(ArchConfig::ccnuma(2, 2));
        batch.backend.batch_depth = 1;
        assert_ne!(base.config_hash(), batch.config_hash());

        let arch = SimConfig::new(ArchConfig::simple_smp(4));
        assert_ne!(base.config_hash(), arch.config_hash());

        let mut timing = SimConfig::new(ArchConfig::ccnuma(2, 2));
        timing.timing = TimingModel::unit();
        assert_ne!(base.config_hash(), timing.config_hash());

        let mut kernel = SimConfig::new(ArchConfig::ccnuma(2, 2));
        kernel.kernel.nbufs += 1;
        assert_ne!(base.config_hash(), kernel.config_hash());
    }

    /// The shipped defaults hash to a pinned value: the encoding is
    /// explicit, so this moves only when a default or the encoding itself
    /// changes — re-pin deliberately (fleet dedupe keys move with it).
    #[test]
    fn default_config_hash_is_pinned() {
        assert_eq!(
            SimConfig::new(ArchConfig::ccnuma(2, 2)).config_hash(),
            0xda4d_cee3_5dc7_880f,
            "SimConfig::config_hash of the ccnuma(2, 2) defaults moved"
        );
    }

    #[test]
    fn defaults_are_consistent() {
        SimConfig::new(ArchConfig::ccnuma(2, 2)).validate().unwrap();
    }

    #[test]
    fn disk_mismatch_is_caught() {
        let mut c = SimConfig::new(ArchConfig::simple_smp(2));
        c.kernel.ndisks = 7;
        assert!(c.validate().is_err());
    }

    #[test]
    fn degenerate_knobs_are_rejected_at_build_time() {
        // A depth above 4096 would be the ring allocation itself.
        for depth in [0, 4097] {
            let mut c = SimConfig::new(ArchConfig::simple_smp(2));
            c.backend.batch_depth = depth;
            assert!(c.validate().is_err(), "batch_depth {depth} accepted");
        }
    }

    #[test]
    fn pseudo_irq_tolerates_the_default_batch_depth() {
        let mut c = SimConfig::new(ArchConfig::simple_smp(2));
        c.pseudo_irq = true;
        // Valid, but nothing batches: every port ring gets one slot.
        c.validate().unwrap();
    }
}
