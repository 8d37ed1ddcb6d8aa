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
    /// OS-thread pool size; defaults to one per process at run time when
    /// zero.
    pub os_threads: usize,
    /// Enable §3.2's user-mode pseudo-interrupt delivery in addition to
    /// the bottom-half kernel daemon.
    pub pseudo_irq: bool,
    /// Interleaving granularity: post every Nth user memory reference
    /// (1 = the paper's basic-block-exact interleaving).
    pub sample_period: u32,
    /// Reference filtering: each frontend keeps private L1/TLB mirrors
    /// and handles predicted hits locally, logging them for backend
    /// replay. Bit-identical results either way (see the backend engine
    /// docs); ignored when `pseudo_irq` is on, whose per-reply flag check
    /// filtering would skip.
    pub filter: bool,
    /// OS-port event-batch depth for syscall-path kernel code: kernel
    /// memory references publish non-blocking events whose latencies the
    /// backend settles through the port credit, exactly like the frontend
    /// `batch_depth`. 1 disables; bit-identical results at any depth.
    /// Ignored when `pseudo_irq` is on (interrupt work must stay on the
    /// per-event protocol).
    pub kernel_batch_depth: usize,
    /// Kernel-side reference filtering: each OS thread mirrors its
    /// companion CPU's L1/TLB and keeps predicted kernel hits local,
    /// logging them for authoritative backend replay. Bit-identical
    /// backend results either way; ignored when `pseudo_irq` is on.
    pub kernel_filter: bool,
    /// Event-driven disk path (ISSUE 9): the bottom-half daemon's
    /// interrupt handlers ride the batched-event protocol (depth =
    /// `kernel_batch_depth`), settling latencies through the port credit
    /// instead of rendezvousing per kernel reference. Device-queue
    /// drains only ever run at settled points, so results stay
    /// bit-identical either way. Ignored when `pseudo_irq` is on or
    /// `kernel_batch_depth` is 1.
    pub disk_wake: bool,
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
            os_threads: 0,
            pseudo_irq: false,
            sample_period: 1,
            filter: false,
            kernel_batch_depth: 8,
            kernel_filter: false,
            disk_wake: true,
            obs: ObsConfig::default(),
        }
    }

    /// Canonical hash of the whole simulated configuration: the backend
    /// hash ([`compass_backend::BackendConfig::config_hash`], which folds
    /// [`compass_arch::Hierarchy::config_hash`] with every engine knob)
    /// followed by the kernel cost model, instruction timing, and the
    /// frontend/OS transport knobs. Observability is excluded — it is
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
            os_threads,
            pseudo_irq,
            sample_period,
            filter,
            kernel_batch_depth,
            kernel_filter,
            disk_wake,
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
        w.u64(*os_threads as u64);
        w.bool(*pseudo_irq);
        w.u32(*sample_period);
        w.bool(*filter);
        w.u64(*kernel_batch_depth as u64);
        w.bool(*kernel_filter);
        w.bool(*disk_wake);
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
        if self.kernel_batch_depth == 0 {
            return Err(
                "kernel_batch_depth must be >= 1 (1 = classic per-event rendezvous)".into(),
            );
        }
        if self.sample_period == 0 {
            return Err("sample_period must be >= 1 (1 = every reference)".into());
        }
        // `filter`/`kernel_filter` are documented as ignored under
        // pseudo-IRQ delivery (the per-reply flag check would be
        // skipped); asking for both explicitly is a contradiction, not a
        // default, so refuse it outright. `kernel_batch_depth > 1` and
        // `disk_wake` stay warn-and-ignore: they are on by default and
        // pseudo_irq users never chose them.
        if self.pseudo_irq && self.filter {
            return Err("filter is incompatible with pseudo_irq (replies carry \
                 the IRQ flag the filter would skip); disable one"
                .into());
        }
        if self.pseudo_irq && self.kernel_filter {
            return Err("kernel_filter is incompatible with pseudo_irq (interrupt \
                 work must see authoritative replies); disable one"
                .into());
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

        let mut filter = SimConfig::new(ArchConfig::ccnuma(2, 2));
        filter.filter = true;
        assert_ne!(base.config_hash(), filter.config_hash());

        let mut kbatch = SimConfig::new(ArchConfig::ccnuma(2, 2));
        kbatch.kernel_batch_depth = 1;
        assert_ne!(base.config_hash(), kbatch.config_hash());

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
            0xe809_2ad0_21f9_4b22,
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
        let mut c = SimConfig::new(ArchConfig::simple_smp(2));
        c.kernel_batch_depth = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::new(ArchConfig::simple_smp(2));
        c.sample_period = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn pseudo_irq_refuses_explicit_filters_but_tolerates_defaults() {
        let mut c = SimConfig::new(ArchConfig::simple_smp(2));
        c.pseudo_irq = true;
        // Defaults (batch depth 8, disk_wake on) are warn-and-ignore.
        c.validate().unwrap();
        c.filter = true;
        assert!(c.validate().is_err());
        c.filter = false;
        c.kernel_filter = true;
        assert!(c.validate().is_err());
    }
}
