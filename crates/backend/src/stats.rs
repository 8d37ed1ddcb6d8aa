//! Time attribution and backend-wide statistics — the data behind the
//! paper's Table 1 ("User vs. OS time") and the scheduler/placement
//! studies.
//!
//! The backend attributes simulated time from the event stream alone: the
//! gap between a process's consecutive events is compute time in the mode
//! of the later event (exact at basic-block granularity), and each reply's
//! latency is charged to the same mode. Blocked/ready/lock waits are
//! tracked separately and excluded from "CPU time", matching the paper
//! ("the total CPU time which excludes wait time due to disk IO").

use crate::engine::{Backend, SimOutcome};
use crate::locks::SyncStats;
use crate::sched::SchedStats;
use compass_arch::{AccessClass, MemStats};
use compass_isa::Cycles;
use compass_mem::placement::PlacementStats;
use compass_mem::TlbStats;
use compass_obs::Ctr;

/// Per-process time attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcTimes {
    /// CPU cycles by execution mode: `[user, kernel, interrupt]`.
    pub by_mode: [Cycles; 3],
    /// Cycles spent blocked (disk, net, IPC…).
    pub block_wait: Cycles,
    /// Cycles spent on the ready queue waiting for a CPU.
    pub ready_wait: Cycles,
    /// Cycles spent waiting for simulated locks / barriers.
    pub sync_wait: Cycles,
    /// Events processed for this process.
    pub events: u64,
    /// Simulated time the process exited (0 while running).
    pub exit_time: Cycles,
}

impl ProcTimes {
    /// Total CPU cycles (user + kernel + interrupt).
    pub fn cpu_cycles(&self) -> Cycles {
        self.by_mode.iter().sum()
    }
}

/// A Table-1-style row: shares of total CPU time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsTimeBreakdown {
    /// User share in percent.
    pub user_pct: f64,
    /// Total OS share in percent (interrupt + kernel).
    pub os_pct: f64,
    /// Interrupt-handler share in percent.
    pub interrupt_pct: f64,
    /// Kernel (system-call) share in percent.
    pub kernel_pct: f64,
}

/// Backend-wide statistics.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Per-process attribution, indexed by pid.
    pub procs: Vec<ProcTimes>,
    /// Global simulated cycles at the end of the run.
    pub global_cycles: Cycles,
    /// Total events processed.
    pub events: u64,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Lock/barrier counters.
    pub sync: SyncStats,
    /// TLB counters (summed over CPUs).
    pub tlb: TlbStats,
    /// Page-placement counters.
    pub placement: PlacementStats,
    /// Pages placed per node.
    pub pages_per_node: Vec<u64>,
    /// Soft page faults taken.
    pub soft_faults: u64,
    /// Disk operations and blocks, per disk.
    pub disk_ops: Vec<(u64, u64)>,
    /// NIC bytes/frames transmitted.
    pub nic_tx: (u64, u64),
    /// Interrupt-handler dispatches by source `[disk, net, timer]`.
    pub irq_dispatches: [u64; 3],
    /// Events consumed without simulation (the kernel daemon's final
    /// Block, answered with Shutdown at teardown).
    pub dropped_events: u64,
}

impl BackendStats {
    /// Table-1 breakdown over a set of processes (usually the application
    /// processes, excluding the kernel daemon whose interrupt time is
    /// already attributed to it).
    pub fn os_time_breakdown(&self, pids: impl IntoIterator<Item = usize>) -> OsTimeBreakdown {
        let mut by_mode = [0u64; 3];
        for pid in pids {
            let p = &self.procs[pid];
            for (i, v) in p.by_mode.iter().enumerate() {
                by_mode[i] += v;
            }
        }
        let total: u64 = by_mode.iter().sum();
        let pct = |x: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * x as f64 / total as f64
            }
        };
        OsTimeBreakdown {
            user_pct: pct(by_mode[AccessClass::User.index()]),
            kernel_pct: pct(by_mode[AccessClass::Kernel.index()]),
            interrupt_pct: pct(by_mode[AccessClass::Interrupt.index()]),
            os_pct: pct(
                by_mode[AccessClass::Kernel.index()] + by_mode[AccessClass::Interrupt.index()]
            ),
        }
    }
}

impl Backend {
    /// Collects every statistic of a finished run.
    pub(crate) fn finish(mut self) -> SimOutcome {
        // Flush the postbox's lock-free probe tally into the counter
        // catalogue. Observation-only: never part of BackendStats, so the
        // knob twins stay bit-identical by construction.
        self.obs
            .add(Ctr::DiskPollsEliminated, self.devshared.polls_eliminated());
        self.obs.add(Ctr::ScanIndexUpdates, self.index.writes());
        let (placement, pages_per_node) = self.vm.placement_stats();
        let stats = BackendStats {
            procs: self.procs.iter().map(|p| p.times).collect(),
            global_cycles: self.global_time,
            events: self.events_processed,
            mem: *self.arch.hierarchy().stats(),
            sched: self.sched.stats(),
            sync: self.sync.stats(),
            tlb: self.vm.tlb_stats(),
            placement,
            pages_per_node,
            soft_faults: self.soft_faults,
            disk_ops: self.disks.iter().map(|d| (d.ops, d.blocks)).collect(),
            nic_tx: (self.nic.tx_bytes, self.nic.tx_frames),
            irq_dispatches: self.irq_dispatches,
            dropped_events: self.dropped_events,
        };
        SimOutcome {
            stats,
            access_trace: self.arch.take_trace(),
            cpu_states: self.cpu_states,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let mut s = BackendStats::default();
        s.procs.push(ProcTimes {
            by_mode: [800, 150, 50],
            ..Default::default()
        });
        s.procs.push(ProcTimes {
            by_mode: [200, 50, 50],
            ..Default::default()
        });
        let b = s.os_time_breakdown(0..2);
        assert!((b.user_pct + b.os_pct - 100.0).abs() < 1e-9);
        assert!((b.os_pct - (b.interrupt_pct + b.kernel_pct)).abs() < 1e-9);
        assert!((b.user_pct - 1000.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_of_nothing_is_zero() {
        let s = BackendStats {
            procs: vec![ProcTimes::default()],
            ..Default::default()
        };
        let b = s.os_time_breakdown([0usize]);
        assert_eq!(b.user_pct, 0.0);
        assert_eq!(b.os_pct, 0.0);
    }

    #[test]
    fn cpu_cycles_sums_modes() {
        let p = ProcTimes {
            by_mode: [1, 2, 3],
            ..Default::default()
        };
        assert_eq!(p.cpu_cycles(), 6);
    }
}
