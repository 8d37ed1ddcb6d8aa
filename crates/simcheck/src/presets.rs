//! Named baseline scenarios shared by the harnesses.
//!
//! The single catalogue of workload shapes the fleet runner, the `probe`
//! CLI and the tests draw from. Every preset is a fully-specified
//! [`Scenario`] at the *baseline* point (schedule seed 0; the batch depth
//! is set by the harness, not the scenario) — so a harness that wants to
//! sweep an axis mutates exactly that axis and nothing else.

use crate::scenario::{ArchPreset, Geometry, Scenario, Workload};
use compass::{PlacementPolicy, SchedPolicy};

/// A baseline scenario around a workload: seed 0, 2 processes, the
/// 2x2 cc-NUMA preset, default geometry, FCFS, no pre-emption,
/// first-touch placement, schedule seed 0.
fn base(workload: Workload, nprocs: u16) -> Scenario {
    Scenario {
        seed: 0,
        workload,
        nprocs,
        preset: ArchPreset::CcNuma2x2,
        geometry: Geometry::Default,
        sched: SchedPolicy::Fcfs,
        preempt: false,
        placement: PlacementPolicy::FirstTouch,
        schedule: 0,
    }
}

/// Small scientific kernel: quick, timing-independent, barrier-heavy.
pub fn sci_small() -> Scenario {
    base(
        Workload::Sci {
            rows: 4,
            cols: 16,
            iters: 2,
        },
        2,
    )
}

/// Denser scientific kernel: more rows/iterations, 4 processes — a
/// `probe` shape where frontend posting dominates host time.
pub fn sci_dense() -> Scenario {
    base(
        Workload::Sci {
            rows: 5,
            cols: 32,
            iters: 3,
        },
        4,
    )
}

/// File-I/O chaos: the OS-server stress shape (syscall-path batching and
/// the daemon's batched disk interrupts both light up here).
pub fn chaos_small() -> Scenario {
    base(Workload::FileChaos { steps: 40 }, 2)
}

/// Tiny TPC-C: timing-dependent commercial workload, lock contention
/// and buffer-pool traffic.
pub fn tpcc_small() -> Scenario {
    base(Workload::Tpcc { txns: 3 }, 2)
}

/// Small HTTP serving run: accept races, the traffic player, network
/// plus disk interrupts.
pub fn http_small() -> Scenario {
    base(Workload::Http { requests: 4 }, 2)
}

/// Table 1's scientific contrast row: 4 processes relaxing 48×96
/// blocks for 3 iterations.
pub fn sci_table1() -> Scenario {
    base(
        Workload::Sci {
            rows: 48,
            cols: 96,
            iters: 3,
        },
        4,
    )
}

/// Oversubscribed scientific kernel: Table 1's shape with 8 processes on
/// the 4 CPUs, so the ready queue is always in play and a pre-emptive
/// run swaps processes at its timer ticks.
pub fn sci_oversub() -> Scenario {
    Scenario {
        nprocs: 8,
        ..sci_table1()
    }
}

/// Table 1's web-serving row: 4 server processes, 120 requests.
pub fn http_table1() -> Scenario {
    base(Workload::Http { requests: 120 }, 4)
}

/// Oversubscribed TPC-C: 6 terminals on the 4 CPUs, 15 transactions
/// each, so the ready queue is in play — the §3.3.2 scheduler study's
/// input and Table 1's OLTP row.
pub fn tpcc_oversub() -> Scenario {
    base(Workload::Tpcc { txns: 15 }, 6)
}

/// Parallel TPC-D Q1 scan: 4 workers over 30,000 rows — the §3.3.1
/// placement and §5 memory-system studies' input and Table 1's decision
/// support row. Affinity scheduling: under FCFS every unblock lands on
/// the first free CPU and the query collapses onto node 0.
pub fn tpcd_scan() -> Scenario {
    Scenario {
        sched: SchedPolicy::Affinity,
        ..base(Workload::Tpcd { lineitems: 30_000 }, 4)
    }
}

/// Every named preset, in catalogue order.
pub fn all() -> Vec<(&'static str, Scenario)> {
    vec![
        ("sci_small", sci_small()),
        ("sci_dense", sci_dense()),
        ("chaos_small", chaos_small()),
        ("tpcc_small", tpcc_small()),
        ("http_small", http_small()),
        ("sci_table1", sci_table1()),
        ("sci_oversub", sci_oversub()),
        ("http_table1", http_table1()),
        ("tpcc_oversub", tpcc_oversub()),
        ("tpcd_scan", tpcd_scan()),
    ]
}

/// Looks a preset up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, sc)| sc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_is_baseline_and_validates() {
        for (name, sc) in all() {
            assert_eq!(sc.schedule, 0, "{name} not baseline");
            sc.arch_config(); // panics if the geometry does not validate
            assert_eq!(by_name(name), Some(sc));
        }
        assert_eq!(by_name("nope"), None);
    }
}
