//! Named baseline scenarios shared by the harnesses.
//!
//! The bench reports and the fleet runner used to each hard-code their
//! own workload shapes; this module is the single catalogue both (and
//! any future harness) draw from. Every preset is a fully-specified
//! [`Scenario`] at the *baseline* point (`ckpt` off; the batch depth is
//! set by the harness, not the scenario) — so a harness that wants to
//! sweep an axis mutates exactly that axis and nothing else.

use crate::scenario::{ArchPreset, Geometry, Scenario, Workload};
use compass::{PlacementPolicy, SchedPolicy};

/// A baseline scenario around a workload: seed 0, 2 processes, the
/// 2x2 cc-NUMA preset, default geometry, FCFS, no pre-emption,
/// first-touch placement, no checkpoint gate.
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
        ckpt: false,
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

/// Denser scientific kernel: more rows/iterations, 4 processes — the
/// shape the frontend batch-depth sweep cares about.
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

/// Every named preset, in catalogue order.
pub fn all() -> Vec<(&'static str, Scenario)> {
    vec![
        ("sci_small", sci_small()),
        ("sci_dense", sci_dense()),
        ("chaos_small", chaos_small()),
        ("tpcc_small", tpcc_small()),
        ("http_small", http_small()),
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
            assert!(!sc.ckpt, "{name} not baseline");
            sc.arch_config(); // panics if the geometry does not validate
            assert_eq!(by_name(name), Some(sc));
        }
        assert_eq!(by_name("nope"), None);
    }
}
