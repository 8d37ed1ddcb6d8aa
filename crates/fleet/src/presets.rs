//! Named fleet presets: the design-space sweeps the individual bench
//! reports used to hard-code, folded into declarative lattices over the
//! shared scenario catalogue (`compass_simcheck::presets`).
//!
//! Union semantics: a preset is a *list* of lattices, expanded
//! independently and deduplicated together — sub-sweeps over the same
//! workload share their baseline point, which the config-hash dedupe
//! collapses to a single run.

use crate::lattice::{Knob, Lattice};
use compass::{PlacementPolicy, SchedPolicy};
use compass_simcheck::presets as sc;
use compass_simcheck::{ArchPreset, Geometry as Geo};

use Knob::*;

/// CI preset: every knob family exercised across four workloads, small
/// enough for a single-core host. The shared baselines dedupe.
pub fn smoke() -> Vec<Lattice> {
    vec![
        Lattice::new("sci_small", sc::sci_small()).axis(&[Depth(1), Depth(16)]),
        Lattice::new("chaos_small", sc::chaos_small()).axis(&[OsBatch(1), OsBatch(8)]),
        Lattice::new("chaos_small", sc::chaos_small()).axis(&[DiskWake(true), DiskWake(false)]),
        Lattice::new("tpcc_small", sc::tpcc_small()).axis(&[Ckpt(false), Ckpt(true)]),
        Lattice::new("http_small", sc::http_small()).axis(&[Depth(1), Depth(16)]),
    ]
}

/// Folds `report_comm`'s event-batch sweep: frontend depth across the
/// dense scientific kernel.
pub fn comm() -> Vec<Lattice> {
    vec![Lattice::new("sci_dense", sc::sci_dense()).axis(&[
        Depth(1),
        Depth(4),
        Depth(16),
        Depth(64),
    ])]
}

/// Folds `report_http`'s transport half: depth crossed with the OS-port
/// batch on the HTTP workload.
pub fn http() -> Vec<Lattice> {
    vec![Lattice::new("http_small", sc::http_small())
        .axis(&[Depth(1), Depth(16)])
        .axis(&[OsBatch(1), OsBatch(8)])]
}

/// Folds `report_ckpt`'s identity gate: the checkpoint record/resume
/// cycle against the plain run.
pub fn ckpt() -> Vec<Lattice> {
    vec![Lattice::new("tpcc_small", sc::tpcc_small()).axis(&[Ckpt(false), Ckpt(true)])]
}

/// The semantic design space: architecture shape × placement ×
/// scheduler on the scientific kernel, plus cache geometry on the
/// OS-heavy chaos workload. Here the sensitivity deltas are real
/// measurements, not neutrality oracles.
pub fn explore() -> Vec<Lattice> {
    vec![
        Lattice::new("sci_small", sc::sci_small())
            .axis(&[
                Preset(ArchPreset::CcNuma2x2),
                Preset(ArchPreset::SimpleSmp),
                Preset(ArchPreset::Coma2x2),
            ])
            .axis(&[
                Placement(PlacementPolicy::FirstTouch),
                Placement(PlacementPolicy::RoundRobin),
                Placement(PlacementPolicy::Block(2)),
            ])
            .axis(&[Sched(SchedPolicy::Fcfs), Sched(SchedPolicy::Affinity)]),
        Lattice::new("chaos_small", sc::chaos_small()).axis(&[
            Geometry(Geo::Default),
            Geometry(Geo::SmallCaches),
            Geometry(Geo::WideLines),
        ]),
    ]
}

/// Every preset, in catalogue order.
pub fn all() -> Vec<(&'static str, Vec<Lattice>)> {
    vec![
        ("smoke", smoke()),
        ("comm", comm()),
        ("http", http()),
        ("ckpt", ckpt()),
        ("explore", explore()),
    ]
}

/// Looks a preset up by name.
pub fn by_name(name: &str) -> Option<Vec<Lattice>> {
    all().into_iter().find(|(n, _)| *n == name).map(|(_, l)| l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::expand_preset;

    #[test]
    fn every_preset_expands_and_dedupes() {
        for (name, lattices) in all() {
            let declared: usize = lattices.iter().map(|l| l.cardinality()).sum();
            let (points, jobs) = expand_preset(&lattices);
            assert_eq!(points, declared, "{name}");
            assert!(!jobs.is_empty(), "{name} is empty");
            assert!(jobs.len() <= points, "{name} grew under dedupe");
            assert!(
                jobs.iter().all(|j| !j.workload.is_empty()),
                "{name} left a job unlabeled"
            );
        }
    }

    #[test]
    fn smoke_shares_baselines_across_sub_sweeps() {
        let (points, jobs) = expand_preset(&smoke());
        // chaos_small's disk-wake sub-sweep shares its baseline with the
        // sibling lattice.
        assert_eq!(points - jobs.len(), 1, "expected exactly 1 deduped point");
    }

    #[test]
    fn by_name_round_trips() {
        for (name, lattices) in all() {
            assert_eq!(by_name(name).unwrap().len(), lattices.len());
        }
        assert!(by_name("nope").is_none());
    }
}
