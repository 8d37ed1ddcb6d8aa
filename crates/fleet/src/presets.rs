//! Named fleet presets: the design-space sweeps and the paper's simulated
//! tables, as declarative lattices over the shared scenario catalogue
//! (`compass_simcheck::presets`).
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

/// CI preset: one simulated knob each on the compute-bound, the
/// OS/disk-heavy, the OLTP and the network-heavy workloads, plus
/// pre-emption on the oversubscribed compute kernel (the one smoke job
/// that pre-empts), small enough for a single-core host; one lattice per
/// workload, so nothing dedupes.
pub fn smoke() -> Vec<Lattice> {
    vec![
        Lattice::new("sci_small", sc::sci_small()).axis(&[
            Placement(PlacementPolicy::FirstTouch),
            Placement(PlacementPolicy::RoundRobin),
        ]),
        Lattice::new("chaos_small", sc::chaos_small())
            .axis(&[Geometry(Geo::Default), Geometry(Geo::SmallCaches)]),
        Lattice::new("tpcc_small", sc::tpcc_small())
            .axis(&[Sched(SchedPolicy::Fcfs), Sched(SchedPolicy::Affinity)]),
        Lattice::new("http_small", sc::http_small()).axis(&[Preempt(false), Preempt(true)]),
        Lattice::new("sci_oversub", sc::sci_oversub()).axis(&[Preempt(false), Preempt(true)]),
    ]
}

/// The semantic design space: architecture shape × placement ×
/// scheduler on the scientific kernel, plus cache geometry on the
/// OS-heavy chaos workload.
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

/// The paper's simulated tables in one sweep (EXPERIMENTS.md is
/// regenerated from its report):
///
/// * Table 1 — one point per workload for the user / interrupt / kernel
///   split and the per-syscall kernel time;
/// * S1 (§3.3.2) — scheduler × pre-emption on oversubscribed TPC-C;
/// * S2 (§3.3.1) — page placement under the parallel TPC-D scan;
/// * S3 (§5) — the four memory systems under the same scan.
///
/// Table 1's TPC-C and TPC-D rows are the S1 and S2 baselines, and S2
/// and S3 share their baseline; dedupe runs each shared point once.
pub fn paper() -> Vec<Lattice> {
    vec![
        Lattice::new("sci_table1", sc::sci_table1()),
        Lattice::new("tpcc_oversub", sc::tpcc_oversub()),
        Lattice::new("tpcd_scan", sc::tpcd_scan()),
        Lattice::new("http_table1", sc::http_table1()),
        Lattice::new("tpcc_oversub", sc::tpcc_oversub())
            .axis(&[Sched(SchedPolicy::Fcfs), Sched(SchedPolicy::Affinity)])
            .axis(&[Preempt(false), Preempt(true)]),
        Lattice::new("tpcd_scan", sc::tpcd_scan()).axis(&[
            Placement(PlacementPolicy::FirstTouch),
            Placement(PlacementPolicy::RoundRobin),
            Placement(PlacementPolicy::Block(16)),
        ]),
        Lattice::new("tpcd_scan", sc::tpcd_scan()).axis(&[
            Preset(ArchPreset::CcNuma2x2),
            Preset(ArchPreset::SimpleSmp),
            Preset(ArchPreset::Coma2x2),
            Preset(ArchPreset::SwDsm2x2),
        ]),
    ]
}

/// Every preset, in catalogue order.
pub fn all() -> Vec<(&'static str, Vec<Lattice>)> {
    vec![
        ("smoke", smoke()),
        ("explore", explore()),
        ("paper", paper()),
    ]
}

/// Looks a preset up by name.
pub fn by_name(name: &str) -> Option<Vec<Lattice>> {
    all().into_iter().find(|(n, _)| *n == name).map(|(_, l)| l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{dedupe_key, expand_preset};

    #[test]
    fn every_preset_expands_and_dedupes() {
        for (name, lattices) in all() {
            let declared: usize = lattices.iter().map(|l| l.cardinality()).sum();
            let (points, jobs) = expand_preset(&lattices);
            assert_eq!(points, declared, "{name}");
            assert!(!jobs.is_empty(), "{name} is empty");
            assert!(jobs.len() <= points, "{name} grew under dedupe");
        }
    }

    #[test]
    fn smoke_shares_no_points_across_sub_sweeps() {
        let (points, jobs) = expand_preset(&smoke());
        // One lattice per workload: nothing to dedupe.
        assert_eq!(points, 10);
        assert_eq!(jobs.len(), points, "expected no deduped point");
    }

    #[test]
    fn paper_runs_each_shared_baseline_once() {
        let lattices = paper();
        let (points, jobs) = expand_preset(&lattices);
        // Table 1's TPC-C row is S1's baseline; its TPC-D row is S2's
        // baseline, which S3 shares.
        assert_eq!(points - jobs.len(), 3, "expected three deduped points");
        let baseline = |i: usize| dedupe_key(&lattices[i].expand()[0]);
        assert_eq!(baseline(5), baseline(6));
        assert_eq!(baseline(5), baseline(2));
        assert_eq!(baseline(4), baseline(1));
    }

    #[test]
    fn by_name_round_trips() {
        for (name, lattices) in all() {
            assert_eq!(by_name(name).unwrap().len(), lattices.len());
        }
        assert!(by_name("nope").is_none());
    }
}
