//! Fleet-runner contracts: lattice expansion and dedupe properties, and
//! the golden-run determinism of the aggregate report.

use compass::{PlacementPolicy, SchedPolicy};
use compass_fleet::report::{render, ReportInput};
use compass_fleet::{dedupe_key, expand_preset, run_fleet, Job, JobResult, Knob, Lattice};
use compass_simcheck::{presets, ArchPreset, Scenario};
use proptest::prelude::*;
use std::time::Duration;

/// Distinct candidate values per axis, largest menu first so `take(n)`
/// always yields `n` distinct knobs.
const PRESETS: [Knob; 4] = [
    Knob::Preset(ArchPreset::CcNuma2x2),
    Knob::Preset(ArchPreset::SimpleSmp),
    Knob::Preset(ArchPreset::Coma2x2),
    Knob::Preset(ArchPreset::SwDsm2x2),
];
const SCHED: [Knob; 2] = [
    Knob::Sched(SchedPolicy::Fcfs),
    Knob::Sched(SchedPolicy::Affinity),
];
const PLACEMENT: [Knob; 3] = [
    Knob::Placement(PlacementPolicy::FirstTouch),
    Knob::Placement(PlacementPolicy::RoundRobin),
    Knob::Placement(PlacementPolicy::Block(2)),
];
const PREEMPT: [Knob; 2] = [Knob::Preempt(false), Knob::Preempt(true)];

proptest! {
    /// Cartesian cardinality: the expansion is exactly the product of
    /// the axis sizes, its declared `cardinality()` agrees, and since
    /// every axis lists distinct values, the points are config-distinct
    /// and dedupe keeps them all, in expansion order.
    #[test]
    fn expansion_cardinality_is_product_of_axis_sizes(
        na in 1usize..=4,
        ns in 1usize..=2,
        nl in 1usize..=3,
        np in 1usize..=2,
    ) {
        let lat = Lattice::new("sci_small", presets::sci_small())
            .axis(&PRESETS[..na])
            .axis(&SCHED[..ns])
            .axis(&PLACEMENT[..nl])
            .axis(&PREEMPT[..np]);
        let points = lat.expand();
        prop_assert_eq!(points.len(), na * ns * nl * np);
        prop_assert_eq!(lat.cardinality(), points.len());
        let (total, jobs) = expand_preset(std::slice::from_ref(&lat));
        prop_assert_eq!(total, points.len());
        let unique: Vec<Scenario> = jobs.iter().map(|j| j.scenario).collect();
        prop_assert_eq!(unique, points, "distinct axis values collapsed");
    }

    /// Determinism: expanding the same declaration (here: around any
    /// seeded scenario) twice yields the identical point sequence —
    /// expansion order is a pure function of the declaration.
    #[test]
    fn expansion_order_is_deterministic_for_fixed_seed(seed in 0u64..500) {
        let build = || {
            Lattice::new("seeded", Scenario::from_seed(seed))
                .axis(&PLACEMENT)
                .axis(&PREEMPT)
        };
        let a = build().expand();
        let b = build().expand();
        prop_assert_eq!(&a, &b);
        let keys_a: Vec<u64> = a.iter().map(dedupe_key).collect();
        let keys_b: Vec<u64> = b.iter().map(dedupe_key).collect();
        prop_assert_eq!(keys_a, keys_b, "dedupe keys unstable across expansions");
    }
}

/// Identical configurations collapse: the same lattice contributed
/// twice dedupes to one copy, and each job keeps the workload name of
/// its first appearance.
#[test]
fn identical_configs_collapse_under_dedupe() {
    let lat = Lattice::new("sci_small", presets::sci_small())
        .axis(&SCHED)
        .axis(&PREEMPT);
    let mut again = lat.clone();
    again.workload = "duplicate";
    let (points, jobs) = expand_preset(&[lat.clone(), again]);
    assert_eq!(points, 8);
    let unique: Vec<Scenario> = jobs.iter().map(|j| j.scenario).collect();
    assert_eq!(unique, lat.expand(), "duplicates were not dropped in order");
    assert!(jobs.iter().all(|j| j.workload == "sci_small"));
}

/// Harness-only scenario fields do not split configs, while flipping
/// any simulated knob or the workload identity does.
#[test]
fn dedupe_key_tracks_knobs() {
    let base = presets::chaos_small();
    assert_eq!(dedupe_key(&base), dedupe_key(&base));
    let harness_only = Scenario {
        ckpt: true,
        schedule: 7,
        ..base
    };
    assert_eq!(
        dedupe_key(&base),
        dedupe_key(&harness_only),
        "the fleet runs neither checkpoints nor schedule twins"
    );
    for knob in [
        Scenario {
            sched: SchedPolicy::Affinity,
            ..base
        },
        Scenario {
            preempt: true,
            ..base
        },
        Scenario { seed: 1, ..base },
        Scenario { nprocs: 3, ..base },
        presets::sci_small(),
    ] {
        assert_ne!(dedupe_key(&base), dedupe_key(&knob), "{knob:?}");
    }
}

fn strip_host_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("\"host\": {"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn render_tiny_fleet(
    jobs: &[Job],
    results: &[Result<JobResult, String>],
    lattices: &[Lattice],
    points: usize,
) -> String {
    render(&ReportInput {
        fleet: "golden",
        lattices,
        points,
        jobs,
        results,
        workers: 1,
        wall: Duration::ZERO,
    })
}

/// Golden-run determinism: the same tiny fleet run twice — and once
/// with the job order shuffled — produces byte-identical aggregate JSON
/// once the single-line `"host"` sub-objects (the only place host
/// timing is allowed to appear) are dropped. Every job is twinned at
/// depth 1, and a twin that diverges reaches the report.
#[test]
fn aggregate_report_is_deterministic_modulo_host_fields() {
    let lattices = vec![Lattice::new("sci_small", presets::sci_small()).axis(&SCHED)];
    let (points, jobs) = expand_preset(&lattices);
    assert_eq!(jobs.len(), 2);

    let run = |job_order: &[Job]| run_fleet(job_order, 1, false);
    let mut results = run(&jobs);
    let first = render_tiny_fleet(&jobs, &results, &lattices, points);
    assert!(
        first.contains("\"twinned\": 2,\n    \"divergences\": 0,"),
        "{first}"
    );
    let second = render_tiny_fleet(&jobs, &run(&jobs), &lattices, points);
    assert_eq!(
        strip_host_lines(&first),
        strip_host_lines(&second),
        "two identical fleets rendered different reports"
    );

    // Shuffled execution order: run the jobs reversed, then put the
    // results back into declaration order before rendering. Execution
    // order is a host artifact and must not reach the report.
    let reversed: Vec<Job> = jobs.iter().rev().copied().collect();
    let mut shuffled = run(&reversed);
    shuffled.reverse();
    let third = render_tiny_fleet(&jobs, &shuffled, &lattices, points);
    assert_eq!(
        strip_host_lines(&first),
        strip_host_lines(&third),
        "job execution order leaked into the report"
    );

    results[1].as_mut().unwrap().twin_diffs = vec!["global_cycles: 1 vs 2".into()];
    let diverged = render_tiny_fleet(&jobs, &results, &lattices, points);
    assert!(diverged.contains("\"divergences\": 1,"), "{diverged}");
    assert!(diverged.contains("global_cycles: 1 vs 2"), "{diverged}");
}
