//! Fleet-runner contracts: lattice expansion and dedupe properties, the
//! golden-run determinism of the aggregate report, and hand-computed
//! per-axis sensitivity fixtures.

use compass_fleet::report::{render, sensitivity, ReportInput};
use compass_fleet::{dedupe, expand_preset, run_fleet, FleetPoint, Job, JobResult, Knob, Lattice};
use compass_simcheck::presets;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// Distinct candidate values per axis, largest menu first so `take(n)`
/// always yields `n` distinct knobs.
const DEPTHS: [Knob; 4] = [
    Knob::Depth(1),
    Knob::Depth(4),
    Knob::Depth(16),
    Knob::Depth(64),
];
const DISK_WAKE: [Knob; 2] = [Knob::DiskWake(true), Knob::DiskWake(false)];
const OS_BATCH: [Knob; 3] = [Knob::OsBatch(1), Knob::OsBatch(8), Knob::OsBatch(64)];
const PREEMPT: [Knob; 2] = [Knob::Preempt(false), Knob::Preempt(true)];

proptest! {
    /// Cartesian cardinality: the expansion is exactly the product of
    /// the axis sizes, its declared `cardinality()` agrees, and since
    /// every axis lists distinct values, the points are config-distinct
    /// and dedupe keeps them all.
    #[test]
    fn expansion_cardinality_is_product_of_axis_sizes(
        nd in 1usize..=4,
        nw in 1usize..=2,
        nb in 1usize..=3,
        np in 1usize..=2,
    ) {
        let lat = Lattice::new("sci_small", presets::sci_small())
            .axis(&DEPTHS[..nd])
            .axis(&DISK_WAKE[..nw])
            .axis(&OS_BATCH[..nb])
            .axis(&PREEMPT[..np]);
        let points = lat.expand();
        prop_assert_eq!(points.len(), nd * nw * nb * np);
        prop_assert_eq!(lat.cardinality(), points.len());
        let (unique, map) = dedupe(&points);
        prop_assert_eq!(unique.len(), points.len(), "distinct axis values collapsed");
        prop_assert_eq!(map, (0..points.len()).collect::<Vec<_>>());
    }

    /// Determinism: expanding the same declaration (here: around any
    /// seeded scenario) twice yields the identical point sequence —
    /// expansion order is a pure function of the declaration.
    #[test]
    fn expansion_order_is_deterministic_for_fixed_seed(seed in 0u64..500) {
        let build = || {
            Lattice::new("seeded", compass_simcheck::Scenario::from_seed(seed))
                .axis(&DEPTHS[..3])
                .axis(&PREEMPT)
        };
        let a = build().expand();
        let b = build().expand();
        prop_assert_eq!(&a, &b);
        let keys_a: Vec<u64> = a.iter().map(FleetPoint::dedupe_key).collect();
        let keys_b: Vec<u64> = b.iter().map(FleetPoint::dedupe_key).collect();
        prop_assert_eq!(keys_a, keys_b, "dedupe keys unstable across expansions");
    }
}

/// Identical configurations collapse: the same lattice contributed
/// twice dedupes to one copy, and each duplicate maps to its original
/// representative.
#[test]
fn identical_configs_collapse_under_dedupe() {
    let lat = Lattice::new("sci_small", presets::sci_small())
        .axis(&DEPTHS[..2])
        .axis(&PREEMPT);
    let mut points = lat.expand();
    let n = points.len();
    points.extend(lat.expand());
    let (unique, map) = dedupe(&points);
    assert_eq!(unique.len(), n);
    for i in 0..n {
        assert_eq!(map[i], i);
        assert_eq!(map[n + i], i, "duplicate did not map to its original");
    }
}

/// Observability must not split configs: two points differing only in
/// nothing (the obs knob is not even a lattice axis) hash equal, while
/// flipping any real knob splits them.
#[test]
fn dedupe_key_tracks_knobs() {
    let base = FleetPoint {
        scenario: presets::chaos_small(),
        depth: 1,
    };
    assert_eq!(base.dedupe_key(), base.dedupe_key());
    let mut depth = base;
    depth.depth = 4;
    assert_ne!(base.dedupe_key(), depth.dedupe_key());
    let mut ckpt = base;
    ckpt.scenario.ckpt = true;
    assert_ne!(
        base.dedupe_key(),
        ckpt.dedupe_key(),
        "ckpt gate must not dedupe away"
    );
    let mut workload = base;
    workload.scenario = presets::sci_small();
    assert_ne!(
        base.dedupe_key(),
        workload.dedupe_key(),
        "workload identity ignored"
    );
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
    let by_key: HashMap<u64, &JobResult> = results.iter().flatten().map(|r| (r.key, r)).collect();
    let sens = sensitivity(lattices, &by_key);
    render(&ReportInput {
        fleet: "golden",
        lattices,
        points,
        jobs,
        results,
        sensitivity: &sens,
        twin_sample: &[],
        twin_divergences: &[],
        twin_wall: Duration::ZERO,
        workers: 1,
        wall: Duration::ZERO,
    })
}

/// Golden-run determinism: the same tiny fleet run twice — and once
/// with the job order shuffled — produces byte-identical aggregate JSON
/// once the single-line `"host"` sub-objects (the only place host
/// timing is allowed to appear) are dropped.
#[test]
fn aggregate_report_is_deterministic_modulo_host_fields() {
    let lattices = vec![Lattice::new("sci_small", presets::sci_small()).axis(&DEPTHS[..2])];
    let (points, jobs) = expand_preset(&lattices);
    assert_eq!(jobs.len(), 2);

    let run = |job_order: &[Job]| run_fleet(job_order, 1, false);
    let first = render_tiny_fleet(&jobs, &run(&jobs), &lattices, points);
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
}

/// Builds a synthetic result for a point: no simulation, just the
/// fields sensitivity reads.
fn fake_result(point: FleetPoint, cycles: u64, events: u64) -> JobResult {
    let stats = compass_backend::BackendStats {
        global_cycles: cycles,
        ..Default::default()
    };
    JobResult {
        point,
        workload: "fixture",
        key: point.dedupe_key(),
        stats,
        events,
        os_calls: 0,
        fs_write_bytes: 0,
        obs: None,
        wall: Duration::from_millis(5),
        resume_identical: None,
    }
}

/// Hand-computed sensitivity fixture: a semantic axis with a real
/// delta, a neutral axis with a zero delta, and a degenerate
/// single-value axis that still reports its lone point.
#[test]
fn sensitivity_deltas_match_hand_computed_fixture() {
    use compass::SchedPolicy;
    let lat = Lattice::new("fixture", presets::sci_small())
        .axis(&[
            Knob::Sched(SchedPolicy::Fcfs),
            Knob::Sched(SchedPolicy::Affinity),
        ])
        .axis(&DEPTHS[..2])
        .axis(&[Knob::OsBatch(1)]); // degenerate single-point axis
                                    // Axis points: baseline (Fcfs, d1, ob1), Affinity variant, d4 variant.
    let base = lat.baseline();
    let affinity = &lat.axis_points(0)[1];
    let deep = &lat.axis_points(1)[1];
    let results = [
        fake_result(base, 1_000, 100),
        fake_result(*affinity, 1_300, 100),
        fake_result(*deep, 1_000, 100), // transport knob: bit-identical
    ];
    let by_key: HashMap<u64, &JobResult> = results.iter().map(|r| (r.key, r)).collect();

    let sens = sensitivity(std::slice::from_ref(&lat), &by_key);
    assert_eq!(sens.neutral_violations, 0);
    assert_eq!(sens.axes.len(), 3);

    let sched = &sens.axes[0];
    assert_eq!((sched.axis, sched.baseline.as_str()), ("sched", "Fcfs"));
    assert_eq!(sched.entries.len(), 2);
    assert_eq!(sched.entries[0].d_global_cycles, 0);
    assert_eq!(sched.entries[1].value, "Affinity");
    assert_eq!(sched.entries[1].d_global_cycles, 300);
    assert!(!sched.entries[1].stats_neutral);

    let depth = &sens.axes[1];
    assert_eq!(depth.axis, "depth");
    assert_eq!(depth.entries[1].d_global_cycles, 0);
    assert!(depth.entries[1].stats_neutral);

    // The degenerate axis: one entry, the baseline itself, all zeros.
    let os_batch = &sens.axes[2];
    assert_eq!(os_batch.axis, "os_batch");
    assert_eq!(os_batch.entries.len(), 1);
    assert_eq!(os_batch.entries[0].d_global_cycles, 0);
    assert_eq!(os_batch.entries[0].d_events, 0);
}

/// A transport axis whose simulated stats differ is a correctness
/// failure: the neutrality oracle must flag it.
#[test]
fn neutral_axis_with_nonzero_delta_is_flagged() {
    let lat = Lattice::new("fixture", presets::sci_small()).axis(&DEPTHS[..2]);
    let base = lat.baseline();
    let deep = &lat.axis_points(0)[1];
    let results = [
        fake_result(base, 1_000, 100),
        fake_result(*deep, 1_001, 100), // the engine leaked a cycle
    ];
    let by_key: HashMap<u64, &JobResult> = results.iter().map(|r| (r.key, r)).collect();
    let sens = sensitivity(std::slice::from_ref(&lat), &by_key);
    assert_eq!(sens.neutral_violations, 1);
}
