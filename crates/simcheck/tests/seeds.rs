//! Fixed-seed regression anchors: one scenario per workload family,
//! chosen as the first generated seed of that family, replayed through
//! the full differential check (depths 1/4/16/64 + oracle + metamorphic
//! variants). If cross-depth determinism, the replay oracle or an
//! architecture-independence invariant regresses, these fail with the
//! exact seed to reproduce via `simcheck --seed <n>`.

use compass_simcheck::{check_scenario, Scenario, Workload};

/// First seed in [0, 4096) whose scenario satisfies `pred`.
fn first_seed(pred: impl Fn(&Scenario) -> bool) -> Scenario {
    (0..4096)
        .map(Scenario::from_seed)
        .find(|sc| pred(sc))
        .expect("generator covers every workload family well before 4096 seeds")
}

fn assert_clean(sc: Scenario) {
    let failures = check_scenario(&sc);
    assert!(
        failures.is_empty(),
        "seed {} ({:?}) failed:\n{}",
        sc.seed,
        sc,
        failures.join("\n")
    );
}

#[test]
fn first_sci_seed_replays_clean() {
    assert_clean(first_seed(|sc| matches!(sc.workload, Workload::Sci { .. })));
}

#[test]
fn first_file_chaos_seed_replays_clean() {
    assert_clean(first_seed(|sc| {
        matches!(sc.workload, Workload::FileChaos { .. })
    }));
}

#[test]
fn first_tpcc_seed_replays_clean() {
    assert_clean(first_seed(|sc| {
        matches!(sc.workload, Workload::Tpcc { .. })
    }));
}

#[test]
fn first_http_seed_replays_clean() {
    assert_clean(first_seed(|sc| {
        matches!(sc.workload, Workload::Http { .. })
    }));
}

#[test]
fn scenario_debug_output_names_the_seed() {
    // The failure-reporting contract: the Debug form leads with the seed
    // so a failing test line alone is enough to reproduce.
    let sc = Scenario::from_seed(42);
    let dbg = format!("{sc:?}");
    assert!(dbg.contains("seed: 42"), "{dbg}");
}
