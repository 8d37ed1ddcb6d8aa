//! Running scenarios and composing the three check layers.

use crate::scenario::{ArchPreset, Geometry, Scenario};
use crate::{diff, oracle};
use compass::runner::RunReport;
use compass::{ObsConfig, PlacementPolicy, RunError, SchedPolicy, TraceLevel};

/// Batch depths every scenario is replayed at; depth 1 (classic
/// per-event rendezvous) is the baseline the others must match. The
/// depth is every port ring's capacity, so it sets every poster at once
/// (frontends, their syscall path and the bottom-half daemon),
/// and the small depths run a frontend batch and a kernel tail into a
/// full ring.
pub const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// Runs `sc` once at the given batch depth; `record` fills
/// [`RunReport::access_trace`] with the engine→arch trace. `observe` turns the full
/// observability stack on (counters, fine tracing, progress snapshots) —
/// the depth differentials then double as the proof that instrumentation
/// never perturbs the simulation. A deadlock comes back as `Err` so soak
/// runs record and shrink it instead of dying.
pub fn run_scenario(
    sc: &Scenario,
    depth: usize,
    record: bool,
    observe: bool,
) -> Result<RunReport, RunError> {
    let mut b = sc.builder();
    if record {
        b = b.record_accesses();
    }
    let cfg = b.config_mut();
    apply_scenario_knobs(cfg, sc, depth);
    if observe {
        cfg.obs = ObsConfig::full(TraceLevel::Fine);
        cfg.obs.progress_every = Some(10_000);
    }
    b.try_run()
}

/// Applies a scenario's backend knobs (scheduler, placement,
/// pre-emption) plus the batch `depth` onto a `SimConfig` — one
/// definition of "how a scenario configures a run" for simcheck, the
/// `probe` CLI and the fleet runner (`compass-fleet`), whose lattices
/// expand to scenarios and which runs each at the shipped depth and
/// again at depth 1.
pub fn apply_scenario_knobs(cfg: &mut compass::SimConfig, sc: &Scenario, depth: usize) {
    cfg.backend.sched = sc.sched;
    cfg.backend.placement = sc.placement;
    cfg.backend.batch_depth = depth;
    if sc.preempt {
        cfg.backend.preempt_interval = Some(400_000);
        cfg.backend.timer_interval = Some(400_000);
    } else {
        // Keep the interval timer ticking in every scenario so the IRQ
        // path stays under test even without pre-emption.
        cfg.backend.timer_interval = Some(900_000);
    }
}

/// Appends a failure per differing statistic or system call when `got`'s
/// `BackendStats` are not byte-identical to `want`'s or its per-syscall
/// kernel time differs.
#[cfg(feature = "check-invariants")]
fn require_identical(want: &RunReport, got: &RunReport, what: &str, out: &mut Vec<String>) {
    let diffs = diff::diff_runs(want, got);
    if diffs.is_empty() && format!("{:?}", want.backend) != format!("{:?}", got.backend) {
        out.push(format!("{what}: BackendStats not byte-identical"));
    }
    out.extend(diffs.into_iter().map(|d| format!("{what}: {d}")));
}

/// Architecture-independent quantities: equal across every backend knob
/// for timing-independent workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    /// Per application process: `(frontend events, OS calls)`.
    per_proc: Vec<(u64, u64)>,
    /// Bytes written through `os::fs`.
    fs_write_bytes: u64,
    /// Barrier episodes completed.
    barriers: u64,
}

fn signature(r: &RunReport) -> Signature {
    Signature {
        per_proc: r.frontends.iter().map(|f| (f.events, f.os_calls)).collect(),
        fs_write_bytes: r.fs_write_bytes,
        barriers: r.backend.sync.barriers,
    }
}

/// Variants of `sc` that each change exactly one architecture/OS knob.
/// Every preset has 4 CPUs, so the knob under test is the only change.
pub fn metamorphic_variants(sc: &Scenario) -> Vec<Scenario> {
    let mut v = Vec::new();
    let mut push = |s: Scenario| {
        if s != *sc {
            v.push(s);
        }
    };
    push(Scenario {
        preset: if sc.preset == ArchPreset::SimpleSmp {
            ArchPreset::CcNuma2x2
        } else {
            ArchPreset::SimpleSmp
        },
        ..*sc
    });
    push(Scenario {
        geometry: if sc.geometry == Geometry::SmallCaches {
            Geometry::Default
        } else {
            Geometry::SmallCaches
        },
        ..*sc
    });
    push(Scenario {
        sched: if sc.sched == SchedPolicy::Fcfs {
            SchedPolicy::Affinity
        } else {
            SchedPolicy::Fcfs
        },
        ..*sc
    });
    push(Scenario {
        placement: if sc.placement == PlacementPolicy::FirstTouch {
            PlacementPolicy::RoundRobin
        } else {
            PlacementPolicy::FirstTouch
        },
        ..*sc
    });
    push(Scenario {
        preempt: !sc.preempt,
        ..*sc
    });
    v
}

/// Runs the full check stack on one scenario; returns one message per
/// failed check (empty = clean).
///
/// Layers: depth-1 baseline with trace recording → oracle replay →
/// schedule-permuted twins (`check-invariants` builds) → depth
/// {4,16,64} differentials → (timing-independent workloads only)
/// metamorphic knob variants. The per-step invariant layer runs inside
/// every one of these when built with `--features check-invariants`.
pub fn check_scenario(sc: &Scenario) -> Vec<String> {
    let mut failures = Vec::new();
    // The baseline runs with the full observability stack on; every other
    // run leaves it off, so the depth differentials below also prove that
    // instrumentation does not change a single statistic.
    let base = match run_scenario(sc, 1, true, true) {
        Ok(out) => out,
        Err(e) => return vec![format!("depth-1 run deadlocked: {e}")],
    };
    let trace = base.access_trace.as_deref().unwrap_or_default();
    if trace.is_empty() {
        failures.push("depth-1 run recorded an empty trace".into());
    }
    if base.obs.as_ref().is_none_or(|o| o.counters.is_empty()) {
        failures.push("observed depth-1 run reported no counters".into());
    }
    if let Err(e) = oracle::verify_trace(&sc.arch_config(), trace, &base.backend.mem) {
        failures.push(format!("oracle(depth 1): {e}"));
    }
    // Schedule-independence differential: the simulated threads resumed
    // under two seeded random schedules must reproduce the baseline byte
    // for byte — the simulation may depend on simulated state only, never
    // on which ready thread the host runs first. The first twin runs per
    // event, the second batched, so both protocols meet random orders.
    #[cfg(feature = "check-invariants")]
    for (seed, depth) in [
        (sc.schedule, 1),
        (sc.schedule.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15, 16),
    ] {
        let mut b = sc.builder().schedule_seed(seed);
        apply_scenario_knobs(b.config_mut(), sc, depth);
        match b.try_run() {
            Ok(r) => require_identical(
                &base,
                &r,
                &format!("schedule {seed:#x} at depth {depth} vs first-ready order"),
                &mut failures,
            ),
            Err(e) => failures.push(format!("schedule {seed:#x} run failed: {e}")),
        }
    }
    for depth in &DEPTHS[1..] {
        let run = match run_scenario(sc, *depth, false, false) {
            Ok(out) => out,
            Err(e) => {
                failures.push(format!("depth {depth} run deadlocked: {e}"));
                continue;
            }
        };
        for d in diff::diff_runs(&base, &run) {
            failures.push(format!("depth {depth} vs 1: {d}"));
        }
    }
    if sc.workload.timing_independent() {
        let sig0 = signature(&base);
        for var in metamorphic_variants(sc) {
            let run = match run_scenario(&var, 8, false, false) {
                Ok(out) => out,
                Err(e) => {
                    failures.push(format!("metamorphic variant {var:?} deadlocked: {e}"));
                    continue;
                }
            };
            let sig = signature(&run);
            if sig != sig0 {
                failures.push(format!(
                    "metamorphic: architecture-independent quantities changed \
                     under {var:?}:\n  base:    {sig0:?}\n  variant: {sig:?}"
                ));
            }
        }
    }
    failures
}

/// Greedily minimises a failing scenario: repeatedly moves to the first
/// shrink candidate that still fails, until none does (bounded — each
/// probe is a full multi-run check).
pub fn shrink_failure(sc: &Scenario) -> (Scenario, Vec<String>) {
    let mut cur = *sc;
    let mut cur_failures = check_scenario(&cur);
    for _ in 0..16 {
        let mut advanced = false;
        for cand in cur.shrink() {
            let f = check_scenario(&cand);
            if !f.is_empty() {
                cur = cand;
                cur_failures = f;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    (cur, cur_failures)
}
