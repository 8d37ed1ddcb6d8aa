//! Running scenarios and composing the three check layers.

use crate::scenario::{ArchPreset, Geometry, Scenario};
use crate::{diff, oracle};
use compass::runner::RunReport;
use compass::{ObsConfig, PlacementPolicy, RunError, SchedPolicy, TraceLevel};
#[cfg(feature = "check-invariants")]
use compass_backend::BackendStats;
use compass_backend::{trace, TraceRecord};
use std::path::Path;
use std::sync::Arc;

/// Batch depths every scenario is replayed at; depth 1 (classic
/// per-event rendezvous) is the baseline the others must match.
pub const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// One finished run, optionally with its recorded engine→arch trace.
pub struct RunOutput {
    /// The full report.
    pub report: RunReport,
    /// Recorded trace (empty unless recording was requested).
    pub trace: Vec<TraceRecord>,
}

/// Runs `sc` once at the given batch depth. `observe` turns the full
/// observability stack on (counters, fine tracing, progress snapshots) —
/// the depth differentials then double as the proof that instrumentation
/// never perturbs the simulation. `os_batch` and `disk_wake` set the
/// kernel-side OS-port batch depth and the event-driven disk path for
/// this run (callers pass the scenario's own values or flip one for its
/// twin). A deadlock comes back as `Err` so soak runs record and shrink
/// it instead of dying.
pub fn run_scenario(
    sc: &Scenario,
    depth: usize,
    record: bool,
    observe: bool,
    os_batch: usize,
    disk_wake: bool,
) -> Result<RunOutput, RunError> {
    run_scenario_ckpt(
        sc,
        depth,
        record,
        observe,
        os_batch,
        disk_wake,
        CkptMode::Off,
    )
}

/// Checkpoint participation of one run (ISSUE 8).
#[derive(Clone, Copy)]
pub enum CkptMode<'a> {
    /// Plain run.
    Off,
    /// Record: cut to `path` every `every` serviced events.
    Record {
        /// Cut interval.
        every: u64,
        /// Checkpoint file.
        path: &'a Path,
    },
    /// Resume from the latest cut in `path` under the resume-identity
    /// oracle.
    Resume {
        /// Checkpoint file.
        path: &'a Path,
    },
}

/// Applies a scenario's backend/transport knobs (scheduler, placement,
/// pre-emption, OS batch, disk wake) plus the
/// frontend batch `depth` onto a `SimConfig`. Shared with the fleet
/// runner (`compass-fleet`), whose lattice points carry their
/// knob values in the scenario itself — one definition of "how a
/// scenario configures a run" for both harnesses.
pub fn apply_scenario_knobs(cfg: &mut compass::SimConfig, sc: &Scenario, depth: usize) {
    cfg.backend.sched = sc.sched;
    cfg.backend.placement = sc.placement;
    cfg.backend.batch_depth = depth;
    cfg.backend.deadlock_ms = 30_000;
    if sc.preempt {
        cfg.backend.preempt_interval = Some(400_000);
        cfg.backend.timer_interval = Some(400_000);
    } else {
        // Keep the interval timer ticking in every scenario so the IRQ
        // path stays under test even without pre-emption.
        cfg.backend.timer_interval = Some(900_000);
    }
    cfg.kernel_batch_depth = sc.os_batch;
    cfg.disk_wake = sc.disk_wake;
}

/// [`run_scenario`] with a checkpoint mode.
pub fn run_scenario_ckpt(
    sc: &Scenario,
    depth: usize,
    record: bool,
    observe: bool,
    os_batch: usize,
    disk_wake: bool,
    ckpt: CkptMode<'_>,
) -> Result<RunOutput, RunError> {
    let mut b = sc.builder();
    let sink = if record { Some(trace::sink()) } else { None };
    if let Some(s) = &sink {
        b = b.record_accesses(Arc::clone(s));
    }
    match ckpt {
        CkptMode::Off => {}
        CkptMode::Record { every, path } => b = b.checkpoint_every(every, path),
        CkptMode::Resume { path } => b = b.resume(path),
    }
    // The caller's overrides (a twin flips exactly one knob) are folded
    // into a scenario view so knob application has a single definition.
    let knobs = Scenario {
        os_batch,
        disk_wake,
        ..*sc
    };
    let cfg = b.config_mut();
    apply_scenario_knobs(cfg, &knobs, depth);
    if observe {
        cfg.obs = ObsConfig::full(TraceLevel::Fine);
        cfg.obs.progress_every = Some(10_000);
    }
    let report = b.try_run()?;
    let trace = sink
        .map(|s| std::mem::take(&mut *s.lock()))
        .unwrap_or_default();
    Ok(RunOutput { report, trace })
}

/// Appends a failure per differing statistic when `got` is not
/// byte-identical to `want`.
#[cfg(feature = "check-invariants")]
fn require_identical(want: &BackendStats, got: &BackendStats, what: &str, out: &mut Vec<String>) {
    if format!("{want:?}") == format!("{got:?}") {
        return;
    }
    let diffs = diff::diff_backend_stats(want, got);
    if diffs.is_empty() {
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
/// schedule-permuted twins (`check-invariants` builds) → OS-batch-twin
/// and disk-wake-twin differentials → depth {4,16,64} differentials →
/// (timing-independent workloads only) metamorphic knob variants. The
/// per-step invariant layer runs inside every one of these
/// when built with `--features check-invariants`.
pub fn check_scenario(sc: &Scenario) -> Vec<String> {
    check_scenario_with_soak_ckpt(sc, None)
}

/// [`check_scenario`], optionally cutting checkpoints of the baseline
/// run into `soak_ckpt` (every 500 serviced events) so a killed soak can
/// continue the in-flight seed from its last cut — see
/// [`crate::soak`].
pub fn check_scenario_with_soak_ckpt(sc: &Scenario, soak_ckpt: Option<&Path>) -> Vec<String> {
    let mut failures = Vec::new();
    // The baseline runs with the full observability stack on; every other
    // run leaves it off, so the depth differentials below also prove that
    // instrumentation does not change a single statistic.
    let base_ckpt = match soak_ckpt {
        Some(path) => CkptMode::Record { every: 500, path },
        None => CkptMode::Off,
    };
    let base = match run_scenario_ckpt(sc, 1, true, true, sc.os_batch, sc.disk_wake, base_ckpt) {
        Ok(out) => out,
        Err(e) => return vec![format!("depth-1 run deadlocked: {e}")],
    };
    if base.trace.is_empty() {
        failures.push("depth-1 run recorded an empty trace".into());
    }
    if base
        .report
        .obs
        .as_ref()
        .is_none_or(|o| o.counters.is_empty())
    {
        failures.push("observed depth-1 run reported no counters".into());
    }
    if let Err(e) = oracle::verify_trace(&sc.arch_config(), &base.trace, &base.report.backend.mem) {
        failures.push(format!("oracle(depth 1): {e}"));
    }
    // Schedule-independence differential: the simulated threads resumed
    // under two seeded random schedules must reproduce the
    // baseline byte for byte — the simulation may depend on simulated
    // state only, never on which ready thread the host runs first.
    #[cfg(feature = "check-invariants")]
    for seed in [
        sc.schedule,
        sc.schedule.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15,
    ] {
        let mut b = sc.builder().schedule_seed(seed);
        apply_scenario_knobs(b.config_mut(), sc, 1);
        match b.try_run() {
            Ok(r) => require_identical(
                &base.report.backend,
                &r.backend,
                &format!("schedule {seed:#x} vs first-ready order"),
                &mut failures,
            ),
            Err(e) => failures.push(format!("schedule {seed:#x} run failed: {e}")),
        }
    }
    // OS-batch differential: the kernel syscall path replayed on the
    // classic per-event port (or, when the scenario already is classic,
    // at depth 64) must match statistic for statistic — the credit-based
    // aggregate reply may change host time only.
    let twin_os_batch = if sc.os_batch == 1 { 64 } else { 1 };
    match run_scenario(sc, 1, false, false, twin_os_batch, sc.disk_wake) {
        Ok(run) => {
            for d in diff::diff_backend_stats(&base.report.backend, &run.report.backend) {
                failures.push(format!(
                    "os_batch={} vs os_batch={}: {d}",
                    twin_os_batch, sc.os_batch
                ));
            }
        }
        Err(e) => failures.push(format!("os-batch-twin run deadlocked: {e}")),
    }
    // Disk-wake differential (ISSUE 9): the event-driven disk completion
    // path toggled the other way must leave every backend statistic
    // untouched — wake-driven delivery settles the same latencies the
    // polled drain charged.
    match run_scenario(sc, 1, false, false, sc.os_batch, !sc.disk_wake) {
        Ok(run) => {
            for d in diff::diff_backend_stats(&base.report.backend, &run.report.backend) {
                failures.push(format!(
                    "disk_wake={} vs disk_wake={}: {d}",
                    !sc.disk_wake, sc.disk_wake
                ));
            }
        }
        Err(e) => failures.push(format!("disk-wake-twin run deadlocked: {e}")),
    }
    // Checkpoint/resume differential (ISSUE 8): record the scenario with
    // `checkpoint_every`, then resume from the latest cut — once under
    // the scenario's own knobs and once under flipped transport knobs
    // (OS batch, disk wake, batch depth). All of
    // them run under the resume-identity oracle and must reproduce the
    // baseline `BackendStats` bit for bit.
    if sc.ckpt {
        let path = std::env::temp_dir().join(format!(
            "compass-simcheck-{}-{:x}.ckpt",
            std::process::id(),
            sc.seed
        ));
        let _ = std::fs::remove_file(&path);
        match run_scenario_ckpt(
            sc,
            1,
            false,
            false,
            sc.os_batch,
            sc.disk_wake,
            CkptMode::Record {
                every: 500,
                path: &path,
            },
        ) {
            Ok(run) => {
                for d in diff::diff_backend_stats(&base.report.backend, &run.report.backend) {
                    failures.push(format!("checkpoint-record vs base: {d}"));
                }
                // A run shorter than one cut interval writes no file;
                // there is then nothing to resume.
                if path.exists() {
                    match run_scenario_ckpt(
                        sc,
                        1,
                        false,
                        false,
                        sc.os_batch,
                        sc.disk_wake,
                        CkptMode::Resume { path: &path },
                    ) {
                        Ok(run) => {
                            for d in
                                diff::diff_backend_stats(&base.report.backend, &run.report.backend)
                            {
                                failures.push(format!("checkpoint-resume vs base: {d}"));
                            }
                        }
                        Err(e) => failures.push(format!("checkpoint-resume run failed: {e}")),
                    }
                    let twin_os_batch = if sc.os_batch == 1 { 64 } else { 1 };
                    match run_scenario_ckpt(
                        sc,
                        16,
                        false,
                        false,
                        twin_os_batch,
                        !sc.disk_wake,
                        CkptMode::Resume { path: &path },
                    ) {
                        Ok(run) => {
                            for d in
                                diff::diff_backend_stats(&base.report.backend, &run.report.backend)
                            {
                                failures
                                    .push(format!("checkpoint-resume(flipped knobs) vs base: {d}"));
                            }
                        }
                        Err(e) => {
                            failures.push(format!("checkpoint-resume(flipped knobs) failed: {e}"))
                        }
                    }
                }
            }
            Err(e) => failures.push(format!("checkpoint-record run failed: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }
    for depth in &DEPTHS[1..] {
        let run = match run_scenario(sc, *depth, false, false, sc.os_batch, sc.disk_wake) {
            Ok(out) => out,
            Err(e) => {
                failures.push(format!("depth {depth} run deadlocked: {e}"));
                continue;
            }
        };
        for d in diff::diff_backend_stats(&base.report.backend, &run.report.backend) {
            failures.push(format!("depth {depth} vs 1: {d}"));
        }
    }
    if sc.workload.timing_independent() {
        let sig0 = signature(&base.report);
        for var in metamorphic_variants(sc) {
            let run = match run_scenario(&var, 8, false, false, var.os_batch, var.disk_wake) {
                Ok(out) => out,
                Err(e) => {
                    failures.push(format!("metamorphic variant {var:?} deadlocked: {e}"));
                    continue;
                }
            };
            let sig = signature(&run.report);
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
