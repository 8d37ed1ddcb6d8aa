//! Executing a fleet: fan the deduplicated job list across host cores
//! and re-check a sampled subset against its transport-baseline twin.
//!
//! Each job is one full simulation (which is itself multi-threaded:
//! frontend processes, OS threads, the backend engine), so the fan-out
//! clamps to the host's [`std::thread::available_parallelism`] — on the
//! 1-CPU bench host the fleet degrades to a serial queue with no
//! oversubscription. Work is pulled from a shared atomic cursor, so the
//! *assignment* of jobs to workers is timing-dependent while the job
//! list, every job's result, and the report built from them are not.

use crate::lattice::FleetPoint;
use compass::runner::RunReport;
use compass_backend::BackendStats;
use compass_obs::ObsReport;
use compass_simcheck::check::apply_scenario_knobs;
use compass_simcheck::diff_backend_stats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One executed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The point that ran.
    pub point: FleetPoint,
    /// Workload name (for the report).
    pub workload: &'static str,
    /// The point's canonical dedupe key.
    pub key: u64,
    /// Backend statistics (the simulated result).
    pub stats: BackendStats,
    /// Frontend events posted, summed over processes.
    pub events: u64,
    /// OS calls issued, summed over processes.
    pub os_calls: u64,
    /// Bytes written through `os::fs`.
    pub fs_write_bytes: u64,
    /// Merged observability counters.
    pub obs: Option<ObsReport>,
    /// Host wall-clock of the run (checkpointed jobs: the record run).
    pub wall: Duration,
    /// For checkpoint-gated points: whether the resumed run's stats were
    /// bit-identical to the recording run's.
    pub resume_identical: Option<bool>,
}

/// One pending job: a unique point plus its display metadata.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The point to run.
    pub point: FleetPoint,
    /// Workload name.
    pub workload: &'static str,
}

fn run_report(p: &FleetPoint, ckpt: Option<CkptRole<'_>>) -> Result<RunReport, String> {
    let mut b = p.scenario.builder();
    match ckpt {
        Some(CkptRole::Record(path)) => b = b.checkpoint_every(500, path),
        Some(CkptRole::Resume(path)) => b = b.resume(path),
        None => {}
    }
    let cfg = b.config_mut();
    apply_scenario_knobs(cfg, &p.scenario, p.depth);
    // Counters only: cheap, and the aggregate report sums them across
    // the fleet. Tracing/progress stay off — a sweep is many runs.
    cfg.obs.counters = true;
    b.try_run().map_err(|e| e.to_string())
}

enum CkptRole<'a> {
    Record(&'a std::path::Path),
    Resume(&'a std::path::Path),
}

/// Runs one job. A point with the checkpoint gate set
/// (`scenario.ckpt`) runs twice — record with cuts, then resume from
/// the last cut — and carries the bit-identity verdict in
/// [`JobResult::resume_identical`]; a divergence is an error, not a
/// statistic.
pub fn run_job(job: &Job) -> Result<JobResult, String> {
    let p = &job.point;
    let t0 = Instant::now();
    let (report, resume_identical) = if p.scenario.ckpt {
        let path = std::env::temp_dir().join(format!(
            "compass-fleet-{}-{:016x}.ckpt",
            std::process::id(),
            p.dedupe_key()
        ));
        let _ = std::fs::remove_file(&path);
        let rec = run_report(p, Some(CkptRole::Record(&path)))?;
        let identical = if path.exists() {
            let res = run_report(p, Some(CkptRole::Resume(&path)))?;
            let diffs = diff_backend_stats(&rec.backend, &res.backend);
            let _ = std::fs::remove_file(&path);
            if !diffs.is_empty() {
                return Err(format!("checkpoint resume diverged: {}", diffs.join("; ")));
            }
            true
        } else {
            // Too short to cut: the gate is vacuous for this point.
            false
        };
        (rec, Some(identical))
    } else {
        (run_report(p, None)?, None)
    };
    let wall = t0.elapsed();
    Ok(JobResult {
        point: *p,
        workload: job.workload,
        key: p.dedupe_key(),
        events: report.frontends.iter().map(|f| f.events).sum(),
        os_calls: report.frontends.iter().map(|f| f.os_calls).sum(),
        fs_write_bytes: report.fs_write_bytes,
        obs: report.obs.clone(),
        stats: report.backend,
        wall,
        resume_identical,
    })
}

/// Fans `jobs` across `workers` threads (clamped to the job count and
/// the host's available parallelism). Results come back in job order
/// regardless of which worker ran what.
pub fn run_fleet(jobs: &[Job], workers: usize, verbose: bool) -> Vec<Result<JobResult, String>> {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = workers.clamp(1, host).min(jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<JobResult, String>>>> = Mutex::new(vec![None; jobs.len()]);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let t0 = Instant::now();
                let res = run_job(&jobs[i]);
                if verbose {
                    let label = jobs[i].point.label(jobs[i].workload);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    match &res {
                        Ok(_) => eprintln!("[{}/{}] {label}  {ms:.0}ms", i + 1, jobs.len()),
                        Err(e) => {
                            eprintln!("[{}/{}] {label}  FAILED: {e}", i + 1, jobs.len())
                        }
                    }
                }
                results.lock().unwrap()[i] = Some(res);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every job index was claimed"))
        .collect()
}

/// A point's transport-baseline twin: frontend depth 1, per-event OS
/// port, no checkpoint gate. Every swept *semantic* knob (arch, geometry,
/// scheduler, placement, pre-emption, disk path) is untouched, so the
/// twin simulates the same machine through the classic engine.
pub fn twin_of(p: &FleetPoint) -> FleetPoint {
    let mut t = *p;
    t.depth = 1;
    t.scenario.os_batch = 1;
    t.scenario.ckpt = false;
    t
}

/// Deterministic twin sample: up to `n` job indices, evenly spaced over
/// the job list (always including index 0 when non-empty).
pub fn twin_sample(jobs: usize, n: usize) -> Vec<usize> {
    if jobs == 0 || n == 0 {
        return Vec::new();
    }
    let n = n.min(jobs);
    (0..n).map(|i| i * jobs / n).collect()
}

/// One twin divergence: the job and the first differing stats fields.
#[derive(Debug, Clone)]
pub struct TwinDivergence {
    /// Index into the unique job list.
    pub job: usize,
    /// Job label.
    pub label: String,
    /// The differing fields, as reported by `diff_backend_stats`.
    pub diffs: Vec<String>,
}

/// The fleet oracle: re-runs the sampled jobs at the transport baseline
/// and diffs `BackendStats` bit for bit. Returns every divergence (an
/// empty list is the pass verdict) plus the twin runs' total wall time.
pub fn run_twins(
    jobs: &[Job],
    results: &[Result<JobResult, String>],
    sample: &[usize],
    verbose: bool,
) -> (Vec<TwinDivergence>, Duration) {
    let mut divergences = Vec::new();
    let t0 = Instant::now();
    for &i in sample {
        let Ok(primary) = &results[i] else {
            continue; // the job itself failed; that is already fatal
        };
        let twin = Job {
            point: twin_of(&jobs[i].point),
            workload: jobs[i].workload,
        };
        if verbose {
            eprintln!("twin [{i}] {}", jobs[i].point.label(jobs[i].workload));
        }
        match run_job(&twin) {
            Ok(t) => {
                let diffs = diff_backend_stats(&t.stats, &primary.stats);
                if !diffs.is_empty() {
                    divergences.push(TwinDivergence {
                        job: i,
                        label: jobs[i].point.label(jobs[i].workload),
                        diffs,
                    });
                }
            }
            Err(e) => divergences.push(TwinDivergence {
                job: i,
                label: jobs[i].point.label(jobs[i].workload),
                diffs: vec![format!("twin run failed: {e}")],
            }),
        }
    }
    (divergences, t0.elapsed())
}
