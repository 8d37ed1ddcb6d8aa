//! Executing a fleet: fan the deduplicated job list across host cores,
//! running every job at the shipped batch depth and again at depth 1.
//!
//! Each job is two simulations on the calling worker thread (every
//! simulated process and the bottom-half daemon is a
//! coroutine on one backend thread), so the fan-out clamps to the host's
//! [`std::thread::available_parallelism`] — on a 1-CPU host the fleet
//! degrades to a serial queue with no oversubscription. Work is pulled
//! from a shared atomic cursor, so the *assignment* of jobs to workers
//! is timing-dependent while the job list, every job's result, and the
//! report built from them are not.

use crate::lattice::dedupe_key;
use compass::runner::RunReport;
use compass_backend::BackendStats;
use compass_obs::ObsReport;
use compass_simcheck::check::apply_scenario_knobs;
use compass_simcheck::{diff_runs, Scenario};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One pending job: a unique scenario plus its display name.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The scenario to run.
    pub scenario: Scenario,
    /// Workload name.
    pub workload: &'static str,
}

impl Job {
    /// The scenario's canonical dedupe key.
    pub fn key(&self) -> u64 {
        dedupe_key(&self.scenario)
    }

    /// Human label: the workload and its swept coordinates.
    pub fn label(&self) -> String {
        let sc = &self.scenario;
        format!(
            "{} {:?}/{:?} sched={:?} place={:?} preempt={}",
            self.workload, sc.preset, sc.geometry, sc.sched, sc.placement, sc.preempt,
        )
    }
}

/// One executed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Backend statistics (the simulated result).
    pub stats: BackendStats,
    /// Frontend events posted, summed over processes.
    pub events: u64,
    /// OS calls issued, summed over processes.
    pub os_calls: u64,
    /// Bytes written through `os::fs`.
    pub fs_write_bytes: u64,
    /// Per-syscall `(name, calls, kernel cycles)`, as in `RunReport`.
    pub syscalls: Vec<(String, u64, u64)>,
    /// Merged observability counters.
    pub obs: Option<ObsReport>,
    /// Host wall-clock of the run at the shipped depth.
    pub wall: Duration,
    /// Where the depth-1 twin's `BackendStats` or per-syscall kernel time
    /// differ from the shipped run's (empty = bit-identical), or why the
    /// twin failed.
    pub twin_diffs: Vec<String>,
    /// Host wall-clock of the twin.
    pub twin_wall: Duration,
}

/// Runs `sc` with counters on (cheap, and the aggregate report sums
/// them across the fleet), at `depth` or, for `None`, at the batch depth
/// `BackendConfig::new` ships.
fn run_report(sc: &Scenario, depth: Option<usize>) -> Result<RunReport, String> {
    let mut b = sc.builder();
    let cfg = b.config_mut();
    let depth = depth.unwrap_or(cfg.backend.batch_depth);
    apply_scenario_knobs(cfg, sc, depth);
    cfg.obs.counters = true;
    b.try_run().map_err(|e| e.to_string())
}

/// Runs one job at the shipped batch depth, then its twin at depth 1
/// (every poster rendezvouses per event). The batch depth is a transport
/// setting, so the twin must reproduce the `BackendStats` and the
/// per-syscall kernel time bit for bit; [`JobResult::twin_diffs`] records
/// any difference.
pub fn run_job(job: &Job) -> Result<JobResult, String> {
    let t0 = Instant::now();
    let report = run_report(&job.scenario, None)?;
    let wall = t0.elapsed();
    let t1 = Instant::now();
    let twin_diffs = match run_report(&job.scenario, Some(1)) {
        Ok(twin) => diff_runs(&twin, &report),
        Err(e) => vec![format!("twin run failed: {e}")],
    };
    Ok(JobResult {
        events: report.frontends.iter().map(|f| f.events).sum(),
        os_calls: report.frontends.iter().map(|f| f.os_calls).sum(),
        fs_write_bytes: report.fs_write_bytes,
        obs: report.obs,
        syscalls: report.syscalls,
        stats: report.backend,
        wall,
        twin_diffs,
        twin_wall: t1.elapsed(),
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
                    let label = jobs[i].label();
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
