//! The `simcheck` binary: one-shot seed replay, fixed scenario counts,
//! and time-bounded soak runs.
//!
//! ```text
//! simcheck --seed 42             # replay exactly one scenario, verbose
//! simcheck --scenarios 100       # seeds 0..100 (or --start-seed S)
//! simcheck --soak 30             # as many seeds as fit in 30 seconds
//! simcheck --soak 30 --resume D  # resumable soak: progress persisted
//!                                # in dir D
//! simcheck ... --no-shrink       # report the raw failure only
//! ```
//!
//! With `--resume DIR` a killed soak continues where it died: the next
//! invocation picks up the seed counter and tallies from
//! `DIR/soak.state` and re-runs the interrupted seed from scratch (see
//! `compass_simcheck::soak`).
//!
//! Any failure prints the scenario, the failed checks, a greedily shrunk
//! minimal scenario, and the `--seed N` repro line, then exits nonzero.
//! Build with `--features check-invariants` to also run the per-step
//! invariant layer (a violation fails the run with the offending step)
//! and the schedule-independence twins: every scenario re-runs under two
//! seeded random schedules of the simulated threads and must match byte
//! for byte.

use compass_simcheck::{check_scenario, shrink_failure, soak, Scenario};
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Opts {
    seed: Option<u64>,
    scenarios: Option<u64>,
    soak_secs: Option<u64>,
    start_seed: u64,
    shrink: bool,
    resume: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        seed: None,
        scenarios: None,
        soak_secs: None,
        start_seed: 0,
        shrink: true,
        resume: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = Some(value("--seed")?),
            "--scenarios" => opts.scenarios = Some(value("--scenarios")?),
            "--soak" => opts.soak_secs = Some(value("--soak")?),
            "--start-seed" => opts.start_seed = value("--start-seed")?,
            "--no-shrink" => opts.shrink = false,
            "--resume" => {
                opts.resume = Some(PathBuf::from(
                    args.next().ok_or("--resume needs a directory")?,
                ))
            }
            "--help" | "-h" => {
                println!(
                    "usage: simcheck [--seed N | --scenarios N | --soak SECS] \
                     [--start-seed S] [--resume DIR] [--no-shrink]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Prints a failed seed's checks (and optionally the shrunk repro).
fn report_failures(seed: u64, failures: &[String], shrink: bool) {
    let sc = Scenario::from_seed(seed);
    eprintln!("FAIL seed {seed}: {sc:?}");
    for f in failures {
        eprintln!("  {f}");
    }
    if shrink {
        eprintln!("shrinking…");
        let (min, min_failures) = shrink_failure(&sc);
        eprintln!("minimal failing scenario: {min:?}");
        for f in &min_failures {
            eprintln!("  {f}");
        }
    }
    eprintln!("reproduce with: simcheck --seed {seed}");
}

/// Checks one seed; on failure prints everything needed to reproduce and
/// returns false.
fn run_one(seed: u64, shrink: bool, verbose: bool) -> bool {
    let sc = Scenario::from_seed(seed);
    if verbose {
        println!("seed {seed}: {sc:?}");
    }
    let t0 = Instant::now();
    let failures = check_scenario(&sc);
    if failures.is_empty() {
        if verbose {
            println!("  ok ({:?})", t0.elapsed());
        }
        return true;
    }
    report_failures(seed, &failures, shrink);
    false
}

/// The resumable soak: progress lives in `dir`, so a killed run
/// continues instead of starting over.
fn soak_resumable(dir: &std::path::Path, secs: u64, start_seed: u64, shrink: bool) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut state = soak::SoakState::load(dir).unwrap_or(soak::SoakState {
        next_seed: start_seed,
        ..Default::default()
    });
    if let Some(inflight) = state.inflight {
        println!("in-flight seed {inflight} was interrupted; rerunning it from scratch");
    }
    // `check_seed` marks a seed in flight at `next_seed`, so this re-runs it.
    let mut seed = state.next_seed;
    while Instant::now() < deadline {
        let failures = soak::check_seed(dir, &mut state, seed);
        if !failures.is_empty() {
            report_failures(seed, &failures, shrink);
        }
        seed += 1;
        if state.checked.is_multiple_of(10) {
            println!("… {} scenarios, {} failures", state.checked, state.failed);
        }
    }
    (state.checked, state.failed)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simcheck: {e}");
            std::process::exit(2);
        }
    };
    let invariants = cfg!(feature = "check-invariants");
    let mut checked = 0u64;
    let mut failed = 0u64;
    let started = Instant::now();
    if let Some(seed) = opts.seed {
        if !run_one(seed, opts.shrink, true) {
            std::process::exit(1);
        }
        println!("seed {seed} clean (invariants: {invariants})");
        return;
    }
    if let Some(secs) = opts.soak_secs {
        if let Some(dir) = &opts.resume {
            (checked, failed) = soak_resumable(dir, secs, opts.start_seed, opts.shrink);
        } else {
            let deadline = started + Duration::from_secs(secs);
            let mut seed = opts.start_seed;
            while Instant::now() < deadline {
                if !run_one(seed, opts.shrink, false) {
                    failed += 1;
                }
                checked += 1;
                seed += 1;
                if checked.is_multiple_of(10) {
                    println!(
                        "… {checked} scenarios, {failed} failures, {:?}",
                        started.elapsed()
                    );
                }
            }
        }
    } else {
        let n = opts.scenarios.unwrap_or(20);
        for seed in opts.start_seed..opts.start_seed + n {
            if !run_one(seed, opts.shrink, false) {
                failed += 1;
            }
            checked += 1;
        }
    }
    println!(
        "simcheck: {checked} scenarios, {failed} failures, {:?} (invariants: {invariants})",
        started.elapsed()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
