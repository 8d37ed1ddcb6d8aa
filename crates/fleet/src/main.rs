//! The `compass-fleet` binary: expand a preset's lattices, dedupe, fan
//! the unique jobs across host cores, verify a sampled subset against
//! the transport-baseline twin oracle, and emit the aggregate JSON.
//!
//! ```text
//! compass-fleet --smoke                  # the CI preset (twins on)
//! compass-fleet --preset explore         # semantic design space
//! compass-fleet --preset paper --twin 64 # Table 1 and studies S1–S3
//! compass-fleet --preset comm --out f.json
//! compass-fleet --list                   # preset catalogue
//! compass-fleet ... --jobs 4             # cap worker threads
//! compass-fleet ... --twin 8 | --no-twin # oracle sample size
//! ```
//!
//! Exit status is nonzero when any job fails, any twin diverges, or a
//! stats-neutral axis shows a nonzero simulated delta — the sweep is a
//! measurement *and* a correctness gate.

use compass_fleet::{
    expand_preset, presets, render, run_fleet, run_twins, sensitivity, twin_sample, ReportInput,
};
use std::collections::HashMap;
use std::time::Instant;

struct Opts {
    preset: String,
    jobs: usize,
    twin: Option<usize>,
    out: Option<std::path::PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        preset: String::new(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        twin: None,
        out: None,
        quiet: false,
    };
    let mut no_twin = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => opts.preset = args.next().ok_or("--preset needs a name")?,
            "--smoke" => opts.preset = "smoke".into(),
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--twin" => {
                opts.twin = Some(
                    args.next()
                        .ok_or("--twin needs a value")?
                        .parse()
                        .map_err(|e| format!("--twin: {e}"))?,
                );
            }
            "--no-twin" => no_twin = true,
            "--out" => opts.out = Some(args.next().ok_or("--out needs a path")?.into()),
            "--quiet" => opts.quiet = true,
            "--list" => {
                for (name, lattices) in presets::all() {
                    let (points, jobs) = expand_preset(&lattices);
                    println!(
                        "{name:<8} {points:>3} points, {:>3} unique jobs",
                        jobs.len()
                    );
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: compass-fleet (--preset NAME | --smoke) [--jobs N] \
                     [--twin N | --no-twin] [--out FILE] [--quiet] [--list]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if no_twin {
        opts.twin = Some(0);
    }
    if opts.preset.is_empty() {
        return Err("pick a preset: --smoke or --preset NAME (see --list)".into());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("compass-fleet: {e}");
            std::process::exit(2);
        }
    };
    let Some(lattices) = presets::by_name(&opts.preset) else {
        eprintln!(
            "compass-fleet: unknown preset {:?}; --list shows the catalogue",
            opts.preset
        );
        std::process::exit(2);
    };

    let (points, jobs) = expand_preset(&lattices);
    if !opts.quiet {
        eprintln!(
            "fleet {:?}: {points} points, {} unique jobs ({} deduped), {} worker(s)",
            opts.preset,
            jobs.len(),
            points - jobs.len(),
            opts.jobs.clamp(1, jobs.len().max(1)),
        );
    }
    let t0 = Instant::now();
    let results = run_fleet(&jobs, opts.jobs, !opts.quiet);

    // Default oracle sample: at least 3 jobs, a quarter of the fleet
    // when that is more.
    let twin_n = opts.twin.unwrap_or_else(|| (jobs.len() / 4).max(3));
    let sample = twin_sample(jobs.len(), twin_n);
    let (divergences, twin_wall) = run_twins(&jobs, &results, &sample, !opts.quiet);
    let wall = t0.elapsed();

    let by_key: HashMap<u64, &compass_fleet::JobResult> =
        results.iter().flatten().map(|r| (r.key, r)).collect();
    let sens = sensitivity(&lattices, &by_key);

    let report = render(&ReportInput {
        fleet: &opts.preset,
        lattices: &lattices,
        points,
        jobs: &jobs,
        results: &results,
        sensitivity: &sens,
        twin_sample: &sample,
        twin_divergences: &divergences,
        twin_wall,
        workers: opts.jobs.clamp(1, jobs.len().max(1)),
        wall,
    });
    match &opts.out {
        Some(path) => std::fs::write(path, &report).expect("report must be writable"),
        None => print!("{report}"),
    }

    let failed_jobs = results.iter().filter(|r| r.is_err()).count();
    if !opts.quiet {
        eprintln!(
            "fleet {:?}: {} jobs ok, {failed_jobs} failed, {} twins sampled, {} diverged, \
             {} neutrality violation(s), {:.1}s",
            opts.preset,
            results.len() - failed_jobs,
            sample.len(),
            divergences.len(),
            sens.neutral_violations,
            wall.as_secs_f64()
        );
    }
    for d in &divergences {
        eprintln!("TWIN DIVERGENCE [{}] {}", d.job, d.label);
        for diff in &d.diffs {
            eprintln!("  {diff}");
        }
    }
    if failed_jobs > 0 || !divergences.is_empty() || sens.neutral_violations > 0 {
        std::process::exit(1);
    }
}
