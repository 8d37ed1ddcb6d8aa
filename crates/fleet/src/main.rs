//! The `compass-fleet` binary: expand a preset's lattices, dedupe, fan
//! the unique jobs across host cores (each run at the shipped batch
//! depth and twinned at depth 1), and emit the aggregate JSON.
//!
//! ```text
//! compass-fleet --preset smoke           # the CI preset
//! compass-fleet --preset explore         # semantic design space
//! compass-fleet --preset paper --out f.json  # Table 1 and studies S1–S3
//! compass-fleet --list                   # preset catalogue
//! compass-fleet ... --jobs 4             # cap worker threads
//! ```
//!
//! Exit status is nonzero when any job fails or any twin diverges — the
//! sweep is a measurement *and* a correctness gate.

use compass_fleet::{expand_preset, presets, render, run_fleet, ReportInput};
use std::time::Instant;

struct Opts {
    preset: String,
    jobs: usize,
    out: Option<std::path::PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        preset: String::new(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => opts.preset = args.next().ok_or("--preset needs a name")?,
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
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
                    "usage: compass-fleet --preset NAME [--jobs N] [--out FILE] [--quiet] [--list]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.preset.is_empty() {
        return Err("pick a preset: --preset NAME (see --list)".into());
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
    let workers = opts.jobs.clamp(1, jobs.len().max(1));
    if !opts.quiet {
        eprintln!(
            "fleet {:?}: {points} points, {} unique jobs ({} deduped), {workers} worker(s)",
            opts.preset,
            jobs.len(),
            points - jobs.len(),
        );
    }
    let t0 = Instant::now();
    let results = run_fleet(&jobs, opts.jobs, !opts.quiet);
    let wall = t0.elapsed();

    let report = render(&ReportInput {
        fleet: &opts.preset,
        lattices: &lattices,
        points,
        jobs: &jobs,
        results: &results,
        workers,
        wall,
    });
    match &opts.out {
        Some(path) => std::fs::write(path, &report).expect("report must be writable"),
        None => print!("{report}"),
    }

    let failed_jobs = results.iter().filter(|r| r.is_err()).count();
    let mut diverged = 0;
    for (job, r) in jobs.iter().zip(&results) {
        let Ok(r) = r else { continue };
        if !r.twin_diffs.is_empty() {
            diverged += 1;
            eprintln!("TWIN DIVERGENCE {}", job.label());
            for diff in &r.twin_diffs {
                eprintln!("  {diff}");
            }
        }
    }
    if !opts.quiet {
        eprintln!(
            "fleet {:?}: {} jobs ok and twinned, {failed_jobs} failed, {diverged} diverged, {:.1}s",
            opts.preset,
            results.len() - failed_jobs,
            wall.as_secs_f64()
        );
    }
    if failed_jobs > 0 || diverged > 0 {
        std::process::exit(1);
    }
}
