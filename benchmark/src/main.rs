//! `compass-benchmark`: one pinned benchmark for the four paper workloads
//! (`sci`, `tpcc`, `tpcd`, `httplite`). See `README.md` for the method and
//! the glossary, `../BENCHMARK.json` for the contract.
//!
//! ```text
//! compass-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! compass-benchmark [--workload W] [--seed N] [--seconds S] [--out F]   the suite, a process per run
//! compass-benchmark --check-manifest BENCHMARK.json [SUMMARY.json]
//! compass-benchmark --agree A.json B.json
//! compass-benchmark --print-manifest
//! ```

mod agree;
mod catalogue;
mod golden;
mod host;
mod json;
mod manifest;
mod probes;
mod run;
mod stats;
mod workloads;

use json::Value;
use run::RunArgs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, DEFAULT_SEED};

/// `run_seconds` of the manifest, and the suite's default `--seconds`.
const RUN_SECONDS: u32 = 10;
/// The manifest's `command` and `paths`.
const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
const PATHS: [&str; 1] = ["benchmark"];

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    write_golden: Option<PathBuf>,
    check_manifest: Option<Vec<PathBuf>>,
    agree: Option<(PathBuf, PathBuf)>,
    print_manifest: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or(format!("{flag} needs {what} (try --help)"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                cli.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a number"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                cli.seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("--seconds {v}: not a duration"))?,
                );
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--out" => cli.out = Some(value("a file")?.into()),
            "--out-dir" => cli.out_dir = Some(value("a directory")?.into()),
            "--write-golden" => cli.write_golden = Some(value("a file")?.into()),
            "--check-manifest" => {
                let mut files = vec![PathBuf::from(value("a manifest")?)];
                if let Some(summary) = it.next_if(|a| !a.starts_with("--")) {
                    files.push(summary.into());
                }
                cli.check_manifest = Some(files);
            }
            "--agree" => {
                cli.agree = Some((
                    value("two summaries")?.into(),
                    value("two summaries")?.into(),
                ))
            }
            "--print-manifest" => cli.print_manifest = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

const USAGE: &str = "usage:
  run.sh --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
  run.sh [--workload W] [--seed N] [--seconds S] [--out F] [--write-golden F]   the whole suite
  run.sh --check-manifest BENCHMARK.json [SUMMARY.json]
  run.sh --agree A.json B.json
  run.sh --print-manifest
workloads: sci tpcc tpcd httplite";

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or(format!(
        "unknown workload {name:?} (sci, tpcc, tpcd, httplite)"
    ))
}

/// Runs every selected workload in its own process, untraced then traced,
/// and merges the runs' detail files into one summary.
fn suite(cli: &Cli, out_dir: &Path) -> Result<bool, String> {
    let selected = match &cli.workload {
        Some(name) => vec![workload_named(name)?],
        None => Workload::ALL.to_vec(),
    };
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(RUN_SECONDS as f64);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;

    let mut all_correct = true;
    let mut all_violations = 0;
    let mut entries = Vec::new();
    let mut goldens = Vec::new();
    let mut shared: Option<(Value, Value)> = None; // (host, scales)
    for w in selected {
        let mut merged = std::collections::BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let (mut failures, mut violations) = (Vec::new(), Vec::new());
        let mut fingerprint = Value::Null;
        for trace in [false, true] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(out_dir)
                .status()
                .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
            let path = run::detail_path(out_dir, w, trace);
            let doc = json::parse(&read(&path)?).map_err(|e| format!("{}: {e}", path.display()))?;
            let num = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let list = |k: &str| doc.get(k).and_then(Value::as_arr).unwrap_or(&[]).to_vec();
            attempted += num("ops_attempted");
            failed += num("ops_failed");
            failures.extend(list("failures"));
            violations.extend(list("determinism_violations"));
            all_correct &= status.success() && doc.get("correct") == Some(&Value::Bool(true));
            if let Some(m) = doc.get("metrics").and_then(Value::as_obj) {
                merged.extend(m.clone());
            }
            let field = |k: &str| doc.get(k).cloned().unwrap_or(Value::Null);
            if !trace {
                fingerprint = field("fingerprint");
            }
            shared.get_or_insert_with(|| (field("host"), field("scales")));
        }
        if let Some(f) = golden::from_json(&fingerprint) {
            goldens.push((w, f));
        }
        all_violations += violations.len();
        entries.push(format!(
            "    {}: {{\"correct\": {}, \"ops_attempted\": {attempted}, \"ops_failed\": {failed}, \
             \"unit_of_work\": {}, \"failures\": {}, \"determinism_violations\": {}, \
             \"fingerprint\": {},\n      \"metrics\": {}}}",
            json::quote(w.name()),
            failed == 0.0,
            json::quote(w.unit()),
            Value::Arr(failures).render(),
            Value::Arr(violations).render(),
            fingerprint.render(),
            Value::Obj(merged).render(),
        ));
    }

    let (host, scales) = shared.expect("at least one workload ran");
    let summary = format!(
        "{{\n  \"benchmark\": \"compass-benchmark\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \
         \"host\": {},\n  \"scales\": {},\n  \"workloads\": {{\n{}\n  }},\n  \"claim\": null\n}}\n",
        json::num(seconds),
        host.render(),
        scales.render(),
        entries.join(",\n"),
    );
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("summary.json"));
    std::fs::write(&out, summary).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("summary written to {}", out.display());
    if all_violations > 0 {
        println!(
            "{all_violations} repetitions broke determinism (NONDETERMINISTIC above; README, \
             \"Known defect\"); their operations completed, so they do not fail the suite"
        );
    }
    if let Some(path) = &cli.write_golden {
        std::fs::write(path, golden::render(&goldens))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "golden fingerprints written to {}: rebuild to use them",
            path.display()
        );
    }
    Ok(all_correct)
}

fn dispatch(cli: Cli) -> Result<bool, String> {
    if cli.print_manifest {
        print!(
            "{}",
            manifest::render(&COMMAND, &PATHS, RUN_SECONDS, catalogue::WORKLOAD_WHY)
        );
        return Ok(true);
    }
    if let Some(files) = &cli.check_manifest {
        let root = files[0].parent().unwrap_or(Path::new("."));
        let mut problems = manifest::check(&read(&files[0])?, root);
        if let Some(summary) = files.get(1) {
            problems.extend(manifest::check_summary(&read(summary)?));
        }
        for p in &problems {
            println!("PROBLEM {p}");
        }
        println!(
            "{}: {} workloads, {} end-to-end and {} per-layer metrics, {} problems",
            files[0].display(),
            Workload::ALL.len(),
            catalogue::END_TO_END.len(),
            catalogue::PER_LAYER.len(),
            problems.len()
        );
        return Ok(problems.is_empty());
    }
    if let Some((a, b)) = &cli.agree {
        let rows = agree::compare(&read(a)?, &read(b)?)?;
        return Ok(agree::report(&rows) == 0);
    }
    let out_dir = cli
        .out_dir
        .clone()
        .unwrap_or_else(|| "benchmark/out".into());
    match cli.trace {
        Some(trace) => run::run_one(&RunArgs {
            workload: workload_named(cli.workload.as_deref().ok_or("--trace needs --workload")?)?,
            seed: cli.seed.unwrap_or(DEFAULT_SEED),
            seconds: cli.seconds.unwrap_or(RUN_SECONDS as f64),
            trace,
            out_dir,
        })
        .map(|()| true),
        None => {
            std::fs::create_dir_all(&out_dir)
                .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
            suite(&cli, &out_dir)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compass-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
