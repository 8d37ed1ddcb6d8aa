//! Runs one scenario of the shared catalogue (`compass_simcheck::presets`)
//! at the shipped batch depth and prints its event count and wall time.
//!
//! This is the CLI edge for the observability env knobs:
//! `COMPASS_TRACE=off|coarse|fine` selects the trace level (counters come
//! on with any non-off level), `COMPASS_OBS=1` turns counters on alone.
//! An observed run prints its nonzero counters to stderr and writes the
//! trace ring to `compass_trace.jsonl` + `compass_trace.json` (Chrome
//! `about:tracing` / Perfetto format) in the current directory.
//!
//! Usage: `probe <name>`, e.g. `COMPASS_TRACE=fine probe tpcd_scan`.
use compass::ObsConfig;
use compass_simcheck::check::apply_scenario_knobs;
use compass_simcheck::presets;
use std::time::Instant;

/// Prints the counter catalogue and writes the trace exports when the
/// env knobs enabled them; silent otherwise.
fn dump_obs(r: &compass::RunReport) {
    if let Some(obs) = &r.obs {
        eprintln!("obs counters:");
        for (name, v) in obs.nonzero() {
            eprintln!("  {name:<22} {v}");
        }
    }
    if let Some(trace) = &r.trace {
        for (path, data) in [
            ("compass_trace.jsonl", trace.to_jsonl()),
            ("compass_trace.json", trace.to_chrome_trace()),
        ] {
            if let Err(e) = std::fs::write(path, data) {
                eprintln!("probe: cannot write {path}: {e}");
            }
        }
        eprintln!(
            "trace: {} records kept, {} dropped -> compass_trace.jsonl / compass_trace.json",
            trace.len(),
            trace.dropped()
        );
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some(sc) = presets::by_name(&name) else {
        let names: Vec<&str> = presets::all().iter().map(|(n, _)| *n).collect();
        eprintln!("usage: probe <{}>", names.join("|"));
        std::process::exit(2);
    };
    let mut b = sc.builder();
    let cfg = b.config_mut();
    let depth = cfg.backend.batch_depth;
    apply_scenario_knobs(cfg, &sc, depth);
    cfg.obs = ObsConfig::from_env();
    let t0 = Instant::now();
    let r = b.run();
    println!("{name}: {} events in {:?}", r.backend.events, t0.elapsed());
    dump_obs(&r);
}
