//! **Table 2 — "Slowdown on uniprocessor"** (paper §5).
//!
//! "The raw execution time, simulation execution time and slowdown factor
//! for a TPCD query on a 12MB database on a uniprocessor system…
//! The simple backend architecture model simulates only a single level
//! cache. The complex backend architecture model simulates a complete
//! CCNUMA system."
//!
//! Paper values (133 MHz PowerPC uniprocessor):
//!
//! |                 | Raw | Simple backend | Complex backend |
//! |-----------------|-----|----------------|-----------------|
//! | execution time  | 52s | 16149s         | 34841s          |
//! | slowdown        | 1   | 310            | 670             |
//!
//! Absolute slowdowns depend on what fraction of the instruction stream
//! is instrumented (the paper instruments every compiled basic block; our
//! workloads instrument page touches and row operations), so the *shape*
//! is the reproduction target: slowdown(simple) and slowdown(complex)
//! both ≫ 1, with complex ≥ simple.
//!
//! This is the one host-time table, so it stays a binary of its own: the
//! fleet never makes the raw (uninstrumented) run it compares against.

use compass::{ArchConfig, CpuCtx, KernelConfig, SimBuilder};
use compass_workloads::db2lite::tpcd::{self, Query, QueryResults, TpcdConfig};
use compass_workloads::db2lite::{Db2Config, Db2Session, Db2Shared};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Q1's shipdate cutoff.
const CUTOFF: u32 = 1_600;

fn database() -> Arc<Db2Shared> {
    Db2Shared::new(Db2Config {
        pool_pages: 128,
        shm_key: 0xDB2,
    })
}

/// Runs `f` and returns its result with the wall time it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// The query on a one-CPU machine; returns the report and Q1's revenue.
fn simulated(arch: ArchConfig, data: TpcdConfig) -> (compass::RunReport, u64) {
    let shared = database();
    let results = Arc::new(QueryResults::default());
    let shared_for_load = Arc::clone(&shared);
    let b = SimBuilder::new(arch)
        .prepare_kernel(move |k| {
            tpcd::load(k, &shared_for_load, data);
        })
        .add_process(tpcd::query_worker(
            shared,
            Query::Q1(CUTOFF),
            0,
            1,
            Arc::clone(&results),
        ));
    let report = b.run();
    let revenue = results.q1.lock().values().map(|v| v.1).sum();
    (report, revenue)
}

/// The same query raw (uninstrumented baseline, single stream); returns
/// Q1's revenue.
fn raw(data: TpcdConfig) -> u64 {
    let shared = database();
    let shared_for_body = Arc::clone(&shared);
    let revenue = Arc::new(Mutex::new(0u64));
    let out = Arc::clone(&revenue);
    compass::run_raw(
        KernelConfig::default(),
        |k| {
            tpcd::load(k, &shared, data);
        },
        move |cpu: &mut CpuCtx| {
            let session = Db2Session::attach(cpu, Arc::clone(&shared_for_body));
            let groups = tpcd::q1_worker(cpu, &session, CUTOFF, 0, 1);
            *out.lock().expect("the raw query body does not panic") =
                groups.values().map(|v| v.1).sum();
        },
    );
    let r = *revenue.lock().expect("the raw query body does not panic");
    r
}

/// Formats a slowdown-table row.
fn slowdown_row(name: &str, raw: Duration, sim: Duration) -> String {
    let slowdown = sim.as_secs_f64() / raw.as_secs_f64().max(1e-9);
    format!(
        "{name:<18} raw {:>9.3?}   simulated {:>9.3?}   slowdown {slowdown:>8.1}x",
        raw, sim
    )
}

fn main() {
    let scale_mb: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let data = TpcdConfig::scaled_mb(scale_mb);
    println!(
        "== Table 2: slowdown on a uniprocessor (TPC-D Q1, {scale_mb} MB database, {} rows) ==",
        data.lineitems
    );
    println!("paper: raw 52s, simple 16149s (310x), complex 34841s (670x)\n");

    let (revenue_raw, raw_wall) = timed(|| raw(data));
    // Simple backend: one cache level per processor.
    let ((simple_report, simple_revenue), simple_wall) =
        timed(|| simulated(ArchConfig::simple_smp(1), data));
    // Complex backend: two cache levels + the full CC-NUMA machinery.
    let ((complex_report, complex_revenue), complex_wall) =
        timed(|| simulated(ArchConfig::ccnuma(1, 1), data));
    assert_eq!(
        simple_revenue, revenue_raw,
        "simulated and raw runs must agree"
    );
    assert_eq!(
        complex_revenue, revenue_raw,
        "simulated and raw runs must agree"
    );

    println!("{}", slowdown_row("raw", raw_wall, raw_wall));
    println!("{}", slowdown_row("simple backend", raw_wall, simple_wall));
    println!(
        "{}",
        slowdown_row("complex backend", raw_wall, complex_wall)
    );
    println!(
        "\nevents: simple {}  complex {}   simulated cycles: simple {}  complex {}",
        simple_report.backend.events,
        complex_report.backend.events,
        simple_report.backend.global_cycles,
        complex_report.backend.global_cycles
    );
    println!(
        "complex/simple wall ratio: {:.2} (paper: 34841/16149 = 2.16)",
        complex_wall.as_secs_f64() / simple_wall.as_secs_f64()
    );
}
