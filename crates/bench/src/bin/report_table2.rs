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

use compass::ArchConfig;
use compass_bench::{slowdown_row, timed, TpcdRun};
use compass_workloads::db2lite::tpcd::{Query, TpcdConfig};

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

    let mut run = TpcdRun::new(ArchConfig::simple_smp(1));
    run.workers = 1;
    run.data = data;
    run.query = Query::Q1(1_600);
    run.pool_pages = 128;

    // Raw (uninstrumented) baseline.
    let ((_, revenue_raw), raw_wall) = timed(|| run.run_raw());

    // Simple backend: one cache level per processor.
    let (simple_report, simple_wall) = {
        let ((report, results), wall) = timed(|| run.run());
        let sum: u64 = results.q1.lock().values().map(|v| v.1).sum();
        assert_eq!(sum, revenue_raw, "simulated and raw runs must agree");
        (report, wall)
    };

    // Complex backend: two cache levels + the full CC-NUMA machinery.
    let mut complex = run.clone();
    complex.arch = ArchConfig::ccnuma(1, 1);
    let (complex_report, complex_wall) = {
        let ((report, results), wall) = timed(|| complex.run());
        let sum: u64 = results.q1.lock().values().map(|v| v.1).sum();
        assert_eq!(sum, revenue_raw, "simulated and raw runs must agree");
        (report, wall)
    };

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
