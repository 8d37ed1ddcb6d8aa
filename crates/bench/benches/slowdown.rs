//! T2 — slowdown benchmarks: the same TPC-D query raw, under the simple
//! backend, and under the complex backend (Table 2's columns), and a
//! 4-way CC-NUMA run across event-batch depths. `report_table2` prints
//! the actual slowdown factors.

use compass::ArchConfig;
use compass_bench::TpcdRun;
use compass_workloads::db2lite::tpcd::{Query, TpcdConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn data() -> TpcdConfig {
    TpcdConfig {
        lineitems: 6_000,
        orders: 1_500,
        seed: 1,
    }
}

fn bench_slowdown(c: &mut Criterion) {
    let mut g = c.benchmark_group("slowdown");
    g.sample_size(10);

    g.bench_function("raw", |b| {
        b.iter(|| {
            let mut run = TpcdRun::new(ArchConfig::simple_smp(1));
            run.data = data();
            run.query = Query::Q1(1_600);
            run.run_raw()
        })
    });

    for (name, arch) in [
        ("simple_backend", ArchConfig::simple_smp(1)),
        ("complex_backend", ArchConfig::ccnuma(1, 1)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut run = TpcdRun::new(arch.clone());
                run.data = data();
                run.query = Query::Q1(1_600);
                run.run()
            })
        });
    }

    // Event-batch depth sweep: same simulation (bit-identical stats), less
    // rendezvous overhead per event as the depth grows (8 is the default).
    for depth in [1usize, 4, 8, 16] {
        g.bench_function(format!("smp_batch_{depth}"), |b| {
            b.iter(|| {
                let mut run = TpcdRun::new(ArchConfig::ccnuma(2, 2));
                run.workers = 4;
                run.batch_depth = depth;
                run.data = data();
                run.query = Query::Q1(1_600);
                run.run()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_slowdown);
criterion_main!(benches);
