//! The benchmark harness: parametric workload runners shared by the
//! table/figure report binaries (`report_*`) and the `probe` CLI.
//!
//! Every experiment of the paper maps to a function here; see DESIGN.md's
//! experiment index and EXPERIMENTS.md for the paper-vs-measured record.

use compass::runner::RunReport;
use compass::{ArchConfig, CpuCtx, ObsConfig, PlacementPolicy, SchedPolicy, SimBuilder};
use compass_workloads::db2lite::tpcc::{self, TerminalStats, TpccConfig};
use compass_workloads::db2lite::tpcd::{self, Query, QueryResults, TpcdConfig};
use compass_workloads::db2lite::{Db2Config, Db2Shared};
use compass_workloads::httplite::{
    generate_fileset, generate_trace, FileSetConfig, ServerConfig, SharedTickets, TracePlayer,
};
use compass_workloads::sci::{self, SciConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock timing helper.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Knobs a TPC-D run exposes.
#[derive(Clone)]
pub struct TpcdRun {
    /// Architecture.
    pub arch: ArchConfig,
    /// Parallel query workers.
    pub workers: u64,
    /// Data scale.
    pub data: TpcdConfig,
    /// The query.
    pub query: Query,
    /// Page placement (S2).
    pub placement: PlacementPolicy,
    /// Buffer-pool pages.
    pub pool_pages: usize,
    /// Scheduler (S1).
    pub sched: SchedPolicy,
    /// Pre-emption interval (S1).
    pub preempt: Option<u64>,
    /// Frontend event-batch depth (1 = classic per-event rendezvous).
    pub batch_depth: usize,
    /// Observability (off by default; `probe` wires it to the env).
    pub obs: ObsConfig,
}

impl TpcdRun {
    /// A sensible default around an architecture.
    pub fn new(arch: ArchConfig) -> Self {
        TpcdRun {
            arch,
            workers: 1,
            data: TpcdConfig::tiny(),
            query: Query::Q1(1_200),
            placement: PlacementPolicy::FirstTouch,
            pool_pages: 64,
            sched: SchedPolicy::Fcfs,
            preempt: None,
            batch_depth: 8,
            obs: ObsConfig::default(),
        }
    }

    /// Runs the simulation; returns the report and the merged results.
    pub fn run(&self) -> (RunReport, Arc<QueryResults>) {
        let shared = Db2Shared::new(Db2Config {
            pool_pages: self.pool_pages,
            shm_key: 0xDB2,
        });
        let results = Arc::new(QueryResults::default());
        let shared_for_load = Arc::clone(&shared);
        let data = self.data;
        let mut b = SimBuilder::new(self.arch.clone()).prepare_kernel(move |k| {
            tpcd::load(k, &shared_for_load, data);
        });
        for rank in 0..self.workers {
            b = b.add_process(tpcd::query_worker(
                Arc::clone(&shared),
                self.query,
                rank,
                self.workers,
                Arc::clone(&results),
            ));
        }
        let cfg = b.config_mut();
        cfg.backend.placement = self.placement;
        cfg.backend.sched = self.sched;
        cfg.backend.preempt_interval = self.preempt;
        cfg.backend.timer_interval = self.preempt;
        cfg.backend.batch_depth = self.batch_depth;
        cfg.backend.deadlock_ms = 30_000;
        cfg.obs = self.obs.clone();
        (b.run(), results)
    }

    /// Runs the same query raw (uninstrumented baseline, single stream).
    pub fn run_raw(&self) -> (compass::RawReport, u64) {
        let shared = Db2Shared::new(Db2Config {
            pool_pages: self.pool_pages,
            shm_key: 0xDB2,
        });
        let data = self.data;
        let query = self.query;
        let shared_for_body = Arc::clone(&shared);
        let revenue = Arc::new(parking_lot::Mutex::new(0u64));
        let rev2 = Arc::clone(&revenue);
        let report = compass::run_raw(
            compass::KernelConfig::default(),
            |k| {
                tpcd::load(k, &shared, data);
            },
            move |cpu: &mut CpuCtx| {
                let session = compass_workloads::db2lite::Db2Session::attach(
                    cpu,
                    Arc::clone(&shared_for_body),
                );
                let r = match query {
                    Query::Q1(cutoff) => {
                        let groups = tpcd::q1_worker(cpu, &session, cutoff, 0, 1);
                        groups.values().map(|v| v.1).sum()
                    }
                    Query::Q6(lo, hi) => tpcd::q6_worker(cpu, &session, lo, hi, 0, 1),
                    Query::Q3(cutoff) => tpcd::q3_worker(cpu, &session, cutoff, 0, 1),
                };
                *rev2.lock() = r;
            },
        );
        let r = *revenue.lock();
        (report, r)
    }
}

/// Runs a TPC-C mix; returns the report and per-terminal stats.
pub fn run_tpcc(
    arch: ArchConfig,
    terminals: u64,
    cfg: TpccConfig,
    sched: SchedPolicy,
    preempt: Option<u64>,
    obs: ObsConfig,
) -> (RunReport, Vec<TerminalStats>) {
    let shared = Db2Shared::new(Db2Config {
        pool_pages: 32,
        shm_key: 0xDB2,
    });
    let sink = Arc::new(parking_lot::Mutex::new(vec![
        TerminalStats::default();
        terminals as usize
    ]));
    let shared_for_load = Arc::clone(&shared);
    // The loader returns the customer index; publish it to the terminals.
    let cust_index: Arc<parking_lot::Mutex<Option<Arc<compass_workloads::db2lite::index::Index>>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let idx_slot = Arc::clone(&cust_index);
    let mut b = SimBuilder::new(arch).prepare_kernel(move |k| {
        *idx_slot.lock() = Some(tpcc::load(k, &shared_for_load, cfg));
    });
    for rank in 0..terminals {
        let idx = Arc::clone(&cust_index);
        let shared = Arc::clone(&shared);
        let sink = Arc::clone(&sink);
        b = b.add_process(move |cpu: &mut compass::CpuCtx| {
            let index = idx.lock().clone().expect("loader ran before processes");
            let mut body = tpcc::terminal(shared.clone(), cfg, rank, sink.clone(), index);
            body(cpu)
        });
    }
    let c = b.config_mut();
    c.backend.sched = sched;
    c.backend.preempt_interval = preempt;
    c.backend.timer_interval = preempt.or(Some(2_000_000));
    c.backend.deadlock_ms = 30_000;
    c.obs = obs;
    let r = b.run();
    let stats = sink.lock().clone();
    (r, stats)
}

/// Runs the SPECWeb-style web-serving benchmark.
pub fn run_specweb(
    arch: ArchConfig,
    workers: u32,
    fileset: FileSetConfig,
    requests: u32,
    clients: u32,
    obs: ObsConfig,
) -> RunReport {
    let trace = generate_trace(fileset, requests, 0x5EC);
    let tickets = SharedTickets::new(requests as u64);
    let cfg = ServerConfig::default();
    let mut b = SimBuilder::new(arch)
        .prepare_kernel(move |k| {
            generate_fileset(k, fileset);
        })
        .traffic(TracePlayer::new(trace, clients, cfg.port));
    for _ in 0..workers {
        b = b.add_process(compass_workloads::httplite::worker(
            cfg,
            Arc::clone(&tickets),
        ));
    }
    b.config_mut().backend.deadlock_ms = 30_000;
    b.config_mut().obs = obs;
    b.run()
}

/// Runs the scientific contrast kernel.
pub fn run_sci(arch: ArchConfig, cfg: SciConfig, obs: ObsConfig) -> RunReport {
    let mut b = SimBuilder::new(arch);
    for rank in 0..cfg.nprocs {
        b = b.add_process(sci::worker(cfg, rank));
    }
    b.config_mut().backend.deadlock_ms = 30_000;
    b.config_mut().obs = obs;
    b.run()
}

/// Formats a slowdown-table row.
pub fn slowdown_row(name: &str, raw: Duration, sim: Duration) -> String {
    let slowdown = sim.as_secs_f64() / raw.as_secs_f64().max(1e-9);
    format!(
        "{name:<18} raw {:>9.3?}   simulated {:>9.3?}   slowdown {slowdown:>8.1}x",
        raw, sim
    )
}
