//! Fixed-seed regression anchor for the db2lite TPC-C workload: one
//! exact configuration, run twice for bit-stability and across the
//! kernel-path knobs, with the per-terminal transaction counts and the headline
//! `BackendStats` quantities pinned to literals. If any engine,
//! OS-server, buffer-pool or locking change shifts a single simulated
//! cycle, this test names the quantity that moved; intentional changes
//! re-pin the literals (the failure message prints the fresh values).

use compass::{ArchConfig, CpuCtx, RunReport, SimBuilder};
use compass_workloads::db2lite::tpcc::{self, TerminalStats, TpccConfig};
use compass_workloads::db2lite::{Db2Config, Db2Shared};
use parking_lot::Mutex;
use std::sync::Arc;

const TERMINALS: usize = 3;

fn run_tpcc() -> (RunReport, Vec<TerminalStats>) {
    run_tpcc_with(8)
}

fn run_tpcc_with(kernel_batch_depth: usize) -> (RunReport, Vec<TerminalStats>) {
    let cfg = TpccConfig {
        txns_per_terminal: 5,
        seed: 0xA27C,
        ..TpccConfig::tiny()
    };
    let shared = Db2Shared::new(Db2Config {
        pool_pages: 32,
        shm_key: 0xDB2,
    });
    let sink = Arc::new(Mutex::new(vec![TerminalStats::default(); TERMINALS]));
    let cust_index: Arc<Mutex<Option<Arc<compass_workloads::db2lite::index::Index>>>> =
        Arc::new(Mutex::new(None));
    let idx_slot = Arc::clone(&cust_index);
    let shared_for_load = Arc::clone(&shared);
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).prepare_kernel(move |k| {
        *idx_slot.lock() = Some(tpcc::load(k, &shared_for_load, cfg));
    });
    for rank in 0..TERMINALS as u64 {
        let idx = Arc::clone(&cust_index);
        let shared = Arc::clone(&shared);
        let sink = Arc::clone(&sink);
        b = b.add_process(move |cpu: &mut CpuCtx| {
            let index = idx.lock().clone().expect("loader ran before terminals");
            let mut body = tpcc::terminal(Arc::clone(&shared), cfg, rank, Arc::clone(&sink), index);
            body(cpu)
        });
    }
    let c = b.config_mut();
    c.backend.deadlock_ms = 30_000;
    c.backend.timer_interval = Some(2_000_000);
    c.kernel_batch_depth = kernel_batch_depth;
    let report = b.run();
    let terminals = sink.lock().clone();
    (report, terminals)
}

#[test]
fn fixed_seed_tpcc_results_are_pinned() {
    let (report, terminals) = run_tpcc();

    // Per-terminal transaction mix: a pure function of (seed, rank) plus
    // lock outcomes — any scheduler or locking change shows up here.
    let counts: Vec<(u64, u64, u64)> = terminals
        .iter()
        .map(|t| (t.new_orders, t.payments, t.order_lines))
        .collect();
    assert_eq!(
        counts,
        vec![(3, 2, 17), (4, 1, 23), (0, 5, 0)],
        "transaction mix moved; full stats: {terminals:?}"
    );
    for t in &terminals {
        assert_eq!(t.new_orders + t.payments, 5, "a terminal lost a txn: {t:?}");
    }

    // Headline backend quantities. These literals anchor the simulated
    // timeline itself.
    let b = &report.backend;
    assert_eq!(b.global_cycles, 14_399_824, "global cycles moved");
    assert_eq!(b.events, 5_444, "backend event count moved");
    assert_eq!(
        b.mem.accesses,
        [2_743, 2_513, 90],
        "memory access counts moved"
    );
    assert_eq!(b.sync.barriers, 0, "barrier episode count moved");
    assert_eq!(b.soft_faults, 29, "soft fault count moved");

    // Bit-stability: an identical second run must reproduce every
    // statistic exactly (no hidden host-time or iteration-order leaks).
    let (again, terminals_again) = run_tpcc();
    assert_eq!(terminals, terminals_again, "terminal stats not stable");
    assert_eq!(
        format!("{:#?}", report.backend),
        format!("{:#?}", again.backend),
        "BackendStats not bit-stable across identical runs"
    );

    // OS-port batching is a pure transport optimisation: any depth must
    // replay to the very same anchor (the credit invariants — see
    // DESIGN.md).
    for kb in [1, 64] {
        let (twin, terminals_twin) = run_tpcc_with(kb);
        assert_eq!(
            terminals, terminals_twin,
            "terminal stats moved at kernel_batch_depth={kb}"
        );
        assert_eq!(
            format!("{:#?}", report.backend),
            format!("{:#?}", twin.backend),
            "BackendStats moved at kernel_batch_depth={kb}"
        );
    }
}
