//! Fixed-seed regression anchor for the db2lite *disk path*: a
//! buffer-pool-starved TPC-C run whose misses, victim writebacks and WAL
//! appends keep the simulated disks busy, with the per-disk operation
//! counts and the headline `BackendStats` quantities pinned to literals.
//! The anchor is then replayed across batch depths — the one transport
//! knob for frontends, their syscall path and the bottom-half daemon — which
//! must reproduce every pinned value bit for bit, disk timeline included.
//! Intentional timing-model changes re-pin the literals (the failure
//! message prints the fresh values).

use compass::{ArchConfig, CpuCtx, RunReport, SimBuilder};
use compass_workloads::db2lite::tpcc::{self, TerminalStats, TpccConfig};
use compass_workloads::db2lite::{Db2Config, Db2Shared};
use parking_lot::Mutex;
use std::sync::Arc;

const TERMINALS: usize = 3;

fn run_db2(batch_depth: usize) -> Anchor {
    let cfg = TpccConfig {
        txns_per_terminal: 6,
        seed: 0xD15C,
        ..TpccConfig::tiny()
    };
    // A starved pool: every few page touches miss, evict a dirty victim
    // (one batched writeback+read port crossing) and hit the disks.
    let shared = Db2Shared::new(Db2Config {
        pool_pages: 16,
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
    c.backend.timer_interval = Some(2_000_000);
    c.backend.batch_depth = batch_depth;
    let report = b.run();
    let terminals = sink.lock().clone();
    Anchor { report, terminals }
}

struct Anchor {
    report: RunReport,
    terminals: Vec<TerminalStats>,
}

#[test]
fn fixed_seed_db2lite_disk_results_are_pinned() {
    // Baseline: the shipped default depth, 64.
    let base = run_db2(64);

    // Per-terminal transaction mix — a pure function of (seed, rank)
    // plus lock outcomes.
    let counts: Vec<(u64, u64, u64)> = base
        .terminals
        .iter()
        .map(|t| (t.new_orders, t.payments, t.order_lines))
        .collect();
    assert_eq!(
        counts,
        vec![(1, 5, 6), (3, 3, 16), (3, 3, 16)],
        "transaction mix moved; full stats: {:?}",
        base.terminals
    );
    for t in &base.terminals {
        assert_eq!(t.new_orders + t.payments, 6, "a terminal lost a txn: {t:?}");
    }

    // Headline backend quantities, disk timeline included: the per-disk
    // (ops, blocks) vector pins every miss read, victim writeback and
    // WAL append the starved pool generated.
    let b = &base.report.backend;
    assert_eq!(
        b.disk_ops,
        vec![(3, 24), (21, 168)],
        "per-disk operation counts moved"
    );
    assert_eq!(b.global_cycles, 18_656_943, "global cycles moved");
    assert_eq!(b.events, 5_807, "backend event count moved");
    assert_eq!(
        b.mem.accesses,
        [2_906, 2_677, 110],
        "memory access counts moved"
    );
    assert_eq!(b.soft_faults, 33, "soft fault count moved");

    // Bit-stability across an identical rerun.
    let again = run_db2(64);
    assert_eq!(
        base.terminals, again.terminals,
        "terminal stats not bit-stable"
    );
    assert_eq!(
        format!("{:#?}", base.report.backend),
        format!("{:#?}", again.report.backend),
        "BackendStats not bit-stable across identical runs"
    );

    // Depth twins must replay the very same anchor — batched kernel
    // references and interrupt handlers settle the same latencies through
    // the port credit that the per-reference rendezvous charges directly
    // (see DESIGN.md).
    for depth in [1, 8] {
        let twin = run_db2(depth);
        assert_eq!(
            base.terminals, twin.terminals,
            "terminal stats moved at batch_depth={depth}"
        );
        assert_eq!(
            format!("{:#?}", base.report.backend),
            format!("{:#?}", twin.report.backend),
            "BackendStats moved at batch_depth={depth}"
        );
    }
}
