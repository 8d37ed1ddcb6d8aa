//! TPC-C-style OLTP schema, loader and transaction mix.
//!
//! Scaled-down TPC-C shape: warehouse / district / customer / item /
//! stock base tables plus append-only orders / order-line / history. The
//! terminal processes run the classic mix of new-order and payment
//! transactions under row locks, logging every modification and forcing
//! the log at commit — producing the kreadv/kwritev + disk-interrupt
//! kernel profile the paper reports for TPCC/DB2 (Table 1).

// Money amounts are cents grouped as dollars_00 (e.g. 500_00 = $500.00).
#![allow(clippy::inconsistent_digit_grouping)]
use super::engine::{Db2Session, Db2Shared};
use super::index::{attach_index_segment, Index};
use super::storage::{ColType, Row, Schema, TableId, Value};
use super::txn::Txn;
use compass_frontend::CpuCtx;
use compass_isa::rng::SimRng;
use compass_isa::InstClass;
use compass_os::KernelShared;
use std::sync::Arc;

/// Scale parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Districts in the single warehouse.
    pub districts: u32,
    /// Customers per district.
    pub customers: u32,
    /// Items (and stock rows).
    pub items: u32,
    /// Transactions per terminal process.
    pub txns_per_terminal: u32,
    /// Percentage of new-order transactions (the rest are payments).
    pub new_order_pct: u32,
    /// RNG seed base.
    pub seed: u64,
}

impl TpccConfig {
    /// Tiny scale for tests.
    pub fn tiny() -> Self {
        TpccConfig {
            districts: 2,
            customers: 8,
            items: 16,
            txns_per_terminal: 4,
            new_order_pct: 50,
            seed: 7,
        }
    }
}

/// Table handles resolved by name once.
#[derive(Debug, Clone, Copy)]
struct Tables {
    warehouse: TableId,
    district: TableId,
    customer: TableId,
    item: TableId,
    stock: TableId,
    orders: TableId,
    order_line: TableId,
    history: TableId,
}

impl Tables {
    fn resolve(shared: &Db2Shared) -> Self {
        Tables {
            warehouse: shared.table_id("warehouse"),
            district: shared.table_id("district"),
            customer: shared.table_id("customer"),
            item: shared.table_id("item"),
            stock: shared.table_id("stock"),
            orders: shared.table_id("orders"),
            order_line: shared.table_id("order_line"),
            history: shared.table_id("history"),
        }
    }
}

/// Builds the customer index key (district, customer).
fn cust_key(d_id: u32, c_id: u32) -> u64 {
    ((d_id as u64) << 32) | c_id as u64
}

/// Loads the TPC-C tables; returns the customer primary-key index the
/// terminals share (DB2 reaches customers through an index, not a scan).
pub fn load(kernel: &KernelShared, shared: &Db2Shared, cfg: TpccConfig) -> Arc<Index> {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    shared.create_table(
        kernel,
        "warehouse",
        Schema::new(vec![ColType::U32, ColType::U64, ColType::Str(16)]),
        vec![vec![
            Value::U32(1),
            Value::U64(0),
            Value::Str("WAREHOUSE1".into()),
        ]],
    );
    shared.create_table(
        kernel,
        "district",
        // id, next_o_id, ytd
        Schema::new(vec![ColType::U32, ColType::U64, ColType::U64]),
        (0..cfg.districts).map(|d| vec![Value::U32(d), Value::U64(1), Value::U64(0)]),
    );
    shared.create_table(
        kernel,
        "customer",
        // id, d_id, balance, name
        Schema::new(vec![
            ColType::U32,
            ColType::U32,
            ColType::U64,
            ColType::Str(16),
        ]),
        (0..cfg.districts * cfg.customers).map(|i| {
            vec![
                Value::U32(i % cfg.customers),
                Value::U32(i / cfg.customers),
                Value::U64(1_000_00),
                Value::Str(format!("CUST{i:06}")),
            ]
        }),
    );
    shared.create_table(
        kernel,
        "item",
        // id, price, name
        Schema::new(vec![ColType::U32, ColType::U32, ColType::Str(24)]),
        (0..cfg.items).map(|i| {
            vec![
                Value::U32(i),
                Value::U32(rng.gen_range(1_00..100_00)),
                Value::Str(format!("ITEM{i:06}")),
            ]
        }),
    );
    shared.create_table(
        kernel,
        "stock",
        // i_id, quantity, ytd
        Schema::new(vec![ColType::U32, ColType::U64, ColType::U64]),
        (0..cfg.items).map(|i| {
            vec![
                Value::U32(i),
                Value::U64(rng.gen_range(50..100)),
                Value::U64(0),
            ]
        }),
    );
    shared.create_table(
        kernel,
        "orders",
        // o_id, d_id, c_id, item count
        Schema::new(vec![ColType::U64, ColType::U32, ColType::U32, ColType::U32]),
        Vec::<Row>::new(),
    );
    shared.create_table(
        kernel,
        "order_line",
        // o_id, i_id, qty, amount
        Schema::new(vec![ColType::U64, ColType::U32, ColType::U32, ColType::U64]),
        Vec::<Row>::new(),
    );
    shared.create_table(
        kernel,
        "history",
        // c_id, d_id, amount
        Schema::new(vec![ColType::U32, ColType::U32, ColType::U64]),
        Vec::<Row>::new(),
    );
    Index::new(
        "customer_pk",
        0,
        (0..cfg.districts * cfg.customers)
            .map(|i| (cust_key(i / cfg.customers, i % cfg.customers), i as u64)),
    )
}

/// Counters a terminal reports (for functional assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TerminalStats {
    /// New-order transactions committed.
    pub new_orders: u64,
    /// Payment transactions committed.
    pub payments: u64,
    /// Order lines inserted.
    pub order_lines: u64,
}

/// One new-order transaction.
#[allow(clippy::too_many_arguments)]
fn new_order(
    cpu: &mut CpuCtx,
    session: &Db2Session,
    t: &Tables,
    cfg: &TpccConfig,
    rng: &mut SimRng,
    stats: &mut TerminalStats,
    cust_index: &Index,
    idx_base: compass_mem::VAddr,
) {
    let d_id = rng.gen_range(0..cfg.districts);
    let c_id = rng.gen_range(0..cfg.customers);
    let n_items = rng.gen_range(3..=8usize);
    let mut item_ids: Vec<u32> = (0..n_items).map(|_| rng.gen_range(0..cfg.items)).collect();
    // Canonical lock order prevents lock-manager deadlocks (real systems
    // detect-and-abort; ordering is the classical alternative).
    item_ids.sort_unstable();
    item_ids.dedup();

    let mut txn = Txn::begin();

    // District: allocate the order id.
    session.lock_row(cpu, t.district, d_id as u64);
    let mut district = session.read_row(cpu, t.district, d_id as u64);
    let o_id = district[1].as_u64();
    district[1] = Value::U64(o_id + 1);
    session.write_row(cpu, t.district, d_id as u64, &district);
    txn.log(cpu, session, 64);

    // Customer credit check (read only) plus the transaction's SQL
    // compilation/agent dispatch overhead (calibrated against Table 1's
    // 79% user share for TPC-C).
    let cust_idx = cust_index
        .lookup(cpu, session, idx_base, cust_key(d_id, c_id))
        .expect("customer exists");
    let customer = session.read_row(cpu, t.customer, cust_idx);
    cpu.inst(InstClass::IntAlu, 2_200);
    cpu.inst(InstClass::Branch, 300);
    std::hint::black_box(customer[2].as_u64());

    // Stock updates + order lines.
    let mut total = 0u64;
    for &i_id in &item_ids {
        let item = session.read_row(cpu, t.item, i_id as u64);
        let price = item[1].as_u32() as u64;
        session.lock_row(cpu, t.stock, i_id as u64);
        let mut stock = session.read_row(cpu, t.stock, i_id as u64);
        let qty = rng.gen_range(1..10) as u64;
        let have = stock[1].as_u64();
        stock[1] = Value::U64(if have > qty + 10 {
            have - qty
        } else {
            have + 91 - qty
        });
        stock[2] = Value::U64(stock[2].as_u64() + qty);
        session.write_row(cpu, t.stock, i_id as u64, &stock);
        txn.log(cpu, session, 48);
        session.unlock_row(cpu, t.stock, i_id as u64);

        cpu.inst(InstClass::IntAlu, 700); // per-line SQL evaluation
        let amount = price * qty;
        total += amount;
        session.insert_row(
            cpu,
            t.order_line,
            &vec![
                Value::U64(o_id),
                Value::U32(i_id),
                Value::U32(qty as u32),
                Value::U64(amount),
            ],
        );
        txn.log(cpu, session, 48);
        stats.order_lines += 1;
    }
    std::hint::black_box(total);

    session.insert_row(
        cpu,
        t.orders,
        &vec![
            Value::U64(o_id),
            Value::U32(d_id),
            Value::U32(c_id),
            Value::U32(item_ids.len() as u32),
        ],
    );
    txn.log(cpu, session, 48);

    txn.commit(cpu, session);
    session.unlock_row(cpu, t.district, d_id as u64);
    stats.new_orders += 1;
}

/// One payment transaction.
#[allow(clippy::too_many_arguments)]
fn payment(
    cpu: &mut CpuCtx,
    session: &Db2Session,
    t: &Tables,
    cfg: &TpccConfig,
    rng: &mut SimRng,
    stats: &mut TerminalStats,
    cust_index: &Index,
    idx_base: compass_mem::VAddr,
) {
    let d_id = rng.gen_range(0..cfg.districts);
    let c_id = rng.gen_range(0..cfg.customers);
    let amount = rng.gen_range(1_00..500_00) as u64;
    cpu.inst(InstClass::IntAlu, 2_600); // SQL + agent work for the payment
    cpu.inst(InstClass::Branch, 350);
    let mut txn = Txn::begin();

    // Lock order: warehouse < district < customer (fixed hierarchy).
    session.lock_row(cpu, t.warehouse, 0);
    let mut wh = session.read_row(cpu, t.warehouse, 0);
    wh[1] = Value::U64(wh[1].as_u64() + amount);
    session.write_row(cpu, t.warehouse, 0, &wh);
    txn.log(cpu, session, 48);

    session.lock_row(cpu, t.district, d_id as u64);
    let mut district = session.read_row(cpu, t.district, d_id as u64);
    district[2] = Value::U64(district[2].as_u64() + amount);
    session.write_row(cpu, t.district, d_id as u64, &district);
    txn.log(cpu, session, 48);

    let cust_idx = cust_index
        .lookup(cpu, session, idx_base, cust_key(d_id, c_id))
        .expect("customer exists");
    session.lock_row(cpu, t.customer, cust_idx);
    let mut customer = session.read_row(cpu, t.customer, cust_idx);
    let bal = customer[2].as_u64();
    customer[2] = Value::U64(bal.saturating_sub(amount));
    session.write_row(cpu, t.customer, cust_idx, &customer);
    txn.log(cpu, session, 64);
    session.unlock_row(cpu, t.customer, cust_idx);

    session.insert_row(
        cpu,
        t.history,
        &vec![Value::U32(c_id), Value::U32(d_id), Value::U64(amount)],
    );
    txn.log(cpu, session, 48);

    txn.commit(cpu, session);
    session.unlock_row(cpu, t.district, d_id as u64);
    session.unlock_row(cpu, t.warehouse, 0);
    stats.payments += 1;
}

/// Builds a terminal process running the transaction mix; pushes its
/// stats into `sink[rank]` at the end.
pub fn terminal(
    shared: Arc<Db2Shared>,
    cfg: TpccConfig,
    rank: u64,
    sink: Arc<parking_lot::Mutex<Vec<TerminalStats>>>,
    cust_index: Arc<Index>,
) -> impl FnMut(&mut CpuCtx) {
    move |cpu: &mut CpuCtx| {
        let session = Db2Session::attach(cpu, Arc::clone(&shared));
        let idx_base = attach_index_segment(cpu);
        let tables = Tables::resolve(&session.shared);
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ (rank << 32));
        let mut stats = TerminalStats::default();
        for _ in 0..cfg.txns_per_terminal {
            // Terminal think time.
            cpu.compute(2_000);
            if rng.gen_range(0..100u32) < cfg.new_order_pct {
                new_order(
                    cpu,
                    &session,
                    &tables,
                    &cfg,
                    &mut rng,
                    &mut stats,
                    &cust_index,
                    idx_base,
                );
            } else {
                payment(
                    cpu,
                    &session,
                    &tables,
                    &cfg,
                    &mut rng,
                    &mut stats,
                    &cust_index,
                    idx_base,
                );
            }
        }
        sink.lock()[rank as usize] = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db2lite::Db2Config;
    use compass::{ArchConfig, SimBuilder};
    use parking_lot::Mutex;

    fn run_mix(
        nterminals: u64,
        cfg: TpccConfig,
    ) -> (Vec<TerminalStats>, compass::runner::RunReport) {
        let shared = Db2Shared::new(Db2Config {
            pool_pages: 32,
            shm_key: 0xDB2,
        });
        let sink = Arc::new(Mutex::new(vec![
            TerminalStats::default();
            nterminals as usize
        ]));
        let shared_for_load = Arc::clone(&shared);
        let cust_index = Arc::new(parking_lot::Mutex::new(None));
        let idx_slot = Arc::clone(&cust_index);
        let mut b = SimBuilder::new(ArchConfig::simple_smp(2)).prepare_kernel(move |k| {
            *idx_slot.lock() = Some(load(k, &shared_for_load, cfg));
        });
        for rank in 0..nterminals {
            let idx = Arc::clone(&cust_index);
            let shared = Arc::clone(&shared);
            let sink = Arc::clone(&sink);
            b = b.add_process(move |cpu: &mut compass::CpuCtx| {
                let index = idx.lock().clone().expect("loaded");
                let mut body = terminal(shared.clone(), cfg, rank, sink.clone(), index);
                body(cpu)
            });
        }
        let r = b.run();
        let stats = sink.lock().clone();
        (stats, r)
    }

    #[test]
    fn transaction_mix_commits_everything() {
        let cfg = TpccConfig::tiny();
        let (stats, report) = run_mix(2, cfg);
        let total: u64 = stats.iter().map(|s| s.new_orders + s.payments).sum();
        assert_eq!(total, 2 * cfg.txns_per_terminal as u64);
        // Commits forced the log.
        let fsyncs = report
            .syscalls
            .iter()
            .find(|(n, _, _)| n == "fsync")
            .map(|(_, c, _)| *c)
            .unwrap_or(0);
        assert_eq!(fsyncs, total, "one log force per commit");
        // OLTP generated lock-manager traffic.
        assert!(report.backend.sync.uncontended + report.backend.sync.contended > 0);
    }

    #[test]
    fn oltp_is_deterministic() {
        let cfg = TpccConfig::tiny();
        let (s1, r1) = run_mix(2, cfg);
        let (s2, r2) = run_mix(2, cfg);
        assert_eq!(s1, s2);
        assert_eq!(r1.backend.global_cycles, r2.backend.global_cycles);
        assert_eq!(r1.syscalls, r2.syscalls);
    }

    #[test]
    fn order_lines_accumulate_in_the_table() {
        let cfg = TpccConfig {
            txns_per_terminal: 6,
            new_order_pct: 100,
            ..TpccConfig::tiny()
        };
        let shared = Db2Shared::new(Db2Config {
            pool_pages: 32,
            shm_key: 0xDB2,
        });
        let sink = Arc::new(Mutex::new(vec![TerminalStats::default(); 1]));
        let shared_for_load = Arc::clone(&shared);
        let shared_after = Arc::clone(&shared);
        let cust_index = Arc::new(Mutex::new(None));
        let idx_slot = Arc::clone(&cust_index);
        let mut b = SimBuilder::new(ArchConfig::simple_smp(1)).prepare_kernel(move |k| {
            *idx_slot.lock() = Some(load(k, &shared_for_load, cfg));
        });
        {
            let idx = Arc::clone(&cust_index);
            let shared_t = Arc::clone(&shared);
            let sink_t = Arc::clone(&sink);
            b = b.add_process(move |cpu: &mut compass::CpuCtx| {
                let index = idx.lock().clone().expect("loaded");
                let mut body = terminal(shared_t.clone(), cfg, 0, sink_t.clone(), index);
                body(cpu)
            });
        }
        let _ = b.run();
        let inserted = sink.lock()[0].order_lines;
        assert!(inserted >= 6 * 3, "at least 3 lines per new order");
        let meta = shared_after.table(shared_after.table_id("order_line"));
        assert_eq!(meta.nrows, inserted);
    }
}
