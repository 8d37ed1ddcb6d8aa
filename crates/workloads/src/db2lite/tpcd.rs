//! TPC-D-style decision-support schema, loader and queries.
//!
//! The paper's decision-support runs are "a TPCD query on a 12MB database"
//! (Table 2) and the TPC-D profiles of Table 1. We reproduce the workload
//! shape: scan-heavy analytic queries over a `lineitem`-centric schema,
//! executed by N cooperating processes that partition the table pages
//! (DB2's parallel table scan), merge partials under a lock, and meet at a
//! barrier.

// Money amounts are cents grouped as dollars_00 (e.g. 500_00 = $500.00).
#![allow(clippy::inconsistent_digit_grouping)]
use super::engine::{Db2Session, Db2Shared, SimHashTable};
use super::storage::{ColType, Schema, TableId, Value};
use compass_frontend::CpuCtx;
use compass_isa::rng::SimRng;
use compass_isa::InstClass;
use compass_os::KernelShared;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Scale parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpcdConfig {
    /// Rows in `lineitem`.
    pub lineitems: u32,
    /// Rows in `orders` (lineitem/orders ratio ≈ 4, as in TPC-D).
    pub orders: u32,
    /// RNG seed for data generation.
    pub seed: u64,
}

impl TpcdConfig {
    /// A tiny scale for tests.
    pub fn tiny() -> Self {
        TpcdConfig {
            lineitems: 600,
            orders: 150,
            seed: 19980401,
        }
    }

    /// A scale whose lineitem file is roughly `mb` megabytes (the paper's
    /// 12 MB / 100 MB databases).
    pub fn scaled_mb(mb: u32) -> Self {
        // lineitem rows are 48 bytes.
        TpcdConfig {
            lineitems: mb * 1024 * 1024 / 48,
            orders: mb * 1024 * 1024 / 48 / 4,
            seed: 19980401,
        }
    }
}

/// lineitem columns.
pub mod li {
    /// orderkey (u64).
    pub const ORDERKEY: usize = 0;
    /// partkey (u32).
    pub const PARTKEY: usize = 1;
    /// quantity (u32).
    pub const QUANTITY: usize = 2;
    /// extendedprice (u64, cents).
    pub const EXTENDEDPRICE: usize = 3;
    /// discount (u32, basis points).
    pub const DISCOUNT: usize = 4;
    /// tax (u32, basis points).
    pub const TAX: usize = 5;
    /// returnflag (str1).
    pub const RETURNFLAG: usize = 6;
    /// linestatus (str1).
    pub const LINESTATUS: usize = 7;
    /// shipdate (u32, day number).
    pub const SHIPDATE: usize = 8;
}

fn lineitem_schema() -> Schema {
    Schema::new(vec![
        ColType::U64,    // orderkey
        ColType::U32,    // partkey
        ColType::U32,    // quantity
        ColType::U64,    // extendedprice
        ColType::U32,    // discount
        ColType::U32,    // tax
        ColType::Str(1), // returnflag
        ColType::Str(1), // linestatus
        ColType::U32,    // shipdate
        ColType::Str(9), // comment padding -> 48-byte rows
    ])
}

fn orders_schema() -> Schema {
    Schema::new(vec![
        ColType::U64, // orderkey
        ColType::U32, // custkey
        ColType::U32, // orderdate
        ColType::U64, // totalprice
    ])
}

/// Loads the TPC-D tables; returns `(lineitem, orders)` ids.
pub fn load(kernel: &KernelShared, shared: &Db2Shared, cfg: TpcdConfig) -> (TableId, TableId) {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let flags = ["A", "N", "R"];
    let lineitem_rows: Vec<_> = (0..cfg.lineitems)
        .map(|i| {
            let orderkey = rng.gen_range(0..cfg.orders.max(1)) as u64;
            vec![
                Value::U64(orderkey),
                Value::U32(rng.gen_range(0..10_000)),
                Value::U32(rng.gen_range(1..50)),
                Value::U64(rng.gen_range(100_00..10_000_00)),
                Value::U32(rng.gen_range(0..1_000)),
                Value::U32(rng.gen_range(0..800)),
                Value::Str(flags[(i % 3) as usize].to_string()),
                Value::Str(if i % 2 == 0 { "O" } else { "F" }.to_string()),
                Value::U32(rng.gen_range(0..2_400)),
                Value::Str(String::new()),
            ]
        })
        .collect();
    let orders_rows: Vec<_> = (0..cfg.orders)
        .map(|k| {
            vec![
                Value::U64(k as u64),
                Value::U32(rng.gen_range(0..1_000)),
                Value::U32(rng.gen_range(0..2_400)),
                Value::U64(rng.gen_range(1_000_00..100_000_00)),
            ]
        })
        .collect();
    let lineitem = shared.create_table(kernel, "lineitem", lineitem_schema(), lineitem_rows);
    let orders = shared.create_table(kernel, "orders", orders_schema(), orders_rows);
    (lineitem, orders)
}

/// Q1-style result: per (returnflag, linestatus) group sums.
pub type Q1Result = HashMap<(String, String), (u64, u64, u64)>;

/// Q1-shaped query: scan lineitem where `shipdate <= cutoff`, group by
/// (returnflag, linestatus), summing quantity / extendedprice / count.
pub fn q1_worker(
    cpu: &mut CpuCtx,
    session: &Db2Session,
    cutoff: u32,
    part: u64,
    nparts: u64,
) -> Q1Result {
    let table = session.shared.table_id("lineitem");
    let schema = lineitem_schema();
    let agg_touch = SimHashTable::new(cpu, 16, 64);
    let mut groups: Q1Result = HashMap::new();
    session.scan_partition(cpu, table, part, nparts, |cpu, _idx, row| {
        let shipdate = schema.decode_col(row, li::SHIPDATE).as_u32();
        cpu.inst(InstClass::IntAlu, 2); // predicate
        if shipdate > cutoff {
            return;
        }
        let rf = schema.decode_col(row, li::RETURNFLAG).as_str().to_string();
        let ls = schema.decode_col(row, li::LINESTATUS).as_str().to_string();
        let qty = schema.decode_col(row, li::QUANTITY).as_u32() as u64;
        let price = schema.decode_col(row, li::EXTENDEDPRICE).as_u64();
        let key = (rf.as_bytes().first().copied().unwrap_or(0) as u64) << 8
            | ls.as_bytes().first().copied().unwrap_or(0) as u64;
        agg_touch.update(cpu, key);
        cpu.inst(InstClass::IntAlu, 180); // aggregate arithmetic + group lookup
        cpu.inst(InstClass::IntMul, 8);
        let e = groups.entry((rf, ls)).or_insert((0, 0, 0));
        e.0 += qty;
        e.1 += price;
        e.2 += 1;
    });
    groups
}

/// Q6-shaped query: sum(extendedprice * discount) over a shipdate /
/// discount / quantity band.
pub fn q6_worker(
    cpu: &mut CpuCtx,
    session: &Db2Session,
    date_lo: u32,
    date_hi: u32,
    part: u64,
    nparts: u64,
) -> u64 {
    let table = session.shared.table_id("lineitem");
    let schema = lineitem_schema();
    let mut revenue = 0u64;
    session.scan_partition(cpu, table, part, nparts, |cpu, _idx, row| {
        let shipdate = schema.decode_col(row, li::SHIPDATE).as_u32();
        cpu.inst(InstClass::IntAlu, 3);
        if shipdate < date_lo || shipdate >= date_hi {
            return;
        }
        let disc = schema.decode_col(row, li::DISCOUNT).as_u32();
        let qty = schema.decode_col(row, li::QUANTITY).as_u32();
        cpu.inst(InstClass::IntAlu, 4);
        if !(100..=300).contains(&disc) || qty >= 24 {
            return;
        }
        let price = schema.decode_col(row, li::EXTENDEDPRICE).as_u64();
        cpu.inst(InstClass::IntMul, 1);
        revenue += price * disc as u64 / 10_000;
    });
    revenue
}

/// Q3-shaped query: hash join orders (date < cutoff) ⋈ lineitem, sum
/// revenue per order; returns total matched revenue (cents).
pub fn q3_worker(
    cpu: &mut CpuCtx,
    session: &Db2Session,
    date_cutoff: u32,
    part: u64,
    nparts: u64,
) -> u64 {
    let orders = session.shared.table_id("orders");
    let lineitem = session.shared.table_id("lineitem");
    let oschema = orders_schema();
    let lschema = lineitem_schema();
    // Build: every worker builds the full (small) orders hash table, as
    // DB2's replicated-build parallel join does.
    let build_touch = SimHashTable::new(cpu, 1024, 16);
    let mut build: HashMap<u64, u32> = HashMap::new();
    session.scan(cpu, orders, |cpu, _idx, row| {
        let date = oschema.decode_col(row, 2).as_u32();
        cpu.inst(InstClass::IntAlu, 2);
        if date >= date_cutoff {
            return;
        }
        let key = oschema.decode_col(row, 0).as_u64();
        build_touch.insert(cpu, key);
        build.insert(key, date);
    });
    // Probe lineitem in partitions.
    let mut revenue = 0u64;
    session.scan_partition(cpu, lineitem, part, nparts, |cpu, _idx, row| {
        let key = lschema.decode_col(row, li::ORDERKEY).as_u64();
        build_touch.probe(cpu, key);
        if build.contains_key(&key) {
            let price = lschema.decode_col(row, li::EXTENDEDPRICE).as_u64();
            let disc = lschema.decode_col(row, li::DISCOUNT).as_u32() as u64;
            cpu.inst(InstClass::IntMul, 2);
            cpu.inst(InstClass::IntAlu, 6);
            revenue += price * (10_000 - disc) / 10_000;
        }
    });
    revenue
}

/// Which query a worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Q1-shaped group-by scan; parameter: shipdate cutoff.
    Q1(u32),
    /// Q6-shaped filtered sum; parameters: shipdate band.
    Q6(u32, u32),
    /// Q3-shaped join; parameter: orderdate cutoff.
    Q3(u32),
}

/// Merged results across workers.
#[derive(Debug, Default)]
pub struct QueryResults {
    /// Q1 groups.
    pub q1: Mutex<Q1Result>,
    /// Q6/Q3 revenue totals.
    pub revenue: Mutex<u64>,
}

/// Builds a parallel query worker: scans its partition, merges partials
/// into `results` under a simulated lock, and meets the others at a
/// barrier.
pub fn query_worker(
    shared: Arc<Db2Shared>,
    query: Query,
    rank: u64,
    nparts: u64,
    results: Arc<QueryResults>,
) -> impl FnMut(&mut CpuCtx) + Send {
    move |cpu: &mut CpuCtx| {
        let session = Db2Session::attach(cpu, Arc::clone(&shared));
        let merge_lock = session.base + 8 * 64; // control-page line
        let barrier = session.base + 9 * 64;
        match query {
            Query::Q1(cutoff) => {
                let partial = q1_worker(cpu, &session, cutoff, rank, nparts);
                cpu.lock(merge_lock);
                cpu.store(merge_lock + 8, 8);
                {
                    let mut merged = results.q1.lock();
                    for (k, v) in partial {
                        let e = merged.entry(k).or_insert((0, 0, 0));
                        e.0 += v.0;
                        e.1 += v.1;
                        e.2 += v.2;
                    }
                }
                cpu.unlock(merge_lock);
            }
            Query::Q6(lo, hi) => {
                let partial = q6_worker(cpu, &session, lo, hi, rank, nparts);
                cpu.lock(merge_lock);
                cpu.store(merge_lock + 8, 8);
                *results.revenue.lock() += partial;
                cpu.unlock(merge_lock);
            }
            Query::Q3(cutoff) => {
                let partial = q3_worker(cpu, &session, cutoff, rank, nparts);
                cpu.lock(merge_lock);
                cpu.store(merge_lock + 8, 8);
                *results.revenue.lock() += partial;
                cpu.unlock(merge_lock);
            }
        }
        cpu.barrier(barrier, nparts as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db2lite::Db2Config;
    use compass::{ArchConfig, SimBuilder};

    fn run_query(query: Query, nprocs: u64) -> (Arc<QueryResults>, compass::runner::RunReport) {
        let cfg = TpcdConfig::tiny();
        let shared = Db2Shared::new(Db2Config {
            pool_pages: 16,
            shm_key: 0xDB2,
        });
        let results = Arc::new(QueryResults::default());
        let shared_for_load = Arc::clone(&shared);
        let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 1)).prepare_kernel(move |k| {
            load(k, &shared_for_load, cfg);
        });
        for rank in 0..nprocs {
            b = b.add_process(query_worker(
                Arc::clone(&shared),
                query,
                rank,
                nprocs,
                Arc::clone(&results),
            ));
        }
        (Arc::clone(&results), b.run())
    }

    /// Functional oracle computed directly from the generator.
    fn oracle_q1(cfg: TpcdConfig, cutoff: u32) -> Q1Result {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let flags = ["A", "N", "R"];
        let mut out: Q1Result = HashMap::new();
        for i in 0..cfg.lineitems {
            let _orderkey = rng.gen_range(0..cfg.orders.max(1)) as u64;
            let _partkey: u32 = rng.gen_range(0..10_000);
            let qty: u32 = rng.gen_range(1..50);
            let price: u64 = rng.gen_range(100_00..10_000_00);
            let _disc: u32 = rng.gen_range(0..1_000);
            let _tax: u32 = rng.gen_range(0..800);
            let shipdate: u32 = rng.gen_range(0..2_400);
            if shipdate <= cutoff {
                let rf = flags[(i % 3) as usize].to_string();
                let ls = if i % 2 == 0 { "O" } else { "F" }.to_string();
                let e = out.entry((rf, ls)).or_insert((0, 0, 0));
                e.0 += qty as u64;
                e.1 += price;
                e.2 += 1;
            }
        }
        out
    }

    #[test]
    fn parallel_q1_matches_the_oracle() {
        let (results, report) = run_query(Query::Q1(1_200), 2);
        let got = results.q1.lock().clone();
        let want = oracle_q1(TpcdConfig::tiny(), 1_200);
        assert_eq!(got, want, "parallel query must be functionally exact");
        // Decision support reads a lot of pages through the pool.
        assert!(report.syscalls.iter().any(|(n, _, _)| n == "kreadv"));
        assert!(report.backend.procs.iter().any(|p| p.by_mode[1] > 0));
    }

    #[test]
    fn q3_join_is_deterministic_across_runs() {
        let (r1, _) = run_query(Query::Q3(1_000), 2);
        let (r2, _) = run_query(Query::Q3(1_000), 2);
        let a = *r1.revenue.lock();
        let b = *r2.revenue.lock();
        assert_eq!(a, b);
        assert!(a > 0, "the join should match something at this scale");
    }

    #[test]
    fn q6_single_vs_two_workers_agree() {
        let (r1, _) = run_query(Query::Q6(200, 1_800), 1);
        let (r2, _) = run_query(Query::Q6(200, 1_800), 2);
        assert_eq!(*r1.revenue.lock(), *r2.revenue.lock());
    }
}
