//! The database engine: shared state, per-process sessions, and the
//! page-level operators everything else builds on.

use super::bufpool::{BufPool, Db2Config, PageRef};
use super::storage::{Row, Schema, TableId, TableMeta, PAGE_SIZE};
use compass_frontend::CpuCtx;
use compass_isa::InstClass;
use compass_mem::VAddr;
use compass_os::fs::FileData;
use compass_os::{Fd, KernelShared, OsCall, SysVal};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Offsets of the engine's simulated control structures within the shared
/// segment's first page (the pool latch sits at offset 0).
mod ctl {
    /// Log latch.
    pub const LOG_LATCH: u32 = 128;
    /// First table latch; one cache line per table.
    pub const TABLE_LATCHES: u32 = 256;
    /// First lock-manager hash line. Each table owns a *disjoint* range of
    /// lines ordered by table id, so any transaction that locks tables in
    /// increasing-id order (and keys within a table one at a time or in
    /// sorted order) acquires lock addresses in increasing order — hash
    /// collisions can never invert the lock hierarchy into an AB-BA
    /// deadlock.
    pub const LOCK_HASH: u32 = 1024;
    /// Lock-manager lines per table.
    pub const LOCK_LINES_PER_TABLE: u32 = 8;
    /// Maximum tables the lock space is carved for.
    pub const MAX_LOCK_TABLES: u32 = 12;
}

/// Engine-wide shared state (one per database; processes share it through
/// an `Arc` the way DB2 agents share segments).
pub struct Db2Shared {
    /// Pool configuration.
    pub cfg: Db2Config,
    /// The buffer pool.
    pub pool: BufPool,
    tables: Mutex<Vec<TableMeta>>,
    by_name: Mutex<HashMap<String, TableId>>,
    /// Write-ahead-log tail (bytes).
    pub log_tail: Mutex<u64>,
}

impl Db2Shared {
    /// Creates the engine state.
    pub fn new(cfg: Db2Config) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            pool: BufPool::new(cfg),
            tables: Mutex::new(Vec::new()),
            by_name: Mutex::new(HashMap::new()),
            log_tail: Mutex::new(0),
        })
    }

    /// Creates a table and loads `rows` into its backing file (the unsimulated
    /// load phase, like the paper's database population). Also creates the
    /// WAL file on first call. The file is sized once from the rows'
    /// `size_hint` and each row is encoded straight into it, so a lazy
    /// iterator loads a table with no host copy of its rows.
    pub fn create_table(
        &self,
        kernel: &KernelShared,
        name: &str,
        schema: Schema,
        rows: impl IntoIterator<Item = Row>,
    ) -> TableId {
        let mut tables = self.tables.lock();
        let id = TableId(tables.len() as u32);
        let path = format!("/db/{name}");
        let rpp = schema.rows_per_page() as usize;
        let row_len = schema.row_len() as usize;
        let rows = rows.into_iter();
        let (lo, hi) = rows.size_hint();
        let mut bytes = vec![0; hi.unwrap_or(lo).div_ceil(rpp) * PAGE_SIZE as usize];
        let mut nrows = 0usize;
        for row in rows {
            let off = nrows / rpp * PAGE_SIZE as usize + nrows % rpp * row_len;
            if bytes.len() < off + row_len {
                bytes.resize((nrows / rpp + 1) * PAGE_SIZE as usize, 0);
            }
            schema.encode_into(&row, &mut bytes[off..]);
            nrows += 1;
        }
        // A hint above the row count leaves whole pages past the last row.
        bytes.truncate(nrows.div_ceil(rpp) * PAGE_SIZE as usize);
        kernel.create_file(&path, FileData::Bytes(bytes));
        if kernel.fs.borrow_mut().lookup("/db/LOG").is_none() {
            kernel.create_file("/db/LOG", FileData::Bytes(Vec::new()));
        }
        tables.push(TableMeta {
            id,
            name: name.to_string(),
            schema,
            path,
            nrows: nrows as u64,
        });
        self.by_name.lock().insert(name.to_string(), id);
        id
    }

    /// Table metadata snapshot.
    pub fn table(&self, id: TableId) -> TableMeta {
        self.with_table(id, TableMeta::clone)
    }

    /// Runs `f` on a table's metadata without copying it. `f` must not
    /// post a simulated event: the table list stays locked until it
    /// returns.
    pub fn with_table<R>(&self, id: TableId, f: impl FnOnce(&TableMeta) -> R) -> R {
        f(&self.tables.lock()[id.0 as usize])
    }

    /// Looks a table up by name.
    pub fn table_id(&self, name: &str) -> TableId {
        *self
            .by_name
            .lock()
            .get(name)
            .unwrap_or_else(|| panic!("no table {name}"))
    }

    /// Number of tables.
    pub fn ntables(&self) -> usize {
        self.tables.lock().len()
    }

    fn bump_nrows(&self, id: TableId) -> u64 {
        let mut tables = self.tables.lock();
        let t = &mut tables[id.0 as usize];
        let idx = t.nrows;
        t.nrows += 1;
        idx
    }
}

/// A per-process database session.
pub struct Db2Session {
    /// The shared engine.
    pub shared: Arc<Db2Shared>,
    /// Attached pool-segment base (common across processes).
    pub base: VAddr,
    fds: HashMap<TableId, Fd>,
    /// The WAL file descriptor.
    pub log_fd: Fd,
}

impl Db2Session {
    /// Attaches to the shared segment and opens every table file plus the
    /// WAL (DB2 agents open their table containers at start-up).
    pub fn attach(cpu: &mut CpuCtx, shared: Arc<Db2Shared>) -> Self {
        let seg = cpu.shmget(shared.cfg.shm_key, shared.cfg.segment_len());
        let base = cpu.shmat(seg);
        let ntables = shared.ntables();
        let mut fds = HashMap::new();
        for i in 0..ntables {
            let meta = shared.table(TableId(i as u32));
            let fd = match cpu.os_call(OsCall::Open {
                path: meta.path.clone(),
                create: false,
            }) {
                Ok(SysVal::NewFd(fd)) => fd,
                other => panic!("open {}: {other:?}", meta.path),
            };
            fds.insert(meta.id, fd);
        }
        let log_fd = match cpu.os_call(OsCall::Open {
            path: "/db/LOG".into(),
            create: true,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("open log: {other:?}"),
        };
        Self {
            shared,
            base,
            fds,
            log_fd,
        }
    }

    /// The table file descriptor.
    pub fn fd(&self, table: TableId) -> Fd {
        self.fds[&table]
    }

    /// Simulated address of a table's latch.
    pub fn table_latch(&self, table: TableId) -> VAddr {
        self.base + ctl::TABLE_LATCHES + table.0 * 64
    }

    /// Simulated address of the WAL latch.
    pub fn log_latch(&self) -> VAddr {
        self.base + ctl::LOG_LATCH
    }

    /// Simulated address of the lock-manager line for `(table, key)`:
    /// per-table disjoint ranges (see [`ctl::LOCK_HASH`]).
    pub fn row_lock_addr(&self, table: TableId, key: u64) -> VAddr {
        assert!(table.0 < ctl::MAX_LOCK_TABLES, "lock space too small");
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
        self.base
            + ctl::LOCK_HASH
            + table.0 * ctl::LOCK_LINES_PER_TABLE * 64
            + (h % ctl::LOCK_LINES_PER_TABLE) * 64
    }

    /// Acquires a row lock through the lock manager.
    pub fn lock_row(&self, cpu: &mut CpuCtx, table: TableId, key: u64) {
        cpu.lock(self.row_lock_addr(table, key));
    }

    /// Releases a row lock.
    pub fn unlock_row(&self, cpu: &mut CpuCtx, table: TableId, key: u64) {
        cpu.unlock(self.row_lock_addr(table, key));
    }

    /// Pins a page.
    pub fn get_page(&self, cpu: &mut CpuCtx, table: TableId, page: u64) -> PageRef {
        let fds = &self.fds;
        let fd = fds[&table];
        self.shared
            .pool
            .get_page(cpu, self.base, table, page, fd, |vt, vp, addr, bytes| {
                // Dirty-victim write-behind to the victim's own file; the
                // kernel's copy loads from the pool frame itself. The pool
                // batches this with the miss read (one port crossing).
                OsCall::WriteAt {
                    fd: fds[&vt],
                    off: vp * PAGE_SIZE as u64,
                    data: bytes.to_vec(),
                    buf: addr,
                }
            })
    }

    /// Unpins a page.
    pub fn release(&self, cpu: &mut CpuCtx, page: &PageRef, dirty: bool) {
        self.shared.pool.release(cpu, self.base, page, dirty);
    }

    /// Reads one row by index.
    pub fn read_row(&self, cpu: &mut CpuCtx, table: TableId, idx: u64) -> Row {
        let ((page, off), row_len) = self.shared.with_table(table, |meta| {
            assert!(
                idx < meta.nrows,
                "row {idx} beyond {table:?} ({})",
                meta.nrows
            );
            (meta.locate(idx), meta.schema.row_len())
        });
        let p = self.get_page(cpu, table, page);
        cpu.load(p.addr + off, row_len.min(64) as u16);
        cpu.inst(InstClass::IntAlu, 35); // slot lookup, latching, copy-out
        let row = {
            let bytes = p.cell.bytes.lock();
            self.shared
                .with_table(table, |meta| meta.schema.decode(&bytes[off as usize..]))
        };
        self.release(cpu, &p, false);
        row
    }

    /// Writes one row by index (caller holds the row lock).
    pub fn write_row(&self, cpu: &mut CpuCtx, table: TableId, idx: u64, row: &Row) {
        let ((page, off), row_len) = self
            .shared
            .with_table(table, |meta| (meta.locate(idx), meta.schema.row_len()));
        let p = self.get_page(cpu, table, page);
        cpu.store(p.addr + off, row_len.min(64) as u16);
        cpu.inst(InstClass::IntAlu, 6);
        {
            let mut bytes = p.cell.bytes.lock();
            self.shared.with_table(table, |meta| {
                meta.schema.encode_into(row, &mut bytes[off as usize..])
            });
        }
        self.release(cpu, &p, true);
    }

    /// Appends a row under the table latch; returns its index.
    pub fn insert_row(&self, cpu: &mut CpuCtx, table: TableId, row: &Row) -> u64 {
        let latch = self.table_latch(table);
        cpu.lock(latch);
        cpu.store(latch + 8, 8); // row-count update
        let idx = self.shared.bump_nrows(table);
        self.write_row(cpu, table, idx, row);
        cpu.unlock(latch);
        idx
    }

    /// Scans a partition of a table: worker `part` of `nparts` visits
    /// pages `part, part + nparts, …` (DB2-style parallel table scan).
    /// The visitor gets each row's bytes.
    pub fn scan_partition(
        &self,
        cpu: &mut CpuCtx,
        table: TableId,
        part: u64,
        nparts: u64,
        mut visit: impl FnMut(&mut CpuCtx, u64, &[u8]),
    ) {
        let (rpp, row_len, pages, nrows) = self.shared.with_table(table, |meta| {
            (
                meta.schema.rows_per_page() as u64,
                meta.schema.row_len() as usize,
                meta.pages(),
                meta.nrows,
            )
        });
        let touch = row_len.min(64) as u16;
        // One page buffer for the whole scan.
        let mut bytes = Vec::with_capacity(PAGE_SIZE as usize);
        let mut page = part;
        while page < pages {
            let p = self.get_page(cpu, table, page);
            let first = page * rpp;
            let last = (first + rpp).min(nrows);
            // Snapshot the page once: the visitor must not observe
            // concurrent mutation mid-row (readers of stable analytic
            // tables; OLTP readers lock rows instead).
            bytes.clear();
            bytes.extend_from_slice(&p.cell.bytes.lock());
            for idx in first..last {
                let off = (idx - first) as usize * row_len;
                cpu.load(p.addr + off as u32, touch);
                // Per-row evaluator work: slot decode, type checks,
                // predicate interpretation — DB2's expression evaluator
                // spends several hundred instructions per row even on
                // rejected tuples (calibrated against Table 1's 81% user
                // share for TPC-D).
                cpu.inst(InstClass::IntAlu, 260);
                cpu.inst(InstClass::Branch, 40);
                visit(cpu, idx, &bytes[off..off + row_len]);
            }
            self.release(cpu, &p, false);
            page += nparts;
        }
    }

    /// Full scan (single partition).
    pub fn scan(
        &self,
        cpu: &mut CpuCtx,
        table: TableId,
        visit: impl FnMut(&mut CpuCtx, u64, &[u8]),
    ) {
        self.scan_partition(cpu, table, 0, 1, visit)
    }

    /// Flushes every dirty pool page to its file (checkpoint) and fsyncs
    /// the involved files.
    pub fn checkpoint(&self, cpu: &mut CpuCtx) {
        // Each run of flush writes snapshots its frames before the first
        // write goes out, and marks them clean after the last returns —
        // runs are chunked to bound payload memory.
        const WRITE_RUN: usize = 8;
        let dirty = self.shared.pool.dirty_pages();
        let mut touched: Vec<TableId> = Vec::new();
        for run in dirty.chunks(WRITE_RUN) {
            let calls: Vec<OsCall> = run
                .iter()
                .map(|&(table, page, frame)| OsCall::WriteAt {
                    fd: self.fds[&table],
                    off: page * PAGE_SIZE as u64,
                    data: self.shared.pool.snapshot(frame),
                    buf: BufPool::frame_addr(self.base, frame),
                })
                .collect();
            let results: Vec<_> = calls.into_iter().map(|c| cpu.os_call(c)).collect();
            for (&(table, _, frame), r) in run.iter().zip(results) {
                match r {
                    Ok(_) => {}
                    other => panic!("checkpoint write: {other:?}"),
                }
                self.shared.pool.mark_clean(frame);
                if !touched.contains(&table) {
                    touched.push(table);
                }
            }
        }
        // msync the whole container — the call the paper's TPC profiles
        // attribute buffer flushing to.
        for table in touched {
            let len = self.shared.with_table(table, TableMeta::pages) * PAGE_SIZE as u64;
            cpu.os_call(OsCall::Msync {
                fd: self.fds[&table],
                off: 0,
                len: len.max(PAGE_SIZE as u64),
            })
            .expect("checkpoint msync");
        }
    }
}

/// A simulated hash table in the process's private memory: the memory face
/// of hash aggregation and hash joins. Functional values live in host
/// collections beside it; this models the touches.
pub struct SimHashTable {
    base: VAddr,
    slots: u32,
    /// Bytes per slot.
    stride: u32,
}

impl SimHashTable {
    /// Allocates a table of `slots` slots in the process heap.
    pub fn new(cpu: &mut CpuCtx, slots: u32, stride: u32) -> Self {
        let slots = slots.next_power_of_two().max(16);
        let base = cpu.malloc_pages(slots * stride);
        Self {
            base,
            slots,
            stride,
        }
    }

    fn slot_addr(&self, key: u64) -> VAddr {
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
        self.base + (h & (self.slots - 1)) * self.stride
    }

    /// An aggregate-update touch: probe + write back.
    pub fn update(&self, cpu: &mut CpuCtx, key: u64) {
        let a = self.slot_addr(key);
        cpu.load(a, 16);
        cpu.inst(InstClass::IntAlu, 6);
        cpu.store(a, 16);
    }

    /// A build-side insert.
    pub fn insert(&self, cpu: &mut CpuCtx, key: u64) {
        let a = self.slot_addr(key);
        cpu.load(a, 8);
        cpu.store(a, 16);
        cpu.inst(InstClass::IntAlu, 4);
    }

    /// A probe; returns nothing — the functional match comes from the host
    /// map.
    pub fn probe(&self, cpu: &mut CpuCtx, key: u64) {
        let a = self.slot_addr(key);
        cpu.load(a, 16);
        cpu.inst(InstClass::IntAlu, 5);
    }
}
