//! Seeded scenario generation and shrinking.
//!
//! A [`Scenario`] is a complete, deterministic description of one
//! simulation: workload, process count, architecture, scheduler and
//! placement knobs. [`Scenario::from_seed`] draws one from a seed;
//! [`Scenario::shrink`] proposes strictly simpler candidates for greedy
//! failure minimisation. The scenario space deliberately keeps every
//! architecture at 4 CPUs so metamorphic variants change *only* the knob
//! under test, never the scheduling width.

use compass::{ArchConfig, CacheConfig, CpuCtx, PlacementPolicy, SchedPolicy, SimBuilder};
use compass_isa::rng::SimRng;
use compass_os::fs::FileData;
use compass_os::{OsCall, SysVal};
use compass_workloads::db2lite::tpcc::{self, TerminalStats, TpccConfig};
use compass_workloads::db2lite::tpcd::{self, Query, QueryResults, TpcdConfig};
use compass_workloads::db2lite::{Db2Config, Db2Shared};
use compass_workloads::httplite::{
    self, generate_fileset, generate_trace, FileSetConfig, ServerConfig, SharedTickets, TracePlayer,
};
use compass_workloads::sci::{self, SciConfig};
use std::sync::Arc;

/// Which application the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The scientific contrast kernel (`workloads::sci`).
    Sci {
        /// Matrix rows per process.
        rows: u32,
        /// Matrix columns.
        cols: u32,
        /// Relaxation iterations (= barrier episodes).
        iters: u32,
    },
    /// A seeded mix of file I/O (reads, positional and streaming writes),
    /// private and locked shared memory, and compute. Its instruction
    /// stream is a function of the seed alone, so it is the main vehicle
    /// for the metamorphic checks.
    FileChaos {
        /// Steps per process.
        steps: u32,
    },
    /// TPC-C terminals on `workloads::db2lite` (timing-dependent: the
    /// transaction mix reacts to lock outcomes and buffer-pool state).
    Tpcc {
        /// Transactions per terminal.
        txns: u32,
    },
    /// SPECWeb-style serving on `workloads::httplite` (timing-dependent:
    /// workers race on `accept`).
    Http {
        /// Requests in the generated trace.
        requests: u32,
    },
    /// Parallel TPC-D Q1 scan on `workloads::db2lite`: one query worker
    /// per process over a 96-page buffer pool (timing-dependent: workers
    /// race for pool frames and the disk).
    Tpcd {
        /// Rows in `lineitem` (`orders` is a quarter of it).
        lineitems: u32,
    },
}

impl Workload {
    /// True when the instruction stream cannot depend on simulated timing,
    /// making architecture-independent quantities comparable across knobs.
    pub fn timing_independent(&self) -> bool {
        matches!(self, Workload::Sci { .. } | Workload::FileChaos { .. })
    }
}

/// Architecture shape. All presets have 4 CPUs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchPreset {
    /// `ArchConfig::simple_smp(4)` — the paper's simple backend.
    SimpleSmp,
    /// `ArchConfig::ccnuma(2, 2)` — the complex backend, 2 nodes.
    CcNuma2x2,
    /// `ArchConfig::ccnuma(4, 1)` — 4 nodes, 1 CPU each.
    CcNuma4x1,
    /// `ArchConfig::coma(2, 2)` — attraction memories in play.
    Coma2x2,
    /// `ArchConfig::sw_dsm(2, 2)` — page-granularity software DSM. Never
    /// drawn by [`Scenario::from_seed`]; the catalogue's studies use it.
    SwDsm2x2,
}

/// Cache-geometry variant layered over the preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// The preset's own geometry.
    Default,
    /// Small, low-associativity caches: high miss and eviction pressure.
    SmallCaches,
    /// 128-byte lines everywhere: false sharing and wide inclusion spans.
    WideLines,
}

/// One fully-specified simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// The generating seed (also seeds the workload bodies).
    pub seed: u64,
    /// Application.
    pub workload: Workload,
    /// Application processes.
    pub nprocs: u16,
    /// Architecture shape.
    pub preset: ArchPreset,
    /// Cache geometry.
    pub geometry: Geometry,
    /// Scheduler policy.
    pub sched: SchedPolicy,
    /// Pre-emptive scheduling, whose quantum is the interval timer (set
    /// to 400,000 cycles then).
    pub preempt: bool,
    /// Page placement.
    pub placement: PlacementPolicy,
    /// Schedule-independence axis: seeds the two random schedules of the
    /// simulated threads the check stack re-runs the scenario under
    /// (`check-invariants` builds only — release builds have no way to
    /// permute the order, so the twins are skipped there).
    pub schedule: u64,
}

impl Scenario {
    /// Draws a scenario from a seed. Same seed, same scenario, forever —
    /// `simcheck --seed N` is the repro line for any failure.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x51AC_C41C_0FFE_E000);
        let workload = match rng.gen_range(0..10u32) {
            0..=3 => Workload::Sci {
                rows: rng.gen_range(2..=5),
                cols: 8 * rng.gen_range(1..=4u32),
                iters: rng.gen_range(1..=3),
            },
            4..=6 => Workload::FileChaos {
                steps: rng.gen_range(20..=60),
            },
            7..=8 => Workload::Tpcc {
                txns: rng.gen_range(2..=4),
            },
            _ => Workload::Http {
                requests: rng.gen_range(3..=6),
            },
        };
        let nprocs = match workload {
            Workload::Http { .. } => rng.gen_range(1..=2),
            Workload::Tpcc { .. } => rng.gen_range(1..=3),
            // Up to 5 oversubscribes the 4 CPUs: ready queues in play.
            _ => rng.gen_range(1..=5),
        };
        let preset = [
            ArchPreset::SimpleSmp,
            ArchPreset::CcNuma2x2,
            ArchPreset::CcNuma4x1,
            ArchPreset::Coma2x2,
        ][rng.gen_range(0..4usize)];
        let geometry = [
            Geometry::Default,
            Geometry::SmallCaches,
            Geometry::WideLines,
        ][rng.gen_range(0..3usize)];
        let sched = if rng.gen_bool(0.5) {
            SchedPolicy::Fcfs
        } else {
            SchedPolicy::Affinity
        };
        let preempt = rng.gen_bool(0.25);
        let placement = [
            PlacementPolicy::FirstTouch,
            PlacementPolicy::RoundRobin,
            PlacementPolicy::Block(2),
        ][rng.gen_range(0..3usize)];
        // The retired frontend-filter and shard-worker axes were drawn
        // here. The draws stay — house rule: the draw order only ever
        // grows, so every historical seed keeps generating the same
        // scenario (`historical_seeds_keep_their_scenarios` pins it).
        let _ = rng.gen_bool(0.5);
        let _ = rng.gen_range(0..3usize);
        // The retired OS-port batch axis (`os_batch`, now the one batch
        // depth) and kernel-filter axis were drawn here; the draws stay.
        let _ = rng.gen_range(0..3usize);
        let _ = rng.gen_bool(0.5);
        // The retired checkpoint axis (`ckpt`) was drawn here; the draw
        // stays.
        let _ = rng.gen_bool(0.5);
        // The retired disk-wake axis (`disk_wake`, now always on) was
        // drawn here; the draw stays.
        let _ = rng.gen_bool(0.5);
        // Schedule axis, drawn last: new axes append to the draw order.
        let schedule = rng.next_u64();
        Scenario {
            seed,
            workload,
            nprocs,
            preset,
            geometry,
            sched,
            preempt,
            placement,
            schedule,
        }
    }

    /// The architecture this scenario simulates.
    pub fn arch_config(&self) -> ArchConfig {
        let mut cfg = match self.preset {
            ArchPreset::SimpleSmp => ArchConfig::simple_smp(4),
            ArchPreset::CcNuma2x2 => ArchConfig::ccnuma(2, 2),
            ArchPreset::CcNuma4x1 => ArchConfig::ccnuma(4, 1),
            ArchPreset::Coma2x2 => ArchConfig::coma(2, 2),
            ArchPreset::SwDsm2x2 => ArchConfig::sw_dsm(2, 2),
        };
        match self.geometry {
            Geometry::Default => {}
            Geometry::SmallCaches => {
                cfg.l1 = CacheConfig {
                    size: 8 * 1024,
                    assoc: 2,
                    line: 32,
                };
                if cfg.l2.is_some() {
                    cfg.l2 = Some(CacheConfig {
                        size: 128 * 1024,
                        assoc: 4,
                        line: 64,
                    });
                }
            }
            Geometry::WideLines => {
                cfg.l1 = CacheConfig {
                    size: 16 * 1024,
                    assoc: 2,
                    line: 128,
                };
                if cfg.l2.is_some() {
                    cfg.l2 = Some(CacheConfig {
                        size: 256 * 1024,
                        assoc: 4,
                        line: 128,
                    });
                }
            }
        }
        // The attraction memory caches whole coherence lines; keep its
        // line size in lock-step with the geometry variant.
        let coh_line = cfg.coherence_line();
        if let Some(am) = cfg.attraction.as_mut() {
            am.line = coh_line;
        }
        cfg.validate().expect("generated geometry must validate");
        cfg
    }

    /// Builds the workload half of the simulation (processes, kernel
    /// preparation, traffic source). The caller applies the backend knobs
    /// and runs it.
    pub fn builder(&self) -> SimBuilder {
        let arch = self.arch_config();
        match self.workload {
            Workload::Sci { rows, cols, iters } => {
                let cfg = SciConfig {
                    nprocs: self.nprocs,
                    rows,
                    cols,
                    iters,
                    shm_key: 0x5C1,
                };
                let mut b = SimBuilder::new(arch);
                for rank in 0..self.nprocs {
                    b = b.add_process(sci::worker(cfg, rank));
                }
                b
            }
            Workload::FileChaos { steps } => {
                let mut b = SimBuilder::new(arch).prepare_kernel(|k| {
                    k.create_file("/simcheck.dat", FileData::Synthetic { len: 64 * 1024 });
                });
                for rank in 0..self.nprocs {
                    b = b.add_process(file_chaos(self.seed, rank, steps, self.nprocs));
                }
                b
            }
            Workload::Tpcc { txns } => {
                let cfg = TpccConfig {
                    txns_per_terminal: txns,
                    seed: self.seed,
                    ..TpccConfig::tiny()
                };
                let shared = Db2Shared::new(Db2Config {
                    pool_pages: 32,
                    shm_key: 0xDB2,
                });
                let sink = Arc::new(parking_lot::Mutex::new(vec![
                    TerminalStats::default();
                    self.nprocs as usize
                ]));
                let cust_index: Arc<
                    parking_lot::Mutex<Option<Arc<compass_workloads::db2lite::index::Index>>>,
                > = Arc::new(parking_lot::Mutex::new(None));
                let idx_slot = Arc::clone(&cust_index);
                let shared_for_load = Arc::clone(&shared);
                let mut b = SimBuilder::new(arch).prepare_kernel(move |k| {
                    *idx_slot.lock() = Some(tpcc::load(k, &shared_for_load, cfg));
                });
                for rank in 0..self.nprocs as u64 {
                    let idx = Arc::clone(&cust_index);
                    let shared = Arc::clone(&shared);
                    let sink = Arc::clone(&sink);
                    b = b.add_process(move |cpu: &mut CpuCtx| {
                        let index = idx.lock().clone().expect("loader ran before processes");
                        let mut body = tpcc::terminal(
                            Arc::clone(&shared),
                            cfg,
                            rank,
                            Arc::clone(&sink),
                            index,
                        );
                        body(cpu)
                    });
                }
                b
            }
            Workload::Http { requests } => {
                let fileset = FileSetConfig { dirs: 1 };
                let trace = generate_trace(fileset, requests, self.seed ^ 0x5EC);
                let tickets = SharedTickets::new(requests as u64);
                let cfg = ServerConfig::default();
                let mut b = SimBuilder::new(arch)
                    .prepare_kernel(move |k| {
                        generate_fileset(k, fileset);
                    })
                    .traffic(TracePlayer::new(trace, 2, cfg.port));
                for _ in 0..self.nprocs {
                    b = b.add_process(httplite::worker(cfg, Arc::clone(&tickets)));
                }
                b
            }
            Workload::Tpcd { lineitems } => {
                let data = TpcdConfig {
                    lineitems,
                    orders: lineitems / 4,
                    seed: self.seed,
                };
                let shared = Db2Shared::new(Db2Config {
                    pool_pages: 96,
                    shm_key: 0xDB2,
                });
                let results = Arc::new(QueryResults::default());
                let shared_for_load = Arc::clone(&shared);
                let mut b = SimBuilder::new(arch).prepare_kernel(move |k| {
                    tpcd::load(k, &shared_for_load, data);
                });
                let workers = self.nprocs as u64;
                for rank in 0..workers {
                    b = b.add_process(tpcd::query_worker(
                        Arc::clone(&shared),
                        Query::Q1(1_600),
                        rank,
                        workers,
                        Arc::clone(&results),
                    ));
                }
                b
            }
        }
    }

    /// Strictly simpler candidate scenarios, most aggressive first, for
    /// greedy shrinking. Every candidate differs from `self`.
    pub fn shrink(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        {
            let mut push = |s: Scenario| {
                if s != *self {
                    out.push(s);
                }
            };
            if self.nprocs > 1 {
                push(Scenario { nprocs: 1, ..*self });
                push(Scenario {
                    nprocs: self.nprocs - 1,
                    ..*self
                });
            }
            match self.workload {
                Workload::Sci { rows, cols, iters } => {
                    if iters > 1 {
                        push(Scenario {
                            workload: Workload::Sci {
                                rows,
                                cols,
                                iters: 1,
                            },
                            ..*self
                        });
                    }
                    if rows > 2 {
                        push(Scenario {
                            workload: Workload::Sci {
                                rows: 2,
                                cols,
                                iters,
                            },
                            ..*self
                        });
                    }
                    if cols > 8 {
                        push(Scenario {
                            workload: Workload::Sci {
                                rows,
                                cols: 8,
                                iters,
                            },
                            ..*self
                        });
                    }
                }
                Workload::FileChaos { steps } => {
                    if steps > 8 {
                        push(Scenario {
                            workload: Workload::FileChaos {
                                steps: (steps / 2).max(8),
                            },
                            ..*self
                        });
                    }
                }
                Workload::Tpcc { txns } => {
                    if txns > 1 {
                        push(Scenario {
                            workload: Workload::Tpcc { txns: 1 },
                            ..*self
                        });
                    }
                }
                Workload::Http { requests } => {
                    if requests > 2 {
                        push(Scenario {
                            workload: Workload::Http { requests: 2 },
                            ..*self
                        });
                    }
                }
                Workload::Tpcd { lineitems } => {
                    if lineitems > 600 {
                        push(Scenario {
                            workload: Workload::Tpcd {
                                lineitems: (lineitems / 2).max(600),
                            },
                            ..*self
                        });
                    }
                }
            }
            push(Scenario {
                preset: ArchPreset::SimpleSmp,
                ..*self
            });
            push(Scenario {
                geometry: Geometry::Default,
                ..*self
            });
            push(Scenario {
                sched: SchedPolicy::Fcfs,
                ..*self
            });
            if self.preempt {
                push(Scenario {
                    preempt: false,
                    ..*self
                });
            }
            push(Scenario {
                placement: PlacementPolicy::FirstTouch,
                ..*self
            });
        }
        out
    }
}

/// The file-I/O chaos body: a seeded mix of positional reads, streaming
/// and positional writes (each rank owns its output file, so byte counts
/// are rank-deterministic), locked shared-memory work, private memory and
/// compute. The op sequence depends only on `(seed, rank)` — never on
/// simulated time — so frontend event and OS-call counts are invariant
/// across every backend knob.
fn file_chaos(seed: u64, rank: u16, steps: u32, nprocs: u16) -> impl FnMut(&mut CpuCtx) {
    move |cpu: &mut CpuCtx| {
        let mut rng = SimRng::seed_from_u64(seed ^ ((rank as u64 + 1).wrapping_mul(0x9E37_79B9)));
        let seg = cpu.shmget(0x51CC, 8 * 4096);
        let base = cpu.shmat(seg);
        let heap = cpu.malloc_pages(8 * 4096);
        let buf = cpu.malloc_pages(4096);
        let rfd = match cpu.os_call(OsCall::Open {
            path: "/simcheck.dat".into(),
            create: false,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("open /simcheck.dat: {other:?}"),
        };
        let wfd = match cpu.os_call(OsCall::Open {
            path: format!("/simcheck.out{rank}"),
            create: true,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("create output: {other:?}"),
        };
        let mut woff = 0u64;
        for step in 0..steps {
            match rng.gen_range(0..8u32) {
                0..=1 => {
                    let a = heap + rng.gen_range(0..8 * 4096 - 8);
                    if rng.gen_bool(0.5) {
                        cpu.load(a, 8);
                    } else {
                        cpu.store(a, 8);
                    }
                }
                2 => {
                    cpu.lock(base);
                    cpu.store(base + 128 + (rank as u32 % 8) * 64, 8);
                    cpu.load(base + 128 + rng.gen_range(0..8u32) * 64, 8);
                    cpu.unlock(base);
                }
                3..=4 => {
                    let off = rng.gen_range(0..60u64) * 1024;
                    match cpu.os_call(OsCall::ReadAt {
                        fd: rfd,
                        off,
                        len: 1024,
                        buf,
                    }) {
                        Ok(SysVal::Data(_)) => {}
                        other => panic!("read: {other:?}"),
                    }
                }
                5 => {
                    let data = vec![rank as u8; 256];
                    match cpu.os_call(OsCall::WriteAt {
                        fd: wfd,
                        off: woff,
                        data,
                        buf,
                    }) {
                        Ok(SysVal::Int(256)) => {}
                        other => panic!("pwrite: {other:?}"),
                    }
                    woff += 256;
                }
                6 => {
                    let data = vec![0xA5u8; 128];
                    match cpu.os_call(OsCall::Write { fd: wfd, data, buf }) {
                        Ok(SysVal::Int(128)) => {}
                        other => panic!("write: {other:?}"),
                    }
                }
                _ => cpu.compute(60 + (step as u64 % 11) * 9),
            }
        }
        cpu.barrier(base + 64, nprocs);
        let _ = cpu.os_call(OsCall::Close { fd: wfd });
        let _ = cpu.os_call(OsCall::Close { fd: rfd });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(Scenario::from_seed(seed), Scenario::from_seed(seed));
        }
    }

    #[test]
    fn generator_covers_every_workload_and_preset() {
        let scenarios: Vec<Scenario> = (0..64).map(Scenario::from_seed).collect();
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, Workload::Sci { .. })));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, Workload::FileChaos { .. })));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, Workload::Tpcc { .. })));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, Workload::Http { .. })));
        for preset in [
            ArchPreset::SimpleSmp,
            ArchPreset::CcNuma2x2,
            ArchPreset::CcNuma4x1,
            ArchPreset::Coma2x2,
        ] {
            assert!(scenarios.iter().any(|s| s.preset == preset));
        }
        assert!(scenarios.iter().any(|s| s.preempt));
    }

    #[test]
    fn every_generated_geometry_validates() {
        for seed in 0..200 {
            Scenario::from_seed(seed).arch_config();
        }
    }

    #[test]
    fn shrink_candidates_differ_and_terminate() {
        // Shrinking must never cycle: walk greedily accepting the first
        // candidate and require progress to stop within a bound.
        'start: for mut sc in [Scenario::from_seed(12345), crate::presets::tpcd_scan()] {
            for _ in 0..64 {
                let cands = sc.shrink();
                assert!(cands.iter().all(|c| *c != sc));
                match cands.first() {
                    Some(c) => sc = *c,
                    None => continue 'start,
                }
            }
            panic!("shrinking did not terminate: {sc:?}");
        }
    }

    /// Historical seeds keep their scenarios: a retired axis keeps its
    /// draw, so every remaining field of these seeds never moves. (The
    /// retired `os_batch`, `disk_wake` and `ckpt` columns dropped out:
    /// `os_batch` was 1, 64 and 8 for seeds 0, 8 and 1998, `disk_wake`
    /// false, `ckpt` true, false and true.)
    #[test]
    fn historical_seeds_keep_their_scenarios() {
        let pinned = [
            (
                0,
                Workload::Sci {
                    rows: 2,
                    cols: 8,
                    iters: 1,
                },
                4,
                ArchPreset::SimpleSmp,
                Geometry::Default,
                SchedPolicy::Fcfs,
                true,
                PlacementPolicy::RoundRobin,
                9_693_749_374_903_693_122,
            ),
            (
                8,
                Workload::Tpcc { txns: 2 },
                2,
                ArchPreset::Coma2x2,
                Geometry::WideLines,
                SchedPolicy::Fcfs,
                false,
                PlacementPolicy::Block(2),
                3_037_686_178_332_931_172,
            ),
            (
                1998,
                Workload::Sci {
                    rows: 5,
                    cols: 24,
                    iters: 2,
                },
                5,
                ArchPreset::CcNuma2x2,
                Geometry::WideLines,
                SchedPolicy::Affinity,
                false,
                PlacementPolicy::Block(2),
                4_515_195_573_538_475_775,
            ),
        ];
        for (seed, workload, nprocs, preset, geometry, sched, preempt, placement, schedule) in
            pinned
        {
            let s = Scenario::from_seed(seed);
            assert_eq!(
                (
                    s.workload,
                    s.nprocs,
                    s.preset,
                    s.geometry,
                    s.sched,
                    s.preempt,
                    s.placement,
                    s.schedule
                ),
                (workload, nprocs, preset, geometry, sched, preempt, placement, schedule),
                "seed {seed} changed its scenario"
            );
        }
    }
}
