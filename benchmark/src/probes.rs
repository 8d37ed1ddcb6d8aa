//! Layer probes: workload-independent timings of calls into each crate's
//! public functions, so that a regression localises to a layer. Fixed
//! operation counts, median of five batches.
//!
//! Every probe runs on the one pinned CPU. The port probes therefore time
//! a rendezvous between two threads sharing a CPU — the cost the
//! simulator pays under the benchmark's method — and
//! `comm.port_roundtrip_xcpu_ns` alone moves its consumer to a second CPU
//! when the host has one.

use crate::host::{pin_to, Pinning};
use crate::stats::median;
use crate::workloads::{arch, slowdown};
use compass_arch::{Access, AccessClass, Hierarchy, L1Mirror};
use compass_backend::sched::Scheduler;
use compass_backend::{ArchRecord, CheckpointData, SchedPolicy};
use compass_comm::{CtlOp, Event, EventBody, EventPort, Notifier, Reply, ReqPort};
use compass_isa::{BlockCost, BlockCostBuilder, InstClass, ProcessId, TimingModel};
use compass_mem::{PAddr, PageFlags, PageTable, Tlb, VAddr};
use compass_os::bufcache::BufCache;
use compass_os::kmem::KernelHeap;
use compass_workloads::sci::{self, SciConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 5;

/// Median over [`BATCHES`] timed batches of whatever `batch` returns,
/// after one untimed warm-up batch.
fn median_of_batches(mut batch: impl FnMut() -> f64) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&samples)
}

/// Median nanoseconds per operation of `op`, called `ops` times a batch.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    median_of_batches(|| {
        let t0 = Instant::now();
        for i in 0..ops {
            op(i);
        }
        t0.elapsed().as_nanos() as f64 / ops as f64
    })
}

fn user_read() -> Access {
    Access {
        write: false,
        class: AccessClass::User,
    }
}

fn user_write() -> Access {
    Access {
        write: true,
        class: AccessClass::User,
    }
}

fn yield_event(time: u64) -> Event {
    Event {
        pid: ProcessId(0),
        time,
        body: EventBody::Ctl(CtlOp::Yield),
    }
}

/// A consumer draining `port` like the engine's credit accounting: each
/// blocking event is answered with the latency of the batch before it.
fn with_port_consumer(consumer_cpu: Option<usize>, body: impl FnOnce(&EventPort)) {
    let port = Arc::new(EventPort::with_capacity(
        ProcessId(0),
        Arc::new(Notifier::new()),
        64,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let consumer = {
        let (port, stop) = (Arc::clone(&port), Arc::clone(&stop));
        std::thread::spawn(move || {
            if let Some(cpu) = consumer_cpu {
                pin_to(cpu);
            }
            let mut credit = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match port.pop() {
                    Some((_, true)) => port.reply(Reply::latency(1 + std::mem::take(&mut credit))),
                    Some((_, false)) => credit += 1,
                    None => std::thread::yield_now(),
                }
            }
        })
    };
    body(&port);
    stop.store(true, Ordering::Relaxed);
    consumer.join().expect("port consumer panicked");
}

fn port_roundtrip_ns(consumer_cpu: Option<usize>) -> f64 {
    let mut out = 0.0;
    with_port_consumer(consumer_cpu, |port| {
        let mut t = 0u64;
        out = ns_per_op(20_000, |_| {
            t += 1;
            black_box(port.post(yield_event(t)));
        });
    });
    out
}

fn port_batch8_ns_per_event() -> f64 {
    let mut out = 0.0;
    with_port_consumer(None, |port| {
        let mut t = 0u64;
        out = ns_per_op(10_000, |_| {
            for _ in 0..7 {
                t += 1;
                port.post_batched(yield_event(t));
            }
            t += 1;
            black_box(port.post(yield_event(t)));
        }) / 8.0;
    });
    out
}

fn reqport_call_ns() -> f64 {
    let req: Arc<ReqPort<u64, u64>> = Arc::new(ReqPort::new());
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let (req, stop) = (Arc::clone(&req), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match req.try_recv() {
                    Some(q) => req.respond(q + 1),
                    None => std::thread::yield_now(),
                }
            }
        })
    };
    let out = ns_per_op(20_000, |i| {
        black_box(req.call(i));
    });
    stop.store(true, Ordering::Relaxed);
    server.join().expect("request-port server panicked");
    out
}

/// A 2x2 CC-NUMA hierarchy after a mixed warm-up (private streams plus
/// lines all four CPUs share), with the accesses that warmed it.
fn warmed_hierarchy() -> (Hierarchy, Vec<ArchRecord>) {
    let cfg = arch();
    let (ncpus, nodes) = (cfg.ncpus(), cfg.nodes);
    let mut h = Hierarchy::new(cfg);
    let mut records = Vec::new();
    for i in 0..40_000u64 {
        let cpu = (i % ncpus as u64) as usize;
        let shared = i % 8 == 0;
        let paddr = if shared {
            0x10_0000 + (i / 8 % 64) * 64
        } else {
            0x100_0000 * (cpu as u64 + 1) + (i / ncpus as u64) * 64
        };
        let write = i % 3 == 0;
        let home = (paddr >> 12) as usize % nodes;
        let acc = if write { user_write() } else { user_read() };
        let r = h.access(cpu, PAddr(paddr), acc, home, i * 10);
        records.push(ArchRecord::Access {
            cpu: cpu as u32,
            paddr,
            write,
            class: acc.class.index() as u8,
            home: home as u32,
            latency: r.latency,
            l1_hit: r.l1_hit,
            remote: r.remote,
            victims: h.epoch_victims().iter().map(|&c| c as u32).collect(),
        });
    }
    (h, records)
}

/// `compass::run_raw` on a one-process `sci` body: pure event generation
/// into the no-op sink. Returns ns per memory reference.
fn raw_ns_per_ref() -> f64 {
    let cfg = SciConfig {
        nprocs: 1,
        rows: 64,
        cols: 64,
        iters: 24,
        shm_key: 0x5C1,
    };
    let refs = (cfg.rows * cfg.cols * 2 * cfg.iters) as f64;
    median_of_batches(|| {
        let r = compass::run_raw(
            compass::KernelConfig::default(),
            |_| {},
            sci::worker(cfg, 0),
        );
        r.wall.as_nanos() as f64 / refs
    })
}

/// Runs every probe; `span` brackets each one for the trace.
pub fn run_all(
    pin: &Pinning,
    mut span: impl FnMut(&'static str, &mut dyn FnMut() -> f64) -> f64,
) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut probe = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let v = span(name, f);
        out.push((name, v));
    };

    probe("isa.block_cost_ns", &mut || {
        let timing = TimingModel::powerpc_604();
        let mut acc = BlockCost::ZERO;
        let ns = ns_per_op(2_000_000, |i| {
            let block = BlockCostBuilder::new(black_box(&timing))
                .add(InstClass::IntAlu, 3 + (i & 1) as u32)
                .add(InstClass::FpAdd, 2)
                .add(InstClass::FpMul, 1)
                .add(InstClass::Branch, 1)
                .build();
            acc = acc.and_then(block);
        });
        black_box(acc);
        ns
    });

    probe("mem.tlb_access_ns", &mut || {
        // 96 pages in a 128-entry 2-way TLB: the resident-set hit path.
        let mut tlb = Tlb::powerpc_604();
        ns_per_op(2_000_000, |i| {
            black_box(tlb.access(ProcessId(0), VAddr(0x1000_0000 + (i % 96) as u32 * 4096)));
        })
    });

    probe("mem.page_table_translate_ns", &mut || {
        let mut pt = PageTable::new();
        for p in 0..4096u32 {
            pt.map(VAddr(0x1000_0000 + p * 4096), p as u64 + 7, PageFlags::RW);
        }
        ns_per_op(2_000_000, |i| {
            let va = VAddr(0x1000_0000 + (i.wrapping_mul(2_654_435_761) % 4096) as u32 * 4096 + 8);
            black_box(pt.translate(va, i & 1 == 1).expect("page is mapped"));
        })
    });

    probe("comm.port_roundtrip_ns", &mut || port_roundtrip_ns(None));
    probe(
        "comm.port_batch8_ns_per_event",
        &mut port_batch8_ns_per_event,
    );
    probe("comm.reqport_call_ns", &mut reqport_call_ns);
    probe("comm.port_roundtrip_xcpu_ns", &mut || {
        // Without a second CPU there is nothing to measure; the metric
        // is informational and never compared.
        pin.other_cpu
            .filter(|_| pin.pinned)
            .map_or(0.0, |cpu| port_roundtrip_ns(Some(cpu)))
    });

    probe("arch.access_l1_hit_ns", &mut || {
        let mut h = Hierarchy::new(arch());
        let p = PAddr(0x4000);
        h.access(0, p, user_read(), 0, 0);
        ns_per_op(1_000_000, |i| {
            black_box(h.access(0, p, user_read(), 0, i + 1));
        })
    });

    probe("arch.access_stream_miss_ns", &mut || {
        let nodes = arch().nodes;
        let mut h = Hierarchy::new(arch());
        let mut addr = 0u64;
        ns_per_op(200_000, |i| {
            addr += 4096; // a fresh page: misses every level
            let home = (addr >> 12) as usize % nodes;
            black_box(h.access(0, PAddr(addr), user_read(), home, i * 100));
        })
    });

    probe("arch.access_pingpong_ns", &mut || {
        // CPUs 0 and 2 sit on different nodes and alternately write one
        // line: every access invalidates the other copy.
        let mut h = Hierarchy::new(arch());
        let p = PAddr(0x8000);
        ns_per_op(200_000, |i| {
            let cpu = (i & 1) as usize * 2;
            black_box(h.access(cpu, p, user_write(), 0, i * 100));
        })
    });

    probe("arch.mirror_access_ns", &mut || {
        // A 16 KiB working set inside the mirrored L1: predicted hits.
        let mut m = L1Mirror::new(arch().l1);
        ns_per_op(2_000_000, |i| {
            black_box(m.access(0x1000_0000 + (i % 512) * 32, i & 3 == 0));
        })
    });

    probe("backend.sched_cycle_ns", &mut || {
        // Six processes on four CPUs: every release hands the CPU to a
        // queued process, every make_runnable queues.
        let mut s = Scheduler::new(SchedPolicy::Fcfs, 4, 2, 6);
        for pid in 0..6 {
            s.make_runnable(ProcessId(pid));
        }
        let mut running: std::collections::VecDeque<u32> = (0..4).collect();
        ns_per_op(1_000_000, |_| {
            let pid = running.pop_front().expect("four processes run");
            let (next, _) = s.release_cpu(ProcessId(pid)).expect("a process is queued");
            running.push_back(next.0);
            black_box(s.make_runnable(ProcessId(pid)));
        })
    });

    let (warm, records) = warmed_hierarchy();
    let mut snapshot = compass_snap::Writer::new();
    warm.encode_snapshot(&mut snapshot);
    let ckpt = CheckpointData {
        config_hash: Hierarchy::config_hash(&arch()),
        ff_events: 0,
        cut_events: records.len() as u64,
        records,
        snapshot: snapshot.into_bytes(),
    };
    let frame = ckpt.encode();
    probe("backend.ckpt_encode_ms", &mut || {
        median_of_batches(|| {
            let t0 = Instant::now();
            black_box(ckpt.encode());
            t0.elapsed().as_secs_f64() * 1e3
        })
    });
    probe("backend.ckpt_decode_ms", &mut || {
        median_of_batches(|| {
            let t0 = Instant::now();
            let back = CheckpointData::decode(black_box(&frame)).expect("own frame decodes");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(back.cut_events, ckpt.cut_events);
            ms
        })
    });

    probe("snap.seal_mb_per_s", &mut || {
        let payload: Vec<u8> = (0..4 << 20).map(|i: u32| (i ^ (i >> 7)) as u8).collect();
        median_of_batches(|| {
            let t0 = Instant::now();
            black_box(compass_snap::seal(1, black_box(&payload)));
            payload.len() as f64 / 1e6 / t0.elapsed().as_secs_f64()
        })
    });

    probe("os.bufcache_lookup_ns", &mut || {
        let heap = KernelHeap::new();
        let mut cache = BufCache::new(64, &heap);
        for blk in 0..64 {
            cache.claim(1, blk);
        }
        ns_per_op(2_000_000, |i| {
            black_box(cache.lookup(1, i % 64).expect("block is resident"));
        })
    });

    probe("os.bufcache_claim_evict_ns", &mut || {
        // A full 64-buffer pool: every claim scans for and evicts the LRU
        // victim, as a sequential scan does.
        let heap = KernelHeap::new();
        let mut cache = BufCache::new(64, &heap);
        ns_per_op(500_000, |i| {
            black_box(cache.claim(1, i));
        })
    });

    probe("frontend.raw_ns_per_ref", &mut raw_ns_per_ref);

    probe("core.slowdown_vs_raw", &mut || {
        let sim = median_of_batches(|| {
            slowdown::simulated()
                .expect("single-stream TPC-D run failed")
                .as_secs_f64()
        });
        let raw = median_of_batches(|| slowdown::raw().as_secs_f64());
        sim / raw.max(1e-9)
    });

    out
}
