//! Whole-system determinism: arbitrary mixed workloads — shared memory,
//! simulated locks, barriers, file I/O, compute — must produce
//! bit-identical simulations across runs and across engine modes. This is
//! the load-bearing property of the least-execution-time pickup rule (§2).

use compass::{ArchConfig, CpuCtx, EngineMode, SimBuilder};
use compass_backend::BackendStats;
use compass_os::fs::FileData;
use compass_os::{OsCall, SysVal};
use compass_workloads::httplite::{
    self, generate_fileset, generate_trace, FileSetConfig, PlayerConfig, ServerConfig,
    SharedTickets, TracePlayer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A process body generated from a seed: a random mix of the primitives.
fn chaos_process(seed: u64, nprocs: u16) -> impl FnMut(&mut CpuCtx) + Send {
    move |cpu: &mut CpuCtx| {
        let mut rng = StdRng::seed_from_u64(seed);
        let seg = cpu.shmget(0xC0DE, 16 * 4096);
        let base = cpu.shmat(seg);
        let heap = cpu.malloc_pages(16 * 4096);
        let buf = cpu.malloc_pages(4096);
        let fd = match cpu.os_call(OsCall::Open {
            path: "/chaos".into(),
            create: false,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("{other:?}"),
        };
        for step in 0..120u32 {
            match rng.gen_range(0..10) {
                0..=2 => {
                    // Private memory work.
                    let a = heap + rng.gen_range(0..16 * 4096 - 8);
                    if rng.gen_bool(0.5) {
                        cpu.load(a, 8);
                    } else {
                        cpu.store(a, 8);
                    }
                }
                3..=4 => {
                    // Shared memory work under a lock.
                    let line = rng.gen_range(4..16u32);
                    cpu.lock(base);
                    cpu.store(base + line * 256, 8);
                    cpu.load(base + line * 256 + 64, 8);
                    cpu.unlock(base);
                }
                5 => cpu.compute(rng.gen_range(100..5_000)),
                6..=7 => {
                    // File read at a random offset.
                    let off = rng.gen_range(0..96u64) * 1024;
                    match cpu.os_call(OsCall::ReadAt {
                        fd,
                        off,
                        len: 1024,
                        buf,
                    }) {
                        Ok(SysVal::Data(_)) => {}
                        other => panic!("{other:?}"),
                    }
                }
                8 => {
                    // Unlocked (but data-race-free by disjoint addressing)
                    // shared reads: timing still deterministic.
                    cpu.load(base + (seed as u32 % 8) * 512, 8);
                }
                _ => {
                    // NOTE: no mid-run barriers here — arrival counts
                    // must match across processes, and this arm fires a
                    // random number of times per process.
                    cpu.compute(50 + step as u64 % 7);
                }
            }
        }
        // Everyone must reach the trailing barrier count; use compute to
        // keep clocks moving.
        cpu.barrier(base + 192, nprocs);
        let _ = cpu.os_call(OsCall::Close { fd });
    }
}

fn chaos_builder(mode: EngineMode, nprocs: u16, batch_depth: usize) -> SimBuilder {
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).prepare_kernel(|k| {
        k.create_file("/chaos", FileData::Synthetic { len: 96 * 1024 });
    });
    for p in 0..nprocs {
        b = b.add_process(chaos_process(p as u64 * 7919 + 17, nprocs));
    }
    b.config_mut().backend.mode = mode;
    b.config_mut().backend.timer_interval = Some(500_000);
    b.config_mut().backend.deadlock_ms = 10_000;
    b.config_mut().backend.batch_depth = batch_depth;
    b
}

fn run_chaos(mode: EngineMode, nprocs: u16) -> BackendStats {
    chaos_builder(mode, nprocs, 8).run().backend
}

fn assert_same(a: &BackendStats, b: &BackendStats) {
    assert_eq!(a.global_cycles, b.global_cycles, "global time differs");
    assert_eq!(a.events, b.events, "event counts differ");
    assert_eq!(a.mem, b.mem, "memory stats differ");
    assert_eq!(a.sync, b.sync, "sync stats differ");
    assert_eq!(a.tlb, b.tlb, "tlb stats differ");
    for (i, (x, y)) in a.procs.iter().zip(&b.procs).enumerate() {
        assert_eq!(x, y, "per-process times differ for pid {i}");
    }
}

#[test]
fn chaos_is_deterministic_across_runs() {
    let a = run_chaos(EngineMode::Pipelined, 3);
    let b = run_chaos(EngineMode::Pipelined, 3);
    assert_same(&a, &b);
}

#[test]
fn engine_modes_produce_identical_simulations() {
    // The paper's uniprocessor and SMP deployments differ only in
    // wall-clock; the simulation itself must be bit-identical.
    let serial = run_chaos(EngineMode::Serialized, 3);
    let pipe = run_chaos(EngineMode::Pipelined, 3);
    assert_same(&serial, &pipe);
}

/// Reader/writer ping-pong over one shared line: every round the
/// writer's store invalidates the reader's cached copy.
fn pingpong_process(role: usize) -> impl FnMut(&mut CpuCtx) + Send {
    move |cpu: &mut CpuCtx| {
        let seg = cpu.shmget(0xBEEF, 4096);
        let base = cpu.shmat(seg);
        for _ in 0..20 {
            if role == 0 {
                for _ in 0..50 {
                    cpu.load(base, 8);
                }
            } else {
                cpu.store(base, 8);
                cpu.compute(200);
            }
            cpu.barrier(base + 256, 2);
        }
        cpu.barrier(base + 256, 2);
    }
}

/// Maps a file region, touches it twice under first-touch placement and
/// unmaps it, four times over: the page tables are torn down and rebuilt
/// between rounds.
fn remap_process() -> impl FnMut(&mut CpuCtx) + Send {
    move |cpu: &mut CpuCtx| {
        for _ in 0..4 {
            let region = cpu.mmap("/data", 4 * 4096).expect("mmap");
            cpu.touch_range(region, 4 * 4096, 64, false);
            cpu.touch_range(region, 4 * 4096, 64, true);
            cpu.munmap(region, 4 * 4096).expect("munmap");
        }
    }
}

/// Requires `build(depth)` to simulate byte-identically at every depth in
/// `depths` to the classic depth-1 rendezvous.
fn assert_depth_invariant(what: &str, depths: &[usize], build: impl Fn(usize) -> SimBuilder) {
    let bytes = |s: &BackendStats| format!("{s:#?}").into_bytes();
    let d1 = build(1).run().backend;
    for &depth in depths {
        let d = build(depth).run().backend;
        assert_same(&d1, &d);
        assert_eq!(
            bytes(&d1),
            bytes(&d),
            "{what}: depth {depth} stats not byte-identical to depth 1"
        );
    }
}

#[test]
fn batch_depth_does_not_change_the_simulation() {
    // The batched communicator is a host-performance knob only: the
    // backend's credit accounting must make every depth byte-identical to
    // depth 1 (classic per-event rendezvous) — same event stream, same
    // global order, same attribution — not merely statistically close.
    assert_depth_invariant("chaos", &[4, 16], |d| {
        chaos_builder(EngineMode::Pipelined, 3, d)
    });
    // More processes than CPUs: context switches migrate processes
    // between CPUs mid-batch.
    assert_depth_invariant("oversubscribed chaos", &[8], |d| {
        chaos_builder(EngineMode::Pipelined, 5, d)
    });
    // Serialized ("uniprocessor host") mode with sampled references.
    assert_depth_invariant("serialized+sampled", &[4], |d| {
        let mut b = SimBuilder::new(ArchConfig::simple_smp(2)).prepare_kernel(|k| {
            k.create_file("/chaos", FileData::Synthetic { len: 96 * 1024 });
        });
        for p in 0..2 {
            b = b.add_process(chaos_process(p as u64 + 41, 2));
        }
        let c = b.config_mut();
        c.backend.mode = EngineMode::Serialized;
        c.backend.batch_depth = d;
        c.backend.deadlock_ms = 10_000;
        c.sample_period = 3;
        b
    });
    // Directory invalidations of a line another CPU keeps re-reading.
    assert_depth_invariant("pingpong", &[8], |d| {
        let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2));
        for role in 0..2 {
            b = b.add_process(pingpong_process(role));
        }
        b.config_mut().backend.batch_depth = d;
        b.config_mut().backend.deadlock_ms = 10_000;
        b
    });
    // Unmap and remap under first-touch placement.
    assert_depth_invariant("first-touch remap", &[8], |d| {
        let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).prepare_kernel(|k| {
            k.create_file("/data", FileData::Synthetic { len: 4 * 4096 });
        });
        b = b.add_process(remap_process());
        b.config_mut().backend.batch_depth = d;
        b.config_mut().backend.deadlock_ms = 10_000;
        b
    });
}

#[test]
fn oversubscription_is_deterministic() {
    // More processes than CPUs: the ready queue and context switches are
    // in play, and everything must still replay exactly.
    let a = run_chaos(EngineMode::Pipelined, 5);
    let b = run_chaos(EngineMode::Pipelined, 5);
    assert_same(&a, &b);
    assert!(
        a.procs.iter().any(|p| p.ready_wait > 0),
        "5 processes on 4 CPUs should queue"
    );
}

/// The benchmark's `httplite` input on the shipped defaults: 4 keep-alive
/// servers on the 2x2 cc-NUMA machine, 400 requests from 48 clients with
/// slow clients and connection churn, trace seed `seed`.
fn httplite_benchmark_scale(seed: u64) -> SimBuilder {
    let fileset = FileSetConfig { dirs: 2 };
    let server = ServerConfig {
        keep_alive: true,
        ..ServerConfig::default()
    };
    let player = TracePlayer::with_config(
        generate_trace(fileset, 400, seed),
        PlayerConfig {
            keep_alive: 4,
            slow_every: 5,
            slow_factor: 4,
            churn_every: 8,
            ..PlayerConfig::http10(48, server.port)
        },
    );
    let tickets = SharedTickets::new(player.expected_connections());
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2))
        .prepare_kernel(move |k| {
            generate_fileset(k, fileset);
        })
        .traffic(player);
    for _ in 0..4 {
        b = b.add_process(httplite::worker(server, Arc::clone(&tickets)));
    }
    b
}

/// Random schedules under which trace seeds 8 and 109 diverged from the
/// first-ready order before replies waited for due device tasks.
#[cfg(feature = "check-invariants")]
const SCHEDULES: [u64; 2] = [0x6_CC62_3AF4, 0x7_6A99_B4AD];

/// Requires byte-identical `BackendStats` across runs of the input at
/// trace seed `seed`: five plain repetitions, or, in `check-invariants`
/// builds, the first-ready order against [`SCHEDULES`].
fn assert_repeatable_httplite(seed: u64) {
    let stats = |b: SimBuilder| format!("{:?}", b.run().backend);
    let first = stats(httplite_benchmark_scale(seed));
    #[cfg(not(feature = "check-invariants"))]
    let others = (1..5).map(|_| httplite_benchmark_scale(seed));
    #[cfg(feature = "check-invariants")]
    let others = SCHEDULES.map(|s| httplite_benchmark_scale(seed).schedule_seed(s));
    for (rep, b) in others.into_iter().enumerate() {
        assert!(
            stats(b) == first,
            "httplite seed {seed}: run {} differs from the first",
            rep + 2
        );
    }
}

// Trace seeds 8 and 109 once ended repetitions ~2.6k cycles apart: the
// bottom-half daemon drained the device postbox before or after a
// completion due by its clock had been deposited, depending on host
// scheduling. Replies are now released only once every device task due
// by the poster's clock has run (the engine's unit test
// `a_wire_reply_waits_for_device_tasks_due_by_the_posters_clock` pins
// that rule). The audited variant takes ~25 min per seed in a release
// build, far longer in a debug one: run it with
// `cargo test --release --features check-invariants --test determinism -- --ignored`.
#[cfg_attr(
    feature = "check-invariants",
    ignore = "slow under per-step audits; run in a release build"
)]
#[test]
fn httplite_seed_8_is_repeatable() {
    assert_repeatable_httplite(8);
}

#[cfg_attr(
    feature = "check-invariants",
    ignore = "slow under per-step audits; run in a release build"
)]
#[test]
fn httplite_seed_109_is_repeatable() {
    assert_repeatable_httplite(109);
}
