//! The simulated threads are coroutines on the backend's host thread:
//! what that promises end to end — no per-process host threads, panics
//! that come back as errors (backend, also when it runs on a process's
//! stack to serve its post) or re-raised payloads (workload), and an
//! in-program host-time ledger that accounts for the run's wall.

use compass::{ArchConfig, CpuCtx, RunError, SimBuilder};
use compass_backend::TrafficSource;
use compass_comm::{Frame, FrameKind};
use compass_isa::{ConnId, Cycles, NicId};
use compass_os::{OsCall, SysVal};
use compass_simcheck::{apply_scenario_knobs, presets};

/// A client model that blows up when the backend seeds the run.
struct ExplodingTraffic;

impl TrafficSource for ExplodingTraffic {
    fn initial(&mut self) -> Vec<(Cycles, Frame)> {
        panic!("traffic source exploded");
    }

    fn on_tx(&mut self, _conn: ConnId, _bytes: u32, _now: Cycles) -> Vec<(Cycles, Frame)> {
        Vec::new()
    }
}

/// A client that connects and sends one request, then blows up when the
/// server's response goes out: in the engine's NIC model, inside the
/// step that serves the sending process's post.
struct ExplodingOnTx(Vec<(Cycles, Frame)>);

impl TrafficSource for ExplodingOnTx {
    fn initial(&mut self) -> Vec<(Cycles, Frame)> {
        std::mem::take(&mut self.0)
    }

    fn on_tx(&mut self, _conn: ConnId, _bytes: u32, _now: Cycles) -> Vec<(Cycles, Frame)> {
        panic!("traffic source exploded on transmit");
    }
}

fn frame(kind: FrameKind, payload: &[u8], at: Cycles) -> (Cycles, Frame) {
    let frame = Frame {
        nic: NicId(0),
        conn: ConnId(1),
        kind,
        payload: payload.to_vec(),
        time: at,
    };
    (at, frame)
}

/// Accepts one connection, reads the request and sends a response.
fn respond(cpu: &mut CpuCtx) {
    let buf = cpu.malloc_pages(4096);
    let Ok(SysVal::NewFd(lfd)) = cpu.os_call(OsCall::Listen { port: 80 }) else {
        panic!("listen failed");
    };
    let Ok(SysVal::Accepted(fd, _)) = cpu.os_call(OsCall::Accept { lfd }) else {
        panic!("accept failed");
    };
    let _ = cpu.os_call(OsCall::Recv { fd, len: 512, buf });
    let _ = cpu.os_call(OsCall::Send { fd, len: 2048, buf });
}

fn busy(cpu: &mut CpuCtx) {
    let buf = cpu.malloc(4096);
    for i in 0..64 {
        cpu.store(buf + i * 64, 8);
        cpu.compute(100);
    }
}

#[test]
fn a_backend_panic_is_an_error_and_leaves_nothing_behind() {
    // Twice in one process: the first run's teardown must not wedge the
    // second (every simulated thread unwound, no port left waiting).
    for _ in 0..2 {
        let err = SimBuilder::new(ArchConfig::simple_smp(2))
            .traffic(ExplodingTraffic)
            .add_process(busy)
            .add_process(busy)
            .try_run()
            .expect_err("a panicking traffic source must fail the run");
        let RunError::BackendPanic { msg } = &err else {
            panic!("expected a backend panic, got {err}");
        };
        assert!(msg.contains("traffic source exploded"), "message: {msg}");
        assert!(err.to_string().contains("backend panicked"));
    }
}

#[test]
fn an_engine_panic_on_a_process_stack_is_a_backend_error() {
    // The send's post is served on the sending process's own stack, so
    // the panic unwinds there; it is still the engine's, not a workload
    // panic to re-raise.
    for _ in 0..2 {
        let client = ExplodingOnTx(vec![
            frame(FrameKind::Syn, &80u16.to_be_bytes(), 50_000),
            frame(FrameKind::Data, b"GET /", 120_000),
        ]);
        let err = SimBuilder::new(ArchConfig::simple_smp(2))
            .traffic(client)
            .add_process(respond)
            .add_process(busy)
            .try_run()
            .expect_err("a panicking traffic source must fail the run");
        let RunError::BackendPanic { msg } = &err else {
            panic!("expected a backend panic, got {err}");
        };
        assert!(msg.contains("exploded on transmit"), "message: {msg}");
    }
}

#[test]
fn a_workload_panic_is_reraised_with_its_payload() {
    let result = std::panic::catch_unwind(|| {
        SimBuilder::new(ArchConfig::simple_smp(2))
            .add_process(busy)
            .add_process(|cpu: &mut CpuCtx| {
                busy(cpu);
                panic!("workload bug in process 1");
            })
            .try_run()
    });
    let payload = result.expect_err("the workload panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"workload bug in process 1")
    );
}

#[cfg(target_os = "linux")]
#[test]
fn simulated_threads_run_on_the_backend_thread() {
    let report = SimBuilder::new(ArchConfig::ccnuma(2, 2))
        .add_process(|cpu: &mut CpuCtx| {
            busy(cpu);
            assert_eq!(std::thread::current().name(), Some("compass-backend"));
            let names: Vec<String> = std::fs::read_dir("/proc/self/task")
                .expect("procfs")
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .collect();
            for n in &names {
                assert!(
                    !n.starts_with("app-process")
                        && !n.starts_with("os-thread")
                        && !n.starts_with("kernel-bottom"),
                    "a simulated thread has its own host thread: {n:?}"
                );
            }
        })
        .add_process(busy)
        .run();
    assert_eq!(report.frontends.len(), 2);
}

#[test]
fn the_host_ledger_accounts_for_the_wall() {
    let sc = presets::tpcc_small();
    let mut b = sc.builder();
    apply_scenario_knobs(b.config_mut(), &sc, 8);
    b.config_mut().obs.counters = true;
    let report = b.run();
    let obs = report.obs.as_ref().expect("counters on");
    let classes = [
        "frontend_gen_ns",
        "host_os_ns",
        "host_bottom_half_ns",
        "host_backend_ns",
    ];
    for c in classes {
        assert!(obs.counter(c) > 0, "{c} is empty");
    }
    let sum: u64 = classes.iter().map(|c| obs.counter(c)).sum();
    let wall = report.wall.as_nanos() as u64;
    let off = sum.abs_diff(wall) as f64 / wall as f64;
    assert!(
        off <= 0.10,
        "ledger classes sum to {sum} ns, wall is {wall} ns ({:.1}% apart)",
        off * 100.0
    );
    assert!(obs.counter("comm_wait_ns") > 0);
}

/// The quick start of `crates/core/src/lib.rs`, whose doctest once failed
/// without its output being kept.
fn quick_start() -> Cycles {
    let report = SimBuilder::new(ArchConfig::simple_smp(2))
        .prepare_kernel(|k| {
            k.create_file("/data", compass_os::fs::FileData::Synthetic { len: 8192 });
        })
        .add_process(|cpu: &mut CpuCtx| {
            let buf = cpu.malloc(4096);
            let fd = match cpu.os_call(OsCall::Open {
                path: "/data".into(),
                create: false,
            }) {
                Ok(SysVal::NewFd(fd)) => fd,
                other => panic!("{other:?}"),
            };
            let _ = cpu.os_call(OsCall::Read { fd, len: 4096, buf });
            let _ = cpu.os_call(OsCall::Close { fd });
        })
        .run();
    report.backend.global_cycles
}

/// The quick start looped under parallel load: four threads run it at
/// once, 2,500 times each, so a host-side race in spawning the
/// `compass-backend` thread (`spawn backend`) or mapping coroutine stacks
/// (`cannot map a coroutine stack`) would show as a failed or diverging
/// run. A stress loop rather than a per-change check, so ignored:
/// `cargo test --test coroutines -- --ignored` (about 7 s in a debug
/// build and 2 s in release on a 2-vCPU VM).
#[test]
#[ignore]
fn the_quick_start_survives_parallel_load() {
    let want = quick_start();
    assert!(want > 0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..2_500 {
                    assert_eq!(quick_start(), want, "a run diverged");
                }
            });
        }
    });
}
