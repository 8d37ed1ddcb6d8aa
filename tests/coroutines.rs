//! The simulated threads are coroutines on the backend's host thread:
//! what that promises end to end — no per-process host threads, panics
//! that come back as errors (backend) or re-raised payloads (workload),
//! and an in-program host-time ledger that accounts for the run's wall.

use compass::{ArchConfig, CpuCtx, RunError, SimBuilder};
use compass_backend::TrafficSource;
use compass_comm::Frame;
use compass_isa::{ConnId, Cycles};
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
