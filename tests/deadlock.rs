//! Deadlock handling end to end: a wedged simulation must come back as a
//! structured [`RunError::Deadlock`] through `try_run` — every simulated
//! thread unwound, nothing panicking, the report naming every process —
//! instead of the old backend panic that killed the whole harness. A
//! wild access unwinds the same way as [`RunError::WildAccess`].

use compass::{ArchConfig, CpuCtx, DeadlockKind, RunError, SimBuilder, VmFaultKind};
use compass_comm::SimAbort;
use compass_mem::{Region, VAddr};
use std::sync::atomic::{AtomicUsize, Ordering};

const LOCK_A: VAddr = VAddr(0x5000_0000);
const LOCK_B: VAddr = VAddr(0x5000_0040);
const BARRIER: VAddr = VAddr(0x5000_0080);

/// Classic AB/BA cycle: both processes grab one lock, meet at a barrier
/// so neither can win, then reach for the other's lock.
fn ab_ba(first: VAddr, second: VAddr) -> impl FnMut(&mut CpuCtx) {
    move |cpu: &mut CpuCtx| {
        let seg = cpu.shmget(0xDEAD, 4096);
        let base = cpu.shmat(seg);
        cpu.store(base, 8); // touch so the segment exists in both maps
        cpu.lock(first);
        cpu.barrier(BARRIER, 2);
        cpu.lock(second); // never returns
        cpu.unlock(second);
        cpu.unlock(first);
    }
}

#[test]
fn lock_cycle_returns_a_structured_deadlock_report() {
    let mut b = SimBuilder::new(ArchConfig::simple_smp(2))
        .add_process(ab_ba(LOCK_A, LOCK_B))
        .add_process(ab_ba(LOCK_B, LOCK_A));
    // Sync-deadlock detection runs off the interval timer.
    b.config_mut().backend.timer_interval = Some(10_000);
    let err = b.try_run().expect_err("AB/BA cycle must deadlock");
    let RunError::Deadlock { report } = err else {
        panic!("expected a deadlock, got {err}");
    };
    assert_eq!(report.kind, DeadlockKind::SyncCycle);
    // Every application process appears in the dump.
    let pids: Vec<u32> = report.procs.iter().map(|p| p.pid).collect();
    assert!(pids.contains(&0) && pids.contains(&1), "dump: {pids:?}");
    let text = report.to_string();
    assert!(text.contains("deadlock"), "report text: {text}");
    assert!(
        report.sync_dump.contains("lock") || !report.sync_dump.is_empty(),
        "sync dump should describe the cycle: {:?}",
        report.sync_dump
    );
}

#[test]
fn host_timeout_is_reported_as_deadlock_too() {
    // A barrier that can never fill, and no interval timer to run the
    // sync-cycle check. Every simulated thread is then suspended on the
    // engine with nothing to process, so the engine reports the deadlock
    // at once: nothing reads `deadlock_ms`, so even a ten-minute window
    // is never waited out.
    let mut b = SimBuilder::new(ArchConfig::simple_smp(2)).add_process(|cpu: &mut CpuCtx| {
        let seg = cpu.shmget(0xDEAD, 4096);
        let base = cpu.shmat(seg);
        cpu.barrier(base, 2); // waits for a second process that never comes
    });
    b.config_mut().backend.timer_interval = None;
    b.config_mut().backend.deadlock_ms = 600_000;
    let t0 = std::time::Instant::now();
    let err = b.try_run().expect_err("stuck barrier must deadlock");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(60),
        "waited out the host-time window: {:?}",
        t0.elapsed()
    );
    let RunError::Deadlock { report } = err else {
        panic!("expected a deadlock, got {err}");
    };
    assert_eq!(report.kind, DeadlockKind::HostTimeout);
    assert!(report.procs.iter().any(|p| p.pid == 0));
}

#[test]
fn run_panics_with_the_report_text() {
    // The panicking convenience wrapper must carry the full report so
    // unconverted callers still see what happened.
    let result = std::panic::catch_unwind(|| {
        let mut b = SimBuilder::new(ArchConfig::simple_smp(2))
            .add_process(ab_ba(LOCK_A, LOCK_B))
            .add_process(ab_ba(LOCK_B, LOCK_A));
        b.config_mut().backend.timer_interval = Some(10_000);
        b.run()
    });
    let payload = result.expect_err("run() must panic on deadlock");
    let msg = payload
        .downcast_ref::<String>()
        .expect("panic payload is the report text");
    assert!(msg.contains("deadlock"), "panic message: {msg}");
}

#[test]
fn an_aborted_run_unwinds_its_tasks_without_the_panic_hook() {
    // Teardown unwinds every simulated thread with `SimAbort`. That is an
    // orderly exit, not a panic: it must not reach the panic hook, which
    // prints a message (and a backtrace under RUST_BACKTRACE) per task.
    static ABORTS: AtomicUsize = AtomicUsize::new(0);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().is::<SimAbort>() {
            ABORTS.fetch_add(1, Ordering::SeqCst);
        }
        prev(info);
    }));
    let mut b = SimBuilder::new(ArchConfig::simple_smp(2))
        .add_process(ab_ba(LOCK_A, LOCK_B))
        .add_process(ab_ba(LOCK_B, LOCK_A));
    b.config_mut().backend.timer_interval = Some(10_000);
    assert!(b.try_run().is_err());
    assert_eq!(ABORTS.load(Ordering::SeqCst), 0, "a SimAbort panicked");
}

#[test]
fn deadlock_detection_is_repeatable() {
    // The teardown must be clean enough to run back to back in one
    // process (no leaked threads wedging the next run).
    for _ in 0..3 {
        let mut b = SimBuilder::new(ArchConfig::simple_smp(2))
            .add_process(ab_ba(LOCK_A, LOCK_B))
            .add_process(ab_ba(LOCK_B, LOCK_A));
        b.config_mut().backend.timer_interval = Some(10_000);
        assert!(b.try_run().is_err());
    }
}

#[test]
fn a_wild_access_mid_run_is_a_structured_error() {
    // One process touches the null-guard region after real work while
    // the other runs to completion: the run unwinds both.
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 1));
    for wild in [false, true] {
        b = b.add_process(move |cpu: &mut CpuCtx| {
            let heap = cpu.malloc_pages(4 * 4096);
            for i in 0..600u32 {
                cpu.store(heap + (i % (4 * 4096 - 8)), 8);
            }
            if wild {
                // Below TEXT_BASE: the null-guard region, never mappable.
                cpu.load(VAddr(0x100), 8);
            }
        });
    }
    let err = b.try_run().expect_err("a wild access must abort the run");
    let RunError::WildAccess { report } = &err else {
        panic!("expected a wild access, got {err}");
    };
    assert_eq!(report.fault.kind, VmFaultKind::Wild(Region::Unmapped));
    assert_eq!(report.fault.va, VAddr(0x100));
    assert!(err.to_string().contains("wild access"), "{err}");
}
