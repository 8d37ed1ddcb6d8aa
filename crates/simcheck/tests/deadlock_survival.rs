//! Deadlock survival: a wedged workload must come back as a structured
//! error — at every batch depth the harness sweeps — so a soak run can
//! record the seed and keep going. Before the crash-to-error sweep this
//! scenario panicked the backend thread and killed the whole harness.

use compass::{ArchConfig, CpuCtx, DeadlockKind, RunError, SimBuilder};
use compass_mem::VAddr;
use compass_simcheck::check::DEPTHS;

const LOCK_A: VAddr = VAddr(0x5000_0000);
const LOCK_B: VAddr = VAddr(0x5000_0040);
const BARRIER: VAddr = VAddr(0x5000_0080);

fn ab_ba(first: VAddr, second: VAddr) -> impl FnMut(&mut CpuCtx) {
    move |cpu: &mut CpuCtx| {
        let seg = cpu.shmget(0xDEAD, 4096);
        let base = cpu.shmat(seg);
        cpu.store(base, 8);
        cpu.lock(first);
        cpu.barrier(BARRIER, 2);
        cpu.lock(second); // the cycle closes here
        cpu.unlock(second);
        cpu.unlock(first);
    }
}

fn run_wedged(depth: usize) -> Result<(), RunError> {
    let mut b = SimBuilder::new(ArchConfig::simple_smp(2))
        .add_process(ab_ba(LOCK_A, LOCK_B))
        .add_process(ab_ba(LOCK_B, LOCK_A));
    b.config_mut().backend.batch_depth = depth;
    b.config_mut().backend.timer_interval = Some(10_000);
    b.try_run().map(|_| ())
}

#[test]
fn deadlock_is_an_error_at_every_sweep_depth() {
    for depth in DEPTHS {
        match run_wedged(depth) {
            Err(RunError::Deadlock { report }) => {
                assert_eq!(
                    report.kind,
                    DeadlockKind::SyncCycle,
                    "depth {depth}: wrong kind"
                );
                let pids: Vec<u32> = report.procs.iter().map(|p| p.pid).collect();
                assert!(
                    pids.contains(&0) && pids.contains(&1),
                    "depth {depth}: dump missing a process: {pids:?}"
                );
            }
            Ok(()) => panic!("depth {depth}: AB/BA cycle did not deadlock"),
            Err(other) => panic!("depth {depth}: expected a deadlock, got {other}"),
        }
    }
}
