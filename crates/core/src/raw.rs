//! Raw (uninstrumented-baseline) execution.
//!
//! The paper's slowdown tables compare "Raw" — the application running
//! natively on the host — against simulation. Here a raw run executes the
//! same workload code against the same functional kernel with a no-op
//! event sink: no events, no backend, no OS-server threads. Wall-clock
//! time of a raw run is the denominator of the slowdown factor.
//!
//! Raw runs are single-process: without the backend nothing arbitrates
//! concurrent functional access, and the paper's raw baseline (a TPC-D
//! query) is a single query stream anyway.

use compass_frontend::{CpuCtx, Process};
use compass_isa::{Cycles, ProcessId, TimingModel};
use compass_os::{KernelConfig, KernelShared};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// What a raw run reports.
#[derive(Debug)]
pub struct RawReport {
    /// Host wall-clock time.
    pub wall: Duration,
    /// The process's accumulated cycle count (static costs only — no
    /// memory latencies; useful for sanity checks, not for timing).
    pub clock: Cycles,
    /// Per-syscall `(name, count, cycles)`.
    pub syscalls: Vec<(String, u64, u64)>,
}

/// Runs `body` raw against a fresh functional kernel prepared by
/// `prepare`.
pub fn run_raw(
    kernel_cfg: KernelConfig,
    prepare: impl FnOnce(&KernelShared),
    mut body: impl Process,
) -> RawReport {
    let devshared = Rc::new(compass_comm::DevShared::new());
    let kernel = KernelShared::new(kernel_cfg, devshared);
    prepare(&kernel);
    let mut cpu = CpuCtx::raw(ProcessId(0), Rc::clone(&kernel), TimingModel::powerpc_604());
    let started = Instant::now();
    cpu.start();
    body.run(&mut cpu);
    cpu.exit();
    let wall = started.elapsed();
    RawReport {
        wall,
        clock: cpu.clock(),
        syscalls: kernel.stats.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_os::fs::FileData;
    use compass_os::{OsCall, SysVal};

    #[test]
    fn raw_run_reads_files_functionally() {
        let report = run_raw(
            KernelConfig::default(),
            |k| {
                k.create_file("/f", FileData::Bytes(b"hello world".to_vec()));
            },
            |cpu: &mut CpuCtx| {
                let buf = cpu.malloc(64);
                let fd = match cpu.os_call(OsCall::Open {
                    path: "/f".into(),
                    create: false,
                }) {
                    Ok(SysVal::NewFd(fd)) => fd,
                    other => panic!("{other:?}"),
                };
                match cpu.os_call(OsCall::Read { fd, len: 5, buf }) {
                    Ok(SysVal::Data(d)) => assert_eq!(d, b"hello"),
                    other => panic!("{other:?}"),
                }
            },
        );
        assert!(report.clock > 0);
        assert!(report
            .syscalls
            .iter()
            .any(|(n, c, _)| n == "kreadv" && *c == 1));
    }
}
