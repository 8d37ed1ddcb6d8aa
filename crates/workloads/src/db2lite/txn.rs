//! Write-ahead logging and transaction commit.
//!
//! Log records are appended to a single WAL file under the simulated log
//! latch; commit forces the log with `fsync` — whose buffer-cache scan
//! flushes *every* dirty log buffer, giving the group-commit behaviour the
//! TPC profiles in the paper lean on (`kwritev` + disk interrupts are the
//! bulk of TPC-C's kernel time).

use super::engine::Db2Session;
use compass_frontend::CpuCtx;
use compass_os::OsCall;

/// A transaction handle: tracks how many log records the transaction has
/// appended so commit can size its commit record.
pub struct Txn {
    records: u32,
    bytes: u32,
}

impl Txn {
    /// Begins a transaction.
    pub fn begin() -> Self {
        Txn {
            records: 0,
            bytes: 0,
        }
    }

    /// Appends a redo record of `len` bytes to the WAL.
    pub fn log(&mut self, cpu: &mut CpuCtx, session: &Db2Session, len: u32) {
        let latch = session.log_latch();
        cpu.lock(latch);
        cpu.store(latch + 8, 8); // tail bump
        let off = {
            let mut tail = session.shared.log_tail.lock();
            let off = *tail;
            *tail += len as u64;
            off
        };
        cpu.unlock(latch);
        // The record content is synthetic (recovery is out of scope); the
        // kernel copy and buffer-cache behaviour are what matter.
        let data = vec![0xA5u8; len as usize];
        let src = session.base; // loads "from" the shared segment
        cpu.os_call(OsCall::WriteAt {
            fd: session.log_fd,
            off,
            data,
            buf: src,
        })
        .expect("log append");
        self.records += 1;
        self.bytes += len;
    }

    /// Commits: append the commit record and force the log.
    pub fn commit(mut self, cpu: &mut CpuCtx, session: &Db2Session) -> u32 {
        self.log(cpu, session, 64);
        cpu.os_call(OsCall::Fsync { fd: session.log_fd })
            .expect("log force");
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db2lite::storage::{ColType, Schema, Value};
    use crate::db2lite::{Db2Config, Db2Shared};
    use compass::{ArchConfig, SimBuilder};
    use std::sync::Arc;

    #[test]
    fn commits_force_the_log_to_disk() {
        let shared = Db2Shared::new(Db2Config {
            pool_pages: 8,
            shm_key: 0xDB2,
        });
        let shared2 = Arc::clone(&shared);
        let b = SimBuilder::new(ArchConfig::simple_smp(1))
            .prepare_kernel(move |k| {
                shared2.create_table(
                    k,
                    "t",
                    Schema::new(vec![ColType::U64]),
                    (0..4u64).map(|i| vec![Value::U64(i)]),
                );
            })
            .add_process(move |cpu: &mut compass::CpuCtx| {
                let session = Db2Session::attach(cpu, Arc::clone(&shared));
                for i in 0..3 {
                    let mut txn = Txn::begin();
                    txn.log(cpu, &session, 200 + i * 10);
                    txn.log(cpu, &session, 100);
                    assert_eq!(txn.commit(cpu, &session), 3);
                }
            });
        let r = b.run();
        // Three fsyncs, each with at least one disk write.
        assert!(r.syscalls.iter().any(|(n, c, _)| n == "fsync" && *c == 3));
        let disk_writes: u64 = r.backend.disk_ops.iter().map(|d| d.0).sum();
        assert!(disk_writes >= 3, "log forces must reach the disk");
    }
}
