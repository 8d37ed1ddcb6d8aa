//! Structured run failures.
//!
//! A deadlock used to be a `panic!` deep in the engine, which tore the
//! whole process down and left soak harnesses nothing to record. It is
//! now data: the engine returns [`RunError::Deadlock`] carrying a
//! [`DeadlockReport`] with the same per-process dump the panic message
//! used to print, so callers can log the seed, shrink the scenario, or
//! retry — and the frontends are unwound in an orderly way through port
//! poisoning instead of being left waiting forever. A backend panic is
//! data too ([`RunError::BackendPanic`]).

use crate::vm::VmFault;
use compass_isa::Cycles;
use std::fmt;

/// Why a simulation run failed.
#[derive(Debug)]
pub enum RunError {
    /// No event is processable and none can ever become processable.
    Deadlock {
        /// The full diagnostic snapshot taken at detection time.
        report: Box<DeadlockReport>,
    },
    /// A frontend touched memory the VM cannot map (wild pointer,
    /// detached segment, simulated-frame exhaustion). These used to be
    /// `panic!`s inside translation; they now unwind the run in an
    /// orderly way with the same per-process dump a deadlock gets.
    WildAccess {
        /// The faulting reference plus the state of every process.
        report: Box<WildAccessReport>,
    },
    /// A checkpoint file could not be written, read, or decoded.
    Checkpoint {
        /// What failed, including the path.
        msg: String,
    },
    /// A resumed run's re-executed reference stream did not match the
    /// outcomes recorded at checkpoint time — the resume-identity oracle
    /// caught a nondeterminism bug.
    ResumeDiverged {
        /// Ordinal of the serviced event at which the mismatch appeared.
        at_event: u64,
        /// Human-readable expected-vs-got description.
        detail: String,
    },
    /// The backend (or a simulated thread it resumed) panicked. Every
    /// port was poisoned and every simulated thread unwound before this
    /// was returned.
    BackendPanic {
        /// The panic message.
        msg: String,
    },
    /// Interrupt code drained the device queues (or the daemon blocked)
    /// with batched kernel events still unsettled, so its clock lagged
    /// simulated time and the drained set would depend on batching.
    UnsettledDrain {
        /// Where, by whom and at which clock.
        detail: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock { report } => write!(f, "{report}"),
            RunError::WildAccess { report } => write!(f, "{report}"),
            RunError::Checkpoint { msg } => write!(f, "checkpoint error: {msg}"),
            RunError::ResumeDiverged { at_event, detail } => {
                write!(f, "resume diverged at event {at_event}: {detail}")
            }
            RunError::BackendPanic { msg } => write!(f, "backend panicked: {msg}"),
            RunError::UnsettledDrain { detail } => {
                write!(f, "settled-at-drain invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Everything the engine knew when a reference faulted unrecoverably.
#[derive(Debug, Clone)]
pub struct WildAccessReport {
    /// The faulting reference.
    pub fault: VmFault,
    /// Per-process dumps, in pid order.
    pub procs: Vec<ProcDump>,
    /// Events processed before the fault.
    pub events_processed: u64,
    /// Global simulated time at the fault.
    pub global_time: Cycles,
}

impl fmt::Display for WildAccessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "COMPASS wild access: {} (events={}, t={})",
            self.fault, self.events_processed, self.global_time
        )?;
        for p in &self.procs {
            writeln!(
                f,
                "  pid {}: state={} bound={} credit={} held={} ring={} log={} head={:?} \
                 indexed={} cpu={:?}",
                p.pid, p.state, p.bound, p.credit, p.held, p.ring, p.log, p.head, p.indexed, p.cpu
            )?;
        }
        Ok(())
    }
}

/// How the deadlock was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockKind {
    /// Every live application process waits on a simulated lock or
    /// barrier, the kernel daemon is parked, and no device completion is
    /// in flight — provably stuck (detected at a timer tick).
    SyncCycle,
    /// The backend made no progress for the configured host-time window
    /// (`deadlock_ms`) and a full index rebuild still found nothing to do.
    HostTimeout,
}

/// One process's state at deadlock detection, mirroring the fields the
/// old panic message printed.
#[derive(Debug, Clone)]
pub struct ProcDump {
    /// Process id.
    pub pid: u32,
    /// Engine process state (`Running`, `LockWait`, …), pre-formatted.
    pub state: String,
    /// Clock lower bound (time of last reply).
    pub bound: Cycles,
    /// Latency credit owed for consumed non-blocking events.
    pub credit: Cycles,
    /// Whether the engine holds a popped, unreplied event for it.
    pub held: bool,
    /// Unconsumed events in its ring.
    pub ring: usize,
    /// Filtered references still queued for replay.
    pub log: usize,
    /// Raw timestamp at its ring head, if any.
    pub head: Option<Cycles>,
    /// Scanner-index classification, pre-formatted.
    pub indexed: String,
    /// CPU assignment, if running.
    pub cpu: Option<u32>,
}

/// Everything the engine knew when it declared a deadlock.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// How the deadlock was detected.
    pub kind: DeadlockKind,
    /// Per-process dumps, in pid order.
    pub procs: Vec<ProcDump>,
    /// Device tasks still queued.
    pub tasks_queued: usize,
    /// Timestamp of the earliest queued task, if any.
    pub next_task_time: Option<Cycles>,
    /// The sync table's own dump (lock owners, barrier arrivals).
    pub sync_dump: String,
    /// Events processed before the stall.
    pub events_processed: u64,
    /// Global simulated time at detection.
    pub global_time: Cycles,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "COMPASS backend deadlock ({:?}): no event is processable \
             (events={}, t={})",
            self.kind, self.events_processed, self.global_time
        )?;
        for p in &self.procs {
            writeln!(
                f,
                "  pid {}: state={} bound={} credit={} held={} ring={} log={} head={:?} \
                 indexed={} cpu={:?}",
                p.pid, p.state, p.bound, p.credit, p.held, p.ring, p.log, p.head, p.indexed, p.cpu
            )?;
        }
        writeln!(
            f,
            "  tasks queued: {} (next at {:?})",
            self.tasks_queued, self.next_task_time
        )?;
        f.write_str(&self.sync_dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_every_process_and_the_sync_dump() {
        let r = DeadlockReport {
            kind: DeadlockKind::SyncCycle,
            procs: vec![ProcDump {
                pid: 0,
                state: "LockWait".into(),
                bound: 10,
                credit: 0,
                held: true,
                ring: 0,
                log: 0,
                head: None,
                indexed: "Off".into(),
                cpu: None,
            }],
            tasks_queued: 2,
            next_task_time: Some(500),
            sync_dump: "lock 0x40: owner pid 1\n".into(),
            events_processed: 42,
            global_time: 99,
        };
        let e = RunError::Deadlock {
            report: Box::new(r),
        };
        let s = e.to_string();
        assert!(s.contains("SyncCycle"));
        assert!(s.contains("pid 0: state=LockWait"));
        assert!(s.contains("tasks queued: 2"));
        assert!(s.contains("owner pid 1"));
    }
}
