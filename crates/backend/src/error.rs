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
//!
//! The engine-side diagnostics live here as well: the sync-cycle test and
//! the builders of the deadlock and wild-access reports.

use crate::engine::{Backend, PState};
use crate::vm::VmFault;
use compass_isa::Cycles;
use compass_obs::TraceKind;
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
        write_procs(f, &self.procs)
    }
}

/// One line per process, shared by both reports.
fn write_procs(f: &mut fmt::Formatter<'_>, procs: &[ProcDump]) -> fmt::Result {
    for p in procs {
        writeln!(
            f,
            "  pid {}: state={} bound={} credit={} held={} ring={} head={:?} indexed={} cpu={:?}",
            p.pid, p.state, p.bound, p.credit, p.held, p.ring, p.head, p.indexed, p.cpu
        )?;
    }
    Ok(())
}

/// How the deadlock was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockKind {
    /// Every live application process waits on a simulated lock or
    /// barrier, the kernel daemon is parked, and no device completion is
    /// in flight — provably stuck (detected at a timer tick).
    SyncCycle,
    /// Nothing could be processed and a full index rebuild still found
    /// nothing to do: every simulated thread is suspended on the engine
    /// (reported at once), or posters on ordinary threads stayed silent
    /// for the `deadlock_ms` window.
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
        write_procs(f, &self.procs)?;
        writeln!(
            f,
            "  tasks queued: {} (next at {:?})",
            self.tasks_queued, self.next_task_time
        )?;
        f.write_str(&self.sync_dump)
    }
}

impl Backend {
    /// True when the application can provably never make progress again:
    /// every live app process waits on a simulated lock or barrier, the
    /// kernel daemon is parked, and no disk/network completion is queued.
    pub(crate) fn sync_deadlocked(&self) -> bool {
        let mut any_live = false;
        for p in self.app_pids() {
            match self.procs[p].state {
                PState::Exited => {}
                PState::LockWait | PState::BarrierWait => any_live = true,
                _ => return false,
            }
        }
        if !any_live {
            return false;
        }
        if let Some(d) = self.daemon {
            if self.procs[d.index()].state != PState::Blocked {
                return false;
            }
        }
        // Only timer tasks left? Disk/net completions could still wake a
        // Blocked process, but no process is Blocked here; completions
        // could not release a lock anyway — still, be conservative.
        true
    }

    /// Builds the structured deadlock report (the engine poisons the
    /// ports when it returns the error).
    pub(crate) fn deadlock_error(&mut self, kind: DeadlockKind) -> RunError {
        let report = DeadlockReport {
            kind,
            procs: self.proc_dumps(),
            tasks_queued: self.tasks.len(),
            next_task_time: self.tasks.peek_time(),
            sync_dump: self.sync.dump(),
            events_processed: self.events_processed,
            global_time: self.global_time,
        };
        RunError::Deadlock {
            report: Box::new(report),
        }
    }

    /// Builds the structured wild-access report, like
    /// [`Backend::deadlock_error`].
    pub(crate) fn wild_access_error(&mut self, fault: VmFault) -> RunError {
        let report = WildAccessReport {
            fault,
            procs: self.proc_dumps(),
            events_processed: self.events_processed,
            global_time: self.global_time,
        };
        RunError::WildAccess {
            report: Box::new(report),
        }
    }

    /// Per-process dumps in pid order, shared by both reports; also marks
    /// the failure in the structured trace.
    fn proc_dumps(&mut self) -> Vec<ProcDump> {
        self.obs
            .record(self.global_time, u32::MAX, TraceKind::Deadlock, 0, 0);
        self.reindex_touched();
        self.procs
            .iter()
            .enumerate()
            .map(|(i, p)| ProcDump {
                pid: i as u32,
                state: format!("{:?}", p.state),
                bound: p.bound,
                credit: p.credit,
                held: p.held.is_some(),
                ring: self.ports[i].pending(),
                head: self.ports[i].peek_time(),
                indexed: format!("{:?}", self.index.get(i)),
                cpu: p.cpu.map(|c| c.index() as u32),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::mini_backend;
    use compass_isa::ProcessId;

    #[test]
    fn sync_deadlocked_requires_every_live_app_to_wait_on_sync() {
        let mut b = mini_backend(3, None);
        b.procs[0].state = PState::LockWait;
        b.procs[1].state = PState::Running;
        b.procs[2].state = PState::Exited;
        assert!(!b.sync_deadlocked(), "a Running process can still post");
        b.procs[1].state = PState::BarrierWait;
        assert!(b.sync_deadlocked(), "all live apps wait on sync");
    }

    #[test]
    fn sync_deadlocked_is_false_when_nothing_is_alive_or_waiting() {
        let mut b = mini_backend(2, None);
        b.procs[0].state = PState::Exited;
        b.procs[1].state = PState::Exited;
        assert!(!b.sync_deadlocked(), "no live waiter, no deadlock");
        // Blocked (not sync-waiting) processes can be woken by devices.
        let mut b = mini_backend(2, None);
        b.procs[0].state = PState::LockWait;
        b.procs[1].state = PState::Blocked;
        assert!(!b.sync_deadlocked(), "a Blocked process may yet be woken");
    }

    #[test]
    fn sync_deadlocked_requires_the_daemon_to_be_parked() {
        let daemon = ProcessId(2);
        let mut b = mini_backend(3, Some(daemon));
        b.procs[0].state = PState::LockWait;
        b.procs[1].state = PState::LockWait;
        b.procs[2].state = PState::Running;
        assert!(!b.sync_deadlocked(), "an awake daemon can still unblock");
        b.procs[2].state = PState::Blocked;
        assert!(b.sync_deadlocked());
    }

    #[test]
    fn deadlock_error_reports_every_process() {
        let mut b = mini_backend(2, None);
        b.procs[0].state = PState::LockWait;
        b.procs[1].state = PState::BarrierWait;
        b.events_processed = 7;
        let err = b.deadlock_error(DeadlockKind::SyncCycle);
        let RunError::Deadlock { report } = &err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(report.kind, DeadlockKind::SyncCycle);
        assert_eq!(report.procs.len(), 2);
        assert_eq!(report.events_processed, 7);
        assert!(err.to_string().contains("state=LockWait"));
        assert!(err.to_string().contains("pid 1: state=BarrierWait"));
    }

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
