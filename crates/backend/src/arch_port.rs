//! The engine's one port into the architecture models.
//!
//! Every cache/directory access and software-DSM page move the engine
//! simulates goes through [`ArchPort`]: the live [`Hierarchy`] answers,
//! and when recording is on the call is appended to the access trace
//! (the simcheck reference oracle's input, see [`crate::trace`]).

use crate::trace::TraceRecord;
use crate::vm::DsmTransfer;
use compass_arch::{Access, AccessResult, ArchConfig, Hierarchy};
use compass_isa::Cycles;
use compass_mem::PAddr;

/// The architecture-model port (see the module docs).
pub struct ArchPort {
    hierarchy: Hierarchy,
    /// Every call, for the simcheck reference oracle.
    trace: Option<Vec<TraceRecord>>,
}

impl ArchPort {
    /// A port over a fresh hierarchy.
    pub fn new(arch: ArchConfig) -> Self {
        Self {
            hierarchy: Hierarchy::new(arch),
            trace: None,
        }
    }

    /// Records every call into the access trace, which the engine
    /// returns in [`crate::SimOutcome::access_trace`]. Setup time only.
    pub fn record_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The memory hierarchy (statistics, invariants).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Takes the recorded access trace, if recording was on.
    pub fn take_trace(&mut self) -> Option<Vec<TraceRecord>> {
        self.trace.take()
    }

    /// One cache-hierarchy access by `cpu` at `now`.
    pub fn access(
        &mut self,
        cpu: usize,
        paddr: PAddr,
        acc: Access,
        home: usize,
        now: Cycles,
    ) -> AccessResult {
        let res = self.hierarchy.access(cpu, paddr, acc, home, now);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord::Access {
                cpu,
                paddr,
                write: acc.write,
                class: acc.class,
                home,
                time: now,
                latency: res.latency,
                l1_hit: res.l1_hit,
                remote: res.remote,
            });
        }
        res
    }

    /// One software-DSM page move at `now`: the transfer latency, or 0
    /// when ownership moved without a copy (still a counted DSM fault).
    pub fn dsm(&mut self, d: DsmTransfer, now: Cycles) -> Cycles {
        if d.bytes == 0 {
            self.hierarchy.count_dsm_fault();
            if let Some(trace) = &mut self.trace {
                trace.push(TraceRecord::DsmNoCopy);
            }
            return 0;
        }
        let latency = self.hierarchy.dsm_page_transfer(d.from, d.to, d.bytes, now);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord::Dsm {
                from: d.from,
                to: d.to,
                bytes: d.bytes,
                time: now,
                latency,
            });
        }
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_arch::AccessClass;

    fn page_move(bytes: u32) -> DsmTransfer {
        DsmTransfer {
            from: 1,
            to: 0,
            bytes,
            invalidations: 0,
        }
    }

    #[test]
    fn the_trace_records_every_call_with_its_outcome() {
        let mut port = ArchPort::new(ArchConfig::sw_dsm(2, 1));
        port.record_trace();
        let user = Access {
            write: false,
            class: AccessClass::User,
        };
        let res = port.access(0, PAddr(0x1000), user, 0, 10);
        let moved = port.dsm(page_move(4096), 20);
        assert_eq!(port.dsm(page_move(0), 30), 0, "a no-copy move is free");
        assert_eq!(port.hierarchy().stats().dsm_faults, 2, "but still a fault");
        let trace = port.take_trace().expect("recording was on");
        assert!(matches!(
            trace[..],
            [
                TraceRecord::Access { latency, time: 10, .. },
                TraceRecord::Dsm { latency: l, time: 20, bytes: 4096, .. },
                TraceRecord::DsmNoCopy,
            ] if latency == res.latency && l == moved
        ));
    }
}
