//! Memory-access trace recording for differential checking.
//!
//! The engine's [`crate::ArchPort`] can record every live call into the
//! architecture models — cache/directory accesses and software-DSM page
//! transfers — at the exact boundary where the `simcheck` reference
//! oracle replays them. The trace comes back with the run's outcome
//! ([`crate::SimOutcome::access_trace`]).
//! Replaying a recorded trace single-step through a fresh
//! [`compass_arch::Hierarchy`] built from the same [`compass_arch::ArchConfig`]
//! must reproduce every per-access latency and the final statistics bit for
//! bit, at any event-batch depth; a divergence localises a bug to either
//! the engine's event ordering or the architecture models themselves.

use compass_arch::AccessClass;
use compass_isa::Cycles;
use compass_mem::PAddr;

/// One recorded call into the architecture models, in global simulated
/// order (the engine is single-threaded, so recording order is replay
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A cache-hierarchy access ([`compass_arch::Hierarchy::access`]).
    Access {
        /// Accessing CPU.
        cpu: usize,
        /// Physical address.
        paddr: PAddr,
        /// Store or read-modify-write.
        write: bool,
        /// Attribution class.
        class: AccessClass,
        /// Home node of the line.
        home: usize,
        /// Global time the access started.
        time: Cycles,
        /// Latency the engine charged.
        latency: Cycles,
        /// Served by the L1.
        l1_hit: bool,
        /// Involved a remote home directory.
        remote: bool,
    },
    /// A software-DSM page copy ([`compass_arch::Hierarchy::dsm_page_transfer`]).
    Dsm {
        /// Source node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Bytes moved.
        bytes: u32,
        /// Global time of the fault.
        time: Cycles,
        /// Latency the engine charged.
        latency: Cycles,
    },
    /// A software-DSM ownership move without a data copy
    /// ([`compass_arch::Hierarchy::count_dsm_fault`]).
    DsmNoCopy,
}
