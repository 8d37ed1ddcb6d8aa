//! The event/reply ABI between frontend processes and the backend.
//!
//! "For each memory reference, the inserted code also fills out an event
//! data structure at run time with information on the reference type, the
//! effective address, the reference size, and the cycle time at which the
//! reference is generated. The data structure is passed to the backend
//! simulation process through the event port." (§2)
//!
//! Events are deliberately `Copy` and small: the backend consumes one per
//! simulated memory reference, so event size directly bounds simulator
//! throughput. Bulky payloads (network frame contents, OS-call arguments)
//! travel through other channels ([`crate::devshared`], the OS port).

use compass_isa::{ConnId, CpuId, Cycles, DiskId, NicId, ProcessId, SegId};
use compass_mem::{ShmError, VAddr};
use serde::{Deserialize, Serialize};

/// Panic payload used to unwind a simulated thread (frontend workload or
/// OS-thread kernel code) after its event port was poisoned: the backend
/// is gone — typically because it returned a deadlock report — and the
/// event can never be simulated, so the thread must tear down, not retry.
/// The executor also raises it from a blocking call of a cancelled task.
/// Task-boundary code (the executor's `catch_unwind` at the bottom of
/// every task stack, and the OS server) downcasts to this type to tell an
/// orderly abort from a real bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimAbort;

/// One timed event from a frontend process (or its paired OS thread, which
/// shares the same event port and logical clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The simulated process this event belongs to.
    pub pid: ProcessId,
    /// The process's execution-time counter when the event was generated.
    pub time: Cycles,
    /// What happened.
    pub body: EventBody,
}

/// Event payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventBody {
    /// A memory reference to be run through the architecture model.
    MemRef {
        /// Load, store, or atomic read-modify-write.
        kind: MemRefKind,
        /// User, kernel, or interrupt-handler execution (for Table-1-style
        /// time attribution and cache statistics).
        mode: ExecMode,
        /// Simulated virtual address.
        vaddr: VAddr,
        /// Reference size in bytes.
        size: u16,
    },
    /// A synchronisation operation on a shared simulated address. The
    /// backend arbitrates these in global time order, which is what makes
    /// frontend critical sections deterministic.
    Sync {
        /// The operation.
        op: SyncOp,
        /// The lock / barrier address.
        vaddr: VAddr,
        /// Execution mode (kernel locks vs user locks).
        mode: ExecMode,
    },
    /// A command to a simulated physical device (§3.4).
    Dev(DevCmd),
    /// Process-control and category-2 OS interactions (§3.3).
    Ctl(CtlOp),
}

/// Memory reference kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemRefKind {
    /// A read.
    Load,
    /// A write.
    Store,
    /// An atomic read-modify-write (counts as a store for coherence).
    Rmw,
}

impl MemRefKind {
    /// True for stores and read-modify-writes.
    #[inline]
    pub fn is_write(self) -> bool {
        !matches!(self, MemRefKind::Load)
    }
}

/// Who is executing when an event is generated (§3 time attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Application code.
    User,
    /// Category-1 kernel code running in the OS server.
    Kernel,
    /// Interrupt-handler (bottom half) code.
    Interrupt,
}

/// Synchronisation operations arbitrated by the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// Acquire the lock at the event address; the reply is deferred until
    /// the lock is granted.
    LockAcquire,
    /// Release the lock at the event address.
    LockRelease,
    /// Enter a barrier expecting `count` participants; the reply is
    /// deferred until all have arrived.
    Barrier {
        /// Total number of participants.
        count: u16,
    },
}

/// Commands to the simulated physical devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevCmd {
    /// Start a disk read; completion arrives later as a
    /// [`crate::DiskCompletion`] plus an interrupt.
    DiskRead {
        /// Target disk.
        disk: DiskId,
        /// First 512-byte block.
        block: u64,
        /// Number of blocks.
        nblocks: u32,
        /// Token echoed in the completion record so the kernel can find
        /// the waiting request.
        token: u32,
    },
    /// Start a disk write (completion + interrupt, like reads).
    DiskWrite {
        /// Target disk.
        disk: DiskId,
        /// First 512-byte block.
        block: u64,
        /// Number of blocks.
        nblocks: u32,
        /// Completion token.
        token: u32,
    },
    /// Transmit `bytes` on a TCP connection through a NIC. The functional
    /// payload (if any) has already been handed to the network model; this
    /// event makes the backend charge wire time and inform the traffic
    /// source (e.g. the SPECWeb trace player).
    NetTx {
        /// Transmitting NIC.
        nic: NicId,
        /// Connection.
        conn: ConnId,
        /// Payload bytes.
        bytes: u32,
    },
    /// Read the real-time clock device; the reply carries the value.
    ClockRead,
}

/// Reasons a process blocks (for wait-time statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockReason {
    /// Waiting for a disk transfer.
    Disk,
    /// Waiting for network data or connections.
    Net,
    /// Waiting in `select`.
    Select,
    /// Waiting for another process (pipes, wait, msgrcv…).
    Ipc,
    /// The OS-server bottom-half daemon waiting for device work.
    BottomHalf,
    /// Explicit sleep.
    Sleep,
}

/// Process-control operations (category-2 OS functions, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlOp {
    /// First event of every process; the reply is deferred until the
    /// process scheduler assigns a CPU (§3.3.2).
    Start,
    /// Final event of a process; frees its CPU.
    Exit,
    /// Block (deschedule) until an `Unblock` names this process. Posted by
    /// the process's OS thread on its behalf (§3.3.3).
    Block {
        /// Why the process blocked.
        reason: BlockReason,
    },
    /// Wake a blocked process (posted by kernel code, typically an
    /// interrupt handler).
    Unblock {
        /// The process to wake.
        pid: ProcessId,
    },
    /// Voluntary scheduling check-in; bounds how far a compute-only
    /// stretch can run ahead and gives the pre-emptive scheduler a hook.
    Yield,
    /// `shmget`: create or look up a shared segment (§3.3.1).
    ShmGet {
        /// User key.
        key: u32,
        /// Length in bytes.
        len: u32,
    },
    /// `shmat`: attach a segment; reply carries the common base address.
    ShmAt {
        /// Segment to attach.
        seg: SegId,
    },
    /// `shmdt`: detach a segment.
    ShmDt {
        /// Segment to detach.
        seg: SegId,
    },
    /// Create page-table entries for an mmap-style region.
    MapRegion {
        /// Region base (page aligned).
        base: VAddr,
        /// Region length in bytes.
        len: u32,
        /// Shared mapping (affects placement and coherence).
        shared: bool,
    },
    /// Remove the mappings of a region (munmap).
    UnmapRegion {
        /// Region base (page aligned).
        base: VAddr,
        /// Region length in bytes.
        len: u32,
    },
}

/// The backend's reply to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Cycles to add to the process execution-time counter: memory latency
    /// for references, grant delay for locks, wait time for blocked or
    /// descheduled processes, plus any interrupt-handler steal time.
    pub latency: Cycles,
    /// Snapshot of the interrupt-request flag of the CPU the process runs
    /// on (the frontend also reads the CPU-states area directly; this copy
    /// saves a cache miss on the common path).
    pub irq_pending: bool,
    /// Extra payload for specific events.
    pub data: ReplyData,
}

impl Reply {
    /// A plain reply with the given latency and no payload.
    pub fn latency(latency: Cycles) -> Self {
        Self::with_data(latency, ReplyData::None)
    }

    /// A reply with the given latency and payload, interrupt flag clear.
    pub fn with_data(latency: Cycles, data: ReplyData) -> Self {
        Reply {
            latency,
            irq_pending: false,
            data,
        }
    }
}

/// The batch credit a blocking reply folds into its latency: the
/// latencies of the poster's earlier non-blocking events, split by the
/// mode those events ran in. A kernel context charges the kernel share to
/// the system call that batched it and excludes the user share.
#[derive(Debug, Clone, Copy, Default)]
pub struct Folded {
    /// Owed for user-mode events.
    pub user: Cycles,
    /// Owed for kernel- and interrupt-mode events.
    pub kernel: Cycles,
}

/// Reply payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplyData {
    /// Nothing.
    #[default]
    None,
    /// Result of [`DevCmd::ClockRead`]: global simulated time in cycles.
    Clock {
        /// Global cycle count.
        cycles: Cycles,
    },
    /// Result of [`CtlOp::ShmGet`].
    Shm {
        /// The segment id.
        seg: SegId,
    },
    /// Result of [`CtlOp::ShmAt`].
    ShmBase {
        /// The common attach address.
        base: VAddr,
    },
    /// The CPU this process is (now) running on; carried by `Start`
    /// replies and by replies that follow a migration.
    Cpu {
        /// Assigned CPU.
        cpu: CpuId,
    },
    /// Simulation is shutting down (sent to the bottom-half daemon).
    Shutdown,
    /// A shared-memory control operation failed (e.g. frame exhaustion);
    /// the stub surfaces it as an ENOMEM-style syscall failure instead of
    /// the backend tearing the whole simulation down.
    ShmFail {
        /// Why it failed.
        err: ShmError,
    },
    /// The event was *not* simulated: the port was poisoned because the
    /// backend is gone (deadlock report / teardown). The poster must
    /// unwind — see [`SimAbort`].
    Aborted,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_small_enough_for_the_hot_path() {
        // One event per simulated memory reference: keep it within two
        // cache lines (header + body with niche-packed enums).
        assert!(
            std::mem::size_of::<Event>() <= 48,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
        assert!(
            std::mem::size_of::<Reply>() <= 32,
            "Reply grew to {} bytes",
            std::mem::size_of::<Reply>()
        );
    }

    #[test]
    fn write_kinds() {
        assert!(!MemRefKind::Load.is_write());
        assert!(MemRefKind::Store.is_write());
        assert!(MemRefKind::Rmw.is_write());
    }

    #[test]
    fn reply_latency_constructor() {
        let r = Reply::latency(17);
        assert_eq!(r.latency, 17);
        assert!(!r.irq_pending);
        assert_eq!(r.data, ReplyData::None);
    }
}
