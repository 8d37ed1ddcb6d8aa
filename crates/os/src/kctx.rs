//! `KernelCtx`: how simulated kernel code executes.
//!
//! "Since the kernel code executed in the OS server is also instrumented,
//! the OS server process generates memory-reference events. These events
//! are sent to the backend through the event port of the thread, which is
//! the same event port of its companion application process." (§3.1)
//!
//! A `KernelCtx` carries the companion process's identity and logical
//! clock; every kernel load/store/lock posts a kernel-mode event through an
//! [`EventSink`]. The sink is either the real event port ([`PortSink`]) or
//! a no-op ([`RawSink`]) used by *raw* runs — the paper's uninstrumented
//! baseline for the slowdown tables — so the same kernel code serves both.

use compass_comm::{
    BlockReason, CtlOp, DevCmd, Event, EventBody, EventPort, ExecMode, MemRefKind, Reply,
    ReplyData, SimAbort, SyncOp,
};
use compass_isa::{Cycles, ProcessId};
use compass_mem::VAddr;
use std::sync::Arc;

/// Where kernel (and frontend) events go.
pub trait EventSink: Send + Sync {
    /// Posts the event and blocks for the reply.
    fn post(&self, ev: Event) -> Reply;

    /// Appends a non-blocking event to the port's batch (no reply; the
    /// backend's credit accounting settles its latency on the next
    /// blocking post). The default degrades to a blocking post with the
    /// reply dropped — correct for sinks with no batching transport.
    fn post_batched(&self, ev: Event) {
        let _ = self.post(ev);
    }

    /// True if this sink actually simulates (false for raw runs; raw-mode
    /// kernel code skips sleeping on device completions).
    fn is_simulated(&self) -> bool {
        true
    }
}

/// The real sink: the companion process's event port.
pub struct PortSink(pub Arc<EventPort>);

impl EventSink for PortSink {
    fn post(&self, ev: Event) -> Reply {
        let r = self.0.post(ev);
        if matches!(r.data, ReplyData::Aborted) {
            // The port was poisoned: the backend is gone and this event
            // was never simulated. Kernel code cannot make progress (many
            // paths would spin forever on instant zero-latency replies),
            // so unwind the whole simulated thread; the OS server and the
            // runner catch [`SimAbort`] at their thread boundaries.
            std::panic::panic_any(SimAbort);
        }
        r
    }

    fn post_batched(&self, ev: Event) {
        self.0.post_batched(ev);
    }
}

/// How the OS server builds per-thread [`KernelPerf`] state: the kernel
/// side of the one batch depth the frontends also use.
#[derive(Clone)]
pub struct KernelPerfSetup {
    /// Kernel event-batch depth (1 = classic per-event rendezvous).
    pub batch_depth: usize,
}

impl KernelPerfSetup {
    /// Builds fresh per-pairing perf state.
    pub fn build(&self) -> KernelPerf {
        KernelPerf {
            batch_depth: self.batch_depth.max(1),
            batch_pending: 0,
            batched_any: false,
        }
    }
}

/// Per-OS-thread perf state: event batching for kernel contexts.
///
/// Interrupt-mode contexts (the bottom-half daemon) may attach it
/// *provided* every device-queue drain happens at a
/// settled point — `batch_pending == 0`, where the logical clock is
/// exact. `handlers::run_pending` guarantees this structurally (drains
/// run right after a blocking lock acquisition, and every handler body
/// ends in blocking unlock/unblock posts that settle its batched
/// events) and debug-asserts it at each drain point. A credit-lagged
/// clock at a drain would change which records `drain_*_until(kc.clock)`
/// services and break bit-identity across batch depths; a settled clock
/// cannot.
pub struct KernelPerf {
    batch_depth: usize,
    /// Non-blocking kernel events published since the last blocking post.
    /// Persistent across syscalls (the pairing's ring occupancy bound):
    /// once it reaches `batch_depth - 1` the next reference rendezvouses.
    batch_pending: usize,
    /// Whether the current syscall batched or left batched events — one
    /// `OsBatchedReplies` tick per such aggregated `Done`.
    batched_any: bool,
}

impl KernelPerf {
    /// True when the syscall that just ran published batched events (its
    /// reply aggregates their latencies into the port credit).
    pub fn take_batched_any(&mut self) -> bool {
        std::mem::take(&mut self.batched_any)
    }

    /// Outstanding non-blocking kernel events (tests/diagnostics).
    pub fn pending(&self) -> usize {
        self.batch_pending
    }
}

/// The raw sink: every event succeeds instantly; device commands return
/// neutral data. Used for raw (uninstrumented) executions.
#[derive(Debug, Default)]
pub struct RawSink;

impl EventSink for RawSink {
    fn post(&self, ev: Event) -> Reply {
        let data = match ev.body {
            EventBody::Dev(DevCmd::ClockRead) => ReplyData::Clock { cycles: ev.time },
            _ => ReplyData::None,
        };
        Reply::with_data(0, data)
    }

    fn is_simulated(&self) -> bool {
        false
    }
}

/// Execution context for kernel code running on behalf of a process.
pub struct KernelCtx<'a> {
    /// The companion process.
    pub pid: ProcessId,
    sink: &'a dyn EventSink,
    /// The process's logical clock, advanced by kernel execution.
    pub clock: Cycles,
    /// Kernel or Interrupt (bottom half) mode.
    pub mode: ExecMode,
    /// Bytes per simulated touch when walking buffers (one reference per
    /// cache line is the usual execution-driven compromise).
    pub touch_gran: u32,
    /// Cycles spent blocked (device waits) — excluded from per-syscall CPU
    /// accounting, as the paper's profiles exclude I/O wait.
    pub wait_cycles: Cycles,
    /// Batching state for syscall-dispatch contexts; `None` keeps the classic one-rendezvous-per-event protocol.
    perf: Option<&'a mut KernelPerf>,
}

impl<'a> KernelCtx<'a> {
    /// Creates a context at the given clock.
    pub fn new(
        pid: ProcessId,
        sink: &'a dyn EventSink,
        clock: Cycles,
        mode: ExecMode,
        touch_gran: u32,
    ) -> Self {
        assert!(touch_gran.is_power_of_two());
        Self {
            pid,
            sink,
            clock,
            mode,
            touch_gran,
            wait_cycles: 0,
            perf: None,
        }
    }

    /// Attaches batching state (see [`KernelPerf`]).
    pub fn with_perf(mut self, perf: &'a mut KernelPerf) -> Self {
        self.perf = Some(perf);
        self
    }

    /// True when events actually reach a backend.
    pub fn is_simulated(&self) -> bool {
        self.sink.is_simulated()
    }

    fn post(&mut self, body: EventBody) -> Reply {
        let r = self.sink.post(Event {
            pid: self.pid,
            time: self.clock,
            body,
        });
        self.clock += r.latency;
        if let Some(p) = &mut self.perf {
            // The rendezvous drained every batched event ahead of it and
            // settled their latencies into this reply via the credit.
            p.batch_pending = 0;
        }
        r
    }

    /// Outstanding batched (credit-settled) kernel events; 0 means the
    /// logical clock is exact. Interrupt handlers assert this before
    /// draining device queues `until(clock)`.
    pub fn batch_pending(&self) -> usize {
        self.perf.as_ref().map_or(0, |p| p.batch_pending)
    }

    /// One kernel memory reference: batched (non-blocking publish,
    /// latency settled by credit) while the batch has room, else the
    /// classic blocking post.
    fn mem_event(&mut self, kind: MemRefKind, va: VAddr, size: u16) {
        let body = EventBody::MemRef {
            kind,
            mode: self.mode,
            vaddr: va,
            size,
        };
        if let Some(p) = &mut self.perf {
            if p.batch_depth > 1 && p.batch_pending + 1 < p.batch_depth {
                p.batch_pending += 1;
                p.batched_any = true;
                self.sink.post_batched(Event {
                    pid: self.pid,
                    time: self.clock,
                    body,
                });
                return;
            }
        }
        self.post(body);
    }

    /// Advances the clock by pure compute cycles.
    #[inline]
    pub fn compute(&mut self, cycles: Cycles) {
        self.clock += cycles;
    }

    /// One kernel load.
    pub fn load(&mut self, va: VAddr, size: u16) {
        self.clock += 1; // address generation
        self.mem_event(MemRefKind::Load, va, size);
    }

    /// One kernel store.
    pub fn store(&mut self, va: VAddr, size: u16) {
        self.clock += 1;
        self.mem_event(MemRefKind::Store, va, size);
    }

    /// Touches `len` bytes starting at `base`: one load or store per
    /// [`KernelCtx::touch_gran`] bytes — how instrumented block-move code
    /// presents to the cache simulator.
    pub fn touch_range(&mut self, base: VAddr, len: u32, write: bool) {
        if len == 0 {
            return;
        }
        let gran = self.touch_gran;
        let mut off = 0;
        while off < len {
            if write {
                self.store(base + off, gran.min(len - off) as u16);
            } else {
                self.load(base + off, gran.min(len - off) as u16);
            }
            off += gran;
        }
    }

    /// A block copy: loads from `src`, stores to `dst`, plus the move
    /// loop's compute cycles (~1 cycle per 4 bytes on a 604).
    pub fn copy(&mut self, src: VAddr, dst: VAddr, len: u32) {
        let gran = self.touch_gran;
        let mut off = 0;
        while off < len {
            let chunk = gran.min(len - off) as u16;
            self.load(src + off, chunk);
            self.store(dst + off, chunk);
            self.compute((chunk as u64) / 4);
            off += gran;
        }
    }

    /// Acquires a simulated kernel lock (sleeps if contended; the backend
    /// arbitrates, making kernel critical sections deterministic).
    pub fn lock(&mut self, va: VAddr) {
        self.post(EventBody::Sync {
            op: SyncOp::LockAcquire,
            vaddr: va,
            mode: self.mode,
        });
    }

    /// Releases a simulated kernel lock.
    pub fn unlock(&mut self, va: VAddr) {
        self.post(EventBody::Sync {
            op: SyncOp::LockRelease,
            vaddr: va,
            mode: self.mode,
        });
    }

    /// Issues a device command; returns the reply payload.
    pub fn dev(&mut self, cmd: DevCmd) -> ReplyData {
        self.post(EventBody::Dev(cmd)).data
    }

    /// Blocks the companion process until a wakeup names it. No-op in raw
    /// mode (device data is functionally available immediately there).
    pub fn block(&mut self, reason: BlockReason) {
        if self.sink.is_simulated() {
            let before = self.clock;
            self.post(EventBody::Ctl(CtlOp::Block { reason }));
            self.wait_cycles += self.clock - before;
        }
    }

    /// Wakes a blocked process.
    pub fn unblock(&mut self, pid: ProcessId) {
        self.post(EventBody::Ctl(CtlOp::Unblock { pid }));
    }

    /// Reads the simulated real-time clock.
    pub fn read_clock(&mut self) -> Cycles {
        match self.dev(DevCmd::ClockRead) {
            ReplyData::Clock { cycles } => cycles,
            other => panic!("clock read returned {other:?}"),
        }
    }

    /// Trap entry/exit overhead of a system call.
    pub fn syscall_overhead(&mut self) {
        self.compute(80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_sink_advances_only_compute() {
        let sink = RawSink;
        let mut kc = KernelCtx::new(ProcessId(0), &sink, 100, ExecMode::Kernel, 64);
        kc.compute(10);
        kc.load(VAddr(0xC000_0000), 8); // +1 cycle addr gen, latency 0
        kc.store(VAddr(0xC000_0008), 8);
        assert_eq!(kc.clock, 112);
        assert!(!kc.is_simulated());
    }

    #[test]
    fn touch_range_covers_every_granule() {
        // Count events through a sink that tallies.
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Counting(AtomicU64);
        impl EventSink for Counting {
            fn post(&self, _ev: Event) -> Reply {
                self.0.fetch_add(1, Ordering::Relaxed);
                Reply::latency(2)
            }
        }
        let sink = Counting(AtomicU64::new(0));
        let mut kc = KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64);
        kc.touch_range(VAddr(0xC000_0000), 4096, false);
        assert_eq!(sink.0.load(Ordering::Relaxed), 64);
        // Each touch: 1 addr-gen cycle + 2 latency.
        assert_eq!(kc.clock, 64 * 3);
    }

    #[test]
    fn copy_loads_and_stores() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Kinds {
            loads: AtomicU64,
            stores: AtomicU64,
        }
        impl EventSink for Kinds {
            fn post(&self, ev: Event) -> Reply {
                if let EventBody::MemRef { kind, .. } = ev.body {
                    match kind {
                        MemRefKind::Load => self.loads.fetch_add(1, Ordering::Relaxed),
                        _ => self.stores.fetch_add(1, Ordering::Relaxed),
                    };
                }
                Reply::latency(0)
            }
        }
        let sink = Kinds {
            loads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        };
        let mut kc = KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 128);
        kc.copy(VAddr(0xC000_0000), VAddr(0xC000_2000), 1024);
        assert_eq!(sink.loads.load(Ordering::Relaxed), 8);
        assert_eq!(sink.stores.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn raw_block_is_a_noop() {
        let sink = RawSink;
        let mut kc = KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64);
        kc.block(BlockReason::Disk);
        assert_eq!(kc.clock, 0);
    }

    #[test]
    fn clock_read_through_raw_sink() {
        let sink = RawSink;
        let mut kc = KernelCtx::new(ProcessId(0), &sink, 55, ExecMode::Kernel, 64);
        assert_eq!(kc.read_clock(), 55);
    }
}
