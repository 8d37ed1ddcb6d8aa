//! `KernelCtx`: how simulated kernel code executes.
//!
//! "Since the kernel code executed in the OS server is also instrumented,
//! the OS server process generates memory-reference events. These events
//! are sent to the backend through the event port of the thread, which is
//! the same event port of its companion application process." (§3.1)
//!
//! Here the process runs its kernel code itself, on its own task, so
//! those events go through its own event port with no OS thread between.
//! A `KernelCtx` carries the calling process's identity and logical
//! clock; every kernel load/store/lock posts a kernel-mode event through an
//! [`EventSink`]. The sink is either the real event port ([`PortSink`]) or
//! a no-op ([`RawSink`]) used by *raw* runs — the paper's uninstrumented
//! baseline for the slowdown tables — so the same kernel code serves both.

use compass_comm::{
    BlockReason, CtlOp, DevCmd, Event, EventBody, EventPort, ExecMode, Folded, MemRefKind, Reply,
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

    /// Room for one more [`Self::post_batched`] event while keeping a
    /// slot for the blocking post that cuts the batch. Never for sinks
    /// with no batching transport.
    fn has_room(&self) -> bool {
        false
    }

    /// The batch credit folded into the reply [`Self::post`] just
    /// returned. None for sinks with no batching transport.
    fn folded(&self) -> Folded {
        Folded::default()
    }

    /// True if this sink actually simulates (false for raw runs; raw-mode
    /// kernel code skips sleeping on device completions).
    fn is_simulated(&self) -> bool {
        true
    }
}

/// The real sink: the calling process's event port.
pub struct PortSink(pub Arc<EventPort>);

// Inline across crates: frontends post every user-mode event through
// this sink too.
impl EventSink for PortSink {
    #[inline]
    fn post(&self, ev: Event) -> Reply {
        let r = self.0.post(ev);
        if matches!(r.data, ReplyData::Aborted) {
            // The port was poisoned: the backend is gone and this event
            // was never simulated. Kernel code cannot make progress (many
            // paths would spin forever on instant zero-latency replies),
            // so unwind the whole simulated thread: the executor catches
            // [`SimAbort`] at the bottom of its task.
            std::panic::panic_any(SimAbort);
        }
        r
    }

    #[inline]
    fn post_batched(&self, ev: Event) {
        self.0.post_batched(ev);
    }

    #[inline]
    fn has_room(&self) -> bool {
        self.0.has_room()
    }

    #[inline]
    fn folded(&self) -> Folded {
        self.0.folded()
    }
}

/// Per-process perf state: event batching for kernel contexts.
///
/// On the syscall path kernel memory references and kernel-mode lock
/// releases publish non-blocking while the port ring has room
/// ([`EventSink::has_room`]: the ring's capacity is the batch depth, and
/// the process's own user-mode batch counts against it; at capacity 1
/// nothing batches); lock acquires, device commands and block/unblock
/// rendezvous. A call whose last events were batched ends
/// before their latencies are known: that *tail* sits in the port credit
/// until the next blocking reply folds it, and [`KernelPerf`] keeps its
/// call's name so those cycles are charged to it then (see
/// [`KernelPerf::frontend_folded`] and [`KernelPerf::end_call`]). Per-call
/// kernel time is therefore the same at every batch depth.
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
#[derive(Default)]
pub struct KernelPerf {
    /// This context's non-blocking kernel events published since its last
    /// blocking post (the ring may hold the process's user-mode events
    /// too). Persistent across syscalls.
    batch_pending: usize,
    /// Whether the current syscall batched or left batched events — one
    /// `OsBatchedReplies` tick per such call.
    batched_any: bool,
    /// The call whose batched tail is still unfolded. Invariant between
    /// calls: `tail.is_some()` exactly when `batch_pending > 0`. While it
    /// is set, the next kernel event rendezvouses, so that the reply's
    /// folded kernel credit is this tail and nothing else.
    tail: Option<&'static str>,
    /// A folded tail not yet charged: its call and cycles.
    settled: Option<(&'static str, Cycles)>,
}

impl KernelPerf {
    /// True when the syscall that just ran published batched events
    /// (their latencies wait in the port credit).
    pub fn take_batched_any(&mut self) -> bool {
        std::mem::take(&mut self.batched_any)
    }

    /// Outstanding non-blocking kernel events: between calls, nonzero
    /// exactly while the last call's tail is unsettled.
    #[inline]
    pub fn pending(&self) -> usize {
        self.batch_pending
    }

    /// The process's own user-mode code rendezvoused, and the reply folded
    /// `folded` cycles of kernel credit. Only its first rendezvous after a
    /// call with a tail folds any: the ring then holds none of this
    /// context's events and the tail is settled — the return value, which
    /// the caller charges to that call. Until then the tail stays in the
    /// credit, and a next call's first kernel event settles it instead.
    pub fn frontend_folded(&mut self, folded: Cycles) -> Option<(&'static str, Cycles)> {
        self.batch_pending = 0;
        self.tail.take().map(|name| (name, folded))
    }

    /// A call named `name` ends: it owns the tail if it left batched
    /// events unfolded. Returns a settled earlier tail, which the caller
    /// charges to its call.
    pub fn end_call(&mut self, name: &'static str) -> Option<(&'static str, Cycles)> {
        if self.tail.is_none() && self.batch_pending > 0 {
            self.tail = Some(name);
        }
        self.settled.take()
    }

    /// Room for one more non-blocking event: no earlier call's tail
    /// waits to be settled, and the ring behind `sink` has room.
    fn has_room(&self, sink: &dyn EventSink) -> bool {
        self.tail.is_none() && sink.has_room()
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
    /// The process the kernel code runs for.
    pub pid: ProcessId,
    sink: &'a dyn EventSink,
    /// The process's logical clock, advanced by kernel execution.
    pub clock: Cycles,
    /// Kernel or Interrupt (bottom half) mode.
    pub mode: ExecMode,
    /// Bytes per simulated touch when walking buffers (one reference per
    /// cache line is the usual execution-driven compromise).
    pub touch_gran: u32,
    /// Cycles on `clock` that are not this context's own CPU time, and so
    /// are excluded from per-syscall accounting: blocked waits (the
    /// paper's profiles exclude I/O wait), batch credit its blocking
    /// replies fold for the process's user-mode events, and an earlier
    /// call's settled tail.
    pub excluded: Cycles,
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
            excluded: 0,
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

    /// Posts `body` blocking; returns the reply and the batch credit it
    /// folded.
    fn post(&mut self, body: EventBody) -> (Reply, Folded) {
        let r = self.sink.post(Event {
            pid: self.pid,
            time: self.clock,
            body,
        });
        self.clock += r.latency;
        let folded = self.sink.folded();
        self.excluded += folded.user;
        if let Some(p) = &mut self.perf {
            // The rendezvous drained every batched event ahead of it and
            // settled their latencies into this reply via the credit.
            p.batch_pending = 0;
            if let Some(name) = p.tail.take() {
                // The first event since an earlier call left its tail:
                // the folded kernel credit is that tail, all of it.
                debug_assert!(p.settled.is_none(), "two tails settled in one call");
                p.settled = Some((name, folded.kernel));
                self.excluded += folded.kernel;
            }
        }
        (r, folded)
    }

    /// Ends the call `name` (see [`KernelPerf::end_call`]); a no-op
    /// without batching.
    pub fn end_call(&mut self, name: &'static str) -> Option<(&'static str, Cycles)> {
        self.perf.as_mut().and_then(|p| p.end_call(name))
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
        self.post_nonblocking(body);
    }

    /// Publishes `body` non-blocking while the batch has room, else posts
    /// it blocking.
    fn post_nonblocking(&mut self, body: EventBody) {
        if let Some(p) = &mut self.perf {
            if p.has_room(self.sink) {
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

    /// Releases a simulated kernel lock. A release never waits, so on the
    /// syscall path (`ExecMode::Kernel`) it joins the batch like a memory
    /// reference; the engine grants any waiter when it pops the release.
    /// Interrupt-mode releases stay blocking: each bottom-half handler
    /// ends in them, which keeps the daemon's clock settled at its
    /// device-queue drains.
    pub fn unlock(&mut self, va: VAddr) {
        let body = EventBody::Sync {
            op: SyncOp::LockRelease,
            vaddr: va,
            mode: self.mode,
        };
        if self.mode == ExecMode::Kernel {
            self.post_nonblocking(body);
        } else {
            self.post(body);
        }
    }

    /// Issues a device command; returns the reply payload.
    pub fn dev(&mut self, cmd: DevCmd) -> ReplyData {
        self.post(EventBody::Dev(cmd)).0.data
    }

    /// Blocks the calling process until a wakeup names it. No-op in raw
    /// mode (device data is functionally available immediately there).
    pub fn block(&mut self, reason: BlockReason) {
        if self.sink.is_simulated() {
            let (r, folded) = self.post(EventBody::Ctl(CtlOp::Block { reason }));
            // The wait is the reply's own latency; the credit it folds
            // was spent running.
            self.excluded += r.latency - folded.user - folded.kernel;
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
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

    /// Tallies blocking and batched posts of kernel events that cost 3
    /// cycles each, banking batched latencies as credit the way the
    /// engine does, in front of an 8-slot ring that every blocking post
    /// drains.
    #[derive(Default)]
    struct Tally {
        blocking: AtomicU64,
        batched: AtomicU64,
        credit: AtomicU64,
        folded: AtomicU64,
        /// Events in the ring: batched ones not yet drained.
        occupancy: AtomicU64,
    }

    impl EventSink for Tally {
        fn post(&self, _ev: Event) -> Reply {
            self.blocking.fetch_add(1, Relaxed);
            self.occupancy.store(0, Relaxed);
            let folded = self.credit.swap(0, Relaxed);
            self.folded.store(folded, Relaxed);
            Reply::latency(3 + folded)
        }
        fn post_batched(&self, _ev: Event) {
            self.batched.fetch_add(1, Relaxed);
            self.occupancy.fetch_add(1, Relaxed);
            self.credit.fetch_add(3, Relaxed);
        }
        fn has_room(&self) -> bool {
            self.occupancy.load(Relaxed) + 1 < 8
        }
        fn folded(&self) -> Folded {
            Folded {
                user: 0,
                kernel: self.folded.load(Relaxed),
            }
        }
    }

    impl Tally {
        fn counts(&self) -> (u64, u64) {
            (self.blocking.load(Relaxed), self.batched.load(Relaxed))
        }
    }

    #[test]
    fn kernel_releases_batch_and_interrupt_releases_rendezvous() {
        let sink = Tally::default();
        let mut perf = KernelPerf::default();
        let mut kc =
            KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64).with_perf(&mut perf);
        kc.lock(VAddr(0xC000_0000));
        kc.unlock(VAddr(0xC000_0000));
        assert_eq!(
            sink.counts(),
            (1, 1),
            "the acquire blocks, the release joins the batch"
        );
        assert_eq!(kc.batch_pending(), 1);
        assert_eq!(
            kc.clock, 3,
            "a batched release's latency waits in the credit"
        );

        let sink = Tally::default();
        let mut perf = KernelPerf::default();
        let mut kc =
            KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Interrupt, 64).with_perf(&mut perf);
        kc.load(VAddr(0xC000_0000), 8);
        kc.unlock(VAddr(0xC000_0000));
        assert_eq!(
            sink.counts(),
            (1, 1),
            "the interrupt-mode release rendezvouses"
        );
        assert_eq!(kc.batch_pending(), 0, "and settles the daemon's clock");
    }

    #[test]
    fn a_batched_tail_is_charged_to_the_call_that_left_it() {
        let sink = Tally::default();
        let mut perf = KernelPerf::default();
        {
            let mut kc =
                KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64).with_perf(&mut perf);
            kc.load(VAddr(0xC000_0000), 8);
            assert_eq!(kc.end_call("first"), None, "no earlier tail");
            // Nothing rendezvoused since: the next call's first event
            // settles the tail on its own, so its folded kernel credit is
            // the tail.
            kc.load(VAddr(0xC000_0040), 8);
            let counts = sink.counts();
            assert_eq!(counts, (1, 1), "the first event after a tail rendezvouses");
            assert_eq!(kc.end_call("second"), Some(("first", 3)));
            assert_eq!(kc.excluded, 3, "the tail is not the second call's time");
            // A tail the process's own user-mode code folds is settled
            // at that rendezvous.
            kc.load(VAddr(0xC000_0080), 8);
            assert_eq!(kc.end_call("third"), None);
        }
        assert_eq!(perf.pending(), 1, "the third call's tail is unsettled");
        assert_eq!(perf.frontend_folded(3), Some(("third", 3)));
        assert_eq!(
            perf.pending(),
            0,
            "the process's rendezvous drained the ring"
        );
        assert_eq!(perf.frontend_folded(0), None, "no tail left");
    }

    #[test]
    fn kernel_events_share_the_ring_with_the_user_batch() {
        let sink = Tally::default();
        // The process left five user-mode events batched before its call.
        sink.occupancy.store(5, Relaxed);
        let mut perf = KernelPerf::default();
        let mut kc =
            KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64).with_perf(&mut perf);
        for i in 0..4 {
            kc.load(VAddr(0xC000_0000 + 64 * i), 8);
        }
        assert_eq!(
            sink.counts(),
            (1, 3),
            "two loads fill the ring, the third cuts it, the fourth batches again"
        );
        assert_eq!(kc.batch_pending(), 1, "only this context's own events");
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
