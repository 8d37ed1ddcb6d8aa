//! `CpuCtx`: the per-process execution context and instrumentation API.

use compass_comm::coro::enter_class;
use compass_comm::{
    Class, CtlOp, Event, EventBody, EventPort, ExecMode, MemRefKind, Reply, ReplyData, SyncOp,
};
use compass_isa::{BlockCost, CpuId, Cycles, InstClass, ProcessId, SegId, TimingModel};
use compass_mem::addr::HEAP_BASE;
use compass_mem::{ShmError, SimAlloc, VAddr};
use compass_obs::{Ctr, Obs, TraceKind, TraceRec};
use compass_os::{
    handlers, syscalls, EventSink, KernelCtx, KernelPerf, KernelShared, OsCall, PortSink, RawSink,
    SysResult,
};
use std::rc::Rc;
use std::sync::Arc;

/// Per-process frontend counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Events posted to the backend.
    pub events: u64,
    /// OS calls issued.
    pub os_calls: u64,
    /// Pseudo interrupts (§3.2): times the process found the interrupt
    /// request flag on a reply and ran the pending handlers itself.
    pub pseudo_irqs: u64,
    /// References suppressed by the simulation ON/OFF switch or the
    /// event-generation flag.
    pub suppressed_refs: u64,
}

enum Mode {
    /// Full simulation: user and kernel events go to the backend through
    /// the process's event port.
    Sim {
        port: PortSink,
        /// Run pseudo interrupts on the flag (§3.2). Off by default: the
        /// kernel daemon services interrupts.
        pseudo_irq: bool,
    },
    /// Raw execution: no events; kernel code runs silently.
    Raw,
}

/// The simulated process a workload runs on.
pub struct CpuCtx {
    /// This process.
    pub pid: ProcessId,
    mode: Mode,
    /// The kernel this process's OS calls run in, on its own task.
    kernel: Rc<KernelShared>,
    /// Batching state of the process's syscall-path kernel code.
    kperf: KernelPerf,
    /// The run's counters (posts, OS calls, pseudo interrupts) and trace
    /// (OS calls). Host time is ledgered by the executor that runs the
    /// process.
    obs: Obs,
    clock: Cycles,
    cpu: CpuId,
    timing: TimingModel,
    heap: SimAlloc,
    /// The simulation ON/OFF switch (§5): while off, the code is treated
    /// as uninstrumented — no events *and* no simulated time.
    sim_on: bool,
    /// The context-record event-generation flag (§4.1): while clear,
    /// memory references cost time but produce no events (signal
    /// handlers, static constructors).
    events_enabled: bool,
    /// Compute-only stretch bound: a Yield event is posted after this many
    /// un-evented cycles so the backend's clock bound keeps advancing.
    quantum: Cycles,
    last_event_clock: Cycles,
    stats: FrontendStats,
    started: bool,
    exited: bool,
}

/// A simulated application process body.
pub trait Process {
    /// Runs the process to completion on `cpu`.
    fn run(&mut self, cpu: &mut CpuCtx);
}

impl<F: FnMut(&mut CpuCtx)> Process for F {
    fn run(&mut self, cpu: &mut CpuCtx) {
        self(cpu)
    }
}

impl CpuCtx {
    /// Creates a fully simulated context posting on `port`, whose OS calls
    /// run in `kernel`.
    pub fn simulated(
        pid: ProcessId,
        port: Arc<EventPort>,
        kernel: Rc<KernelShared>,
        timing: TimingModel,
    ) -> Self {
        let mode = Mode::Sim {
            port: PortSink(port),
            pseudo_irq: false,
        };
        Self::new_inner(pid, mode, kernel, timing)
    }

    /// Creates a raw (uninstrumented-baseline) context around a functional
    /// kernel. Raw runs must be single-process: nothing arbitrates
    /// concurrent functional access.
    pub fn raw(pid: ProcessId, kernel: Rc<KernelShared>, timing: TimingModel) -> Self {
        Self::new_inner(pid, Mode::Raw, kernel, timing)
    }

    fn new_inner(
        pid: ProcessId,
        mode: Mode,
        kernel: Rc<KernelShared>,
        timing: TimingModel,
    ) -> Self {
        Self {
            pid,
            mode,
            kernel,
            kperf: KernelPerf::default(),
            obs: Obs::default(),
            clock: 0,
            cpu: CpuId(0),
            timing,
            heap: SimAlloc::new(VAddr(HEAP_BASE), VAddr(compass_mem::addr::HEAP_END)),
            sim_on: true,
            events_enabled: true,
            quantum: 20_000,
            last_event_clock: 0,
            stats: FrontendStats::default(),
            started: false,
            exited: false,
        }
    }

    /// Attaches the run's counter block and trace ring (setup time,
    /// before `start`).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Enables pseudo interrupts (§3.2's user-mode delivery path) instead
    /// of leaving everything to the kernel daemon. Pseudo-IRQ delivery
    /// checks every reply, so the runner gives such a process a one-slot
    /// port ring: every event rendezvouses.
    pub fn enable_pseudo_irq(&mut self) {
        if let Mode::Sim { pseudo_irq, .. } = &mut self.mode {
            *pseudo_irq = true;
        }
    }

    /// The process clock in cycles.
    pub fn clock(&self) -> Cycles {
        self.clock
    }

    /// The CPU the process last learned it was running on.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Frontend counters.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// The timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    // ------------------------------------------------------------------
    // Event plumbing
    // ------------------------------------------------------------------

    fn post(&mut self, body: EventBody) -> Reply {
        let Mode::Sim { port, pseudo_irq } = &self.mode else {
            return Reply::latency(0);
        };
        self.stats.events += 1;
        self.obs.inc(Ctr::FrontendPosts);
        // A poisoned port (the backend is gone: deadlock report or
        // teardown) unwinds the workload with SimAbort from here.
        let reply = port.post(Event {
            pid: self.pid,
            time: self.clock,
            body,
        });
        self.clock += reply.latency;
        self.last_event_clock = self.clock;
        // Only the first rendezvous after an OS call that left a batched
        // kernel tail folds kernel credit: it drains that tail.
        if self.kperf.pending() > 0 {
            if let Some((name, cycles)) = self.kperf.frontend_folded(port.folded().kernel) {
                self.kernel.stats.charge(name, cycles);
            }
        }
        if let ReplyData::Cpu { cpu } = reply.data {
            self.cpu = cpu;
        }
        // "We let the frontend process check the interrupt request flag
        // before returning from the IPC subroutine." (§3.2) The reply
        // carries the flag as of its simulated time.
        if reply.irq_pending && *pseudo_irq {
            self.pseudo_interrupt();
        }
        reply
    }

    /// Runs the pending interrupt handlers on this process's own task, in
    /// interrupt mode — §3.2's pseudo interrupt. No [`KernelPerf`]: the
    /// handlers' device-queue drains need an exact clock, so every event
    /// rendezvouses.
    fn pseudo_interrupt(&mut self) {
        let Mode::Sim { port, .. } = &self.mode else {
            return;
        };
        let _os = enter_class(Class::Os);
        self.stats.pseudo_irqs += 1;
        self.obs.inc(Ctr::OsPseudoIrqs);
        let gran = self.kernel.cfg.touch_gran;
        let mut kc = KernelCtx::new(self.pid, port, self.clock, ExecMode::Interrupt, gran);
        handlers::run_pending(&mut kc, &self.kernel);
        self.clock = kc.clock;
        self.last_event_clock = self.clock;
    }

    /// The batch-building fast path: publishes a memory reference or lock
    /// release — the events whose poster needs no answer — into the port
    /// ring without rendezvousing while the ring has room
    /// ([`EventPort::has_room`]: its capacity is the batch depth, and an
    /// OS call's batched kernel tail counts against it), falling back to
    /// a blocking [`Self::post`] on the batch's final event. A lock
    /// acquire, barrier or control event cuts the batch early; an OS call
    /// does not, so its kernel events queue behind the batch.
    /// The published time is the *raw* frontend clock — it lags
    /// effective simulated time by the latencies of the unreplied events
    /// ahead of it, which the backend repairs with its per-process credit
    /// (see the engine docs), so any depth produces the same results.
    /// `last_event_clock` still advances so the compute-quantum Yield
    /// triggers at the same points as at depth 1.
    fn post_mem(&mut self, body: EventBody) {
        if let Mode::Sim { port, .. } = &self.mode {
            if port.has_room() {
                self.stats.events += 1;
                self.obs.inc(Ctr::FrontendPosts);
                port.post_batched(Event {
                    pid: self.pid,
                    time: self.clock,
                    body,
                });
                self.last_event_clock = self.clock;
                return;
            }
        }
        self.post(body);
    }

    fn is_sim(&self) -> bool {
        matches!(self.mode, Mode::Sim { .. })
    }

    fn maybe_yield(&mut self) {
        if self.is_sim()
            && self.sim_on
            && self.started
            && self.clock - self.last_event_clock >= self.quantum
        {
            self.post(EventBody::Ctl(CtlOp::Yield));
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// First act of every process: announce to the backend and wait for a
    /// CPU (§3.3.2 assigns processors at start or queues the process).
    pub fn start(&mut self) {
        assert!(!self.started, "start() twice");
        self.started = true;
        self.post(EventBody::Ctl(CtlOp::Start));
    }

    /// Last act: release the CPU.
    pub fn exit(&mut self) {
        assert!(self.started && !self.exited, "exit() without start()");
        self.exited = true;
        self.post(EventBody::Ctl(CtlOp::Exit));
    }

    // ------------------------------------------------------------------
    // Instrumentation: time
    // ------------------------------------------------------------------

    /// Executes one basic block (the per-block inserted code of §2).
    pub fn block(&mut self, cost: BlockCost) {
        if self.sim_on {
            self.clock += cost.cycles;
            self.maybe_yield();
        }
    }

    /// Executes `n` instructions of class `c`.
    pub fn inst(&mut self, c: InstClass, n: u64) {
        if self.sim_on {
            self.clock += self.timing.cost_n(c, n);
            self.maybe_yield();
        }
    }

    /// Adds raw compute cycles.
    pub fn compute(&mut self, cycles: Cycles) {
        if self.sim_on {
            self.clock += cycles;
            self.maybe_yield();
        }
    }

    // ------------------------------------------------------------------
    // Instrumentation: memory references
    // ------------------------------------------------------------------

    fn mem_ref(&mut self, kind: MemRefKind, va: VAddr, size: u16) {
        if !self.sim_on {
            return;
        }
        self.clock += self.timing.cost(match kind {
            MemRefKind::Load => InstClass::Load,
            MemRefKind::Store => InstClass::Store,
            MemRefKind::Rmw => InstClass::Rmw,
        });
        if !self.events_enabled {
            self.stats.suppressed_refs += 1;
            return;
        }
        self.post_mem(EventBody::MemRef {
            kind,
            mode: ExecMode::User,
            vaddr: va,
            size,
        });
    }

    /// A load of `size` bytes.
    pub fn load(&mut self, va: VAddr, size: u16) {
        self.mem_ref(MemRefKind::Load, va, size);
    }

    /// A store of `size` bytes.
    pub fn store(&mut self, va: VAddr, size: u16) {
        self.mem_ref(MemRefKind::Store, va, size);
    }

    /// An atomic read-modify-write.
    pub fn rmw(&mut self, va: VAddr, size: u16) {
        self.mem_ref(MemRefKind::Rmw, va, size);
    }

    /// Touches `len` bytes, one reference per `gran` bytes (scans).
    pub fn touch_range(&mut self, base: VAddr, len: u32, gran: u32, write: bool) {
        let mut off = 0;
        while off < len {
            let sz = gran.min(len - off) as u16;
            if write {
                self.store(base + off, sz);
            } else {
                self.load(base + off, sz);
            }
            off += gran;
        }
    }

    // ------------------------------------------------------------------
    // Synchronisation
    // ------------------------------------------------------------------

    /// Acquires the simulated lock at `va` (sleeping when contended).
    pub fn lock(&mut self, va: VAddr) {
        if !self.sim_on {
            return;
        }
        self.clock += self.timing.cost(InstClass::Rmw);
        self.post(EventBody::Sync {
            op: SyncOp::LockAcquire,
            vaddr: va,
            mode: ExecMode::User,
        });
    }

    /// Releases the simulated lock at `va`. A release never waits, so it
    /// joins the batch like a memory reference: the critical section's
    /// writes precede it in host order, and the engine grants a waiter
    /// only when it pops the release, at the release's effective time.
    pub fn unlock(&mut self, va: VAddr) {
        if !self.sim_on {
            return;
        }
        self.clock += self.timing.cost(InstClass::Store);
        self.post_mem(EventBody::Sync {
            op: SyncOp::LockRelease,
            vaddr: va,
            mode: ExecMode::User,
        });
    }

    /// Waits at the `count`-party barrier at `va`.
    pub fn barrier(&mut self, va: VAddr, count: u16) {
        if !self.sim_on {
            return;
        }
        self.post(EventBody::Sync {
            op: SyncOp::Barrier { count },
            vaddr: va,
            mode: ExecMode::User,
        });
    }

    // ------------------------------------------------------------------
    // Simulated heap & shared memory (category 2, §3.3.1)
    // ------------------------------------------------------------------

    /// Allocates simulated private heap memory (malloc).
    pub fn malloc(&mut self, size: u32) -> VAddr {
        self.compute(40); // allocator cost
        self.heap.alloc(size).expect("simulated heap exhausted")
    }

    /// Frees simulated heap memory.
    pub fn free(&mut self, addr: VAddr, size: u32) {
        self.compute(30);
        self.heap.free(addr, size);
    }

    /// Allocates page-aligned simulated memory.
    pub fn malloc_pages(&mut self, size: u32) -> VAddr {
        self.compute(60);
        self.heap
            .alloc_pages(size)
            .expect("simulated heap exhausted")
    }

    /// `shmget(key, len)` (§3.3.1), returning simulated failures (frame
    /// exhaustion, window overflow) as an ENOMEM-style error the workload
    /// can handle — the backend no longer tears the run down for them.
    pub fn try_shmget(&mut self, key: u32, len: u32) -> Result<SegId, ShmError> {
        match self.post(EventBody::Ctl(CtlOp::ShmGet { key, len })).data {
            ReplyData::Shm { seg } => Ok(seg),
            ReplyData::ShmFail { err } => Err(err),
            // Raw mode: segments degenerate to private allocations.
            ReplyData::None => Ok(SegId(key)),
            // A malformed reply can only happen while the run is being
            // torn down; report it instead of panicking so simcheck
            // shrinking survives (ISSUE 8).
            _ => Err(ShmError::Protocol),
        }
    }

    /// `shmget(key, len)`; panics on simulated failure (workloads that
    /// treat exhaustion as a setup bug).
    pub fn shmget(&mut self, key: u32, len: u32) -> SegId {
        self.try_shmget(key, len)
            .unwrap_or_else(|e| panic!("shmget({key}, {len}) failed: {e}"))
    }

    /// `shmat(seg)`: returns the common attach base, or the simulated
    /// failure.
    pub fn try_shmat(&mut self, seg: SegId) -> Result<VAddr, ShmError> {
        match self.post(EventBody::Ctl(CtlOp::ShmAt { seg })).data {
            ReplyData::ShmBase { base } => Ok(base),
            ReplyData::ShmFail { err } => Err(err),
            ReplyData::None => Ok(VAddr(compass_mem::addr::SHM_BASE + seg.0 * 0x10_0000)),
            _ => Err(ShmError::Protocol),
        }
    }

    /// `shmat(seg)`; panics on simulated failure.
    pub fn shmat(&mut self, seg: SegId) -> VAddr {
        self.try_shmat(seg)
            .unwrap_or_else(|e| panic!("shmat({seg}) failed: {e}"))
    }

    /// `shmdt(seg)`, returning simulated failures.
    pub fn try_shmdt(&mut self, seg: SegId) -> Result<(), ShmError> {
        match self.post(EventBody::Ctl(CtlOp::ShmDt { seg })).data {
            ReplyData::ShmFail { err } => Err(err),
            _ => Ok(()),
        }
    }

    /// `shmdt(seg)`; panics on simulated failure.
    pub fn shmdt(&mut self, seg: SegId) {
        self.try_shmdt(seg)
            .unwrap_or_else(|e| panic!("shmdt({seg}) failed: {e}"))
    }

    // ------------------------------------------------------------------
    // OS stubs (§3.1) and control-flag management (§4.1)
    // ------------------------------------------------------------------

    /// Issues an OS call through the stub: the kernel code runs on this
    /// process's own task, posting kernel-mode events on its event port
    /// (raw mode runs the same code silently), and its host time books
    /// to the OS class of the ledger.
    pub fn os_call(&mut self, call: OsCall) -> SysResult {
        let _os = enter_class(Class::Os);
        self.stats.os_calls += 1;
        let sink: &dyn EventSink = match &self.mode {
            Mode::Sim { port, .. } => port,
            Mode::Raw => &RawSink,
        };
        let name = call.name();
        let start = self.clock;
        let gran = self.kernel.cfg.touch_gran;
        let mut kc = KernelCtx::new(self.pid, sink, start, ExecMode::Kernel, gran)
            .with_perf(&mut self.kperf);
        let result = syscalls::dispatch(&mut kc, &self.kernel, call);
        self.clock = kc.clock;
        self.last_event_clock = self.clock;
        if let Some(c) = &self.obs.counters {
            c.inc(Ctr::OsCalls);
            if self.kperf.take_batched_any() {
                c.inc(Ctr::OsBatchedReplies);
            }
        }
        self.obs.trace(TraceRec {
            a: start,
            b: self.clock - start,
            tag: name,
            ..TraceRec::new(start, self.pid.0, TraceKind::OsCall)
        });
        result
    }

    /// `mmap(path, len)`: allocates a region in the process's simulated
    /// space, asks the kernel to build the mapping, and registers the
    /// region with the backend's VM (the stub half of the paper's split:
    /// mmap is a category-1 call whose page tables are category-2 state).
    pub fn mmap(&mut self, path: &str, len: u32) -> Result<VAddr, compass_os::Errno> {
        let region = self.malloc_pages(len);
        match self.os_call(OsCall::Mmap {
            path: path.to_string(),
            len,
            region,
        })? {
            compass_os::SysVal::Int(_) => {}
            // A malformed reply shape is a teardown-time protocol
            // violation; surface it as EINVAL instead of panicking.
            _ => return Err(compass_os::Errno::Inval),
        }
        self.post(EventBody::Ctl(CtlOp::MapRegion {
            base: region,
            len,
            shared: false,
        }));
        Ok(region)
    }

    /// `munmap(region, len)`.
    pub fn munmap(&mut self, region: VAddr, len: u32) -> Result<(), compass_os::Errno> {
        self.os_call(OsCall::Munmap { region, len })?;
        self.post(EventBody::Ctl(CtlOp::UnmapRegion { base: region, len }));
        Ok(())
    }

    /// The simulation ON/OFF switch: "The ON/OFF switch can be inserted
    /// anywhere in the application (or OS server) code to selectively
    /// disable instrumentation of uninteresting parts of the code." (§5)
    pub fn sim_off(&mut self) {
        self.sim_on = false;
    }

    /// Re-enables instrumentation.
    pub fn sim_on(&mut self) {
        self.sim_on = true;
    }

    /// Runs `f` as a signal handler under the non-augmented wrapper of
    /// §4.1: events are disabled around it (time still accrues).
    pub fn with_signal_wrapper<R>(&mut self, f: impl FnOnce(&mut CpuCtx) -> R) -> R {
        let saved = self.events_enabled;
        self.events_enabled = false;
        let r = f(self);
        self.events_enabled = saved;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_comm::DevShared;
    use compass_os::{KernelConfig, KernelShared};

    fn raw_ctx() -> CpuCtx {
        let kernel = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
        CpuCtx::raw(ProcessId(0), kernel, TimingModel::powerpc_604())
    }

    #[test]
    fn block_costs_advance_the_clock() {
        let mut c = raw_ctx();
        c.start();
        c.block(BlockCost::of_cycles(10));
        c.inst(InstClass::FpMul, 2);
        assert_eq!(c.clock(), 10 + 6);
    }

    #[test]
    fn sim_off_stops_time_and_events() {
        let mut c = raw_ctx();
        c.start();
        c.sim_off();
        c.block(BlockCost::of_cycles(1000));
        c.load(VAddr(HEAP_BASE), 4);
        assert_eq!(c.clock(), 0);
        c.sim_on();
        c.load(VAddr(HEAP_BASE), 4);
        assert_eq!(c.clock(), 1, "load address generation costs a cycle");
    }

    #[test]
    fn signal_wrapper_suppresses_events_but_not_time() {
        let mut c = raw_ctx();
        c.start();
        c.with_signal_wrapper(|c| {
            c.load(VAddr(HEAP_BASE), 4);
        });
        assert_eq!(c.stats().suppressed_refs, 1);
        assert_eq!(c.clock(), 1);
        // Events re-enabled after.
        c.load(VAddr(HEAP_BASE), 4);
        assert_eq!(c.stats().suppressed_refs, 1);
    }

    #[test]
    fn raw_os_calls_work_inline() {
        let kernel = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
        kernel.create_file("/t", compass_os::fs::FileData::Synthetic { len: 100 });
        let mut c = CpuCtx::raw(ProcessId(0), kernel, TimingModel::powerpc_604());
        c.start();
        let buf = c.malloc(128);
        let fd = match c.os_call(OsCall::Open {
            path: "/t".into(),
            create: false,
        }) {
            Ok(compass_os::SysVal::NewFd(fd)) => fd,
            other => panic!("{other:?}"),
        };
        let data = match c.os_call(OsCall::Read { fd, len: 10, buf }) {
            Ok(compass_os::SysVal::Data(d)) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(data.len(), 10);
        assert!(c.clock() > 0, "kernel code costs time even in raw mode");
        assert_eq!(c.stats().os_calls, 2);
        c.exit();
    }

    #[test]
    fn malloc_returns_heap_addresses() {
        let mut c = raw_ctx();
        c.start();
        let a = c.malloc(64);
        let b = c.malloc(64);
        assert_ne!(a, b);
        assert_eq!(a.region(), compass_mem::Region::Heap);
    }

    #[test]
    fn touch_range_counts_granules() {
        let mut c = raw_ctx();
        c.start();
        let base = c.malloc_pages(4096);
        let before = c.clock();
        c.touch_range(base, 4096, 64, false);
        // 64 loads @ 1 cycle each (raw latency 0).
        assert_eq!(c.clock() - before, 64);
    }

    #[test]
    #[should_panic(expected = "start() twice")]
    fn double_start_panics() {
        let mut c = raw_ctx();
        c.start();
        c.start();
    }
}
