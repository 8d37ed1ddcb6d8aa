//! The OS server: shared kernel state, the OS-thread pool, the pairing
//! protocol, and the bottom-half kernel daemon.
//!
//! "Upon starting, the OS server spawns a pool of *OS threads*. … Initially
//! all OS threads are said to be in the 'single' state because they are
//! not bound to any user process. Each thread monitors its own OS port,
//! waiting for a *connection request* from a frontend process." (§3.1)
//!
//! OS threads and the daemon are tasks on the backend's executor
//! ([`compass_comm::coro`]); they block only in their OS port and event
//! port, and never while holding a host lock on kernel state.

use crate::bufcache::BufCache;
use crate::fs::{FdTables, FileData, FileSystem};
use crate::handlers;
use crate::kctx::{KernelCtx, KernelPerf, PortSink};
use crate::kmem::KernelHeap;
use crate::net::NetState;
use crate::proto::{Errno, OsCall, OsMsg, OsRet, SysResult, SysVal};
use crate::syscalls;
use crate::waitq::{Chan, WaitQueues};
use compass_comm::{
    BlockReason, Class, CtlOp, DevShared, Event, EventBody, EventPort, ExecMode, Executor,
    ReplyData, ReqPort, SimAbort,
};
use compass_isa::{Cycles, DiskId, ProcessId};
use compass_mem::{VAddr, KERNEL_BASE};
use compass_obs::{CounterBlock, Ctr, TraceHandle, TraceKind, TraceRec};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Observability hooks shared by every OS thread and the daemon. All
/// fields optional: the default is fully disabled, costing one branch per
/// hook site.
#[derive(Clone, Default)]
pub struct OsObs {
    /// OS-call / pseudo-IRQ counters.
    pub counters: Option<Arc<CounterBlock>>,
    /// Coarse trace records (one per completed OS call).
    pub trace: Option<TraceHandle>,
}

/// Simulated addresses of the kernel's global locks.
pub mod locks {
    use compass_mem::{VAddr, KERNEL_BASE};

    /// Buffer-cache lock.
    pub const BUF: VAddr = VAddr(KERNEL_BASE + 0x100);
    /// Network-stack lock.
    pub const NET: VAddr = VAddr(KERNEL_BASE + 0x140);
    /// File-table / namespace lock.
    pub const FILETAB: VAddr = VAddr(KERNEL_BASE + 0x180);
    /// Kernel-heap lock.
    pub const KMEM: VAddr = VAddr(KERNEL_BASE + 0x1C0);
    /// Interrupt-dispatch lock (serialises postbox drains so pseudo
    /// interrupts and the kernel daemon stay deterministic).
    pub const INTR: VAddr = VAddr(KERNEL_BASE + 0x200);
}

/// Simulated address of process `pid`'s descriptor-table area; entry
/// touches land at `+ fd*16`.
pub fn fd_table_addr(pid: ProcessId, fd: u32) -> VAddr {
    VAddr(KERNEL_BASE + 0x1_0000 + (pid.0 % 256) * 0x400 + fd * 16)
}

/// Kernel cost parameters (cycles on the 133 MHz target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Bytes per simulated touch in block moves.
    pub touch_gran: u32,
    /// Buffer-cache size in buffers.
    pub nbufs: usize,
    /// TCP maximum segment size.
    pub mss: u32,
    /// Software-checksum cycles per byte (×100).
    pub checksum_per_byte_x100: u64,
    /// TCP protocol processing per segment.
    pub tcp_per_packet: Cycles,
    /// IP + Ethernet processing per segment.
    pub ip_per_packet: Cycles,
    /// Disk interrupt handler fixed cost.
    pub disk_intr: Cycles,
    /// Ethernet interrupt handler fixed cost (per frame).
    pub ether_intr: Cycles,
    /// Timer interrupt handler fixed cost.
    pub timer_intr: Cycles,
    /// Path-lookup cost per path byte.
    pub path_per_byte: Cycles,
    /// Select scan cost per descriptor.
    pub select_per_fd: Cycles,
    /// Number of simulated disks (files stripe across them).
    pub ndisks: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            touch_gran: 64,
            nbufs: 256,
            mss: 1460,
            checksum_per_byte_x100: 50,
            tcp_per_packet: 3_000,
            ip_per_packet: 1_200,
            disk_intr: 3_500,
            ether_intr: 1_500,
            timer_intr: 1_200,
            path_per_byte: 18,
            select_per_fd: 90,
            ndisks: 2,
        }
    }
}

/// Per-syscall time accounting (count, cycles) — the data behind the
/// paper's claim that "about 42% [of kernel time] is spent in a handful of
/// OS calls".
#[derive(Debug, Default)]
pub struct SyscallStats {
    inner: Mutex<HashMap<&'static str, (u64, u64)>>,
}

impl SyscallStats {
    /// Records one call.
    pub fn record(&self, name: &'static str, cycles: Cycles) {
        let mut g = self.inner.lock();
        let e = g.entry(name).or_insert((0, 0));
        e.0 += 1;
        e.1 += cycles;
    }

    /// Adds cycles to an already recorded call (its batched tail, folded
    /// after it returned).
    pub fn charge(&self, name: &'static str, cycles: Cycles) {
        self.inner.lock().entry(name).or_insert((0, 0)).1 += cycles;
    }

    /// Snapshot sorted by cycles, descending.
    pub fn snapshot(&self) -> Vec<(String, u64, u64)> {
        let mut v: Vec<(String, u64, u64)> = self
            .inner
            .lock()
            .iter()
            .map(|(&k, &(c, cy))| (k.to_string(), c, cy))
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        v
    }

    /// Total cycles across all calls.
    pub fn total_cycles(&self) -> Cycles {
        self.inner.lock().values().map(|&(_, cy)| cy).sum()
    }
}

/// The shared kernel: configuration, simulated heap, functional
/// subsystems, wait queues, statistics. One instance is shared by every
/// OS thread and the kernel daemon — the simulated kernel address space.
pub struct KernelShared {
    /// Cost parameters.
    pub cfg: KernelConfig,
    /// Simulated kernel heap.
    pub heap: KernelHeap,
    /// Filesystem (namespace + inodes).
    pub fs: Mutex<FileSystem>,
    /// Per-process descriptor tables.
    pub fds: Mutex<FdTables>,
    /// The buffer cache.
    pub bufs: Mutex<BufCache>,
    /// The network stack.
    pub net: Mutex<NetState>,
    /// Sleep/wakeup channels.
    pub waitq: WaitQueues,
    /// Per-syscall accounting.
    pub stats: SyscallStats,
    /// The device postbox (shared with the backend).
    pub devshared: Arc<DevShared>,
    next_token: AtomicU32,
    tokens: Mutex<HashMap<u32, TokenInfo>>,
    /// Interrupt-handler cycles by source `[disk, net, timer]`.
    pub intr_cycles: [std::sync::atomic::AtomicU64; 3],
    /// Bytes written to files through `write`/`writev` paths. An
    /// architecture-independent quantity: simcheck's metamorphic checks
    /// assert it is invariant across scheduler/placement/cache knobs.
    pub fs_write_bytes: std::sync::atomic::AtomicU64,
    /// The first device-queue drain (or raw daemon `Block`) that ran with
    /// batched kernel events still unsettled — see
    /// [`KernelShared::check_settled`].
    unsettled: Mutex<Option<String>>,
}

/// What a disk-completion token refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenInfo {
    /// Wait channel to wake (buffer header), `Chan(0)` for fire-and-forget
    /// eviction writebacks.
    pub chan: Chan,
    /// The buffer tag the transfer was for.
    pub tag: (u64, u64),
}

impl KernelShared {
    /// Creates the kernel around a device postbox.
    pub fn new(cfg: KernelConfig, devshared: Arc<DevShared>) -> Arc<Self> {
        let heap = KernelHeap::new();
        let bufs = BufCache::new(cfg.nbufs, &heap);
        Arc::new(Self {
            cfg,
            heap,
            fs: Mutex::new(FileSystem::new()),
            fds: Mutex::new(FdTables::new()),
            bufs: Mutex::new(bufs),
            net: Mutex::new(NetState::new()),
            waitq: WaitQueues::new(),
            stats: SyscallStats::default(),
            devshared,
            next_token: AtomicU32::new(1),
            tokens: Mutex::new(HashMap::new()),
            intr_cycles: Default::default(),
            fs_write_bytes: std::sync::atomic::AtomicU64::new(0),
            unsettled: Mutex::new(None),
        })
    }

    /// Pre-simulation file population (the SPECWeb file-set generator,
    /// database loads): not simulated, purely functional.
    pub fn create_file(&self, path: &str, data: FileData) -> u64 {
        let kaddr = self.heap.alloc(256); // in-kernel inode
        self.fs.lock().create(path, data, kaddr)
    }

    /// Which disk a file lives on (striped by inode).
    pub fn disk_for(&self, inode: u64) -> DiskId {
        DiskId((inode % self.cfg.ndisks as u64) as u16)
    }

    /// Registers a disk-completion token.
    pub fn new_token(&self, info: TokenInfo) -> u32 {
        let t = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.tokens.lock().insert(t, info);
        t
    }

    /// Consumes a token at completion time.
    pub fn take_token(&self, token: u32) -> Option<TokenInfo> {
        self.tokens.lock().remove(&token)
    }

    /// Adds interrupt-handler cycles for reporting.
    pub fn add_intr_cycles(&self, source: usize, cycles: Cycles) {
        self.intr_cycles[source].fetch_add(cycles, Ordering::Relaxed);
    }

    /// The settled-at-drain invariant: interrupt code may only drain the
    /// device queues `until(clock)` (or post a raw `Block`) while no
    /// batched kernel event is outstanding, i.e. while its clock equals
    /// effective simulated time. A violation would make the drained set
    /// depend on batching; the first one is recorded here and the runner
    /// reports it as an error.
    pub fn check_settled(&self, kc: &KernelCtx<'_>, site: &str) {
        let pending = kc.batch_pending();
        if pending != 0 {
            self.unsettled.lock().get_or_insert_with(|| {
                format!(
                    "{site} by {} at clock {} with {pending} batched kernel events unsettled",
                    kc.pid, kc.clock
                )
            });
        }
    }

    /// The first settled-at-drain violation, if any.
    pub fn unsettled(&self) -> Option<String> {
        self.unsettled.lock().clone()
    }
}

/// A frontend's handle to its paired OS thread.
pub struct OsConn {
    port: Arc<ReqPort<OsMsg, OsRet>>,
}

impl OsConn {
    /// Issues a system call; returns the advanced clock and the result.
    /// `folded` is the kernel batch credit the caller's blocking replies
    /// folded since its last call returned (`None`: no rendezvous since).
    pub fn call(&self, clock: Cycles, folded: Option<Cycles>, call: OsCall) -> (Cycles, SysResult) {
        match self.port.call(OsMsg::Call {
            clock,
            folded,
            call,
        }) {
            OsRet::Done { clock, result } => (clock, result),
            other => panic!("unexpected OS reply {other:?}"),
        }
    }

    /// Issues several adjacent system calls in one port crossing (ISSUE
    /// 6): one request, one aggregated reply. Only valid when no user
    /// event separates the calls — the simulated timeline is then
    /// identical to issuing them one at a time.
    pub fn call_batch(
        &self,
        clock: Cycles,
        folded: Option<Cycles>,
        calls: Vec<OsCall>,
    ) -> (Cycles, Vec<SysResult>) {
        match self.port.call(OsMsg::CallBatch {
            clock,
            folded,
            calls,
        }) {
            OsRet::DoneBatch { clock, results } => (clock, results),
            other => panic!("unexpected OS reply {other:?}"),
        }
    }

    /// Forwards a pseudo interrupt request (§3.2).
    pub fn pseudo_irq(&self, clock: Cycles) -> Cycles {
        match self.port.call(OsMsg::PseudoIrq { clock }) {
            OsRet::Done { clock, .. } => clock,
            other => panic!("unexpected OS reply {other:?}"),
        }
    }

    /// Unpairs on process exit, reporting the kernel batch credit folded
    /// since the last call.
    pub fn exit(&self, folded: Cycles) {
        match self.port.call(OsMsg::Exit { folded }) {
            OsRet::Bye => {}
            other => panic!("unexpected OS reply {other:?}"),
        }
    }
}

struct ThreadSlot {
    port: Arc<ReqPort<OsMsg, OsRet>>,
    busy: AtomicBool,
}

/// The OS server: the OS-thread pool's ports plus the shared kernel.
pub struct OsServer {
    kernel: Arc<KernelShared>,
    slots: Vec<ThreadSlot>,
    obs: OsObs,
}

impl OsServer {
    /// Starts `nthreads` OS threads around `kernel` as tasks on `exec`,
    /// with observability hooks. Each OS thread batches its syscall-path
    /// kernel events with fresh [`KernelPerf`] state per pairing, as deep
    /// as its companion's port ring allows (see [`os_thread_main`]).
    pub fn start(
        kernel: Arc<KernelShared>,
        nthreads: usize,
        obs: OsObs,
        exec: &mut Executor,
    ) -> Arc<Self> {
        assert!(nthreads > 0);
        let slots: Vec<ThreadSlot> = (0..nthreads)
            .map(|_| ThreadSlot {
                port: Arc::new(ReqPort::new()),
                busy: AtomicBool::new(false),
            })
            .collect();
        for slot in &slots {
            let port = Arc::clone(&slot.port);
            let k = Arc::clone(&kernel);
            let o = obs.clone();
            exec.spawn(Class::Os, obs.counters.clone(), move || {
                os_thread_main(port, k, o)
            });
        }
        Arc::new(Self { kernel, slots, obs })
    }

    /// The shared kernel.
    pub fn kernel(&self) -> &Arc<KernelShared> {
        &self.kernel
    }

    /// The observability hooks the server was started with.
    pub fn obs(&self) -> &OsObs {
        &self.obs
    }

    /// Pairs a frontend process with a "single" OS thread (§3.1).
    pub fn connect(&self, pid: ProcessId, event_port: Arc<EventPort>) -> OsConn {
        for slot in &self.slots {
            if slot
                .busy
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                match slot.port.call(OsMsg::Connect {
                    pid,
                    port: event_port,
                }) {
                    OsRet::Connected => {
                        return OsConn {
                            port: Arc::clone(&slot.port),
                        }
                    }
                    other => panic!("pairing failed: {other:?}"),
                }
            }
        }
        panic!("no single OS thread available: pool too small");
    }

    /// Starts the bottom-half kernel daemon on its own event port, as a
    /// task on `exec`. "Dedicated threads can be scheduled to simulate
    /// bottom half kernel activities." (§3.1)
    ///
    /// The daemon's interrupt context batches as deep as `port`'s ring:
    /// handler drains run `until(kc.clock)`, which the batching protocol's
    /// settled-at-drain invariant keeps exact.
    pub fn start_daemon(&self, daemon_pid: ProcessId, port: Arc<EventPort>, exec: &mut Executor) {
        let k = Arc::clone(&self.kernel);
        exec.spawn(Class::BottomHalf, self.obs.counters.clone(), move || {
            daemon_main(daemon_pid, port, k)
        });
    }
}

/// Runs simulated kernel code, turning a [`SimAbort`] unwind (poisoned
/// event port — the backend is gone) into `Err(Errno::Aborted)` so the OS
/// thread survives to answer its caller. Real panics propagate.
fn absorb_abort<R>(f: impl FnOnce() -> R) -> Result<R, Errno> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => {
            if payload.downcast_ref::<SimAbort>().is_some() {
                Err(Errno::Aborted)
            } else {
                resume_unwind(payload)
            }
        }
    }
}

/// Charges a batched tail settled after its call returned to that call.
fn charge_settled(kernel: &KernelShared, settled: Option<(&'static str, Cycles)>) {
    if let Some((name, cycles)) = settled {
        kernel.stats.charge(name, cycles);
    }
}

/// One OS thread: waits for pairing, then serves calls until Exit, then
/// returns to "single". It runs until its task is cancelled at teardown.
///
/// Its [`KernelPerf`] batches kernel-mode events for the **syscall path
/// only**: pseudo IRQs run interrupt handlers whose postbox drains depend
/// on the authoritative clock, so they keep the per-event protocol (the
/// daemon batches in its own context, see [`daemon_main`]).
fn os_thread_main(port: Arc<ReqPort<OsMsg, OsRet>>, kernel: Arc<KernelShared>, obs: OsObs) {
    let mut paired: Option<(ProcessId, Arc<EventPort>)> = None;
    let mut perf = KernelPerf::default();
    loop {
        match port.recv() {
            OsMsg::Connect { pid, port: eport } => {
                debug_assert!(paired.is_none(), "connect to a paired OS thread");
                paired = Some((pid, eport));
                // Fresh batching state per pairing: a new process shares
                // nothing with the previous tenant.
                perf = KernelPerf::default();
                port.respond(OsRet::Connected);
            }
            OsMsg::Call {
                clock,
                folded,
                call,
            } => {
                let (pid, eport) = paired.as_ref().expect("call before pairing");
                let sink = PortSink(Arc::clone(eport));
                charge_settled(&kernel, perf.frontend_folded(folded));
                let mut kc =
                    KernelCtx::new(*pid, &sink, clock, ExecMode::Kernel, kernel.cfg.touch_gran)
                        .with_perf(&mut perf);
                if let Some(c) = &obs.counters {
                    c.inc(Ctr::OsCalls);
                }
                let name = call.name();
                let result = match absorb_abort(|| syscalls::dispatch(&mut kc, &kernel, call)) {
                    Ok(r) => r,
                    Err(e) => Err(e),
                };
                let end_clock = kc.clock;
                if perf.take_batched_any() {
                    if let Some(c) = &obs.counters {
                        c.inc(Ctr::OsBatchedReplies);
                    }
                }
                if let Some(t) = &obs.trace {
                    if t.wants(TraceKind::OsCall) {
                        let mut r = TraceRec::new(clock, pid.0, TraceKind::OsCall);
                        r.a = clock;
                        r.b = end_clock.saturating_sub(clock);
                        r.tag = name;
                        t.record(r);
                    }
                }
                port.respond(OsRet::Done {
                    clock: end_clock,
                    result,
                });
            }
            OsMsg::CallBatch {
                clock,
                folded,
                calls,
            } => {
                let (pid, eport) = paired.as_ref().expect("call before pairing");
                let sink = PortSink(Arc::clone(eport));
                charge_settled(&kernel, perf.frontend_folded(folded));
                let mut kc =
                    KernelCtx::new(*pid, &sink, clock, ExecMode::Kernel, kernel.cfg.touch_gran)
                        .with_perf(&mut perf);
                let n = calls.len() as u64;
                if let Some(c) = &obs.counters {
                    c.add(Ctr::OsCalls, n);
                }
                let mut results = Vec::with_capacity(calls.len());
                for call in calls {
                    let name = call.name();
                    let start = kc.clock;
                    let result = match absorb_abort(|| syscalls::dispatch(&mut kc, &kernel, call)) {
                        Ok(r) => r,
                        Err(e) => Err(e),
                    };
                    if let Some(t) = &obs.trace {
                        if t.wants(TraceKind::OsCall) {
                            let mut r = TraceRec::new(start, pid.0, TraceKind::OsCall);
                            r.a = start;
                            r.b = kc.clock.saturating_sub(start);
                            r.tag = name;
                            t.record(r);
                        }
                    }
                    results.push(result);
                }
                let end_clock = kc.clock;
                let mut coalesced = n.saturating_sub(1);
                if perf.take_batched_any() {
                    coalesced += 1;
                }
                if coalesced > 0 {
                    if let Some(c) = &obs.counters {
                        c.add(Ctr::OsBatchedReplies, coalesced);
                    }
                }
                port.respond(OsRet::DoneBatch {
                    clock: end_clock,
                    results,
                });
            }
            OsMsg::PseudoIrq { clock } => {
                let (pid, eport) = paired.as_ref().expect("irq before pairing");
                let sink = PortSink(Arc::clone(eport));
                let mut kc = KernelCtx::new(
                    *pid,
                    &sink,
                    clock,
                    ExecMode::Interrupt,
                    kernel.cfg.touch_gran,
                );
                if let Some(c) = &obs.counters {
                    c.inc(Ctr::OsPseudoIrqs);
                }
                let result = match absorb_abort(|| handlers::run_pending(&mut kc, &kernel)) {
                    Ok(()) => Ok(SysVal::Unit),
                    Err(e) => Err(e),
                };
                port.respond(OsRet::Done {
                    clock: kc.clock,
                    result,
                });
            }
            OsMsg::Exit { folded } => {
                // The exit rendezvous folded the last call's tail.
                charge_settled(&kernel, perf.frontend_folded(Some(folded)));
                paired = None;
                port.respond(OsRet::Bye);
            }
        }
    }
}

/// The bottom-half daemon: blocks until the backend signals device work,
/// drains the postbox through the interrupt handlers, blocks again.
///
/// The handlers' kernel memory references ride the batched-event
/// protocol instead of rendezvousing one at a time. This is
/// safe in interrupt mode because every device-queue drain and every raw
/// `Block` post below happens at a settled point (`batch_pending == 0`):
/// each handler body ends in blocking unlock/unblock posts that fold
/// outstanding credit, so the daemon's clock is exact whenever it matters.
fn daemon_main(pid: ProcessId, port: Arc<EventPort>, kernel: Arc<KernelShared>) {
    // A poisoned port makes any kernel post unwind with SimAbort; the
    // daemon treats that like Shutdown — the backend is gone.
    let _ = absorb_abort(move || {
        let mut perf = KernelPerf::default();
        let sink = PortSink(port);
        let mut kc = KernelCtx::new(pid, &sink, 0, ExecMode::Interrupt, kernel.cfg.touch_gran)
            .with_perf(&mut perf);
        // Announce ourselves to the backend.
        let r = sink.0.post(Event {
            pid,
            time: 0,
            body: EventBody::Ctl(CtlOp::Start),
        });
        kc.clock += r.latency;
        loop {
            // The raw post below bypasses the kernel context's perf
            // bookkeeping, which is only sound while nothing is pending.
            kernel.check_settled(&kc, "daemon Block");
            let r = sink.0.post(Event {
                pid,
                time: kc.clock,
                body: EventBody::Ctl(CtlOp::Block {
                    reason: BlockReason::BottomHalf,
                }),
            });
            if matches!(r.data, ReplyData::Shutdown | ReplyData::Aborted) {
                return;
            }
            kc.clock += r.latency;
            handlers::run_pending(&mut kc, &kernel);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_addresses_are_distinct_kernel_words() {
        let all = [
            locks::BUF,
            locks::NET,
            locks::FILETAB,
            locks::KMEM,
            locks::INTR,
        ];
        let mut seen = std::collections::HashSet::new();
        for a in all {
            assert!(a.is_kernel());
            assert!(a.0 < crate::kmem::KERNEL_HEAP_BASE);
            assert!(seen.insert(a));
        }
    }

    #[test]
    fn fd_table_addresses_stay_in_static_area() {
        let a = fd_table_addr(ProcessId(255), 63);
        assert!(a.is_kernel());
        assert!(a.0 < crate::kmem::KERNEL_HEAP_BASE);
        assert_ne!(
            fd_table_addr(ProcessId(0), 0),
            fd_table_addr(ProcessId(1), 0)
        );
    }

    #[test]
    fn syscall_stats_sort_by_cycles() {
        let s = SyscallStats::default();
        s.record("kreadv", 100);
        s.record("kreadv", 50);
        s.record("send", 500);
        let snap = s.snapshot();
        assert_eq!(snap[0].0, "send");
        assert_eq!(snap[1], ("kreadv".to_string(), 2, 150));
        assert_eq!(s.total_cycles(), 650);
    }

    #[test]
    fn tokens_roundtrip() {
        let k = KernelShared::new(KernelConfig::default(), Arc::new(DevShared::new()));
        let t = k.new_token(TokenInfo {
            chan: Chan(5),
            tag: (1, 2),
        });
        assert_eq!(
            k.take_token(t),
            Some(TokenInfo {
                chan: Chan(5),
                tag: (1, 2)
            })
        );
        assert_eq!(k.take_token(t), None);
    }

    #[test]
    fn files_stripe_across_disks() {
        let k = KernelShared::new(KernelConfig::default(), Arc::new(DevShared::new()));
        assert_ne!(k.disk_for(0), k.disk_for(1));
        assert_eq!(k.disk_for(0), k.disk_for(2));
    }
}
