//! The OS server: shared kernel state and the bottom-half kernel daemon.
//!
//! "Upon starting, the OS server spawns a pool of *OS threads*. … Initially
//! all OS threads are said to be in the 'single' state because they are
//! not bound to any user process." (§3.1) The paper pairs each process
//! with an OS thread because its frontends were separate UNIX processes.
//! Here every simulated entity is a task on the backend's executor
//! ([`compass_comm::coro`]), so a process runs its system calls and
//! pseudo interrupts on its own task (`CpuCtx::os_call`) over the same
//! [`KernelShared`], and there is no pool and no pairing. The daemon is
//! the one kernel task of its own; it blocks only in its event port, and
//! never while holding a borrow of kernel state.

use crate::bufcache::BufCache;
use crate::fs::{FdTables, FileData, FileSystem};
use crate::handlers;
use crate::kctx::{KernelCtx, KernelPerf, PortSink};
use crate::kmem::KernelHeap;
use crate::net::NetState;
use crate::waitq::{Chan, WaitQueues};
use compass_comm::{
    BlockReason, Class, CtlOp, DevShared, Event, EventBody, EventPort, ExecMode, Executor,
    ReplyData, SimAbort,
};
use compass_isa::{Cycles, DiskId, ProcessId};
use compass_mem::{VAddr, KERNEL_BASE};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    inner: RefCell<HashMap<&'static str, (u64, u64)>>,
}

impl SyscallStats {
    /// Records one call.
    pub fn record(&self, name: &'static str, cycles: Cycles) {
        let mut g = self.inner.borrow_mut();
        let e = g.entry(name).or_insert((0, 0));
        e.0 += 1;
        e.1 += cycles;
    }

    /// Adds cycles to an already recorded call (its batched tail, folded
    /// after it returned).
    pub fn charge(&self, name: &'static str, cycles: Cycles) {
        self.inner.borrow_mut().entry(name).or_insert((0, 0)).1 += cycles;
    }

    /// Snapshot sorted by cycles, descending.
    pub fn snapshot(&self) -> Vec<(String, u64, u64)> {
        let mut v: Vec<(String, u64, u64)> = self
            .inner
            .borrow()
            .iter()
            .map(|(&k, &(c, cy))| (k.to_string(), c, cy))
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        v
    }
}

/// The shared kernel: configuration, simulated heap, functional
/// subsystems, wait queues, statistics. One instance is shared by every
/// process's kernel code and the kernel daemon — the simulated kernel
/// address space.
///
/// All of them are tasks on the one thread that runs the simulation, so
/// the subsystems sit in `RefCell`s and the kernel is shared through an
/// `Rc`. Simulated kernel locks order the accesses; a borrow only keeps
/// Rust's aliasing rules, and must end before the next post: a borrow
/// still held when another task borrows the same field panics, and
/// `SimBuilder::try_run` re-raises that panic.
pub struct KernelShared {
    /// Cost parameters.
    pub cfg: KernelConfig,
    /// Simulated kernel heap.
    pub heap: KernelHeap,
    /// Filesystem (namespace + inodes).
    pub fs: RefCell<FileSystem>,
    /// Per-process descriptor tables.
    pub fds: RefCell<FdTables>,
    /// The buffer cache.
    pub bufs: RefCell<BufCache>,
    /// The network stack.
    pub net: RefCell<NetState>,
    /// Sleep/wakeup channels.
    pub waitq: WaitQueues,
    /// Per-syscall accounting.
    pub stats: SyscallStats,
    /// The device postbox (shared with the backend).
    pub devshared: Rc<DevShared>,
    next_token: Cell<u32>,
    tokens: RefCell<HashMap<u32, TokenInfo>>,
    /// Interrupt-handler cycles by source `[disk, net, timer]`.
    pub intr_cycles: Cell<[Cycles; 3]>,
    /// Bytes written to files through `write`/`writev` paths. An
    /// architecture-independent quantity: simcheck's metamorphic checks
    /// assert it is invariant across scheduler/placement/cache knobs.
    pub fs_write_bytes: Cell<u64>,
    /// The first device-queue drain (or raw daemon `Block`) that ran with
    /// batched kernel events still unsettled — see
    /// [`KernelShared::check_settled`].
    unsettled: RefCell<Option<String>>,
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
    pub fn new(cfg: KernelConfig, devshared: Rc<DevShared>) -> Rc<Self> {
        let heap = KernelHeap::new();
        let bufs = BufCache::new(cfg.nbufs, &heap);
        Rc::new(Self {
            cfg,
            heap,
            fs: RefCell::new(FileSystem::new()),
            fds: RefCell::new(FdTables::new()),
            bufs: RefCell::new(bufs),
            net: RefCell::new(NetState::new()),
            waitq: WaitQueues::new(),
            stats: SyscallStats::default(),
            devshared,
            next_token: Cell::new(1),
            tokens: RefCell::new(HashMap::new()),
            intr_cycles: Cell::new([0; 3]),
            fs_write_bytes: Cell::new(0),
            unsettled: RefCell::new(None),
        })
    }

    /// Pre-simulation file population (the SPECWeb file-set generator,
    /// database loads): not simulated, purely functional.
    pub fn create_file(&self, path: &str, data: FileData) -> u64 {
        let kaddr = self.heap.alloc(256); // in-kernel inode
        self.fs.borrow_mut().create(path, data, kaddr)
    }

    /// Which disk a file lives on (striped by inode).
    pub fn disk_for(&self, inode: u64) -> DiskId {
        DiskId((inode % self.cfg.ndisks as u64) as u16)
    }

    /// Registers a disk-completion token.
    pub fn new_token(&self, info: TokenInfo) -> u32 {
        let t = self.next_token.get();
        self.next_token.set(t.wrapping_add(1));
        self.tokens.borrow_mut().insert(t, info);
        t
    }

    /// Consumes a token at completion time.
    pub fn take_token(&self, token: u32) -> Option<TokenInfo> {
        self.tokens.borrow_mut().remove(&token)
    }

    /// Adds interrupt-handler cycles for reporting.
    pub fn add_intr_cycles(&self, source: usize, cycles: Cycles) {
        let mut all = self.intr_cycles.get();
        all[source] += cycles;
        self.intr_cycles.set(all);
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
            self.unsettled.borrow_mut().get_or_insert_with(|| {
                format!(
                    "{site} by {} at clock {} with {pending} batched kernel events unsettled",
                    kc.pid, kc.clock
                )
            });
        }
    }

    /// The first settled-at-drain violation, if any.
    pub fn unsettled(&self) -> Option<String> {
        self.unsettled.borrow().clone()
    }
}

/// Starts the bottom-half kernel daemon on its own event port, as a task
/// on `exec`. "Dedicated threads
/// can be scheduled to simulate bottom half kernel activities." (§3.1)
///
/// The daemon's interrupt context batches as deep as `port`'s ring:
/// handler drains run `until(kc.clock)`, which the batching protocol's
/// settled-at-drain invariant keeps exact.
pub fn start_daemon(
    kernel: &Rc<KernelShared>,
    daemon_pid: ProcessId,
    port: Arc<EventPort>,
    exec: &mut Executor,
) {
    let k = Rc::clone(kernel);
    exec.spawn(Class::BottomHalf, move || daemon_main(daemon_pid, port, k));
}

/// Runs simulated kernel code, swallowing a [`SimAbort`] unwind (poisoned
/// event port — the backend is gone). Real panics propagate.
fn absorb_abort(f: impl FnOnce()) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
        if payload.downcast_ref::<SimAbort>().is_none() {
            resume_unwind(payload)
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
fn daemon_main(pid: ProcessId, port: Arc<EventPort>, kernel: Rc<KernelShared>) {
    // A poisoned port makes any kernel post unwind with SimAbort; the
    // daemon treats that like Shutdown — the backend is gone.
    absorb_abort(move || {
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
    }

    #[test]
    fn tokens_roundtrip() {
        let k = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
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
    fn a_kernel_borrow_held_across_a_post_is_a_panic_not_a_hang() {
        // Task 0 keeps the filesystem borrowed across a load. With no
        // engine to reply, the post suspends it, and task 1 then borrows
        // the same field: that panics, and the executor keeps the panic
        // for the runner to re-raise. A host lock in its place would
        // block the one thread forever.
        use compass_comm::Notifier;
        let k = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
        let port = Arc::new(EventPort::with_capacity(
            ProcessId(0),
            Arc::new(Notifier::new()),
            1,
        ));
        let mut exec = Executor::new();
        let holder = Rc::clone(&k);
        exec.spawn(Class::Os, move || {
            let sink = PortSink(port);
            let mut kc = KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64);
            let _fs = holder.fs.borrow_mut();
            kc.load(VAddr(KERNEL_BASE), 8);
        });
        let other = Rc::clone(&k);
        exec.spawn(Class::Os, move || {
            other.fs.borrow_mut().lookup("/etc/passwd");
        });
        while exec.run_ready() {}
        let msg = exec.panic_message().expect("the second borrow panicked");
        assert!(msg.contains("borrowed"), "panic message: {msg}");
        assert_eq!(exec.live(), 1, "the holder is still suspended in its post");
        exec.cancel_all();
        assert_eq!(exec.live(), 0);
        assert!(
            k.fs.try_borrow_mut().is_ok(),
            "unwinding the holder ended its borrow"
        );
    }

    #[test]
    fn files_stripe_across_disks() {
        let k = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
        assert_ne!(k.disk_for(0), k.disk_for(1));
        assert_eq!(k.disk_for(0), k.disk_for(2));
    }
}
