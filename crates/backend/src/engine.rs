//! The backend engine: scan ports, pick the least-execution-time event,
//! simulate, reply.
//!
//! "When a frontend process sends an event to the backend, it blocks and
//! waits for a reply from the backend. Meanwhile, the communicator of the
//! backend keeps scanning the event ports of all running frontend
//! processes. It only picks up an event generated by the frontend process
//! with the smallest execution time value." (§2)
//!
//! The engine strengthens that rule into a safety condition that makes the
//! simulation bit-deterministic: an item (pending event or device task) at
//! key `(time, rank, id)` is processed only when no *constraining* process
//! — one that is free to post — could still produce an earlier key. A
//! process's clock lower bound is the absolute time of its last reply;
//! since clocks only grow, any future post from it has `time >= bound`.
//! Items are therefore consumed in a single global order independent of
//! host scheduling; device tasks sort before events at equal times
//! (hardware acts before software observes).
//!
//! **Batching.** Frontends may publish a basic block's worth of events and
//! rendezvous only on the last (ISSUE 1). Batched events carry the
//! frontend's *raw* clock, which lags the effective clock by the latencies
//! of earlier batch events the frontend has not yet been told about. The
//! engine keeps that lag as a per-process `credit`: each non-blocking
//! event's latency is added to the credit instead of being replied, each
//! popped event's time is advanced by the current credit before
//! processing, and the next blocking reply folds the whole credit into its
//! latency so the frontend's clock resynchronises exactly. The result is
//! the same global event order, the same attribution and the same
//! statistics as depth-1 operation, bit for bit.
//!
//! **Incremental scanning.** Instead of an O(P) sweep per step, the engine
//! caches each port's state in one fixed min-tournament over the process
//! slots (`scan.rs`): a process with a pending head event holds its
//! effective-time key, a constraining process with an empty ring holds its
//! clock lower bound, and the least entry is both the candidate event and
//! the safety horizon. Handlers only *touch* the processes whose state they
//! change; `step` re-derives each touched process once, right before the
//! next selection, so a step costs about one leaf write plus ⌈log₂ P⌉
//! mins. The notifier epoch invalidates the rest — only empty-ring (bound)
//! processes are re-polled on a new epoch, because a non-empty ring's head
//! cannot change except by the engine's own pop.
//!
//! **Actors.** Frontends, OS-server threads and the bottom-half daemon
//! are tasks on an [`Executor`] that [`Backend::run_with`] drives on the
//! engine's own host thread: the engine steps until nothing is safe, then
//! resumes every task its replies made ready (in the order they became
//! ready), and repeats. Only with no task ready does it block the host
//! thread — on the notifier, when posters are ordinary threads
//! ([`Backend::run`]) — and with every task suspended on the engine and
//! nothing processable the run is deadlocked at once. Every popped event
//! is handled in place, architecture-model access included, so nothing
//! is ever in flight between two steps.
//!
//! **Reply release.** A wire reply that sets a poster's clock to `b` is
//! held back while a device task due at or before `b` is still queued,
//! and released once every such task has run. The poster stays
//! constraining at `b` meanwhile, so this changes no event order; what it
//! fixes is the *host-visible* state the poster sees on resumption — in
//! particular the device postbox an interrupt handler drains
//! `until(clock)` holds exactly the records due by that clock, whatever
//! order the executor resumes tasks in.

use crate::config::{BackendConfig, EngineMode};
use crate::devices::{Disk, Nic, TrafficSource};
use crate::error::{DeadlockKind, DeadlockReport, ProcDump, RunError};
use crate::locks::{SyncOutcome, SyncTable};
use crate::scan::{Indexed, Key, ScanIndex};
use crate::sched::{Dispatch, Scheduler};
use crate::stats::{BackendStats, ProcTimes};
use crate::tasks::{Task, TaskQueue};
use crate::trace::{TraceRecord, TraceSink};
use crate::vm::Vm;
use compass_arch::{Access, AccessClass, Hierarchy, MemSysKind};
use compass_comm::{
    CpuStates, CtlOp, DevCmd, DevShared, Event, EventBody, EventPort, ExecMode, Executor,
    IrqSource, Notifier, Reply, ReplyData, SyncOp, TimerTick,
};
use compass_isa::{CpuId, Cycles, FoldHashSet, ProcessId};
use compass_obs::{
    CounterBlock, Ctr, ProgressFn, ProgressSnapshot, TraceHandle, TraceKind, TraceRec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed costs of backend-modelled (category-2) operations, in cycles.
mod cost {
    /// Clock-device register read.
    pub const CLOCK_READ: u64 = 20;
    /// shmget base cost.
    pub const SHMGET: u64 = 300;
    /// Per-page cost of eager frame allocation in shmget.
    pub const SHMGET_PER_PAGE: u64 = 40;
    /// shmat/shmdt base cost.
    pub const SHMAT: u64 = 300;
    /// Per-PTE cost of attach/detach.
    pub const PER_PTE: u64 = 25;
    /// mmap-region registration.
    pub const MAP_REGION: u64 = 150;
    /// Context-switch cost charged to a dispatched process.
    pub const CONTEXT_SWITCH: u64 = 1_200;
    /// Per-invalidation cost of a DSM write fault.
    pub const DSM_INVAL: u64 = 500;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Created, Start not yet processed.
    New,
    /// On a CPU (or the kernel daemon while servicing interrupts).
    Running,
    /// Waiting on the ready queue.
    Ready,
    /// Blocked in a blocking OS call.
    Blocked,
    /// Waiting for a simulated lock.
    LockWait,
    /// Waiting at a barrier.
    BarrierWait,
    /// Gone.
    Exited,
}

/// A popped-but-unresolved event. `wants_reply` records whether a poster
/// is parked on it; a held non-blocking event (pre-empted batched memory
/// reference) resolves into latency credit instead of a wire reply.
struct Held {
    ev: Event,
    wants_reply: bool,
}

struct Proc {
    state: PState,
    /// Absolute clock lower bound (time of last reply).
    bound: Cycles,
    /// Held (popped, unreplied) event — the process is suspended.
    held: Option<Held>,
    /// Extra latency to add when the held event is finally replied
    /// (e.g. an access cost computed before descheduling).
    held_extra: Cycles,
    /// Latency owed to the frontend for consumed non-blocking events
    /// since its last reply. Raw posted times lag effective times by
    /// exactly this much; the next blocking reply folds it in.
    credit: Cycles,
    /// CPU while running.
    cpu: Option<CpuId>,
    /// Time of the previous event, for attribution deltas.
    last_event_time: Cycles,
    /// Deschedule at the next event boundary.
    preempt_pending: bool,
    /// A wire reply waiting for every device task due by `bound` to run
    /// (see "Reply release" in the module docs).
    deferred: Option<Reply>,
    times: ProcTimes,
}

impl Proc {
    fn alive(&self) -> bool {
        self.state != PState::Exited
    }

    /// May this process still post an event the engine must wait for?
    fn constraining(&self) -> bool {
        self.alive() && self.held.is_none()
    }
}

/// What a finished simulation reports.
#[derive(Debug)]
pub struct SimOutcome {
    /// All counters.
    pub stats: BackendStats,
}

/// Engine-side observability state. Everything is optional and
/// observation-only: none of it is ever read back by simulation code, so
/// enabling it cannot perturb event order or `BackendStats`.
#[derive(Default)]
pub struct EngineObs {
    /// Relaxed-atomic counters (`None` = disabled; one branch per hook).
    counters: Option<Arc<CounterBlock>>,
    /// Structured trace recorder (replaces the old `COMPASS_TRACE` dump).
    trace: Option<TraceHandle>,
    /// Periodic progress snapshots.
    progress: Option<ProgressState>,
}

/// Progress-snapshot bookkeeping: fire the callback every `every`
/// processed events.
struct ProgressState {
    every: u64,
    next: u64,
    emitted: u64,
    callback: ProgressFn,
    started: Instant,
    last_wall: Instant,
    last_events: u64,
}

/// The backend simulation process.
pub struct Backend {
    cfg: BackendConfig,
    ports: Vec<Arc<EventPort>>,
    notifier: Arc<Notifier>,
    cpu_states: Arc<CpuStates>,
    devshared: Arc<DevShared>,
    hierarchy: Hierarchy,
    vm: Vm,
    sched: Scheduler,
    sync: SyncTable,
    tasks: TaskQueue,
    disks: Vec<Disk>,
    nic: Nic,
    traffic: Box<dyn TrafficSource>,
    procs: Vec<Proc>,
    daemon: Option<ProcessId>,
    wakeup_latch: FoldHashSet<ProcessId>,
    global_time: Cycles,
    events_processed: u64,
    irq_dispatches: [u64; 3],
    /// Per-CPU: is a `TimerTick` task currently scheduled? Ticks are
    /// event-driven (ISSUE 6): a tick firing on an idle CPU disarms
    /// instead of rescheduling, and `install` re-arms when work lands.
    timer_armed: Vec<bool>,
    /// Disk/network completion wake events scheduled into the task heap.
    device_wake_events: u64,
    /// Idle interval-timer polls skipped (tick disarmed instead).
    device_polls_eliminated: u64,
    /// Completions that released the parked bottom-half daemon (the
    /// wake-driven disk/NIC delivery path, as opposed to polled drains).
    disk_wake_events: u64,
    soft_faults: u64,
    /// Events consumed without simulation (the daemon's final Block).
    dropped_events: u64,
    shutdown_sent: bool,
    /// Serialized mode: the process whose next post we must wait for.
    last_released: Option<ProcessId>,
    /// Deadlock detected mid-step (a `run_task` cannot return an error);
    /// the run loop turns this into a [`RunError`] before the next step.
    pending_deadlock: Option<DeadlockKind>,
    /// Unmappable reference detected mid-step; the run loop turns this
    /// into [`RunError::WildAccess`] before the next step (ISSUE 8 —
    /// these were `panic!`s inside VM translation).
    pending_fault: Option<crate::vm::VmFault>,
    /// Resume-identity violation detected mid-step; becomes
    /// [`RunError::ResumeDiverged`] before the next step.
    pending_diverge: Option<(u64, String)>,
    /// Checkpoint recording state (`set_checkpoint`).
    ckpt: Option<crate::ckpt::Recording>,
    /// Checkpoint replay state (`set_resume`); `None` once the cut is
    /// reached and the run goes fully live.
    replay: Option<crate::ckpt::Replay>,
    /// Fast-forward horizon: while `events_processed <= ff_events`, the
    /// architecture models are skipped (functional warmup, fixed
    /// latencies). Zero disables fast-forward.
    ff_events: u64,
    /// Cut I/O failure, reported as [`RunError::Checkpoint`].
    pending_ckpt_err: Option<String>,
    /// Observability hooks (counters / trace / progress), all optional.
    obs: EngineObs,
    /// When set, every architecture-model call is appended here for the
    /// simcheck reference oracle (see [`crate::trace`]).
    recorder: Option<TraceSink>,
    /// The OS server's counter block, read (never written) by progress
    /// snapshots so heartbeats can surface `os_batched_replies` alongside
    /// engine-side quantities.
    os_counters: Option<Arc<CounterBlock>>,
    // --- incremental least-time scanner state ---
    /// Cached per-process port classification; the least entry is the
    /// candidate event or the safety horizon.
    index: ScanIndex,
    /// Processes touched since the last selection, each listed once
    /// (`is_touched`); `reindex_touched` re-derives them.
    touched: Vec<usize>,
    is_touched: Vec<bool>,
    /// Notifier epoch at the last port poll; ports are re-polled only
    /// when the epoch moves.
    seen_epoch: u64,
    /// Processes holding a deferred wire reply.
    deferred: Vec<usize>,
}

impl Backend {
    /// Builds a backend over shared communicator state.
    ///
    /// `ports[pid]` is process `pid`'s event port. `daemon`, when present,
    /// names the OS server's bottom-half kernel thread: it takes no
    /// scheduler slot and services device interrupts on `cfg.irq_cpu`.
    pub fn new(
        cfg: BackendConfig,
        ports: Vec<Arc<EventPort>>,
        notifier: Arc<Notifier>,
        cpu_states: Arc<CpuStates>,
        devshared: Arc<DevShared>,
        daemon: Option<ProcessId>,
        traffic: Box<dyn TrafficSource>,
    ) -> Self {
        cfg.validate().expect("invalid backend configuration");
        assert_eq!(
            cpu_states.ncpus(),
            cfg.arch.ncpus(),
            "CPU-states size mismatch"
        );
        let nprocs = ports.len();
        // Every process starts constraining with an empty ring at bound 0.
        let mut index = ScanIndex::new(nprocs);
        for i in 0..nprocs {
            index.set(i, Indexed::Bound(0));
        }
        let hierarchy = Hierarchy::new(cfg.arch.clone());
        let vm = Vm::new(
            nprocs,
            cfg.arch.nodes,
            cfg.arch.ncpus(),
            cfg.mem_per_node,
            cfg.placement,
            cfg.tlb_entries,
            cfg.tlb_assoc,
            cfg.arch.kind == MemSysKind::SoftDsm,
        );
        let sched = Scheduler::new(cfg.sched, cfg.arch.ncpus(), cfg.arch.cpus_per_node, nprocs);
        let disks = (0..cfg.disks).map(|_| Disk::new(cfg.disk)).collect();
        let nic = Nic::new(cfg.net);
        let procs: Vec<Proc> = (0..nprocs)
            .map(|_| Proc {
                state: PState::New,
                bound: 0,
                held: None,
                held_extra: 0,
                credit: 0,
                cpu: None,
                last_event_time: 0,
                preempt_pending: false,
                deferred: None,
                times: ProcTimes::default(),
            })
            .collect();
        let ncpus = cfg.arch.ncpus();
        Self {
            cfg,
            ports,
            notifier,
            cpu_states,
            devshared,
            hierarchy,
            vm,
            sched,
            sync: SyncTable::new(),
            tasks: TaskQueue::new(),
            disks,
            nic,
            traffic,
            procs,
            daemon,
            wakeup_latch: FoldHashSet::default(),
            global_time: 0,
            events_processed: 0,
            irq_dispatches: [0; 3],
            timer_armed: vec![false; ncpus],
            device_wake_events: 0,
            device_polls_eliminated: 0,
            disk_wake_events: 0,
            soft_faults: 0,
            dropped_events: 0,
            shutdown_sent: false,
            last_released: None,
            pending_deadlock: None,
            pending_fault: None,
            pending_diverge: None,
            ckpt: None,
            replay: None,
            ff_events: 0,
            pending_ckpt_err: None,
            obs: EngineObs::default(),
            recorder: None,
            os_counters: None,
            index,
            touched: Vec::with_capacity(nprocs),
            is_touched: vec![false; nprocs],
            // Force a full poll on the first step: posts may predate us.
            seen_epoch: u64::MAX,
            deferred: Vec::new(),
        }
    }

    /// Enables access-trace recording into `sink` (simcheck oracle).
    pub fn set_access_recorder(&mut self, sink: TraceSink) {
        self.recorder = Some(sink);
    }

    /// Enables checkpoint recording: every `every` serviced events the
    /// engine writes (overwrites) `path` with the outcome stream plus a
    /// hierarchy snapshot, taken at a quiesced boundary. Setup time only.
    pub fn set_checkpoint(&mut self, every: u64, path: std::path::PathBuf) {
        assert!(every > 0, "checkpoint interval must be positive");
        assert!(
            self.replay.is_none(),
            "checkpoint recording and resume are mutually exclusive"
        );
        self.ckpt = Some(crate::ckpt::Recording {
            every,
            path,
            records: Vec::new(),
            next_cut: self.ff_events + every,
        });
    }

    /// Arms checkpoint replay from decoded checkpoint data (the caller
    /// validates the config hash). The run re-executes everything live
    /// but feeds the architecture models from the recorded stream,
    /// validating each request — the resume-identity oracle. Setup only.
    pub fn set_resume(&mut self, data: crate::ckpt::CheckpointData) {
        assert!(
            self.ckpt.is_none(),
            "checkpoint recording and resume are mutually exclusive"
        );
        self.ff_events = data.ff_events;
        self.replay = Some(crate::ckpt::Replay {
            records: data.records,
            idx: 0,
            cut_events: data.cut_events,
            snapshot: data.snapshot,
        });
    }

    /// Enables fast-forward: the first `events` serviced events skip the
    /// architecture models entirely (fixed L1-hit latencies, no cache or
    /// network state), warming only the functional state — page tables,
    /// locks, buffer cache, scheduler. Setup time only.
    pub fn set_fast_forward(&mut self, events: u64) {
        self.ff_events = events;
        if let Some(ck) = &mut self.ckpt {
            ck.next_cut = events + ck.every;
        }
    }

    /// True while fast-forwarding (functional warmup, no timing models).
    fn in_fast_forward(&self) -> bool {
        self.ff_events > 0 && self.events_processed <= self.ff_events
    }

    /// Attaches observability counters (engine share; ports get their own
    /// blocks). Setup time only.
    pub fn set_counters(&mut self, c: Arc<CounterBlock>) {
        self.obs.counters = Some(c);
    }

    /// Attaches the structured trace recorder. Setup time only.
    pub fn set_trace(&mut self, t: TraceHandle) {
        self.obs.trace = Some(t);
    }

    /// Attaches the OS server's counter block so progress snapshots can
    /// report syscall batching. Setup time only.
    pub fn set_os_counters(&mut self, c: Arc<CounterBlock>) {
        self.os_counters = Some(c);
    }

    /// Emits a [`ProgressSnapshot`] through `f` every `every` processed
    /// events (runner heartbeats, simcheck livelock visibility).
    pub fn set_progress(&mut self, every: u64, f: ProgressFn) {
        let now = Instant::now();
        let every = every.max(1);
        self.obs.progress = Some(ProgressState {
            every,
            next: every,
            emitted: 0,
            callback: f,
            started: now,
            last_wall: now,
            last_events: 0,
        });
    }

    /// Performs one hierarchy access, recording it when a recorder is set.
    /// All engine accesses go through here so the recorded stream is the
    /// complete architecture-model input.
    fn mem_access(
        &mut self,
        cpu: usize,
        paddr: compass_mem::PAddr,
        acc: Access,
        home: usize,
        now: Cycles,
    ) -> compass_arch::AccessResult {
        // Fast-forward: functional warmup, no timing models. Both the
        // recording run and a resumed run execute this phase identically,
        // so the streams they compare start from the same point.
        if self.in_fast_forward() {
            return compass_arch::AccessResult {
                latency: self.cfg.arch.lat.l1_hit,
                l1_hit: true,
                remote: false,
            };
        }
        // Replay: feed the recorded outcome, validating the request —
        // the resume-identity oracle.
        if self.replay.is_some() {
            return self.replay_access(cpu, paddr, acc, home);
        }
        let res = self.hierarchy.access(cpu, paddr, acc, home, now);
        if let Some(ck) = &mut self.ckpt {
            ck.records.push(crate::ckpt::ArchRecord::Access {
                cpu: cpu as u32,
                paddr: paddr.0,
                write: acc.write,
                class: acc.class.index() as u8,
                home: home as u32,
                latency: res.latency,
                l1_hit: res.l1_hit,
                remote: res.remote,
                victims: self
                    .hierarchy
                    .epoch_victims()
                    .iter()
                    .map(|&v| v as u32)
                    .collect(),
            });
        }
        if let Some(rec) = &self.recorder {
            rec.lock().push(TraceRecord::Access {
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

    /// Consumes the next recorded outcome for a replayed access. Any
    /// mismatch between what this run requests and what the recording
    /// run requested is a nondeterminism bug: it is latched as a pending
    /// [`RunError::ResumeDiverged`] and the run unwinds at the next step.
    fn replay_access(
        &mut self,
        cpu: usize,
        paddr: compass_mem::PAddr,
        acc: Access,
        home: usize,
    ) -> compass_arch::AccessResult {
        let fallback = compass_arch::AccessResult {
            latency: self.cfg.arch.lat.l1_hit,
            l1_hit: true,
            remote: false,
        };
        let rp = self.replay.as_mut().expect("replay_access without replay");
        let rec = rp.records.get(rp.idx).cloned();
        rp.idx += 1;
        match rec {
            Some(crate::ckpt::ArchRecord::Access {
                cpu: rcpu,
                paddr: rpaddr,
                write,
                class,
                home: rhome,
                latency,
                l1_hit,
                remote,
                victims: _,
            }) if rcpu == cpu as u32
                && rpaddr == paddr.0
                && write == acc.write
                && class == acc.class.index() as u8
                && rhome == home as u32 =>
            {
                compass_arch::AccessResult {
                    latency,
                    l1_hit,
                    remote,
                }
            }
            other => {
                if self.pending_diverge.is_none() {
                    self.pending_diverge = Some((
                        self.events_processed,
                        format!(
                            "access cpu={cpu} paddr={paddr} write={} class={:?} home={home}, \
                             recorded {other:?}",
                            acc.write, acc.class
                        ),
                    ));
                }
                fallback
            }
        }
    }

    /// Consumes the next recorded outcome for a replayed DSM transfer.
    fn replay_dsm(&mut self, d: crate::vm::DsmTransfer) -> Cycles {
        let rp = self.replay.as_mut().expect("replay_dsm without replay");
        let rec = rp.records.get(rp.idx).cloned();
        rp.idx += 1;
        match rec {
            Some(crate::ckpt::ArchRecord::Dsm {
                from,
                to,
                bytes,
                latency,
            }) if from == d.from as u32 && to == d.to as u32 && bytes == d.bytes => latency,
            other => {
                if self.pending_diverge.is_none() {
                    self.pending_diverge = Some((
                        self.events_processed,
                        format!(
                            "dsm from={} to={} bytes={}, recorded {other:?}",
                            d.from, d.to, d.bytes
                        ),
                    ));
                }
                0
            }
        }
    }

    /// Cross-structure invariants over the whole backend: the architecture
    /// models (directory sanity, cache inclusion, MESI exclusivity) and the
    /// VM (frame ownership, page-table/segment agreement). The
    /// `check-invariants` feature runs this after every engine step;
    /// simcheck calls it at end of run in all builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.hierarchy.check_invariants()?;
        self.vm.check_invariants()
    }

    // ------------------------------------------------------------------
    // Incremental least-time scanner
    // ------------------------------------------------------------------

    /// Marks process `i`'s index entry for re-derivation before the next
    /// selection. Call after any mutation of the process's bound, held
    /// event, credit, liveness or ring head.
    fn touch(&mut self, i: usize) {
        if !self.is_touched[i] {
            self.is_touched[i] = true;
            self.touched.push(i);
        }
    }

    /// Re-derives every touched process's entry, once each.
    fn reindex_touched(&mut self) {
        while let Some(i) = self.touched.pop() {
            self.is_touched[i] = false;
            self.reindex(i);
        }
    }

    /// Re-derives process `i`'s index entry from its current state and
    /// port head. Idempotent.
    fn reindex(&mut self, i: usize) {
        let p = &self.procs[i];
        let entry = if p.constraining() {
            if let Some(t) = self.ports[i].peek_time() {
                // Raw posted time + owed credit = effective time.
                Indexed::Pending(Key(t + p.credit, 1, i as u64))
            } else {
                Indexed::Bound(p.bound)
            }
        } else {
            Indexed::Off
        };
        self.index.set(i, entry);
    }

    /// Polls ports for frontend-side changes if the notifier epoch moved.
    /// Only `Bound` (empty-ring) processes can have gained a head event —
    /// a `Pending` head changes only via the engine's own pop, and an
    /// `Off` process's producer is parked — so only those are re-polled.
    fn refresh_ports(&mut self) {
        let e = self.notifier.epoch();
        if e == self.seen_epoch {
            return;
        }
        // Order matters: record the epoch *before* polling, so a post
        // landing mid-poll (bumping the epoch again) triggers a re-poll.
        self.seen_epoch = e;
        for i in 0..self.procs.len() {
            if matches!(self.index.get(i), Indexed::Bound(_)) && self.ports[i].peek_time().is_some()
            {
                self.touch(i);
            }
        }
    }

    /// Marks the whole index for re-derivation — the pre-deadlock safety
    /// net against any stale cache.
    fn refresh_all(&mut self) {
        self.seen_epoch = self.notifier.epoch();
        for i in 0..self.procs.len() {
            self.touch(i);
        }
    }

    fn is_daemon(&self, pid: ProcessId) -> bool {
        self.daemon == Some(pid)
    }

    fn app_pids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.procs.len()).filter(move |&p| self.daemon != Some(ProcessId(p as u32)))
    }

    fn all_apps_exited(&self) -> bool {
        self.app_pids()
            .all(|p| self.procs[p].state == PState::Exited)
    }

    /// Runs the simulation to completion with its posters on ordinary
    /// threads, returning the statistics or a structured [`RunError`]
    /// (deadlock report) with every port poisoned so waiting frontends
    /// unwind instead of waiting forever.
    pub fn run(self) -> Result<SimOutcome, RunError> {
        let mut exec = Executor::new(Arc::clone(&self.notifier));
        self.run_with(&mut exec)
    }

    /// Runs the simulation to completion, resuming the actors spawned on
    /// `exec` whenever they are needed (see "Actors" in the module docs).
    /// On error every port is poisoned; the caller winds the suspended
    /// tasks down with [`Executor::cancel_all`].
    pub fn run_with(mut self, exec: &mut Executor) -> Result<SimOutcome, RunError> {
        self.drive(exec).map(|()| self.finish())
    }

    fn drive(&mut self, exec: &mut Executor) -> Result<(), RunError> {
        // Seed device work: client traffic and interval timers.
        for (t, mut f) in self.traffic.initial() {
            f.time = t;
            self.note_device_wake();
            self.tasks.schedule(t, Task::NetDeliver(f));
        }
        if let Some(iv) = self.cfg.timer_interval {
            for c in 0..self.cfg.arch.ncpus() {
                self.timer_armed[c] = true;
                self.tasks.schedule(
                    iv,
                    Task::TimerTick {
                        cpu: CpuId::from(c),
                    },
                );
            }
        }

        // Wall-clock phase profiling (active vs waiting-for-frontends) is
        // taken only when counters are on: `Instant::now` is not free.
        let timing = self.obs.counters.is_some();
        loop {
            let epoch = self.notifier.epoch();
            let mut progressed = false;
            let active_from = timing.then(Instant::now);
            loop {
                if self.finished() {
                    self.note_active(active_from);
                    return Ok(());
                }
                if let Err(e) = self.take_pending_error() {
                    self.note_active(active_from);
                    return Err(e);
                }
                if !self.step() {
                    break;
                }
                self.after_arch_step();
                progressed = true;
                if exec.interleave() {
                    break;
                }
            }
            self.note_active(active_from);
            // Resume every actor the steps made runnable; they run until
            // they block on the engine again.
            if exec.run_ready() {
                if let Some(msg) = exec.panic_message() {
                    self.poison_ports();
                    return Err(RunError::BackendPanic {
                        msg: format!("a simulated thread panicked: {msg}"),
                    });
                }
                continue;
            }
            if progressed {
                continue;
            }
            if exec.live() > 0 {
                // Every actor waits on the engine and nothing is safe to
                // process: no host thread can change that. One more scan
                // over a rebuilt index (the safety net for any missed
                // cache invalidation) before declaring the deadlock.
                self.refresh_all();
                if !self.step() {
                    return Err(self.deadlock_error(DeadlockKind::HostTimeout));
                }
                self.after_arch_step();
                continue;
            }
            // Posters on ordinary threads: block until one of them
            // notifies, or the watchdog expires.
            let wait_from = timing.then(Instant::now);
            let advanced = exec.wait_idle(epoch, Duration::from_millis(self.cfg.deadlock_ms));
            if let (Some(t0), Some(c)) = (wait_from, &self.obs.counters) {
                c.add(Ctr::BackendWaitNs, t0.elapsed().as_nanos() as u64);
            }
            if !advanced {
                // One more scan before declaring deadlock: a post may
                // have landed between the scan and the wait.
                self.refresh_all();
                if !self.step() {
                    return Err(self.deadlock_error(DeadlockKind::HostTimeout));
                }
                self.after_arch_step();
            }
        }
    }

    /// Converts an error latched mid-step into the run's result, poisoning
    /// the ports.
    fn take_pending_error(&mut self) -> Result<(), RunError> {
        if let Some(kind) = self.pending_deadlock {
            return Err(self.deadlock_error(kind));
        }
        if let Some(fault) = self.pending_fault.take() {
            return Err(self.wild_access_error(fault));
        }
        if let Some((at_event, detail)) = self.pending_diverge.take() {
            self.poison_ports();
            return Err(RunError::ResumeDiverged { at_event, detail });
        }
        if let Some(msg) = self.pending_ckpt_err.take() {
            self.poison_ports();
            return Err(RunError::Checkpoint { msg });
        }
        Ok(())
    }

    /// Adds the elapsed active time to the phase counter (no-op when
    /// timing is off).
    fn note_active(&self, from: Option<Instant>) {
        if let (Some(t0), Some(c)) = (from, &self.obs.counters) {
            c.add(Ctr::BackendActiveNs, t0.elapsed().as_nanos() as u64);
        }
    }

    fn finished(&mut self) -> bool {
        if !self.all_apps_exited() {
            return false;
        }
        // Deliver shutdown to the kernel daemon once it is parked.
        if let Some(d) = self.daemon {
            if !self.shutdown_sent {
                if let Some(held) = self.procs[d.index()].held.take() {
                    debug_assert!(held.wants_reply, "daemon parks only on blocking posts");
                    // The daemon's final Block event is answered with
                    // Shutdown instead of being simulated; account for it
                    // so event totals reconcile.
                    self.dropped_events += 1;
                    self.ports[d.index()].reply(Reply {
                        latency: 0,
                        irq_pending: false,
                        data: ReplyData::Shutdown,
                    });
                    self.shutdown_sent = true;
                    self.procs[d.index()].state = PState::Exited;
                } else {
                    // The daemon is still draining; let it finish.
                    return false;
                }
            }
        }
        true
    }

    /// Attempts to process one item; returns false when nothing is safe.
    ///
    /// All port knowledge comes from the incrementally maintained index
    /// (touched entries and, if the epoch moved, empty-ring ones are
    /// re-derived here), so candidate selection and the safety horizon
    /// read one consistent snapshot: its least entry.
    fn step(&mut self) -> bool {
        self.release_deferred();
        self.refresh_ports();
        self.reindex_touched();

        // Serialized ("uniprocessor host") mode: wait for the last released
        // process to post again before doing anything else — unless its
        // reply is still deferred behind device tasks this step must run.
        if self.cfg.mode == EngineMode::Serialized {
            if let Some(p) = self.last_released {
                if matches!(self.index.get(p.index()), Indexed::Bound(_))
                    && self.procs[p.index()].deferred.is_none()
                {
                    return false;
                }
            }
        }

        // Candidate: earliest device task vs earliest pending event.
        // Safety: no constraining process may still post an earlier key.
        // A bound entry belongs to a process with an empty ring; any future
        // post from it lands at effective time >= its bound (raw times
        // never precede the clock at its last reply, and credit only grows
        // it). When a bound is the least entry, every pending event is
        // later than it and only a device task not after it may run.
        let task_key = self.tasks.peek_time().map(|t| Key(t, 0, 0));
        let candidate = match (task_key, self.index.first()) {
            (None, None) => return false,
            (Some(t), None) => t,
            (None, Some((k, false))) => k,
            (Some(t), Some((k, false))) => t.min(k),
            (Some(t), Some((b, true))) if t <= b => t,
            (_, Some((_, true))) => return false,
        };

        match candidate {
            Key(t, 0, _) => {
                let (time, task) = self.tasks.pop().expect("task peeked");
                debug_assert_eq!(time, t);
                self.global_time = self.global_time.max(time);
                self.run_task(time, task);
            }
            Key(_, _, pid) => {
                let i = pid as usize;
                let (mut ev, wants_reply) = self.ports[i]
                    .pop()
                    .expect("indexed event gone: second consumer?");
                // Raw posted time → effective time (see module docs).
                ev.time += self.procs[i].credit;
                debug_assert_eq!(Key(ev.time, 1, pid), candidate, "index out of date");
                self.global_time = self.global_time.max(ev.time);
                self.events_processed += 1;
                if let Some(c) = &self.obs.counters {
                    c.inc(Self::event_ctr(&ev.body));
                }
                if let Some(t) = &self.obs.trace {
                    if t.wants(TraceKind::Pickup) {
                        let mut r = TraceRec::new(ev.time, ev.pid.0, TraceKind::Pickup);
                        r.a = Self::event_discriminant(&ev.body);
                        r.b = wants_reply as u64;
                        t.record(r);
                    }
                }
                self.handle_event(ev, wants_reply);
                // The pop changed the ring head; handlers touch every
                // *other* process they change, this covers the poster.
                self.touch(i);
            }
        }
        self.after_step();
        true
    }

    /// Per-step epilogue: progress snapshots and (feature-gated) whole
    /// backend invariants.
    fn after_step(&mut self) {
        self.maybe_progress();
        #[cfg(feature = "check-invariants")]
        if let Err(e) = self.check_invariants() {
            panic!(
                "invariant violated after step {}: {e}",
                self.events_processed
            );
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn mode_index(body: &EventBody) -> usize {
        let mode = match body {
            EventBody::MemRef { mode, .. } => *mode,
            EventBody::Sync { mode, .. } => *mode,
            EventBody::Dev(_) => ExecMode::Kernel,
            EventBody::Ctl(_) => ExecMode::User,
        };
        match mode {
            ExecMode::User => AccessClass::User.index(),
            ExecMode::Kernel => AccessClass::Kernel.index(),
            ExecMode::Interrupt => AccessClass::Interrupt.index(),
        }
    }

    fn class_of(mode: ExecMode) -> AccessClass {
        match mode {
            ExecMode::User => AccessClass::User,
            ExecMode::Kernel => AccessClass::Kernel,
            ExecMode::Interrupt => AccessClass::Interrupt,
        }
    }

    fn event_ctr(body: &EventBody) -> Ctr {
        match body {
            EventBody::MemRef { .. } => Ctr::EventsMemRef,
            EventBody::Sync { .. } => Ctr::EventsSync,
            EventBody::Dev(_) => Ctr::EventsDev,
            EventBody::Ctl(_) => Ctr::EventsCtl,
        }
    }

    fn event_discriminant(body: &EventBody) -> u64 {
        match body {
            EventBody::MemRef { .. } => 0,
            EventBody::Sync { .. } => 1,
            EventBody::Dev(_) => 2,
            EventBody::Ctl(_) => 3,
        }
    }

    /// Emits a progress snapshot when the event count crosses the next
    /// threshold. One integer compare per step while enabled; absent
    /// entirely when `progress` is `None`.
    fn maybe_progress(&mut self) {
        let Some(p) = &mut self.obs.progress else {
            return;
        };
        if self.events_processed < p.next {
            return;
        }
        let now = Instant::now();
        let interval = now.duration_since(p.last_wall).as_secs_f64();
        let events_per_sec = if interval > 0.0 {
            (self.events_processed - p.last_events) as f64 / interval
        } else {
            0.0
        };
        p.last_wall = now;
        p.last_events = self.events_processed;
        p.next = self.events_processed + p.every;
        p.emitted += 1;
        let wall = now.duration_since(p.started);
        let callback = Arc::clone(&p.callback);

        // Per-state histogram and the least-time lag: how far the slowest
        // constraining process trails global time (a big, growing lag
        // usually means one frontend is starving the pickup rule).
        let mut states: Vec<(&'static str, u32)> = Vec::new();
        for pr in &self.procs {
            let name = match pr.state {
                PState::New => "new",
                PState::Running => "running",
                PState::Ready => "ready",
                PState::Blocked => "blocked",
                PState::LockWait => "lock_wait",
                PState::BarrierWait => "barrier_wait",
                PState::Exited => "exited",
            };
            match states.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => states.push((name, 1)),
            }
        }
        self.reindex_touched();
        let min_lag = self
            .index
            .least_bound()
            .map_or(0, |b| self.global_time.saturating_sub(b));
        let snap = ProgressSnapshot {
            sim_time: self.global_time,
            events: self.events_processed,
            wall,
            events_per_sec,
            states,
            min_lag,
            os_batched_replies: self
                .os_counters
                .as_ref()
                .map_or(0, |c| c.get(Ctr::OsBatchedReplies)),
            device_wake_events: self.device_wake_events,
            device_polls_eliminated: self.device_polls_eliminated,
            disk_wake_events: self.disk_wake_events,
            disk_polls_eliminated: self.devshared.polls_eliminated(),
        };
        if let Some(c) = &self.obs.counters {
            c.inc(Ctr::ProgressSnapshots);
        }
        if let Some(t) = &self.obs.trace {
            let mut r = TraceRec::new(self.global_time, u32::MAX, TraceKind::Snapshot);
            r.a = self.events_processed;
            t.record(r);
        }
        callback(&snap);
    }

    fn handle_event(&mut self, ev: Event, wants: bool) {
        let pid = ev.pid;
        let i = pid.index();
        debug_assert!(
            ev.time >= self.procs[i].bound,
            "{pid} posted effective time {} below its bound {}",
            ev.time,
            self.procs[i].bound
        );

        // Compute-time attribution: the gap since the previous event ran
        // in the mode of this event.
        let delta = ev.time - self.procs[i].last_event_time;
        let mode_idx = Self::mode_index(&ev.body);
        self.procs[i].times.by_mode[mode_idx] += delta;
        self.procs[i].times.events += 1;

        match ev.body {
            EventBody::MemRef {
                kind,
                mode,
                vaddr,
                size,
            } => {
                let _ = size;
                let cpu = self.cpu_for(pid);
                let node = self.cfg.arch.node_of_cpu(cpu.index());
                let tr = match self.vm.translate(pid, cpu, node, vaddr, kind.is_write()) {
                    Ok(tr) => tr,
                    Err(fault) => {
                        self.latch_fault(fault);
                        return;
                    }
                };
                let mut lat = self.charge_translation(&tr, ev.time);
                let res = self.mem_access(
                    cpu.index(),
                    tr.paddr,
                    Access {
                        write: kind.is_write(),
                        class: Self::class_of(mode),
                    },
                    tr.home,
                    ev.time,
                );
                lat += res.latency;
                self.reply_now(pid, ev, Reply::latency(lat), wants);
            }
            EventBody::Sync { op, vaddr, mode } => {
                let _ = mode;
                match op {
                    SyncOp::LockAcquire => match self.sync.acquire(vaddr, pid, ev.time) {
                        SyncOutcome::Granted => {
                            let cost = self.rmw_cost(pid, vaddr, &ev);
                            self.reply_now(pid, ev, Reply::latency(cost), wants);
                        }
                        SyncOutcome::Wait => {
                            let cost = self.rmw_cost(pid, vaddr, &ev);
                            self.suspend(pid, ev, wants, PState::LockWait, cost);
                        }
                        SyncOutcome::Release(_) => unreachable!("acquire never releases"),
                    },
                    SyncOp::LockRelease => {
                        let outcome = self.sync.release(vaddr, pid, ev.time);
                        let cost = self.rmw_cost(pid, vaddr, &ev);
                        if let SyncOutcome::Release(waiters) = outcome {
                            for (w, arrived) in waiters {
                                let _ = arrived;
                                self.wake(w, ev.time, PState::LockWait);
                            }
                        }
                        self.reply_now(pid, ev, Reply::latency(cost), wants);
                    }
                    SyncOp::Barrier { count } => {
                        match self.sync.barrier(vaddr, pid, count, ev.time) {
                            SyncOutcome::Wait => {
                                self.suspend(pid, ev, wants, PState::BarrierWait, 0)
                            }
                            SyncOutcome::Release(arrivals) => {
                                for (w, _) in arrivals {
                                    if w != pid {
                                        self.wake(w, ev.time, PState::BarrierWait);
                                    }
                                }
                                self.reply_now(pid, ev, Reply::latency(0), wants);
                            }
                            SyncOutcome::Granted => unreachable!("barriers wait or release"),
                        }
                    }
                }
            }
            EventBody::Dev(cmd) => self.handle_dev(pid, ev, cmd, wants),
            EventBody::Ctl(op) => self.handle_ctl(pid, ev, op, wants),
        }
    }

    fn rmw_cost(&mut self, pid: ProcessId, vaddr: compass_mem::VAddr, ev: &Event) -> Cycles {
        // A lock operation is an atomic access to the lock word.
        let cpu = self.cpu_for(pid);
        let node = self.cfg.arch.node_of_cpu(cpu.index());
        let mode = match ev.body {
            EventBody::Sync { mode, .. } => mode,
            _ => ExecMode::User,
        };
        let tr = match self.vm.translate(pid, cpu, node, vaddr, true) {
            Ok(tr) => tr,
            Err(fault) => {
                // The sync op proceeds free of charge; the run unwinds
                // with a structured error before the next step.
                self.latch_fault(fault);
                return 0;
            }
        };
        let lat = self.charge_translation(&tr, ev.time);
        lat + self
            .mem_access(
                cpu.index(),
                tr.paddr,
                Access {
                    write: true,
                    class: Self::class_of(mode),
                },
                tr.home,
                ev.time,
            )
            .latency
    }

    /// TLB-miss, soft-fault and software-DSM costs of one translation.
    fn charge_translation(&mut self, tr: &crate::vm::Translation, now: Cycles) -> Cycles {
        let mut lat = 0;
        if tr.tlb_miss {
            lat += self.cfg.arch.lat.tlb_miss;
            if let Some(c) = &self.obs.counters {
                c.inc(Ctr::TlbMisses);
            }
        }
        if tr.soft_fault {
            lat += self.cfg.arch.lat.soft_fault;
            self.soft_faults += 1;
            if let Some(c) = &self.obs.counters {
                c.inc(Ctr::PageFaults);
            }
            if let Some(t) = &self.obs.trace {
                let mut r = TraceRec::new(now, u32::MAX, TraceKind::PageFault);
                r.a = self.cfg.arch.lat.soft_fault;
                t.record(r);
            }
        }
        if let Some(d) = tr.dsm {
            if let Some(c) = &self.obs.counters {
                c.inc(Ctr::DsmTransfers);
            }
            if d.bytes > 0 {
                let dsm_lat = if self.in_fast_forward() {
                    // Functional warmup: the page moved (VM state is
                    // live), but no network time is modelled.
                    0
                } else if self.replay.is_some() {
                    self.replay_dsm(d)
                } else {
                    let dsm_lat = self.hierarchy.dsm_page_transfer(d.from, d.to, d.bytes, now);
                    if let Some(ck) = &mut self.ckpt {
                        ck.records.push(crate::ckpt::ArchRecord::Dsm {
                            from: d.from as u32,
                            to: d.to as u32,
                            bytes: d.bytes,
                            latency: dsm_lat,
                        });
                    }
                    dsm_lat
                };
                if let Some(rec) = &self.recorder {
                    rec.lock().push(TraceRecord::Dsm {
                        from: d.from,
                        to: d.to,
                        bytes: d.bytes,
                        time: now,
                        latency: dsm_lat,
                    });
                }
                lat += dsm_lat;
            } else {
                // Ownership moved without a data copy: still a fault.
                // Replay and fast-forward leave the hierarchy untouched
                // (the snapshot carries the recording run's counters).
                if !self.in_fast_forward() && self.replay.is_none() {
                    self.hierarchy.count_dsm_fault();
                }
                if let Some(rec) = &self.recorder {
                    rec.lock().push(TraceRecord::DsmNoCopy);
                }
            }
            lat += d.invalidations as u64 * cost::DSM_INVAL;
        }
        lat
    }

    fn handle_dev(&mut self, pid: ProcessId, ev: Event, cmd: DevCmd, wants: bool) {
        match cmd {
            DevCmd::DiskRead {
                disk,
                block,
                nblocks,
                token,
            }
            | DevCmd::DiskWrite {
                disk,
                block,
                nblocks,
                token,
            } => {
                let _ = block;
                let write = matches!(cmd, DevCmd::DiskWrite { .. });
                let d = self
                    .disks
                    .get_mut(disk.index())
                    .unwrap_or_else(|| panic!("unknown {disk}"));
                let done = d.start(ev.time, nblocks);
                let overhead = d.issue_overhead();
                self.note_device_wake();
                self.tasks.schedule(
                    done,
                    Task::DiskComplete(compass_comm::DiskCompletion {
                        disk,
                        token,
                        write,
                        time: done,
                    }),
                );
                self.reply_now(pid, ev, Reply::latency(overhead), wants);
            }
            DevCmd::NetTx { nic, conn, bytes } => {
                let _ = nic;
                let done = self.nic.transmit(ev.time, bytes);
                let overhead = self.nic.issue_overhead();
                for (t, mut f) in self.traffic.on_tx(conn, bytes, done) {
                    let at = t.max(done);
                    f.time = at;
                    self.note_device_wake();
                    self.tasks.schedule(at, Task::NetDeliver(f));
                }
                self.reply_now(pid, ev, Reply::latency(overhead), wants);
            }
            DevCmd::ClockRead => {
                self.reply_now(
                    pid,
                    ev,
                    Reply {
                        latency: cost::CLOCK_READ,
                        irq_pending: false,
                        data: ReplyData::Clock { cycles: ev.time },
                    },
                    wants,
                );
            }
        }
    }

    fn handle_ctl(&mut self, pid: ProcessId, ev: Event, op: CtlOp, wants: bool) {
        match op {
            CtlOp::Start => {
                if self.is_daemon(pid) {
                    self.procs[pid.index()].state = PState::Running;
                    self.procs[pid.index()].cpu = Some(CpuId::from(self.cfg.irq_cpu));
                    self.reply_now(
                        pid,
                        ev,
                        Reply {
                            latency: 0,
                            irq_pending: false,
                            data: ReplyData::Cpu {
                                cpu: CpuId::from(self.cfg.irq_cpu),
                            },
                        },
                        wants,
                    );
                    return;
                }
                match self.sched.make_runnable(pid) {
                    Dispatch::Assigned(cpu) => {
                        self.install(pid, cpu);
                        self.reply_now(
                            pid,
                            ev,
                            Reply {
                                latency: 0,
                                irq_pending: false,
                                data: ReplyData::Cpu { cpu },
                            },
                            wants,
                        );
                    }
                    Dispatch::Queued => {
                        self.procs[pid.index()].state = PState::Ready;
                        self.procs[pid.index()].held = Some(Held {
                            ev,
                            wants_reply: wants,
                        });
                    }
                }
            }
            CtlOp::Exit => {
                let i = pid.index();
                self.procs[i].times.exit_time = ev.time;
                if self.procs[i].cpu.is_some() && !self.is_daemon(pid) {
                    self.release_cpu_and_dispatch(pid, ev.time);
                }
                self.procs[i].state = PState::Exited;
                self.reply_now_exited(pid, ev, Reply::latency(0), wants);
            }
            CtlOp::Block { reason } => {
                let _ = reason;
                if self.wakeup_latch.remove(&pid) {
                    // A wakeup raced ahead of the sleep: don't block.
                    self.reply_now(pid, ev, Reply::latency(0), wants);
                    return;
                }
                if self.is_daemon(pid) {
                    if self.devshared.has_work_until(ev.time) {
                        // More device work already due: loop again.
                        self.reply_now(pid, ev, Reply::latency(0), wants);
                    } else {
                        self.procs[pid.index()].held = Some(Held {
                            ev,
                            wants_reply: wants,
                        });
                        self.procs[pid.index()].state = PState::Blocked;
                    }
                    return;
                }
                self.release_cpu_and_dispatch(pid, ev.time);
                self.suspend_descheduled(pid, ev, wants, PState::Blocked, 0);
            }
            CtlOp::Unblock { pid: target } => {
                if self.procs[target.index()].state == PState::Blocked {
                    self.wake(target, ev.time, PState::Blocked);
                } else {
                    self.wakeup_latch.insert(target);
                }
                self.reply_now(pid, ev, Reply::latency(0), wants);
            }
            CtlOp::Yield => {
                self.reply_now(pid, ev, Reply::latency(0), wants);
            }
            CtlOp::ShmGet { key, len } => {
                // Failure (e.g. simulated frame exhaustion) is a reply,
                // not a backend panic: the frontend surfaces it as an
                // ENOMEM-style syscall error and the run continues.
                let reply = match self.vm.shmget(key, len) {
                    Ok(seg) => {
                        let pages = (len as u64).div_ceil(compass_mem::PAGE_SIZE as u64);
                        Reply {
                            latency: cost::SHMGET + cost::SHMGET_PER_PAGE * pages,
                            irq_pending: false,
                            data: ReplyData::Shm { seg },
                        }
                    }
                    Err(err) => Reply {
                        latency: cost::SHMGET,
                        irq_pending: false,
                        data: ReplyData::ShmFail { err },
                    },
                };
                self.reply_now(pid, ev, reply, wants);
            }
            CtlOp::ShmAt { seg } => {
                let reply = match self.vm.shmat(seg, pid) {
                    Ok((base, installed)) => Reply {
                        latency: cost::SHMAT + cost::PER_PTE * installed as u64,
                        irq_pending: false,
                        data: ReplyData::ShmBase { base },
                    },
                    Err(err) => Reply {
                        latency: cost::SHMAT,
                        irq_pending: false,
                        data: ReplyData::ShmFail { err },
                    },
                };
                self.reply_now(pid, ev, reply, wants);
            }
            CtlOp::ShmDt { seg } => {
                let reply = match self.vm.shmdt(seg, pid) {
                    Ok(removed) => Reply::latency(cost::SHMAT + cost::PER_PTE * removed as u64),
                    Err(err) => Reply {
                        latency: cost::SHMAT,
                        irq_pending: false,
                        data: ReplyData::ShmFail { err },
                    },
                };
                self.reply_now(pid, ev, reply, wants);
            }
            CtlOp::MapRegion { base, len, shared } => {
                let _ = (base, shared);
                let pages = (len as u64).div_ceil(compass_mem::PAGE_SIZE as u64);
                self.reply_now(
                    pid,
                    ev,
                    Reply::latency(cost::MAP_REGION + pages * 10),
                    wants,
                );
            }
            CtlOp::UnmapRegion { base, len } => {
                let removed = self.vm.unmap_region(pid, base, len);
                self.reply_now(
                    pid,
                    ev,
                    Reply::latency(cost::MAP_REGION + cost::PER_PTE * removed as u64),
                    wants,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Tasks (device completions)
    // ------------------------------------------------------------------

    fn run_task(&mut self, time: Cycles, task: Task) {
        if let Some(c) = &self.obs.counters {
            if matches!(task, Task::DiskComplete(_) | Task::NetDeliver(_)) {
                c.inc(Ctr::IrqDispatches);
            }
        }
        match task {
            Task::DiskComplete(c) => {
                self.devshared.push_disk(c);
                self.cpu_states
                    .raise(CpuId::from(self.cfg.irq_cpu), IrqSource::Disk);
                self.irq_dispatches[0] += 1;
                self.wake_daemon(time);
            }
            Task::NetDeliver(f) => {
                self.devshared.push_frame(f);
                self.cpu_states
                    .raise(CpuId::from(self.cfg.irq_cpu), IrqSource::Net);
                self.irq_dispatches[1] += 1;
                self.wake_daemon(time);
            }
            Task::TimerTick { cpu } => {
                if let Some(c) = &self.obs.counters {
                    c.inc(Ctr::TimerTicks);
                }
                // Timer ticks keep the simulation "alive" even when the
                // application has deadlocked on its own synchronisation;
                // catch that here instead of spinning forever: if every
                // live application process is waiting on a lock or
                // barrier (which only another application process can
                // resolve) and no device completion is in flight, nothing
                // can ever wake anyone. `run_task` cannot return an
                // error, so flag it; the run loop converts the flag into
                // a structured `RunError::Deadlock` before the next step.
                if self.sync_deadlocked() {
                    self.pending_deadlock = Some(DeadlockKind::SyncCycle);
                    return;
                }
                // Event-driven ticks: an idle CPU has no running process
                // to preempt and no kernel entity consuming its ticks, so
                // instead of polling at every interval the tick disarms
                // and `install` re-arms it when work next lands here.
                // (Idleness is simulated state, so this is deterministic
                // and identical across batching knobs.)
                if self.cpu_states.running(cpu).is_none() || self.all_apps_exited() {
                    self.timer_armed[cpu.index()] = false;
                    self.device_polls_eliminated += 1;
                    if let Some(c) = &self.obs.counters {
                        c.inc(Ctr::DevicePollsEliminated);
                    }
                    return;
                }
                self.devshared.push_tick(TimerTick { cpu, time });
                self.cpu_states.raise(cpu, IrqSource::Timer);
                self.irq_dispatches[2] += 1;
                if self.cfg.preempt_interval.is_some() {
                    if let Some(victim) = self.sched.running_on(cpu) {
                        if self.sched.ready_len() > 0 && !self.is_daemon(victim) {
                            self.procs[victim.index()].preempt_pending = true;
                        }
                    }
                }
                self.wake_daemon(time);
                if let Some(iv) = self.cfg.timer_interval {
                    // The CPU is busy (checked above), so keep ticking.
                    self.tasks.schedule(time + iv, Task::TimerTick { cpu });
                }
            }
        }
    }

    /// Releases the kernel daemon's held Block so it drains device work.
    fn wake_daemon(&mut self, now: Cycles) {
        let Some(d) = self.daemon else { return };
        let i = d.index();
        if self.procs[i].state != PState::Blocked || self.procs[i].held.is_none() {
            return; // daemon awake: it will see the work before blocking
        }
        let held = self.procs[i].held.take().expect("held");
        self.disk_wake_events += 1;
        if let Some(c) = &self.obs.counters {
            c.inc(Ctr::DiskWakeEvents);
        }
        let wait = now.saturating_sub(held.ev.time);
        self.procs[i].times.block_wait += wait;
        self.procs[i].state = PState::Running;
        self.procs[i].cpu = Some(CpuId::from(self.cfg.irq_cpu));
        self.procs[i].bound = now;
        self.procs[i].last_event_time = now;
        self.deliver(
            d,
            Reply {
                latency: wait,
                irq_pending: true,
                data: ReplyData::Cpu {
                    cpu: CpuId::from(self.cfg.irq_cpu),
                },
            },
            held.wants_reply,
        );
        self.touch(i);
    }

    // ------------------------------------------------------------------
    // Reply / suspend / wake helpers
    // ------------------------------------------------------------------

    fn cpu_for(&self, pid: ProcessId) -> CpuId {
        self.procs[pid.index()]
            .cpu
            .unwrap_or_else(|| panic!("{pid} generated work while not on a CPU"))
    }

    /// Resolves an event's reply. `reply.latency` must be the event's own
    /// latency — attribution has already used it. Blocking events get a
    /// wire reply whose latency additionally folds in the accumulated
    /// credit, resynchronising the frontend's clock with effective time;
    /// non-blocking events have no parked poster, so their latency joins
    /// the credit instead.
    fn deliver(&mut self, pid: ProcessId, reply: Reply, wants: bool) {
        let i = pid.index();
        if wants {
            let mut r = reply;
            r.latency += std::mem::take(&mut self.procs[i].credit);
            if let Some(c) = &self.obs.counters {
                c.inc(Ctr::Replies);
            }
            if let Some(t) = &self.obs.trace {
                if t.wants(TraceKind::Reply) {
                    let mut rec = TraceRec::new(self.global_time, pid.0, TraceKind::Reply);
                    rec.a = r.latency;
                    t.record(rec);
                }
            }
            if self
                .tasks
                .peek_time()
                .is_some_and(|t| t <= self.procs[i].bound)
            {
                debug_assert!(self.procs[i].deferred.is_none(), "two deferred replies");
                self.procs[i].deferred = Some(r);
                self.deferred.push(i);
            } else {
                self.ports[i].reply(r);
            }
        } else {
            self.procs[i].credit += reply.latency;
        }
        self.last_released = Some(pid);
    }

    /// Sends every deferred reply whose poster's clock no queued device
    /// task can still precede (see "Reply release" in the module docs).
    fn release_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let next_task = self.tasks.peek_time();
        let mut k = 0;
        while k < self.deferred.len() {
            let i = self.deferred[k];
            if next_task.is_some_and(|t| t <= self.procs[i].bound) {
                k += 1;
                continue;
            }
            self.deferred.swap_remove(k);
            let r = self.procs[i].deferred.take().expect("deferred reply");
            self.ports[i].reply(r);
        }
    }

    /// Replies immediately, folding in interrupt steal time and handling
    /// pre-emption at the event boundary.
    fn reply_now(&mut self, pid: ProcessId, ev: Event, mut reply: Reply, wants: bool) {
        let i = pid.index();

        // Interrupt-handler steal: while the daemon serviced interrupts on
        // this CPU, the interrupted process was stalled.
        if let Some(cpu) = self.procs[i].cpu {
            if !self.is_daemon(pid) {
                reply.latency += self.cpu_states.take_steal(cpu);
            } else {
                // The daemon's own time steals from the routed CPU when an
                // application process sits there.
                let delta = ev.time - self.procs[i].last_event_time;
                if self.sched.running_on(cpu).is_some() {
                    self.cpu_states.add_steal(cpu, delta + reply.latency);
                }
            }
        }

        // Pre-emption at the event boundary (§3.3.2: the pre-emptive
        // scheduler "interrupts processes at certain intervals and assigns
        // their processors to waiting processes").
        if self.procs[i].preempt_pending && !self.is_daemon(pid) {
            self.procs[i].preempt_pending = false;
            if self.sched.ready_len() > 0 {
                let extra = reply.latency;
                if let Some(c) = &self.obs.counters {
                    c.inc(Ctr::SchedPreemptions);
                }
                if let Some(t) = &self.obs.trace {
                    let mut r = TraceRec::new(ev.time, pid.0, TraceKind::Preempt);
                    r.a = self.procs[i].cpu.map(|c| c.index() as u64).unwrap_or(0);
                    t.record(r);
                }
                self.sched.note_preemption();
                self.release_cpu_and_dispatch(pid, ev.time);
                self.suspend_descheduled(pid, ev, wants, PState::Ready, extra);
                return;
            }
        }

        let mode_idx = Self::mode_index(&ev.body);
        self.procs[i].times.by_mode[mode_idx] += reply.latency;
        self.procs[i].last_event_time = ev.time + reply.latency;
        self.procs[i].bound = ev.time + reply.latency;
        reply.irq_pending = self.procs[i]
            .cpu
            .is_some_and(|c| self.cpu_states.should_interrupt(c));
        self.deliver(pid, reply, wants);
        self.touch(i);
    }

    /// Reply variant for Exit: the process is gone, no steal/preempt.
    fn reply_now_exited(&mut self, pid: ProcessId, ev: Event, mut reply: Reply, wants: bool) {
        let i = pid.index();
        debug_assert!(wants, "Exit is posted blocking (batch cut)");
        self.procs[i].last_event_time = ev.time;
        self.procs[i].bound = ev.time;
        // Settle any outstanding credit so the frontend's final clock is
        // the effective exit time.
        reply.latency += std::mem::take(&mut self.procs[i].credit);
        self.ports[i].reply(reply);
        self.last_released = None;
        self.touch(i);
    }

    /// Holds the event: a blocking poster stays parked until woken.
    fn suspend(&mut self, pid: ProcessId, ev: Event, wants: bool, state: PState, extra: Cycles) {
        if self.is_daemon(pid) {
            // The kernel daemon owns no scheduler slot; it simply waits
            // for the lock grant (it contends on kernel locks with the
            // OS threads).
            let i = pid.index();
            self.procs[i].state = state;
            self.procs[i].held = Some(Held {
                ev,
                wants_reply: wants,
            });
            self.procs[i].held_extra = extra;
            self.touch(i);
            return;
        }
        // Lock/barrier waits release the CPU (sleeping mutexes) so the
        // scheduler can run someone else.
        self.release_cpu_and_dispatch(pid, ev.time);
        self.suspend_descheduled(pid, ev, wants, state, extra);
    }

    /// Suspend bookkeeping after the CPU has already been released.
    fn suspend_descheduled(
        &mut self,
        pid: ProcessId,
        ev: Event,
        wants: bool,
        state: PState,
        extra: Cycles,
    ) {
        let i = pid.index();
        self.procs[i].state = state;
        self.procs[i].held = Some(Held {
            ev,
            wants_reply: wants,
        });
        self.procs[i].held_extra = extra;
        self.procs[i].cpu = None;
        if let Some(t) = &self.obs.trace {
            t.record(TraceRec::new(ev.time, pid.0, TraceKind::Block));
        }
        self.touch(i);
    }

    /// Releases `pid`'s CPU and dispatches a ready waiter onto it.
    fn release_cpu_and_dispatch(&mut self, pid: ProcessId, now: Cycles) {
        let cpu = self.cpu_for(pid);
        self.cpu_states.set_running(cpu, None);
        self.procs[pid.index()].cpu = None;
        if let Some((next, ncpu)) = self.sched.release_cpu(pid) {
            self.dispatch(next, ncpu, now);
        }
    }

    /// Wakes a suspended process: reschedule (possibly via the ready
    /// queue) and release its held reply when it lands on a CPU.
    fn wake(&mut self, pid: ProcessId, now: Cycles, from: PState) {
        let i = pid.index();
        debug_assert_eq!(self.procs[i].state, from, "{pid} woken from wrong state");
        debug_assert!(
            self.procs[i].held.is_some(),
            "{pid} woken without held event"
        );
        let waited = now.saturating_sub(self.procs[i].held.as_ref().expect("held").ev.time);
        match from {
            PState::Blocked => self.procs[i].times.block_wait += waited,
            PState::LockWait | PState::BarrierWait => self.procs[i].times.sync_wait += waited,
            _ => {}
        }
        if let Some(t) = &self.obs.trace {
            t.record(TraceRec::new(now, pid.0, TraceKind::Wake));
        }
        if self.is_daemon(pid) {
            // No scheduler slot: resume in place on the IRQ cpu.
            let held = self.procs[i]
                .held
                .take()
                .expect("daemon wake without event");
            let extra = std::mem::take(&mut self.procs[i].held_extra);
            self.procs[i].state = PState::Running;
            self.procs[i].cpu = Some(CpuId::from(self.cfg.irq_cpu));
            let total = now.saturating_sub(held.ev.time) + extra;
            self.procs[i].bound = held.ev.time + total;
            self.procs[i].last_event_time = held.ev.time + total;
            self.deliver(
                pid,
                Reply {
                    latency: total,
                    irq_pending: false,
                    data: ReplyData::None,
                },
                held.wants_reply,
            );
            self.touch(i);
            return;
        }
        match self.sched.make_runnable(pid) {
            Dispatch::Assigned(cpu) => self.dispatch(pid, cpu, now),
            Dispatch::Queued => {
                // Still held; stays out of the scanner index until
                // dispatched (ready-wait is measured from the held
                // event's time at dispatch).
                self.procs[i].state = PState::Ready;
            }
        }
    }

    /// Puts `pid` on `cpu` and resolves its held event.
    fn dispatch(&mut self, pid: ProcessId, cpu: CpuId, now: Cycles) {
        let i = pid.index();
        let held = self.procs[i]
            .held
            .take()
            .expect("dispatch without held event");
        let extra = std::mem::take(&mut self.procs[i].held_extra);
        if self.procs[i].state == PState::Ready {
            self.procs[i].times.ready_wait += now.saturating_sub(held.ev.time);
        }
        self.procs[i].state = PState::Running;
        self.procs[i].cpu = Some(cpu);
        self.install(pid, cpu);
        let total = now.saturating_sub(held.ev.time) + extra + cost::CONTEXT_SWITCH;
        self.procs[i].bound = held.ev.time + total;
        self.procs[i].last_event_time = held.ev.time + total;
        self.deliver(
            pid,
            Reply {
                latency: total,
                irq_pending: self.cpu_states.should_interrupt(cpu),
                data: ReplyData::Cpu { cpu },
            },
            held.wants_reply,
        );
        self.touch(i);
    }

    /// Context-switch side effects of putting `pid` on `cpu`.
    fn install(&mut self, pid: ProcessId, cpu: CpuId) {
        if let Some(c) = &self.obs.counters {
            c.inc(Ctr::SchedDispatches);
        }
        if let Some(t) = &self.obs.trace {
            let mut r = TraceRec::new(self.global_time, pid.0, TraceKind::Dispatch);
            r.a = cpu.index() as u64;
            t.record(r);
        }
        self.cpu_states.set_running(cpu, Some(pid));
        self.vm.on_context_switch(cpu);
        self.procs[pid.index()].cpu = Some(cpu);
        self.procs[pid.index()].state = PState::Running;
        // Work landed on the CPU: re-arm its interval timer if the last
        // tick found it idle and disarmed itself.
        if let Some(iv) = self.cfg.timer_interval {
            if !self.timer_armed[cpu.index()] {
                self.timer_armed[cpu.index()] = true;
                self.tasks
                    .schedule(self.global_time + iv, Task::TimerTick { cpu });
            }
        }
    }

    /// Counts one scheduled device completion wake event.
    fn note_device_wake(&mut self) {
        self.device_wake_events += 1;
        if let Some(c) = &self.obs.counters {
            c.inc(Ctr::DeviceWakeEvents);
        }
    }

    // ------------------------------------------------------------------
    // Wrap-up and diagnostics
    // ------------------------------------------------------------------

    fn finish(self) -> SimOutcome {
        // Flush the postbox's lock-free probe tally into the counter
        // catalogue. Observation-only: never part of BackendStats, so the
        // knob twins stay bit-identical by construction.
        if let Some(c) = &self.obs.counters {
            c.add(Ctr::DiskPollsEliminated, self.devshared.polls_eliminated());
            c.add(Ctr::ScanIndexUpdates, self.index.writes());
        }
        let mut stats = BackendStats {
            procs: self.procs.iter().map(|p| p.times).collect(),
            global_cycles: self.global_time,
            events: self.events_processed,
            mem: *self.hierarchy.stats(),
            sched: self.sched.stats(),
            sync: self.sync.stats(),
            tlb: self.vm.tlb_stats(),
            placement: Default::default(),
            pages_per_node: Vec::new(),
            soft_faults: self.soft_faults,
            disk_ops: self.disks.iter().map(|d| (d.ops, d.blocks)).collect(),
            nic_tx: (self.nic.tx_bytes, self.nic.tx_frames),
            irq_dispatches: self.irq_dispatches,
            dropped_events: self.dropped_events,
        };
        let (pstats, per_node) = self.vm.placement_stats();
        stats.placement = pstats;
        stats.pages_per_node = per_node;
        SimOutcome { stats }
    }

    /// True when the application can provably never make progress again:
    /// every live app process waits on a simulated lock or barrier, the
    /// kernel daemon is parked, and no disk/network completion is queued.
    fn sync_deadlocked(&self) -> bool {
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

    /// Builds the structured deadlock report, poisons every port so
    /// parked and future posters unwind with `Aborted`, and returns the
    /// error. This replaces the old `deadlock_panic`, which printed the
    /// same dump and tore the whole process down.
    fn deadlock_error(&mut self, kind: DeadlockKind) -> RunError {
        let procs = self.proc_dumps();
        let report = DeadlockReport {
            kind,
            procs,
            tasks_queued: self.tasks.len(),
            next_task_time: self.tasks.peek_time(),
            sync_dump: self.sync.dump(),
            events_processed: self.events_processed,
            global_time: self.global_time,
        };
        if let Some(t) = &self.obs.trace {
            t.record(TraceRec::new(
                self.global_time,
                u32::MAX,
                TraceKind::Deadlock,
            ));
        }
        // Without poisoning, returning from `run` would leave every
        // frontend waiting forever.
        self.poison_ports();
        RunError::Deadlock {
            report: Box::new(report),
        }
    }

    /// Per-process dumps in pid order, shared by the deadlock and
    /// wild-access reports.
    fn proc_dumps(&mut self) -> Vec<ProcDump> {
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

    /// Builds the structured wild-access report and poisons every port,
    /// exactly like [`Backend::deadlock_error`]. These faults used to be
    /// `panic!`s inside VM translation.
    fn wild_access_error(&mut self, fault: crate::vm::VmFault) -> RunError {
        let report = crate::error::WildAccessReport {
            fault,
            procs: self.proc_dumps(),
            events_processed: self.events_processed,
            global_time: self.global_time,
        };
        if let Some(t) = &self.obs.trace {
            t.record(TraceRec::new(
                self.global_time,
                u32::MAX,
                TraceKind::Deadlock,
            ));
        }
        self.poison_ports();
        RunError::WildAccess {
            report: Box::new(report),
        }
    }

    /// Unblocks the frontends on an error path: a parked poster gets an
    /// `Aborted` reply, later posts fail fast.
    fn poison_ports(&self) {
        for port in &self.ports {
            port.poison();
        }
    }

    /// Latches an unmappable reference; the run loop converts it to
    /// [`RunError::WildAccess`] before the next step (first fault wins).
    fn latch_fault(&mut self, fault: crate::vm::VmFault) {
        if self.pending_fault.is_none() {
            self.pending_fault = Some(fault);
        }
    }

    /// Checkpoint housekeeping after each serviced event: writes a cut
    /// when recording crosses the interval; swaps the hierarchy snapshot
    /// in when replay reaches the recorded cut. Cuts happen only here,
    /// between steps, so the engine is quiesced by construction (nothing
    /// in flight).
    fn after_arch_step(&mut self) {
        if let Some(rp) = &self.replay {
            if self.events_processed >= rp.cut_events {
                let rp = self.replay.take().expect("replay just observed");
                if rp.idx != rp.records.len() {
                    if self.pending_diverge.is_none() {
                        self.pending_diverge = Some((
                            self.events_processed,
                            format!(
                                "stream not exhausted at cut: {} of {} records consumed",
                                rp.idx,
                                rp.records.len()
                            ),
                        ));
                    }
                    return;
                }
                let mut r = compass_snap::Reader::new(&rp.snapshot);
                match self.hierarchy.decode_snapshot(&mut r) {
                    Ok(()) if r.is_exhausted() => {}
                    Ok(()) => {
                        self.pending_ckpt_err =
                            Some("hierarchy snapshot has trailing bytes".into());
                    }
                    Err(e) => {
                        self.pending_ckpt_err = Some(format!("hierarchy snapshot: {e}"));
                    }
                }
                // From here the run is fully live, bit-identical to the
                // recording run by the resume-identity oracle.
            }
        }
        if self
            .ckpt
            .as_ref()
            .is_some_and(|ck| self.events_processed >= ck.next_cut)
            && self.replay.is_none()
        {
            self.write_cut();
        }
    }

    /// Serializes the outcome stream plus a hierarchy snapshot and
    /// atomically replaces the checkpoint file (write to `.tmp`, rename).
    fn write_cut(&mut self) {
        let mut w = compass_snap::Writer::new();
        self.hierarchy.encode_snapshot(&mut w);
        let snapshot = w.into_bytes();
        let config_hash = compass_arch::Hierarchy::config_hash(&self.cfg.arch);
        let (ff_events, cut_events) = (self.ff_events, self.events_processed);
        let ck = self.ckpt.as_mut().expect("write_cut without recording");
        ck.next_cut = cut_events + ck.every;
        let data = crate::ckpt::CheckpointData {
            config_hash,
            ff_events,
            cut_events,
            records: ck.records.clone(),
            snapshot,
        };
        let tmp = ck.path.with_extension("tmp");
        let res =
            std::fs::write(&tmp, data.encode()).and_then(|()| std::fs::rename(&tmp, &ck.path));
        if let Err(e) = res {
            self.pending_ckpt_err = Some(format!("writing checkpoint {}: {e}", ck.path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendConfig;
    use compass_comm::{DevShared, Notifier};

    fn mini_backend(nprocs: usize, daemon: Option<ProcessId>) -> Backend {
        let cfg = BackendConfig::new(compass_arch::ArchConfig::simple_smp(2));
        let notifier = Arc::new(Notifier::new());
        let ports = (0..nprocs)
            .map(|i| Arc::new(EventPort::new(ProcessId(i as u32), Arc::clone(&notifier))))
            .collect();
        let cpu_states = Arc::new(CpuStates::new(cfg.arch.ncpus()));
        let devshared = Arc::new(DevShared::new());
        Backend::new(
            cfg,
            ports,
            notifier,
            cpu_states,
            devshared,
            daemon,
            Box::new(crate::devices::NullTraffic),
        )
    }

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
    fn deadlock_error_reports_every_process_and_poisons_ports() {
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
        for port in &b.ports {
            assert!(port.is_poisoned(), "teardown must unblock frontends");
        }
    }

    /// Posts a blocking event to process `i`'s port from a plain thread
    /// and pops it, as the engine does before replying.
    fn blocked_poster(b: &Backend, i: usize) -> std::thread::JoinHandle<Reply> {
        let port = Arc::clone(&b.ports[i]);
        let poster = std::thread::spawn(move || {
            port.post(Event {
                pid: ProcessId(i as u32),
                time: 0,
                body: EventBody::Ctl(CtlOp::Yield),
            })
        });
        while b.ports[i].pop().is_none() {
            std::thread::yield_now();
        }
        poster
    }

    #[test]
    fn a_wire_reply_waits_for_device_tasks_due_by_the_posters_clock() {
        let mut b = mini_backend(1, None);
        let pid = ProcessId(0);
        b.procs[0].bound = 100;

        // A task after the poster's clock cannot precede what it does next.
        b.tasks.schedule(101, Task::TimerTick { cpu: CpuId(0) });
        let poster = blocked_poster(&b, 0);
        b.deliver(pid, Reply::latency(5), true);
        assert_eq!(poster.join().unwrap().latency, 5);

        // One due at the poster's clock holds the reply until it has run.
        b.tasks.schedule(100, Task::TimerTick { cpu: CpuId(1) });
        let poster = blocked_poster(&b, 0);
        b.deliver(pid, Reply::latency(7), true);
        b.release_deferred();
        assert!(
            b.ports[0].has_blocked_poster(),
            "reply released while a device task due by the poster's clock is queued"
        );
        assert_eq!(b.tasks.pop().map(|(t, _)| t), Some(100));
        b.release_deferred();
        assert_eq!(poster.join().unwrap().latency, 7);
        assert!(b.deferred.is_empty() && b.procs[0].deferred.is_none());
    }

    fn yield_at(pid: u32, time: Cycles) -> Event {
        Event {
            pid: ProcessId(pid),
            time,
            body: EventBody::Ctl(CtlOp::Yield),
        }
    }

    fn exit_at(pid: u32, time: Cycles) -> Event {
        Event {
            pid: ProcessId(pid),
            time,
            body: EventBody::Ctl(CtlOp::Exit),
        }
    }

    fn wait_for_posts(b: &Backend, i: usize, n: usize) {
        while b.ports[i].pending() < n {
            std::thread::yield_now();
        }
    }

    /// Takes one step that must process an event and returns its
    /// `(time, pid)`.
    fn pick(b: &mut Backend) -> (Cycles, usize) {
        let before: Vec<u64> = b.procs.iter().map(|p| p.times.events).collect();
        assert!(b.step(), "an event should have been safe to process");
        let i = (0..b.procs.len())
            .find(|&i| b.procs[i].times.events != before[i])
            .expect("the step ran a device task, not an event");
        (b.procs[i].last_event_time, i)
    }

    #[test]
    fn the_scan_pops_in_time_then_pid_order_behind_tasks_and_bounds() {
        let mut b = mini_backend(4, None);
        // Processes 0-2 post one batched event each and then block on
        // their exit; all three exits land at time 1000.
        let posters: Vec<_> = [(0u32, 30), (1, 10), (2, 10)]
            .into_iter()
            .map(|(pid, t)| {
                let port = Arc::clone(&b.ports[pid as usize]);
                std::thread::spawn(move || {
                    port.post_batched(yield_at(pid, t));
                    port.post(exit_at(pid, 1000))
                })
            })
            .collect();
        // Process 3 posts a blocking event at 20, then waits for the test
        // before posting again.
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let port3 = Arc::clone(&b.ports[3]);
        let p3 = std::thread::spawn(move || {
            port3.post(yield_at(3, 20));
            wait.recv().expect("test signals");
            port3.post_batched(yield_at(3, 40));
            port3.post(exit_at(3, 1000))
        });
        for i in 0..3 {
            wait_for_posts(&b, i, 2);
        }
        wait_for_posts(&b, 3, 1);
        // A device task at the same time as the earliest events goes first.
        b.tasks.schedule(10, Task::TimerTick { cpu: CpuId(0) });
        assert!(b.step());
        assert_eq!(b.events_processed, 0, "the task must precede events at 10");
        assert_eq!(b.device_polls_eliminated, 1);

        // Equal times are broken by pid.
        assert_eq!(pick(&mut b), (10, 1));
        assert_eq!(pick(&mut b), (10, 2));
        assert_eq!(pick(&mut b), (20, 3));
        // Process 3's ring is empty at bound 20: it could still post before
        // process 0's event at 30, which must wait, and so must a device
        // task after the bound; one at the bound may run.
        b.tasks.schedule(20, Task::TimerTick { cpu: CpuId(0) });
        b.tasks.schedule(25, Task::TimerTick { cpu: CpuId(1) });
        assert!(b.step());
        assert_eq!(b.device_polls_eliminated, 2, "the task at the bound runs");
        assert!(!b.step(), "a lower bound must hold back a later candidate");
        assert!(matches!(b.index.get(3), Indexed::Bound(20)));

        go.send(()).expect("poster 3 waits");
        wait_for_posts(&b, 3, 2);
        assert!(b.step());
        assert_eq!(b.device_polls_eliminated, 3, "the task at 25 precedes 30");
        assert_eq!(pick(&mut b), (30, 0));
        assert_eq!(pick(&mut b), (40, 3));
        for pid in 0..4 {
            assert_eq!(pick(&mut b), (1000, pid));
        }
        assert!(!b.step(), "every process exited");
        for p in posters.into_iter().chain([p3]) {
            assert_eq!(p.join().expect("poster").latency, 0);
        }
    }
}
