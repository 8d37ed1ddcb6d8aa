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
//! rendezvous only on the last. Batched events carry the frontend's *raw*
//! clock, which lags the effective clock by the latencies of earlier batch
//! events the frontend has not yet been told about. The engine keeps that
//! lag as a per-process `credit`: each non-blocking event's latency is
//! added to the credit instead of being replied, each popped event's time
//! is advanced by the current credit before processing, and the next
//! blocking reply folds the whole credit into its latency so the
//! frontend's clock resynchronises exactly. The result is the same global
//! event order, the same attribution and the same statistics as depth-1
//! operation, bit for bit.
//!
//! **Incremental scanning.** Each port's state is cached in one fixed
//! min-tournament over the process slots (`scan.rs`), whose least entry
//! is both the candidate event and the safety horizon. Handlers *touch*
//! the processes they change and `step` re-derives each once, right
//! before the next selection. A task's blocking post touches its own
//! process ([`coro::Engine::touch`]), which covers the events it batched
//! before it; a head moves otherwise only by the engine's own pop. Posts
//! that predate the engine are covered by [`Backend::new`], which touches
//! every process once.
//!
//! **Draining a run.** Nearly every event on an OS-heavy run comes from
//! the same process as the one before it, so a step that processes
//! process `i`'s event goes on popping `i`'s ring while its next
//! effective key stays below the horizon: the least of every other
//! entry ([`ScanIndex::first_excluding`], read once) and the next device
//! task. That key is what a fresh selection would pick, so the global
//! order is unchanged. The run ends as soon as a handler touches another
//! process (whose entry the horizon no longer covers), latches an error,
//! or leaves `i` held, pre-empted or exited, or when `i`'s ring runs
//! empty (a deferred reply always ends a run that way: it answers a
//! blocking event). Each event still gets its own `after_step`, and
//! `i`'s entry is re-derived once, at the next selection.
//!
//! **Actors.** Frontends and the bottom-half daemon are tasks on an
//! [`Executor`] that [`Backend::run_with`] drives on the engine's own host
//! thread. The engine sits in a `RefCell` that `run_with` installs as the
//! thread's engine ([`coro::with_engine`]) and borrows one step at a
//! time. A task's blocking post runs `step` itself, on the task's stack,
//! until its reply is out ([`coro::serve`]): the same safety rule and the
//! same handlers, so the least-time poster — nearly always the one
//! posting — is served without a stack switch. Wakes of other tasks only
//! queue them. When a post's reply cannot come yet (a lock wait, a
//! blocking call, a process that is not the least), the poster suspends.
//! The run loop steps until nothing is safe, then resumes every task made
//! ready (in the order they became ready), and repeats; it holds no
//! borrow of the engine while tasks run. Tasks are the engine's only
//! posters, so the loop never blocks the host thread: with no task ready
//! and nothing processable after a full re-index, every task waits on
//! the engine and the run is deadlocked at once. Every popped event is
//! handled in place, architecture-model access included, so nothing is
//! ever in flight between two steps.
//!
//! **Reply release.** A wire reply that sets a poster's clock to `b` is
//! held back while a device task due at or before `b` is still queued,
//! and released once every such task has run. The poster stays
//! constraining at `b` meanwhile, so this changes no event order; what it
//! fixes is the *host-visible* state the poster sees on resumption — in
//! particular the device postbox an interrupt handler drains
//! `until(clock)` holds exactly the records due by that clock, whatever
//! order the executor resumes tasks in.
//!
//! **Errors.** A failure found mid-step — a deadlock or a wild access —
//! is latched (the first one wins) and returned by the run loop at the
//! next step boundary, with every port poisoned so parked posters unwind.
//! A panic in the engine is such a failure too (`RunError::BackendPanic`),
//! whether it unwinds out of the run loop or out of a step a task served.
//!
//! **Components.** This file is the core loop (`drive`/`step` and the
//! scan glue), event and control handling, and the process lifecycle
//! (reply, suspend, wake, dispatch). The rest are sibling modules:
//! [`crate::arch_port`] makes every architecture-model call and keeps the
//! access trace; [`crate::devices`] issues device commands, runs due
//! device tasks and wakes the bottom-half daemon; [`crate::error`] builds
//! the deadlock and wild-access reports; `progress` holds counters, the
//! trace and progress snapshots; `scan` is the least-time index.

use crate::arch_port::ArchPort;
use crate::config::BackendConfig;
use crate::cpu_states::CpuStates;
use crate::devices::{Disk, Nic, TrafficSource};
use crate::error::{DeadlockKind, RunError};
use crate::locks::{SyncOutcome, SyncTable};
use crate::progress::EngineObs;
use crate::scan::{Indexed, Key, ScanIndex};
use crate::sched::{Dispatch, Scheduler};
use crate::stats::{BackendStats, ProcTimes};
use crate::tasks::{Task, TaskQueue};
use crate::trace::TraceRecord;
use crate::vm::Vm;
use compass_arch::MemSysKind;
use compass_comm::coro::{self, payload_message};
use compass_comm::{
    CtlOp, DevShared, Event, EventBody, EventPort, ExecMode, Executor, Folded, Reply, ReplyData,
    SyncOp,
};
use compass_isa::{CpuId, Cycles, FoldHashSet, ProcessId};
use compass_obs::{Ctr, TraceKind};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Fixed costs of backend-modelled (category-2) operations, in cycles.
mod cost {
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
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PState {
    /// Created, Start not yet processed.
    #[default]
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
pub(crate) struct Held {
    pub(crate) ev: Event,
    wants_reply: bool,
}

#[derive(Default)]
pub(crate) struct Proc {
    pub(crate) state: PState,
    /// Absolute clock lower bound (time of last reply).
    pub(crate) bound: Cycles,
    /// Held (popped, unreplied) event — the process is suspended.
    pub(crate) held: Option<Held>,
    /// Extra latency to add when the held event is finally replied
    /// (e.g. an access cost computed before descheduling).
    held_extra: Cycles,
    /// Latency owed to the frontend for consumed non-blocking events
    /// since its last reply. Raw posted times lag effective times by
    /// exactly this much; the next blocking reply folds it in.
    pub(crate) credit: Cycles,
    /// The part of `credit` owed for kernel- and interrupt-mode events;
    /// blocking replies report the split (see [`Proc::fold_credit`]).
    kernel_credit: Cycles,
    /// CPU while running.
    pub(crate) cpu: Option<CpuId>,
    /// Time of the previous event, for attribution deltas.
    last_event_time: Cycles,
    /// Deschedule at the next event boundary.
    pub(crate) preempt_pending: bool,
    /// A wire reply waiting for every device task due by `bound` to run
    /// (see "Reply release" in the module docs).
    deferred: Option<Reply>,
    pub(crate) times: ProcTimes,
}

impl Proc {
    /// May this process still post an event the engine must wait for?
    fn constraining(&self) -> bool {
        self.state != PState::Exited && self.held.is_none()
    }

    /// Folds the whole credit into blocking reply `r`, returning how much
    /// of it user-mode and kernel-mode events owe — reported through the
    /// port, so a kernel context can charge its share to the system call
    /// that batched it.
    fn fold_credit(&mut self, r: &mut Reply) -> Folded {
        let kernel = std::mem::take(&mut self.kernel_credit);
        let user = std::mem::take(&mut self.credit) - kernel;
        r.latency += user + kernel;
        Folded { user, kernel }
    }
}

/// What a finished simulation reports.
#[derive(Debug)]
pub struct SimOutcome {
    /// All counters.
    pub stats: BackendStats,
    /// Every architecture-model call in service order, when
    /// [`ArchPort::record_trace`] was on (the simcheck oracle's input).
    pub access_trace: Option<Vec<TraceRecord>>,
    /// The CPU-states area as the run left it.
    pub(crate) cpu_states: CpuStates,
}

impl SimOutcome {
    /// The interrupt requests still pending on `cpu` at the end of the
    /// run (an [`crate::IrqSource::mask`] set).
    pub fn irq_pending(&self, cpu: CpuId) -> u32 {
        self.cpu_states.pending(cpu)
    }
}

/// The backend simulation process.
pub struct Backend {
    pub(crate) cfg: BackendConfig,
    pub(crate) ports: Vec<Arc<EventPort>>,
    pub(crate) cpu_states: CpuStates,
    pub(crate) devshared: Arc<DevShared>,
    /// Every architecture-model call goes through here.
    pub(crate) arch: ArchPort,
    pub(crate) vm: Vm,
    pub(crate) sched: Scheduler,
    pub(crate) sync: SyncTable,
    pub(crate) tasks: TaskQueue,
    pub(crate) disks: Vec<Disk>,
    pub(crate) nic: Nic,
    pub(crate) traffic: Box<dyn TrafficSource>,
    pub(crate) procs: Vec<Proc>,
    pub(crate) daemon: Option<ProcessId>,
    wakeup_latch: FoldHashSet<ProcessId>,
    pub(crate) global_time: Cycles,
    pub(crate) events_processed: u64,
    pub(crate) irq_dispatches: [u64; 3],
    /// Per-CPU: is a `TimerTick` task currently scheduled? Ticks are
    /// event-driven: a tick firing on an idle CPU disarms instead of
    /// rescheduling, and `install` re-arms when work lands.
    pub(crate) timer_armed: Vec<bool>,
    /// Disk/network completion wake events scheduled into the task heap.
    pub(crate) device_wake_events: u64,
    /// Idle interval-timer polls skipped (tick disarmed instead).
    pub(crate) device_polls_eliminated: u64,
    /// Completions that released the parked bottom-half daemon (the
    /// wake-driven disk/NIC delivery path, as opposed to polled drains).
    pub(crate) disk_wake_events: u64,
    pub(crate) soft_faults: u64,
    /// Events consumed without simulation (the daemon's final Block).
    pub(crate) dropped_events: u64,
    shutdown_sent: bool,
    /// The first error detected mid-step; `drive` returns it before the
    /// next step (see "Errors" in the module docs).
    pub(crate) error: Option<RunError>,
    /// Observability hooks (counters / trace / progress), all optional.
    pub(crate) obs: EngineObs,
    // --- incremental least-time scanner state ---
    /// Cached per-process port classification; the least entry is the
    /// candidate event or the safety horizon.
    pub(crate) index: ScanIndex,
    /// Processes touched since the last selection, each listed once
    /// (`is_touched`); `reindex_touched` re-derives them.
    touched: Vec<usize>,
    is_touched: Vec<bool>,
    /// Processes holding a deferred wire reply.
    deferred: Vec<usize>,
    /// The executor's interleave coin (see [`Self::coin`]).
    #[cfg(feature = "check-invariants")]
    coin: Option<compass_comm::coro::Coin>,
}

impl Backend {
    /// Builds a backend over shared communicator state.
    ///
    /// `ports[pid]` is process `pid`'s event port. `daemon`, when present,
    /// names the OS server's bottom-half kernel thread: it takes no
    /// scheduler slot and services device interrupts on `cfg.irq_cpu`.
    /// Every process starts touched, so the first step reads events
    /// posted before the engine existed.
    pub fn new(
        cfg: BackendConfig,
        ports: Vec<Arc<EventPort>>,
        devshared: Arc<DevShared>,
        daemon: Option<ProcessId>,
        traffic: Box<dyn TrafficSource>,
    ) -> Self {
        cfg.validate().expect("invalid backend configuration");
        let (nprocs, ncpus) = (ports.len(), cfg.arch.ncpus());
        // Every process starts constraining with an empty ring at bound 0.
        let mut index = ScanIndex::new(nprocs);
        for i in 0..nprocs {
            index.set(i, Indexed::Bound(0));
        }
        let vm = Vm::new(
            nprocs,
            cfg.arch.nodes,
            ncpus,
            cfg.mem_per_node,
            cfg.placement,
            cfg.tlb_entries,
            cfg.tlb_assoc,
            cfg.arch.kind == MemSysKind::SoftDsm,
        );
        let mut b = Self {
            arch: ArchPort::new(cfg.arch.clone()),
            vm,
            sched: Scheduler::new(cfg.sched, ncpus, cfg.arch.cpus_per_node, nprocs),
            sync: SyncTable::new(),
            tasks: TaskQueue::new(),
            disks: (0..cfg.disks).map(|_| Disk::new(cfg.disk)).collect(),
            nic: Nic::new(cfg.net),
            cfg,
            ports,
            cpu_states: CpuStates::new(ncpus),
            devshared,
            traffic,
            procs: (0..nprocs).map(|_| Proc::default()).collect(),
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
            error: None,
            obs: EngineObs::default(),
            index,
            touched: Vec::with_capacity(nprocs),
            is_touched: vec![false; nprocs],
            deferred: Vec::new(),
            #[cfg(feature = "check-invariants")]
            coin: None,
        };
        b.refresh_all();
        b
    }

    /// The architecture-model port, to turn on access-trace recording.
    /// Setup time only.
    pub fn arch_mut(&mut self) -> &mut ArchPort {
        &mut self.arch
    }

    /// Cross-structure invariants over the whole backend: the architecture
    /// models (directory sanity, cache inclusion, MESI exclusivity) and the
    /// VM (frame ownership, page-table/segment agreement). The
    /// `check-invariants` feature runs this after every engine step;
    /// simcheck calls it at end of run in all builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.arch.hierarchy().check_invariants()?;
        self.vm.check_invariants()
    }

    // --- The incremental least-time scanner ---

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
    pub(crate) fn reindex_touched(&mut self) {
        while let Some(i) = self.touched.pop() {
            self.is_touched[i] = false;
            let p = &self.procs[i];
            let entry = if !p.constraining() {
                Indexed::Off
            } else if let Some(t) = self.ports[i].peek_time() {
                // Raw posted time + owed credit = effective time.
                Indexed::Pending(Key(t + p.credit, 1, i as u64))
            } else {
                Indexed::Bound(p.bound)
            };
            self.index.set(i, entry);
        }
    }

    /// Marks the whole index for re-derivation: at construction, and as
    /// the pre-deadlock safety net against any stale entry.
    fn refresh_all(&mut self) {
        for i in 0..self.procs.len() {
            self.touch(i);
        }
    }

    pub(crate) fn is_daemon(&self, pid: ProcessId) -> bool {
        self.daemon == Some(pid)
    }

    /// The CPU the bottom-half daemon services interrupts on.
    pub(crate) fn irq_cpu(&self) -> CpuId {
        CpuId::from(self.cfg.irq_cpu)
    }

    pub(crate) fn app_pids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.procs.len()).filter(move |&p| self.daemon != Some(ProcessId(p as u32)))
    }

    pub(crate) fn all_apps_exited(&self) -> bool {
        self.app_pids()
            .all(|p| self.procs[p].state == PState::Exited)
    }

    // --- The run loop ---

    /// Runs the simulation to completion, resuming the actors spawned on
    /// `exec` whenever they are needed (see "Actors" in the module docs),
    /// and returns the statistics or a structured [`RunError`] (e.g. a
    /// deadlock report). On error, an engine panic included, every port
    /// is poisoned so waiting posters unwind; the caller winds the
    /// suspended tasks down with [`Executor::cancel_all`].
    pub fn run_with(self, exec: &mut Executor) -> Result<SimOutcome, RunError> {
        let engine = Engine(RefCell::new(self));
        #[cfg(feature = "check-invariants")]
        {
            engine.0.borrow_mut().coin = Some(exec.coin());
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            coro::with_engine(&engine, || engine.drive(exec))
        }));
        let err = match run {
            Ok(Ok(())) => return Ok(engine.0.into_inner().finish()),
            Ok(Err(e)) => e,
            Err(payload) => RunError::BackendPanic {
                msg: payload_message(&payload),
            },
        };
        // A parked poster gets `Aborted`; later posts fail fast.
        for port in &engine.0.borrow().ports {
            port.poison();
        }
        Err(err)
    }

    /// Adds the elapsed active time to the phase counter (no-op when
    /// timing is off).
    fn note_active(&self, from: Option<Instant>) {
        if let Some(t0) = from {
            self.obs
                .add(Ctr::BackendActiveNs, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Latches the error `make` builds unless an earlier one is latched:
    /// the first error wins (see "Errors" in the module docs).
    pub(crate) fn latch(&mut self, make: impl FnOnce(&mut Self) -> RunError) {
        if self.error.is_none() {
            self.error = Some(make(self));
        }
    }

    fn finished(&mut self) -> bool {
        if !self.all_apps_exited() {
            return false;
        }
        // Deliver shutdown to the kernel daemon once it is parked.
        if let Some(d) = self.daemon.filter(|_| !self.shutdown_sent) {
            let Some(held) = self.procs[d.index()].held.take() else {
                return false; // still draining; let it finish
            };
            debug_assert!(held.wants_reply, "daemon parks only on blocking posts");
            // The daemon's final Block event is answered with Shutdown
            // instead of being simulated; account for it so event totals
            // reconcile.
            self.dropped_events += 1;
            self.ports[d.index()].reply(Reply::with_data(0, ReplyData::Shutdown));
            self.shutdown_sent = true;
            self.procs[d.index()].state = PState::Exited;
        }
        true
    }

    /// Attempts to process one item — a device task, or a run of one
    /// process's events (see "Draining a run" in the module docs);
    /// returns false when nothing is safe. The run loop and every served
    /// post call this one function.
    ///
    /// All port knowledge comes from the incrementally maintained index
    /// (touched entries are re-derived here), so candidate selection and
    /// the safety horizon read one consistent snapshot: its least entry.
    fn step(&mut self) -> bool {
        self.release_deferred();
        self.reindex_touched();

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
                self.after_step();
            }
            Key(_, _, pid) => {
                // While no other entry and no device task precedes the
                // poster's next key, that key is the selection's next
                // candidate too (see "Draining a run" in the module docs).
                let i = pid as usize;
                let others = self.index.first_excluding(i).map(|(k, _)| k);
                let mut key = candidate;
                loop {
                    self.process_event(i, key);
                    // Decided before `after_step`: a progress snapshot
                    // re-derives the touched entries.
                    let next = self.next_in_run(i, others);
                    self.after_step();
                    match next {
                        Some(next) => key = next,
                        None => break,
                    }
                }
            }
        }
        true
    }

    /// Pops process `i`'s head event, whose effective key is `key`, and
    /// handles it.
    fn process_event(&mut self, i: usize, key: Key) {
        let (mut ev, wants_reply) = self.ports[i]
            .pop()
            .expect("indexed event gone: second consumer?");
        // Raw posted time → effective time (see module docs).
        ev.time += self.procs[i].credit;
        debug_assert_eq!(Key(ev.time, 1, i as u64), key, "index out of date");
        self.global_time = self.global_time.max(ev.time);
        self.events_processed += 1;
        let ctr = crate::progress::event_ctr(&ev.body);
        self.obs.inc(ctr);
        let (kind, wants) = (ctr as u64, wants_reply as u64);
        self.obs
            .record(ev.time, ev.pid.0, TraceKind::Pickup, kind, wants);
        self.handle_event(ev, wants_reply);
        // The pop changed the ring head; handlers touch every *other*
        // process they change, this covers the poster.
        self.touch(i);
    }

    /// The key of process `i`'s next event if the drain may process it
    /// without a new selection: every other entry is unchanged (the
    /// handlers touched only `i`) and `others`, their least, is still
    /// later, and so is the next device task; `i` still constrains and
    /// no error is latched. Under a seeded schedule the run also ends on
    /// the executor's interleave coin, so ready tasks may still resume
    /// between any two events. A deferred reply needs no test of its own:
    /// it answers a blocking event, and its poster publishes nothing
    /// until the reply is out.
    fn next_in_run(&self, i: usize, others: Option<Key>) -> Option<Key> {
        let p = &self.procs[i];
        if self.touched.len() > 1 || self.error.is_some() || !p.constraining() {
            return None;
        }
        let key = Key(self.ports[i].peek_time()? + p.credit, 1, i as u64);
        debug_assert!(p.deferred.is_none(), "a deferred poster posted again");
        let before_task = self.tasks.peek_time().is_none_or(|t| key < Key(t, 0, 0));
        let before_others = others.is_none_or(|o| key < o);
        (before_task && before_others && !self.coin()).then_some(key)
    }

    /// The executor's interleave coin ([`compass_comm::coro::Coin`]): the
    /// run loop and a drain resume ready tasks early on it under a seeded
    /// schedule. Always false in builds without the seeded schedule.
    #[inline]
    fn coin(&self) -> bool {
        #[cfg(feature = "check-invariants")]
        if let Some(c) = &self.coin {
            return c.flip();
        }
        false
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

    // --- Event handling ---

    /// The mode an event's time is attributed to.
    fn mode_of(body: &EventBody) -> ExecMode {
        match body {
            EventBody::MemRef { mode, .. } | EventBody::Sync { mode, .. } => *mode,
            EventBody::Dev(_) => ExecMode::Kernel,
            EventBody::Ctl(_) => ExecMode::User,
        }
    }

    /// The time-attribution slot of an event: its access class.
    fn mode_index(body: &EventBody) -> usize {
        crate::vm::class_of(Self::mode_of(body)).index()
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
        self.procs[i].times.by_mode[Self::mode_index(&ev.body)] += delta;
        self.procs[i].times.events += 1;

        match ev.body {
            EventBody::MemRef {
                kind, mode, vaddr, ..
            } => {
                if let Some(lat) = self.reference(pid, vaddr, kind.is_write(), mode, ev.time) {
                    self.reply_now(pid, ev, Reply::latency(lat), wants);
                }
            }
            // A lock operation is an atomic access to the lock word. If
            // the word cannot be mapped the operation proceeds free of
            // charge; the run unwinds with the latched fault.
            EventBody::Sync { op, vaddr, mode } => match op {
                SyncOp::LockAcquire => {
                    let outcome = self.sync.acquire(vaddr, pid, ev.time);
                    let cost = self.reference(pid, vaddr, true, mode, ev.time);
                    let cost = cost.unwrap_or(0);
                    match outcome {
                        SyncOutcome::Granted => {
                            self.reply_now(pid, ev, Reply::latency(cost), wants)
                        }
                        SyncOutcome::Wait => self.suspend(pid, ev, wants, PState::LockWait, cost),
                        SyncOutcome::Release(_) => unreachable!("acquire never releases"),
                    }
                }
                SyncOp::LockRelease => {
                    let outcome = self.sync.release(vaddr, pid, ev.time);
                    let cost = self.reference(pid, vaddr, true, mode, ev.time);
                    if let SyncOutcome::Release(waiters) = outcome {
                        for (w, _) in waiters {
                            self.wake(w, ev.time, PState::LockWait);
                        }
                    }
                    self.reply_now(pid, ev, Reply::latency(cost.unwrap_or(0)), wants);
                }
                SyncOp::Barrier { count } => match self.sync.barrier(vaddr, pid, count, ev.time) {
                    SyncOutcome::Wait => self.suspend(pid, ev, wants, PState::BarrierWait, 0),
                    SyncOutcome::Release(arrivals) => {
                        for (w, _) in arrivals {
                            if w != pid {
                                self.wake(w, ev.time, PState::BarrierWait);
                            }
                        }
                        self.reply_now(pid, ev, Reply::latency(0), wants);
                    }
                    SyncOutcome::Granted => unreachable!("barriers wait or release"),
                },
            },
            EventBody::Dev(cmd) => self.handle_dev(pid, ev, cmd, wants),
            EventBody::Ctl(op) => self.handle_ctl(pid, ev, op, wants),
        }
    }

    fn handle_ctl(&mut self, pid: ProcessId, ev: Event, op: CtlOp, wants: bool) {
        let i = pid.index();
        let pages = |len: u32| (len as u64).div_ceil(compass_mem::PAGE_SIZE as u64);
        let reply = match op {
            CtlOp::Start if self.is_daemon(pid) => {
                let cpu = self.irq_cpu();
                self.procs[i].state = PState::Running;
                self.procs[i].cpu = Some(cpu);
                Reply::with_data(0, ReplyData::Cpu { cpu })
            }
            CtlOp::Start => match self.sched.make_runnable(pid) {
                Dispatch::Assigned(cpu) => {
                    self.install(pid, cpu);
                    Reply::with_data(0, ReplyData::Cpu { cpu })
                }
                Dispatch::Queued => return self.hold(pid, ev, wants, PState::Ready, 0),
            },
            CtlOp::Exit => {
                debug_assert!(wants, "Exit is posted blocking (batch cut)");
                if self.procs[i].cpu.is_some() && !self.is_daemon(pid) {
                    self.release_cpu_and_dispatch(pid, ev.time);
                }
                // The process is gone: no steal or pre-emption. Settle any
                // outstanding credit so the frontend's final clock is the
                // effective exit time.
                let p = &mut self.procs[i];
                p.state = PState::Exited;
                p.times.exit_time = ev.time;
                p.bound = ev.time;
                p.last_event_time = ev.time;
                let mut r = Reply::latency(0);
                self.ports[i].set_folded(p.fold_credit(&mut r));
                self.ports[i].reply(r);
                return self.touch(i);
            }
            CtlOp::Block { .. } => {
                // Don't block when a wakeup raced ahead of the sleep, or
                // when the daemon has more device work already due.
                let awake = self.wakeup_latch.remove(&pid)
                    || (self.is_daemon(pid) && self.devshared.has_work_until(ev.time));
                if !awake {
                    return self.suspend(pid, ev, wants, PState::Blocked, 0);
                }
                Reply::latency(0)
            }
            CtlOp::Unblock { pid: target } => {
                if self.procs[target.index()].state == PState::Blocked {
                    self.wake(target, ev.time, PState::Blocked);
                } else {
                    self.wakeup_latch.insert(target);
                }
                Reply::latency(0)
            }
            CtlOp::Yield => Reply::latency(0),
            // Failures (e.g. simulated frame exhaustion) are replies, not
            // backend panics: the frontend surfaces them as ENOMEM-style
            // syscall errors and the run continues.
            CtlOp::ShmGet { key, len } => match self.vm.shmget(key, len) {
                Ok(seg) => Reply::with_data(
                    cost::SHMGET + cost::SHMGET_PER_PAGE * pages(len),
                    ReplyData::Shm { seg },
                ),
                Err(err) => Reply::with_data(cost::SHMGET, ReplyData::ShmFail { err }),
            },
            CtlOp::ShmAt { seg } => match self.vm.shmat(seg, pid) {
                Ok((base, installed)) => Reply::with_data(
                    cost::SHMAT + cost::PER_PTE * installed as u64,
                    ReplyData::ShmBase { base },
                ),
                Err(err) => Reply::with_data(cost::SHMAT, ReplyData::ShmFail { err }),
            },
            CtlOp::ShmDt { seg } => match self.vm.shmdt(seg, pid) {
                Ok(removed) => Reply::latency(cost::SHMAT + cost::PER_PTE * removed as u64),
                Err(err) => Reply::with_data(cost::SHMAT, ReplyData::ShmFail { err }),
            },
            CtlOp::MapRegion { len, .. } => Reply::latency(cost::MAP_REGION + pages(len) * 10),
            CtlOp::UnmapRegion { base, len } => {
                let removed = self.vm.unmap_region(pid, base, len);
                Reply::latency(cost::MAP_REGION + cost::PER_PTE * removed as u64)
            }
        };
        self.reply_now(pid, ev, reply, wants);
    }

    // --- Process lifecycle: reply, suspend, wake, dispatch ---

    pub(crate) fn cpu_for(&self, pid: ProcessId) -> CpuId {
        self.procs[pid.index()]
            .cpu
            .unwrap_or_else(|| panic!("{pid} generated work while not on a CPU"))
    }

    /// Resolves an event's reply. `reply.latency` must be the event's own
    /// latency — attribution has already used it. Blocking events get a
    /// wire reply whose latency additionally folds in the accumulated
    /// credit, resynchronising the frontend's clock with effective time;
    /// non-blocking events have no parked poster, so their latency joins
    /// the credit instead, booked by the mode of the event `body`.
    fn deliver(&mut self, pid: ProcessId, body: &EventBody, reply: Reply, wants: bool) {
        let i = pid.index();
        if !wants {
            let p = &mut self.procs[i];
            p.credit += reply.latency;
            if Self::mode_of(body) != ExecMode::User {
                p.kernel_credit += reply.latency;
            }
            return;
        }
        let mut r = reply;
        if r.irq_pending && !self.is_daemon(pid) {
            // The interrupt request is edge-triggered in simulated time:
            // the blocking reply that carries it to an application
            // process consumes it.
            let cpu = self.procs[i].cpu.expect("an irq_pending reply names a CPU");
            self.cpu_states.clear(cpu);
        }
        let folded = self.procs[i].fold_credit(&mut r);
        self.ports[i].set_folded(folded);
        self.obs.inc(Ctr::Replies);
        self.obs
            .record(self.global_time, pid.0, TraceKind::Reply, r.latency, 0);
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
    pub(crate) fn reply_now(&mut self, pid: ProcessId, ev: Event, mut reply: Reply, wants: bool) {
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
                self.obs.inc(Ctr::SchedPreemptions);
                let cpu = self.procs[i].cpu.map_or(0, |c| c.index() as u64);
                self.obs.record(ev.time, pid.0, TraceKind::Preempt, cpu, 0);
                self.sched.note_preemption();
                return self.suspend(pid, ev, wants, PState::Ready, reply.latency);
            }
        }

        self.procs[i].times.by_mode[Self::mode_index(&ev.body)] += reply.latency;
        self.procs[i].last_event_time = ev.time + reply.latency;
        self.procs[i].bound = ev.time + reply.latency;
        // Only a blocking reply carries the flag (`deliver`).
        if wants {
            reply.irq_pending = self.procs[i]
                .cpu
                .is_some_and(|c| self.cpu_states.pending(c) != 0);
        }
        self.deliver(pid, &ev.body, reply, wants);
        self.touch(i);
    }

    /// Holds the event until `pid` is woken. An application process first
    /// gives its CPU to a ready waiter (sleeping locks, blocking calls,
    /// pre-emption); the kernel daemon owns no scheduler slot and just
    /// waits.
    fn suspend(&mut self, pid: ProcessId, ev: Event, wants: bool, state: PState, extra: Cycles) {
        if !self.is_daemon(pid) {
            self.release_cpu_and_dispatch(pid, ev.time);
            self.obs.record(ev.time, pid.0, TraceKind::Block, 0, 0);
        }
        self.hold(pid, ev, wants, state, extra);
    }

    /// Parks `ev` as `pid`'s held event, to be resolved by [`Self::resume`].
    fn hold(&mut self, pid: ProcessId, ev: Event, wants: bool, state: PState, extra: Cycles) {
        let p = &mut self.procs[pid.index()];
        p.state = state;
        p.held = Some(Held {
            ev,
            wants_reply: wants,
        });
        p.held_extra = extra;
        self.touch(pid.index());
    }

    /// Resolves `pid`'s held event: the process runs on `cpu` again, and
    /// its poster is replied the time it waited plus the held extra
    /// latency plus `cost`.
    pub(crate) fn resume(
        &mut self,
        pid: ProcessId,
        cpu: CpuId,
        now: Cycles,
        cost: Cycles,
        irq_pending: bool,
        data: ReplyData,
    ) {
        let p = &mut self.procs[pid.index()];
        let held = p.held.take().expect("resume without a held event");
        let latency = now.saturating_sub(held.ev.time) + std::mem::take(&mut p.held_extra) + cost;
        p.state = PState::Running;
        p.cpu = Some(cpu);
        p.bound = held.ev.time + latency;
        p.last_event_time = p.bound;
        let reply = Reply {
            latency,
            irq_pending,
            data,
        };
        self.deliver(pid, &held.ev.body, reply, held.wants_reply);
        self.touch(pid.index());
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
        let p = &mut self.procs[pid.index()];
        debug_assert_eq!(p.state, from, "{pid} woken from wrong state");
        let held = p.held.as_ref().expect("woken without a held event");
        let waited = now.saturating_sub(held.ev.time);
        match from {
            PState::Blocked => p.times.block_wait += waited,
            PState::LockWait | PState::BarrierWait => p.times.sync_wait += waited,
            _ => {}
        }
        self.obs.record(now, pid.0, TraceKind::Wake, 0, 0);
        if self.is_daemon(pid) {
            // No scheduler slot: resume in place on the IRQ cpu.
            return self.resume(pid, self.irq_cpu(), now, 0, false, ReplyData::None);
        }
        match self.sched.make_runnable(pid) {
            Dispatch::Assigned(cpu) => self.dispatch(pid, cpu, now),
            // Still held; stays out of the scanner index until dispatched
            // (ready-wait is measured from the held event's time then).
            Dispatch::Queued => self.procs[pid.index()].state = PState::Ready,
        }
    }

    /// Puts `pid` on `cpu` and resolves its held event.
    fn dispatch(&mut self, pid: ProcessId, cpu: CpuId, now: Cycles) {
        let p = &mut self.procs[pid.index()];
        if p.state == PState::Ready {
            let held = p.held.as_ref().expect("dispatch without a held event");
            p.times.ready_wait += now.saturating_sub(held.ev.time);
        }
        self.install(pid, cpu);
        let irq_pending = self.cpu_states.pending(cpu) != 0;
        let data = ReplyData::Cpu { cpu };
        self.resume(pid, cpu, now, cost::CONTEXT_SWITCH, irq_pending, data);
    }

    /// Context-switch side effects of putting `pid` on `cpu`.
    fn install(&mut self, pid: ProcessId, cpu: CpuId) {
        self.obs.inc(Ctr::SchedDispatches);
        let at = self.global_time;
        self.obs
            .record(at, pid.0, TraceKind::Dispatch, cpu.index() as u64, 0);
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
}

/// The backend behind a `RefCell`: the run loop and every post a task
/// serves ([`coro::serve`]) borrow it one step at a time.
struct Engine(RefCell<Backend>);

impl coro::Engine for Engine {
    fn touch(&self, pid: ProcessId) {
        self.0.borrow_mut().touch(pid.index());
    }

    fn step(&self) -> bool {
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            let mut b = self.0.borrow_mut();
            b.error.is_none() && !b.all_apps_exited() && b.step()
        }));
        stepped.unwrap_or_else(|payload| {
            // The panic unwound on a task's stack; it is the engine's, not
            // the workload's, so the run loop reports it as such.
            let msg = payload_message(&payload);
            self.0
                .borrow_mut()
                .latch(|_| RunError::BackendPanic { msg });
            false
        })
    }
}

impl Engine {
    /// The run loop (see "Actors" in the module docs).
    fn drive(&self, exec: &mut Executor) -> Result<(), RunError> {
        self.0.borrow_mut().seed_devices();
        // Wall-clock active time is taken only when counters are on:
        // `Instant::now` is not free.
        let timing = self.0.borrow().obs.counters.is_some();
        loop {
            let (progressed, end) = {
                let b = &mut *self.0.borrow_mut();
                let mut progressed = false;
                let active_from = timing.then(Instant::now);
                let end = loop {
                    if let Some(e) = b.error.take() {
                        break Some(Err(e));
                    }
                    if b.finished() {
                        break Some(Ok(()));
                    }
                    if !b.step() {
                        break None;
                    }
                    progressed = true;
                    if b.coin() {
                        break None;
                    }
                };
                b.note_active(active_from);
                (progressed, end)
            };
            if let Some(end) = end {
                return end;
            }
            // Resume every actor the steps made runnable; they run (and
            // serve their own posts) until they block on the engine again.
            if exec.run_ready() {
                if let Some(msg) = exec.panic_message() {
                    let msg = format!("a simulated thread panicked: {msg}");
                    return Err(RunError::BackendPanic { msg });
                }
                continue;
            }
            if progressed {
                continue;
            }
            // Every actor waits on the engine and nothing is safe to
            // process. One more scan over a rebuilt index — the safety net
            // for a missed touch — before declaring the deadlock.
            let mut b = self.0.borrow_mut();
            b.refresh_all();
            if !b.step() {
                return Err(b.deadlock_error(DeadlockKind::HostTimeout));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use compass_arch::AccessClass;
    use compass_comm::{Class, Notifier};
    use compass_mem::VAddr;
    use compass_obs::CounterBlock;
    use std::sync::mpsc::{self, Receiver};

    /// A backend over `nprocs` bare ports on a two-CPU SMP.
    pub(crate) fn mini_backend(nprocs: usize, daemon: Option<ProcessId>) -> Backend {
        let cfg = BackendConfig::new(compass_arch::ArchConfig::simple_smp(2));
        let notifier = Arc::new(Notifier::new());
        let ports = (0..nprocs)
            .map(|i| {
                let pid = ProcessId(i as u32);
                Arc::new(EventPort::with_capacity(
                    pid,
                    Arc::clone(&notifier),
                    cfg.batch_depth,
                ))
            })
            .collect();
        let devshared = Arc::new(DevShared::new());
        Backend::new(
            cfg,
            ports,
            devshared,
            daemon,
            Box::new(crate::devices::NullTraffic),
        )
    }

    /// Scripted posters for a backend a test steps by hand: tasks on an
    /// executor with no engine installed, so a blocking post suspends its
    /// task instead of serving itself ([`coro::serve`]), and the test
    /// touches the posters itself ([`Posters::run`]).
    #[derive(Default)]
    struct Posters(Executor);

    impl Posters {
        /// Spawns `body` as a task; what it returns arrives on the
        /// channel.
        fn spawn<T: Send + 'static>(
            &mut self,
            body: impl FnOnce() -> T + Send + 'static,
        ) -> Receiver<T> {
            let (tell, done) = mpsc::channel();
            self.0.spawn(Class::Frontend, None, move || {
                let _ = tell.send(body());
            });
            done
        }

        /// Spawns a task that posts `batch` on process `pid`'s port: every
        /// event batched but the last, which blocks. Its reply arrives on
        /// the channel.
        fn script(&mut self, b: &Backend, pid: usize, batch: Vec<Event>) -> Receiver<Reply> {
            let port = Arc::clone(&b.ports[pid]);
            self.spawn(move || {
                let mut batch = batch.into_iter();
                let last = batch.next_back().expect("a blocking post ends the script");
                for ev in batch {
                    port.post_batched(ev);
                }
                port.post(last)
            })
        }

        /// Runs every ready poster until it waits on the engine, then
        /// touches every process, as a served post touches its own.
        /// Returns whether any poster ran.
        fn run(&mut self, b: &mut Backend) -> bool {
            let mut ran = false;
            while self.0.run_ready() {
                ran = true;
            }
            if let Some(payload) = self.0.take_panic() {
                std::panic::resume_unwind(payload);
            }
            b.refresh_all();
            ran
        }

        /// Runs the posters and takes what the one behind `done` returned.
        fn done<T>(&mut self, b: &mut Backend, done: &Receiver<T>) -> T {
            self.run(b);
            done.try_recv().expect("the poster has not finished")
        }
    }

    /// Posts a blocking event to process `i`'s port from a task and pops
    /// it, as the engine does before replying.
    fn blocked_poster(posters: &mut Posters, b: &mut Backend, i: usize) -> Receiver<Reply> {
        let poster = posters.script(b, i, vec![yield_at(i as u32, 0)]);
        posters.run(b);
        assert!(b.ports[i].pop().is_some(), "the poster posted");
        poster
    }

    #[test]
    fn a_wire_reply_waits_for_device_tasks_due_by_the_posters_clock() {
        let mut b = mini_backend(1, None);
        let mut posters = Posters::default();
        let pid = ProcessId(0);
        b.procs[0].bound = 100;

        // A task after the poster's clock cannot precede what it does next.
        b.tasks.schedule(101, Task::TimerTick { cpu: CpuId(0) });
        let body = EventBody::Ctl(CtlOp::Yield);
        let poster = blocked_poster(&mut posters, &mut b, 0);
        b.deliver(pid, &body, Reply::latency(5), true);
        assert_eq!(posters.done(&mut b, &poster).latency, 5);

        // One due at the poster's clock holds the reply until it has run.
        b.tasks.schedule(100, Task::TimerTick { cpu: CpuId(1) });
        let poster = blocked_poster(&mut posters, &mut b, 0);
        b.deliver(pid, &body, Reply::latency(7), true);
        b.release_deferred();
        assert!(
            b.ports[0].has_blocked_poster(),
            "reply released while a device task due by the poster's clock is queued"
        );
        assert_eq!(b.tasks.pop().map(|(t, _)| t), Some(100));
        b.release_deferred();
        assert_eq!(posters.done(&mut b, &poster).latency, 7);
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
    fn the_first_step_sees_posts_that_predate_it() {
        // The posters post before the engine's first step, and nothing
        // touches their processes: only `Backend::new`, which touches
        // every process once, makes the first step read their rings.
        let mut b = mini_backend(3, None);
        let mut posters = Posters::default();
        let exits: Vec<_> = [
            (0, vec![30], 2_000),
            (1, vec![10], 1_000),
            (2, vec![10, 40], 1_000),
        ]
        .into_iter()
        .map(|(pid, times, exit)| {
            let mut batch: Vec<_> = times.into_iter().map(|t| yield_at(pid, t)).collect();
            batch.push(exit_at(pid, exit));
            posters.script(&b, pid as usize, batch)
        })
        .collect();
        while posters.0.run_ready() {}
        // Selected in (time, pid) order.
        for want in [
            (10, 1),
            (10, 2),
            (30, 0),
            (40, 2),
            (1_000, 1),
            (1_000, 2),
            (2_000, 0),
        ] {
            assert_eq!(pick(&mut b), want);
        }
        for exit in &exits {
            assert_eq!(posters.done(&mut b, exit).latency, 0);
        }
    }

    #[test]
    fn the_scan_pops_in_time_then_pid_order_behind_tasks_and_bounds() {
        let mut b = mini_backend(4, None);
        let mut posters = Posters::default();
        // Processes 0-2 post one batched event each and then block on
        // their exit; all three exits land at time 1000.
        let exits: Vec<_> = [(0u32, 30), (1, 10), (2, 10)]
            .into_iter()
            .map(|(pid, t)| {
                let batch = vec![yield_at(pid, t), exit_at(pid, 1000)];
                posters.script(&b, pid as usize, batch)
            })
            .collect();
        // Process 3 posts a blocking event at 20 and posts again only
        // once the test runs it after the reply.
        let port3 = Arc::clone(&b.ports[3]);
        let p3 = posters.spawn(move || {
            port3.post(yield_at(3, 20));
            port3.post_batched(yield_at(3, 40));
            port3.post(exit_at(3, 1000))
        });
        posters.run(&mut b);
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

        posters.run(&mut b);
        assert!(b.step());
        assert_eq!(b.device_polls_eliminated, 3, "the task at 25 precedes 30");
        assert_eq!(pick(&mut b), (30, 0));
        assert_eq!(pick(&mut b), (40, 3));
        for pid in 0..4 {
            assert_eq!(pick(&mut b), (1000, pid));
        }
        assert!(!b.step(), "every process exited");
        for exit in exits.iter().chain([&p3]) {
            assert_eq!(posters.done(&mut b, exit).latency, 0);
        }
    }

    #[test]
    fn a_nonblocking_release_grants_at_its_effective_time_and_banks_its_latency() {
        let mut b = mini_backend(2, None);
        let lock = VAddr(0x1000_0000);
        let at = |pid: u32, time, body| Event {
            pid: ProcessId(pid),
            time,
            body,
        };
        let sync = move |op, mode| EventBody::Sync {
            op,
            vaddr: lock,
            mode,
        };
        let load = EventBody::MemRef {
            kind: compass_comm::MemRefKind::Load,
            mode: ExecMode::User,
            vaddr: VAddr(0x1000_4000),
            size: 8,
        };
        b.arch_mut().record_trace();
        let mut posters = Posters::default();
        // The holder takes the lock, then batches a user load and a
        // kernel-mode release behind it and blocks on its exit.
        let p0 = Arc::clone(&b.ports[0]);
        let holder = posters.spawn(move || {
            let t = p0.post(at(0, 0, EventBody::Ctl(CtlOp::Start))).latency;
            let t = t + 10;
            let t = t + p0
                .post(at(0, t, sync(SyncOp::LockAcquire, ExecMode::User)))
                .latency;
            p0.post_batched(at(0, t + 10, load));
            p0.post_batched(at(0, t + 20, sync(SyncOp::LockRelease, ExecMode::Kernel)));
            (t + 20, p0.post(exit_at(0, t + 30)))
        });
        // The waiter arrives at 15, while the lock is held.
        let p1 = Arc::clone(&b.ports[1]);
        let waiter = posters.spawn(move || {
            p1.post(at(1, 0, EventBody::Ctl(CtlOp::Start)));
            let r = p1.post(at(1, 15, sync(SyncOp::LockAcquire, ExecMode::User)));
            p1.post(exit_at(1, 15 + r.latency))
        });
        while b.events_processed < 8 {
            if !b.step() {
                assert!(posters.run(&mut b), "nothing to step and no poster to run");
            }
        }
        let (release_raw, exit) = posters.done(&mut b, &holder);
        posters.done(&mut b, &waiter);
        // The load and the release behind it ran in one drain, so their
        // times come from the access trace: the last two accesses are the
        // user load and the kernel-mode release of the lock word, each
        // made at its effective time.
        let trace = b.arch.take_trace().expect("recording on");
        let [.., load, release] = trace[..] else {
            panic!("too few accesses: {trace:?}");
        };
        let (
            TraceRecord::Access {
                write: false,
                class: AccessClass::User,
                time: load_time,
                ..
            },
            TraceRecord::Access {
                write: true,
                class: AccessClass::Kernel,
                time: release_time,
                latency: release_cost,
                ..
            },
        ) = (load, release)
        else {
            panic!("expected the load and the release: {load:?} {release:?}");
        };
        // Nothing was owed before the load; the release's effective time
        // is its raw time plus the load's banked latency.
        assert_eq!(load_time + 10, release_raw);
        let load_latency = release_time - release_raw;
        assert!(load_latency > 0, "a cold load costs cycles");
        // The grant happened at the release's effective time.
        let waited = b.sync.stats().lock_wait_cycles;
        assert_eq!(waited, release_time - 15);
        // Both latencies were banked and fold into the exit's reply, split
        // by mode: the release's (its page's translation is cached since
        // the acquire) is the kernel share.
        let folded = b.ports[0].folded();
        assert_eq!((folded.user, folded.kernel), (load_latency, release_cost));
        assert_eq!(exit.latency, load_latency + release_cost);
        assert_eq!(b.procs[1].state, PState::Exited, "the waiter was granted");
    }

    /// Posts `batch` on process `pid`'s port from a task ([`Posters::script`])
    /// and runs it until the whole batch is in the ring.
    fn post_script(
        posters: &mut Posters,
        b: &mut Backend,
        pid: usize,
        batch: Vec<Event>,
    ) -> Receiver<Reply> {
        assert_eq!(b.ports[pid].pending(), 0, "script posted over a full ring");
        let n = batch.len();
        let poster = posters.script(b, pid, batch);
        posters.run(b);
        assert_eq!(b.ports[pid].pending(), n, "the script posted its batch");
        poster
    }

    /// Takes one step that must process something; returns how many
    /// events it processed.
    fn step_events(b: &mut Backend) -> u64 {
        let before = b.events_processed;
        assert!(b.step(), "something should have been safe to process");
        b.events_processed - before
    }

    fn start_at(pid: u32, time: Cycles) -> Event {
        at(pid, time, EventBody::Ctl(CtlOp::Start))
    }

    #[test]
    fn a_drain_stops_at_another_process_entry_at_or_before_its_next_key() {
        let mut b = mini_backend(2, None);
        let mut posters = Posters::default();
        // Process 0 is constraining at bound 20 with an empty ring.
        b.procs[0].bound = 20;
        let batch = [10, 15, 20, 40, 50].map(|t| yield_at(1, t)).to_vec();
        let p1 = post_script(&mut posters, &mut b, 1, batch);
        // 10 and 15 precede the bound; (20, pid 1) follows (20, pid 0).
        assert_eq!(step_events(&mut b), 2);
        assert!(!b.step(), "the bound holds back the rest of the run");
        // A pending event of process 0 at 40 lets 20 run, but not 40.
        let p0 = post_script(&mut posters, &mut b, 0, vec![exit_at(0, 40)]);
        assert_eq!(step_events(&mut b), 1);
        assert_eq!(pick(&mut b), (40, 0));
        assert_eq!(step_events(&mut b), 2, "nothing else bounds 40 and 50");
        posters.done(&mut b, &p0);
        posters.done(&mut b, &p1);
    }

    #[test]
    fn a_drain_stops_at_a_device_task_due_at_or_before_its_next_key() {
        let mut b = mini_backend(1, None);
        let mut posters = Posters::default();
        let batch = [10, 20, 30, 40].map(|t| yield_at(0, t)).to_vec();
        let poster = post_script(&mut posters, &mut b, 0, batch);
        b.tasks.schedule(20, Task::TimerTick { cpu: CpuId(0) });
        assert_eq!(
            step_events(&mut b),
            1,
            "the task at 20 precedes (20, pid 0)"
        );
        assert_eq!(step_events(&mut b), 0, "the task runs next");
        assert_eq!(b.device_polls_eliminated, 1);
        assert_eq!(step_events(&mut b), 3);
        posters.done(&mut b, &poster);
    }

    #[test]
    fn a_drain_stops_when_a_batched_release_wakes_a_lock_waiter() {
        let mut b = mini_backend(2, None);
        let mut posters = Posters::default();
        let lock = VAddr(0x1000_0000);
        let sync = move |pid, time, op| {
            at(
                pid,
                time,
                EventBody::Sync {
                    op,
                    vaddr: lock,
                    mode: ExecMode::User,
                },
            )
        };
        // The holder's release is batched between loads; the loads behind
        // it come long after the waiter's grant.
        let holder = post_script(
            &mut posters,
            &mut b,
            0,
            vec![
                start_at(0, 0),
                sync(0, 10, SyncOp::LockAcquire),
                at(0, 20, load(0x1000_4000)),
                sync(0, 30, SyncOp::LockRelease),
                at(0, 5_000, load(0x1000_8000)),
                at(0, 5_010, load(0x1000_c000)),
                yield_at(0, 6_000),
            ],
        );
        // The waiter exits once granted.
        let port = Arc::clone(&b.ports[1]);
        let waiter = posters.spawn(move || {
            port.post_batched(start_at(1, 0));
            let r = port.post(sync(1, 15, SyncOp::LockAcquire));
            port.post(exit_at(1, 15 + r.latency));
            r
        });
        posters.run(&mut b);
        // Both starts, the holder's acquire, the waiter's.
        for _ in 0..4 {
            assert_eq!(step_events(&mut b), 1);
        }
        assert_eq!(b.procs[1].state, PState::LockWait);
        // The load and the release; the grant makes the waiter
        // constraining again, so the loads behind the release wait for a
        // new selection.
        assert_eq!(step_events(&mut b), 2);
        assert!(b.procs[1].held.is_none(), "the release granted the waiter");
        assert_eq!(b.ports[0].pending(), 3);
        while b.events_processed < 10 {
            if !b.step() {
                assert!(posters.run(&mut b), "nothing to step and no poster to run");
            }
        }
        assert!(posters.done(&mut b, &waiter).latency > 0);
        posters.done(&mut b, &holder);
    }

    #[test]
    fn a_drain_stops_when_its_poster_is_preempted_or_held() {
        // Three processes on two CPUs: process 2 waits on the ready queue
        // when process 0's pre-emption falls due.
        let mut b = mini_backend(3, None);
        let mut posters = Posters::default();
        let p0 = post_script(
            &mut posters,
            &mut b,
            0,
            vec![
                start_at(0, 0),
                yield_at(0, 10),
                yield_at(0, 20),
                yield_at(0, 30),
                yield_at(0, 40),
            ],
        );
        let p1 = post_script(
            &mut posters,
            &mut b,
            1,
            vec![start_at(1, 0), yield_at(1, 1_000)],
        );
        let p2 = post_script(&mut posters, &mut b, 2, vec![start_at(2, 0)]);
        for _ in 0..3 {
            assert_eq!(step_events(&mut b), 1);
        }
        assert_eq!(b.procs[2].state, PState::Ready);
        b.procs[0].preempt_pending = true;
        assert_eq!(step_events(&mut b), 1, "pre-empted at its first event");
        assert_eq!(b.procs[0].state, PState::Ready);
        assert_eq!(b.ports[0].pending(), 3);
        // Process 2 took the CPU.
        assert_eq!(
            posters.done(&mut b, &p2).data,
            ReplyData::Cpu { cpu: CpuId(0) }
        );
        for port in &b.ports {
            port.poison();
        }
        for p in [p0, p1] {
            assert_eq!(posters.done(&mut b, &p).data, ReplyData::Aborted);
        }

        // A batched acquire that must wait holds its poster with events
        // still behind it, and nobody is ready to take the CPU.
        let mut b = mini_backend(2, None);
        let lock = VAddr(0x1000_0000);
        let acquire = move |pid, time| {
            at(
                pid,
                time,
                EventBody::Sync {
                    op: SyncOp::LockAcquire,
                    vaddr: lock,
                    mode: ExecMode::User,
                },
            )
        };
        let holder = post_script(
            &mut posters,
            &mut b,
            0,
            vec![start_at(0, 0), acquire(0, 10), yield_at(0, 100_000)],
        );
        let waiter = post_script(
            &mut posters,
            &mut b,
            1,
            vec![
                start_at(1, 0),
                acquire(1, 20),
                yield_at(1, 30),
                yield_at(1, 40),
                yield_at(1, 50),
            ],
        );
        for _ in 0..3 {
            assert_eq!(step_events(&mut b), 1);
        }
        assert_eq!(step_events(&mut b), 1, "held at the acquire");
        assert_eq!(b.procs[1].state, PState::LockWait);
        assert_eq!(b.ports[1].pending(), 3);
        for port in &b.ports {
            port.poison();
        }
        for p in [holder, waiter] {
            assert_eq!(posters.done(&mut b, &p).data, ReplyData::Aborted);
        }
    }

    #[test]
    fn a_drain_stops_at_a_deferred_reply() {
        // A cold load posted blocking at 20 costs more than one cycle,
        // so the timer tick at 21 falls due inside it and the reply is
        // held: the drain ends there, the tick runs, and the next step
        // releases the reply.
        let mut b = mini_backend(1, None);
        let mut posters = Posters::default();
        let poster = post_script(
            &mut posters,
            &mut b,
            0,
            vec![
                start_at(0, 0),
                yield_at(0, 10),
                at(0, 20, load(0x1000_0000)),
            ],
        );
        b.tasks.schedule(21, Task::TimerTick { cpu: CpuId(1) });
        assert_eq!(step_events(&mut b), 3);
        assert_eq!(b.deferred, [0]);
        assert!(b.ports[0].has_blocked_poster(), "the reply is held");
        assert_eq!(step_events(&mut b), 0, "the tick runs");
        assert!(!b.step(), "the poster's bound holds");
        assert!(posters.done(&mut b, &poster).latency > 1);
    }

    #[test]
    fn a_drain_stops_at_a_latched_error() {
        let mut b = mini_backend(1, None);
        let mut posters = Posters::default();
        let poster = post_script(
            &mut posters,
            &mut b,
            0,
            vec![
                start_at(0, 0),
                at(0, 10, load(0x100)),
                yield_at(0, 20),
                yield_at(0, 30),
            ],
        );
        assert_eq!(step_events(&mut b), 2, "the wild load ends the drain");
        assert!(b.error.is_some());
        b.ports[0].poison();
        assert_eq!(posters.done(&mut b, &poster).data, ReplyData::Aborted);
    }

    #[cfg(feature = "check-invariants")]
    #[test]
    fn a_seeded_schedule_ends_a_drain_on_the_interleave_coin() {
        let mut b = mini_backend(1, None);
        let mut posters = Posters::default();
        let batch = (0..32).map(|t| yield_at(0, t)).collect();
        let poster = post_script(&mut posters, &mut b, 0, batch);
        let mut exec = Executor::new();
        exec.set_schedule_seed(7);
        // A ready task, so the coin can come up.
        exec.spawn(Class::Frontend, None, || {});
        b.coin = Some(exec.coin());
        let first = step_events(&mut b);
        assert!(first < 32, "the coin never ended the drain");
        while b.events_processed < 32 {
            step_events(&mut b);
        }
        posters.done(&mut b, &poster);
    }

    /// A backend like [`mini_backend`] whose ports count their blocking
    /// posts and the suspensions among them.
    fn counted_backend(
        nprocs: usize,
        timer_interval: Option<Cycles>,
    ) -> (Backend, Vec<Arc<CounterBlock>>) {
        let mut cfg = BackendConfig::new(compass_arch::ArchConfig::simple_smp(2));
        cfg.timer_interval = timer_interval;
        let notifier = Arc::new(Notifier::new());
        let counters: Vec<_> = (0..nprocs).map(|_| Arc::new(CounterBlock::new())).collect();
        let ports = counters
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let pid = ProcessId(i as u32);
                let mut port = EventPort::with_capacity(pid, Arc::clone(&notifier), 64);
                port.set_counters(Arc::clone(c));
                Arc::new(port)
            })
            .collect();
        let b = Backend::new(
            cfg,
            ports,
            Arc::new(DevShared::new()),
            None,
            Box::new(crate::devices::NullTraffic),
        );
        (b, counters)
    }

    /// A scripted process: posts on its port from a task.
    type Script = Box<dyn FnOnce(Arc<EventPort>) + Send>;

    /// Runs each `(pid, body)` as a task, in that order, the way the
    /// runner runs processes: the engine serves their posts on their own
    /// stacks. Returns each port's `(blocking posts, suspensions)`.
    fn run_tasks(
        b: Backend,
        counters: &[Arc<CounterBlock>],
        bodies: Vec<(usize, Script)>,
    ) -> (SimOutcome, Vec<(u64, u64)>) {
        let mut exec = Executor::new();
        for (pid, body) in bodies {
            let port = Arc::clone(&b.ports[pid]);
            exec.spawn(Class::Frontend, None, move || body(port));
        }
        let outcome = b.run_with(&mut exec).expect("scripted run");
        // The run ends at the last Exit; its poster may still be queued.
        while exec.run_ready() {}
        assert_eq!(exec.live(), 0, "every task ran to its end");
        let counts = counters
            .iter()
            .map(|c| (c.get(Ctr::RingPosts), c.get(Ctr::RingStalls)))
            .collect();
        (outcome, counts)
    }

    fn at(pid: u32, time: Cycles, body: EventBody) -> Event {
        Event {
            pid: ProcessId(pid),
            time,
            body,
        }
    }

    fn load(va: u32) -> EventBody {
        EventBody::MemRef {
            kind: compass_comm::MemRefKind::Load,
            mode: ExecMode::User,
            vaddr: VAddr(va),
            size: 8,
        }
    }

    #[test]
    fn a_deferred_reply_is_released_inside_the_posters_serve() {
        // One process and a timer that ticks at 1000: a first-touch load
        // posted at 990 costs far more than 10 cycles, so its reply sets
        // the clock past the tick and is held until the tick has run. The
        // poster is the only process, so its own serve runs the tick and
        // releases the reply: it never suspends, and what it sees on
        // return is the tick record due by its clock.
        let (b, counters) = counted_backend(1, Some(1_000));
        let devshared = Arc::clone(&b.devshared);
        let (tell, seen) = std::sync::mpsc::channel();
        let body = move |port: Arc<EventPort>| {
            let t = port.post(at(0, 0, EventBody::Ctl(CtlOp::Start))).latency;
            assert_eq!(t, 0);
            let r = port.post(at(0, 990, load(0x1000_0000)));
            let clock = 990 + r.latency;
            assert!(clock >= 1_000, "the load spans the tick");
            tell.send(devshared.drain_ticks_until(clock).len()).unwrap();
            port.post(at(0, clock, EventBody::Ctl(CtlOp::Exit)));
        };
        let (outcome, counts) = run_tasks(b, &counters, vec![(0, Box::new(body))]);
        assert_eq!(
            seen.recv().unwrap(),
            1,
            "the tick due by the clock ran first"
        );
        assert_eq!(counts, [(3, 0)], "every post served without suspending");
        assert!(outcome.stats.irq_dispatches[2] >= 1);
    }

    #[test]
    fn a_serve_processes_another_process_event_and_wakes_it() {
        // Process 1 runs first: its Start at 0 waits behind process 0's
        // bound 0 (equal times go in pid order), so it suspends. Process
        // 0's Start is served at once; its Exit's serve then processes
        // process 1's Start first, which replies to and wakes process 1,
        // a suspended task.
        let (b, counters) = counted_backend(2, None);
        let (tell, cpus) = std::sync::mpsc::channel();
        let body = move |pid: u32| {
            let tell = tell.clone();
            Box::new(move |port: Arc<EventPort>| {
                let r = port.post(at(pid, 0, EventBody::Ctl(CtlOp::Start)));
                tell.send((pid, r.data)).unwrap();
                port.post(at(
                    pid,
                    100 + 100 * pid as Cycles,
                    EventBody::Ctl(CtlOp::Exit),
                ));
            }) as Script
        };
        let (outcome, counts) = run_tasks(b, &counters, vec![(1, body(1)), (0, body(0))]);
        let cpu = |c| ReplyData::Cpu { cpu: CpuId(c) };
        let got: Vec<_> = cpus.try_iter().collect();
        assert_eq!(got, [(0, cpu(0)), (1, cpu(1))]);
        assert_eq!(counts[1], (2, 1), "process 1 suspended on its Start only");
        assert_eq!(outcome.stats.events, 4);
    }

    #[test]
    fn a_served_acquire_that_must_wait_suspends_and_resumes() {
        // Process 0 takes the lock and holds it for 5000 cycles; process
        // 1's acquire at 100 finds it held, so that post cannot be served
        // to its end: process 1 suspends on it and resumes with the grant
        // when process 0 releases.
        let (b, counters) = counted_backend(2, None);
        let lock = VAddr(0x1000_0000);
        let sync = move |op| EventBody::Sync {
            op,
            vaddr: lock,
            mode: ExecMode::User,
        };
        let (tell, waited) = std::sync::mpsc::channel();
        let holder = move |port: Arc<EventPort>| {
            let mut t = port.post(at(0, 0, EventBody::Ctl(CtlOp::Start))).latency;
            t += 10 + port.post(at(0, t + 10, sync(SyncOp::LockAcquire))).latency;
            t += 3_000
                + port
                    .post(at(0, t + 3_000, EventBody::Ctl(CtlOp::Yield)))
                    .latency;
            t += 2_000
                + port
                    .post(at(0, t + 2_000, sync(SyncOp::LockRelease)))
                    .latency;
            port.post(at(0, t + 1, EventBody::Ctl(CtlOp::Exit)));
        };
        let waiter = move |port: Arc<EventPort>| {
            let mut t = port.post(at(1, 0, EventBody::Ctl(CtlOp::Start))).latency;
            t += 50
                + port
                    .post(at(1, t + 50, EventBody::Ctl(CtlOp::Yield)))
                    .latency;
            let r = port.post(at(1, t + 100, sync(SyncOp::LockAcquire)));
            tell.send(r.latency).unwrap();
            t += 100 + r.latency;
            t += port.post(at(1, t, sync(SyncOp::LockRelease))).latency;
            port.post(at(1, t + 1, EventBody::Ctl(CtlOp::Exit)));
        };
        let (outcome, counts) = run_tasks(
            b,
            &counters,
            vec![(0, Box::new(holder)), (1, Box::new(waiter))],
        );
        assert!(
            waited.recv().unwrap() > 4_000,
            "the acquire waited for the release"
        );
        assert_eq!(outcome.stats.sync.contended, 1);
        assert!(counts[1].1 >= 1, "the waiter suspended");
        assert!(outcome.stats.procs[1].sync_wait > 4_000);
    }

    #[test]
    fn the_first_latched_error_wins_and_poisons_every_port() {
        let mut b = mini_backend(2, None);
        let fault = crate::vm::VmFault {
            pid: ProcessId(0),
            va: VAddr(0x100),
            kind: crate::vm::VmFaultKind::OutOfMemory,
        };
        b.latch(|b| b.wild_access_error(fault));
        // A second wild access later in the same step must not replace it.
        b.procs[1].cpu = Some(CpuId(1));
        let stray = b.reference(ProcessId(1), VAddr(0x100), false, ExecMode::User, 5);
        assert_eq!(stray, None, "an unmappable reference is charged nothing");
        let mut exec = Executor::new();
        let ports = b.ports.clone();
        match b.run_with(&mut exec) {
            Err(RunError::WildAccess { report }) => assert_eq!(report.fault, fault),
            other => panic!("expected the wild access, got {other:?}"),
        }
        assert!(
            ports.iter().all(|p| p.is_poisoned()),
            "parked posters must unwind"
        );
    }
}
