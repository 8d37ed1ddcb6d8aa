//! User-space rendezvous: simulated processes and the bottom-half daemon
//! run as stackful coroutines on the backend's host thread.
//!
//! "The backend … only picks up an event generated by the frontend
//! process with the smallest execution time value" (§2): whichever actor
//! the engine is waiting for must run next, and on a host with fewer CPUs
//! than simulated processes a futex park/unpark per rendezvous costs
//! microseconds. Here every actor is a [`Task`](Executor::spawn) that the
//! engine resumes directly — a register-saving stack switch of a few tens
//! of nanoseconds.
//!
//! * A blocking post from a task is first served on the task's own
//!   stack: while [`with_engine`] has installed the engine on this
//!   thread, [`serve`] steps it there until the post's reply is out. The
//!   engine's own rule decides what each step may process, so this is
//!   the same simulation in a different host order, minus two stack
//!   switches and a ready-queue round trip per rendezvous.
//! * The blocking primitives ([`crate::EventRing::post`] when not served,
//!   and [`crate::ReqPort::call`]/[`recv`](crate::ReqPort::recv), which
//!   the simulator no longer uses) register a [`Waiter`] and call
//!   [`wait`]: inside a task that suspends back to the executor; on an
//!   ordinary thread (the benchmark's port probes, which never reach an
//!   engine) it parks the thread. Waking pushes the task onto the ready
//!   queue or unparks the thread. The executor's owner never sleeps:
//!   every poster that can wake the engine is one of its tasks, so with
//!   no task ready and nothing safe to process the owner is deadlocked.
//! * [`Executor::run_ready`] resumes ready tasks in the order they became
//!   ready; each runs until it blocks or finishes. Under the
//!   `check-invariants` feature a seeded random schedule is available
//!   ([`Executor::set_schedule_seed`]), which also flips a coin on every
//!   served post: simulated results must not depend on it.
//! * No host lock may be held across a blocking call: a contended guard
//!   on the single host thread would hang the run.
//! * A task's panic is caught at the bottom of its stack; a
//!   [`SimAbort`] unwind is an orderly teardown, anything else is kept for
//!   the owner ([`Executor::take_panic`]). [`Executor::cancel_all`] makes
//!   every suspended task unwind with `SimAbort` from its blocking call.
//! * A timed task books its running time to its [`Class`]; kernel code a
//!   process runs for itself switches the class for its duration
//!   ([`enter_class`]), and so does an engine serve ([`Class::Backend`],
//!   which the executor leaves out of [`Executor::busy_ns`]).

mod context;

pub use context::Payload;

use crate::event::SimAbort;
use compass_isa::ProcessId;
use compass_obs::{CounterBlock, Ctr};
use context::Coroutine;
use parking_lot::Mutex;
use std::cell::Cell;
use std::ptr;
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::Instant;

/// What a task simulates, for the host-time ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// An application process (frontend).
    Frontend,
    /// Kernel code a process runs for itself: an OS call or a pseudo
    /// interrupt ([`enter_class`]).
    Os,
    /// The bottom-half kernel daemon.
    BottomHalf,
    /// The engine, serving a post on the poster's stack ([`serve`]).
    /// Booked to no task counter: the owner counts it as its own.
    Backend,
}

impl Class {
    /// The counter a task of this class adds its running time to.
    fn ctr(self) -> Option<Ctr> {
        match self {
            Class::Frontend => Some(Ctr::FrontendGenNs),
            Class::Os => Some(Ctr::HostOsNs),
            Class::BottomHalf => Some(Ctr::HostBottomHalfNs),
            Class::Backend => None,
        }
    }
}

/// Ready task ids, shared with every [`Waiter`] that can wake one.
#[derive(Default)]
struct ReadyQueue {
    inner: Mutex<Ready>,
}

#[derive(Default)]
struct Ready {
    ids: Vec<usize>,
    /// The seeded schedule's xorshift state ([`Executor::set_schedule_seed`]).
    #[cfg(feature = "check-invariants")]
    shuffle: Option<u64>,
}

impl ReadyQueue {
    fn push(&self, id: usize) {
        self.inner.lock().ids.push(id);
    }

    /// Whether a blocking post runs the engine itself: always, except
    /// under a seeded schedule, where it is a coin flip.
    #[inline]
    fn serve_inline(&self) -> bool {
        #[cfg(feature = "check-invariants")]
        if let Some(state) = &mut self.inner.lock().shuffle {
            return xorshift(state).is_multiple_of(2);
        }
        true
    }
}

/// The executor's interleave coin ([`Executor::coin`]).
#[cfg(feature = "check-invariants")]
pub struct Coin(Arc<ReadyQueue>);

#[cfg(feature = "check-invariants")]
impl Coin {
    /// Whether the owner should resume ready tasks now instead of doing
    /// more of its own work first: under a seeded schedule
    /// ([`Executor::set_schedule_seed`]) a coin flip, if any task is
    /// ready — the tasks then observe the owner's state midway, as they
    /// could when they were host threads running beside it — and never
    /// otherwise.
    pub fn flip(&self) -> bool {
        let g = &mut *self.0.inner.lock();
        g.shuffle
            .as_mut()
            .is_some_and(|state| xorshift(state).is_multiple_of(4) && !g.ids.is_empty())
    }
}

/// Wakes one task.
#[derive(Clone)]
pub(crate) struct TaskWaker {
    ready: Arc<ReadyQueue>,
    id: usize,
}

/// The party blocked on a rendezvous: a parked host thread or a
/// suspended task.
#[derive(Clone)]
pub(crate) enum Waiter {
    /// An ordinary thread, woken by `unpark`.
    Thread(Thread),
    /// A task, woken by queueing it for resumption.
    Task(TaskWaker),
}

impl Waiter {
    /// The caller: its task when called from one, else its thread.
    pub(crate) fn current() -> Waiter {
        CURRENT.with(|c| {
            let t = c.get();
            if t.is_null() {
                Waiter::Thread(thread::current())
            } else {
                // SAFETY: CURRENT points at the running task's context,
                // which outlives its execution.
                Waiter::Task(unsafe { (*t).waker.clone() })
            }
        })
    }

    /// Makes the waiter runnable again. Waking one that is not blocked
    /// only causes a spurious return from its next [`wait`].
    pub(crate) fn wake(&self) {
        match self {
            Waiter::Thread(t) => t.unpark(),
            Waiter::Task(w) => w.ready.push(w.id),
        }
    }
}

/// Per-task state the blocking primitives reach through [`CURRENT`].
struct TaskCtx {
    waker: TaskWaker,
    cancelled: Cell<bool>,
    /// The host-ledger class running time is booked to now.
    class: Cell<Class>,
    /// Where running time is booked (`None`: the task is not timed).
    counters: Option<Arc<CounterBlock>>,
    /// Since when running time has not been booked (timed tasks only).
    since: Cell<Option<Instant>>,
    /// Running time booked to [`Class::Backend`] since the last resume.
    engine_ns: Cell<u64>,
}

impl TaskCtx {
    /// Books the running time since the last booking to the current
    /// class.
    fn book(&self, now: Instant) {
        if let (Some(c), Some(t)) = (&self.counters, self.since.replace(Some(now))) {
            let ns = now.duration_since(t).as_nanos() as u64;
            match self.class.get().ctr() {
                Some(ctr) => c.add(ctr, ns),
                None => self.engine_ns.set(self.engine_ns.get() + ns),
            }
        }
    }

    /// Switches the class a timed task books to (see [`enter_class`]).
    fn enter(&self, class: Class) -> ClassScope {
        if self.counters.is_none() {
            return ClassScope { prev: None };
        }
        self.book(Instant::now());
        ClassScope {
            prev: Some(self.class.replace(class)),
        }
    }
}

thread_local! {
    /// The task running on this thread, if any.
    static CURRENT: Cell<*const TaskCtx> = const { Cell::new(ptr::null()) };
    /// The engine [`with_engine`] installed on this thread, if any.
    static ENGINE: Cell<Option<*const (dyn Engine + 'static)>> = const { Cell::new(None) };
}

/// Books the running task's host time to `class` until the returned
/// scope drops, then to its previous class again. A no-op outside a task
/// or in an untimed one (counters off).
pub fn enter_class(class: Class) -> ClassScope {
    let t = CURRENT.with(|c| c.get());
    // SAFETY: see `Waiter::current`.
    match unsafe { t.as_ref() } {
        Some(ctx) => ctx.enter(class),
        None => ClassScope { prev: None },
    }
}

/// The engine as a blocking post sees it: the owner of the tasks, which
/// a task may run on its own stack ([`serve`]).
pub trait Engine {
    /// Marks process `pid`'s port as changed, so the engine re-reads it
    /// before its next selection: how a served post tells the engine
    /// about its batch and its blocking entry.
    fn touch(&self, pid: ProcessId);

    /// Processes one item the engine's safety rule allows, exactly as its
    /// own loop would. False when nothing is safe, an error is latched,
    /// or the run is over: the engine's own loop takes it from there.
    fn step(&self) -> bool;
}

/// Runs `f` with `engine` installed as this thread's engine, so blocking
/// posts from the tasks `f` resumes are served on their own stacks
/// ([`serve`]). The engine is uninstalled when `f` returns or unwinds.
pub fn with_engine<R>(engine: &dyn Engine, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<*const (dyn Engine + 'static)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENGINE.with(|e| e.set(self.0));
        }
    }
    // SAFETY: only the trait object's lifetime bound is erased. The
    // pointer is read only by `serve`, on this thread, while `f` runs:
    // `Restore` uninstalls it before `engine`'s borrow ends.
    let ptr = unsafe {
        std::mem::transmute::<*const (dyn Engine + '_), *const (dyn Engine + 'static)>(engine)
    };
    let _restore = Restore(ENGINE.with(|e| e.replace(Some(ptr))));
    f()
}

/// Serves a blocking post on the poster's own stack. When the caller is
/// a task on a thread with an installed engine ([`with_engine`]), touches
/// `pid`'s port and steps the engine until `replied()` or the engine
/// stops, booking the time to [`Class::Backend`]; the post then suspends
/// only if its reply is still missing. Returns false when no engine can
/// serve the caller: a thread poster, or a task with no engine installed
/// (a test stepping the engine by hand), notifies the port's epoch
/// instead and waits.
#[inline]
pub fn serve(pid: ProcessId, replied: impl Fn() -> bool) -> bool {
    let Some(engine) = ENGINE.with(Cell::get) else {
        return false;
    };
    // SAFETY: see `Waiter::current`.
    let Some(ctx) = (unsafe { CURRENT.with(Cell::get).as_ref() }) else {
        return false;
    };
    // SAFETY: `with_engine` keeps the engine alive while it is installed.
    let engine = unsafe { &*engine };
    engine.touch(pid);
    if ctx.waker.ready.serve_inline() {
        let _class = ctx.enter(Class::Backend);
        while !replied() && engine.step() {}
    }
    true
}

/// The extent of an [`enter_class`] switch.
#[must_use = "the class switch ends when the scope drops"]
pub struct ClassScope {
    prev: Option<Class>,
}

impl Drop for ClassScope {
    fn drop(&mut self) {
        let Some(prev) = self.prev else { return };
        // A scope drops on the stack of the task that entered it, while
        // that task runs.
        let t = CURRENT.with(|c| c.get());
        // SAFETY: see `Waiter::current`.
        if let Some(ctx) = unsafe { t.as_ref() } {
            ctx.book(Instant::now());
            ctx.class.set(prev);
        }
    }
}

/// Blocks the caller until its [`Waiter`] is woken: a task suspends back
/// to its executor, a thread parks. Returns may be spurious — callers
/// re-check their condition in a loop. A cancelled task unwinds from here
/// with [`SimAbort`].
pub(crate) fn wait() {
    let t = CURRENT.with(|c| c.get());
    if t.is_null() {
        thread::park();
        return;
    }
    // SAFETY: see `Waiter::current`.
    let cancelled = || unsafe { (*t).cancelled.get() };
    if !cancelled() {
        context::suspend();
    }
    if cancelled() {
        std::panic::resume_unwind(Box::new(SimAbort));
    }
}

struct Slot {
    coro: Option<Coroutine>,
    ctx: Box<TaskCtx>,
    /// The class the task was spawned with.
    class: Class,
    /// When the task last suspended (timed tasks only).
    suspended_at: Option<Instant>,
}

/// Runs tasks on the calling thread.
#[derive(Default)]
pub struct Executor {
    slots: Vec<Slot>,
    ready: Arc<ReadyQueue>,
    /// Reused buffer for the batch being resumed.
    batch: Vec<usize>,
    live: usize,
    /// The first task panic that was not a [`SimAbort`].
    panic: Option<Payload>,
    /// Host ns spent inside timed tasks, engine serves excepted.
    busy_ns: u64,
}

impl Executor {
    /// An executor with no tasks.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Adds a task, ready to run. With `counters`, its host time is
    /// ledgered under `class` (and, for frontends, its suspended time as
    /// communication wait).
    pub fn spawn(
        &mut self,
        class: Class,
        counters: Option<Arc<CounterBlock>>,
        body: impl FnOnce() + Send + 'static,
    ) {
        let coro = Coroutine::new(Box::new(body)).expect("cannot map a coroutine stack");
        let id = self.slots.len();
        self.slots.push(Slot {
            coro: Some(coro),
            ctx: Box::new(TaskCtx {
                waker: TaskWaker {
                    ready: Arc::clone(&self.ready),
                    id,
                },
                cancelled: Cell::new(false),
                class: Cell::new(class),
                counters,
                since: Cell::new(None),
                engine_ns: Cell::new(0),
            }),
            class,
            suspended_at: None,
        });
        self.live += 1;
        self.ready.push(id);
    }

    /// Tasks that have not finished.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Host ns spent running timed tasks so far, leaving out the engine
    /// serves they ran ([`Class::Backend`]).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Resumes every task that is ready now, in the order each became
    /// ready; tasks woken meanwhile wait for the next call. Returns
    /// whether any task was ready.
    pub fn run_ready(&mut self) -> bool {
        let mut batch = std::mem::take(&mut self.batch);
        {
            let g = &mut *self.ready.inner.lock();
            std::mem::swap(&mut batch, &mut g.ids);
            #[cfg(feature = "check-invariants")]
            if let (Some(state), false) = (&mut g.shuffle, batch.is_empty()) {
                // A random order, and a random prefix of it: the rest
                // wait while the owner steps again, as if the host had
                // scheduled the owner in between.
                permute(&mut batch, state);
                let keep = 1 + (xorshift(state) % batch.len() as u64) as usize;
                let rest = batch.split_off(keep);
                let woken = std::mem::replace(&mut g.ids, rest);
                g.ids.extend(woken);
            }
        }
        if batch.is_empty() {
            self.batch = batch;
            return false;
        }
        for &id in &batch {
            self.resume(id);
        }
        batch.clear();
        self.batch = batch;
        true
    }

    fn resume(&mut self, id: usize) {
        let slot = &mut self.slots[id];
        let Some(coro) = slot.coro.as_mut() else {
            return; // a stale wake of a finished task
        };
        let started = slot.ctx.counters.as_ref().map(|c| {
            let now = Instant::now();
            if let (Class::Frontend, Some(t)) = (slot.class, slot.suspended_at) {
                c.add(Ctr::CommWaitNs, now.duration_since(t).as_nanos() as u64);
            }
            slot.ctx.since.set(Some(now));
            now
        });
        let prev = CURRENT.with(|c| c.replace(&*slot.ctx));
        let outcome = coro.resume();
        CURRENT.with(|c| c.set(prev));
        if let Some(t0) = started {
            // Class switches inside the task booked their share already;
            // the rest goes to the class it suspended in.
            let now = Instant::now();
            slot.ctx.book(now);
            let ran = now.duration_since(t0).as_nanos() as u64;
            self.busy_ns += ran - slot.ctx.engine_ns.take();
            slot.suspended_at = Some(now);
        }
        let Some(result) = outcome else { return };
        self.slots[id].coro = None;
        self.live -= 1;
        if let Err(payload) = result {
            if !payload.is::<SimAbort>() && self.panic.is_none() {
                self.panic = Some(payload);
            }
        }
    }

    /// The interleave coin ([`Coin::flip`]), for the owner and for code
    /// it runs that cannot reach the executor.
    #[cfg(feature = "check-invariants")]
    pub fn coin(&self) -> Coin {
        Coin(Arc::clone(&self.ready))
    }

    /// The first panic a task raised that was not a [`SimAbort`].
    pub fn take_panic(&mut self) -> Option<Payload> {
        self.panic.take()
    }

    /// The message of the first task panic that was not a [`SimAbort`].
    pub fn panic_message(&self) -> Option<String> {
        self.panic.as_ref().map(payload_message)
    }

    /// Winds every task down: runs ready tasks to quiescence, then resumes
    /// each suspended task so that its blocking call unwinds with
    /// [`SimAbort`], until none is left.
    pub fn cancel_all(&mut self) {
        // A task that swallows SimAbort unwinds again at its next wait;
        // the bound only stops one that never waits again from spinning
        // here forever (its stack is then leaked).
        for _ in 0..64 {
            while self.run_ready() {}
            if self.live == 0 {
                return;
            }
            for id in 0..self.slots.len() {
                if self.slots[id].coro.is_some() {
                    self.slots[id].ctx.cancelled.set(true);
                    self.resume(id);
                }
            }
        }
    }

    /// Seeds a random schedule (the schedule-independence oracle:
    /// simulated results must not depend on it): each [`run_ready`]
    /// resumes a random permutation of a random non-empty prefix of the
    /// ready tasks, leaving the rest for the next call, the [`Coin`]
    /// asks the owner to resume tasks early, and
    /// each blocking post a task makes is served on its stack ([`serve`])
    /// or not at random.
    ///
    /// [`run_ready`]: Executor::run_ready
    #[cfg(feature = "check-invariants")]
    pub fn set_schedule_seed(&mut self, seed: u64) {
        self.ready.inner.lock().shuffle = Some(seed | 1);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Unwinding tasks while this thread is itself unwinding would
        // nest panics; their stacks are leaked instead.
        if !thread::panicking() {
            self.cancel_all();
        }
    }
}

/// The text of a panic payload (`panic!` messages are `&str` or
/// `String`).
pub fn payload_message(payload: &Payload) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Advances a xorshift64 state.
#[cfg(feature = "check-invariants")]
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Fisher-Yates over `ids`.
#[cfg(feature = "check-invariants")]
fn permute(ids: &mut [usize], state: &mut u64) {
    for i in (1..ids.len()).rev() {
        ids.swap(i, (xorshift(state) % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests;
