//! Engine observability: counters, the structured trace and periodic
//! progress snapshots.
//!
//! Everything here is observation-only: simulation code never reads it
//! back, so turning it on cannot perturb event order or `BackendStats`.

use crate::engine::{Backend, PState};
use compass_comm::EventBody;
use compass_isa::Cycles;
use compass_obs::{
    CounterBlock, Ctr, ProgressFn, ProgressSnapshot, TraceHandle, TraceKind, TraceRec,
};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Engine-side observability state; every part is optional.
#[derive(Default)]
pub(crate) struct EngineObs {
    /// Relaxed-atomic counters (`None` = disabled; one branch per hook).
    pub(crate) counters: Option<Arc<CounterBlock>>,
    /// Structured trace recorder.
    pub(crate) trace: Option<TraceHandle>,
    /// The OS server's counter block, read (never written) by progress
    /// snapshots so heartbeats can surface `os_batched_replies` alongside
    /// engine-side quantities.
    os_counters: Option<Arc<CounterBlock>>,
    /// Periodic progress snapshots.
    progress: Option<ProgressState>,
}

impl EngineObs {
    /// Adds one to counter `c` when counters are on.
    #[inline]
    pub(crate) fn inc(&self, c: Ctr) {
        if let Some(b) = &self.counters {
            b.inc(c);
        }
    }

    /// Adds `n` to counter `c` when counters are on.
    #[inline]
    pub(crate) fn add(&self, c: Ctr, n: u64) {
        if let Some(b) = &self.counters {
            b.add(c, n);
        }
    }

    /// Appends a structured-trace record when tracing admits `kind`.
    #[inline]
    pub(crate) fn record(&self, time: Cycles, pid: u32, kind: TraceKind, a: u64, b: u64) {
        if let Some(t) = &self.trace {
            let tag = "";
            t.record(TraceRec {
                time,
                pid,
                kind,
                a,
                b,
                tag,
            });
        }
    }
}

/// The counter an event of this kind bumps. The event counters are the
/// catalogue's first four slots, in event-kind order, so the slot number
/// is also the kind a pickup trace record carries.
pub(crate) fn event_ctr(body: &EventBody) -> Ctr {
    match body {
        EventBody::MemRef { .. } => Ctr::EventsMemRef,
        EventBody::Sync { .. } => Ctr::EventsSync,
        EventBody::Dev(_) => Ctr::EventsDev,
        EventBody::Ctl(_) => Ctr::EventsCtl,
    }
}

/// Progress-snapshot bookkeeping: fire the callback every `every`
/// processed events.
struct ProgressState {
    every: u64,
    next: u64,
    callback: ProgressFn,
    started: Instant,
    last_wall: Instant,
    last_events: u64,
}

impl Backend {
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
        self.obs.os_counters = Some(c);
    }

    /// Emits a [`ProgressSnapshot`] through `f` every `every` processed
    /// events (runner heartbeats, simcheck livelock visibility).
    pub fn set_progress(&mut self, every: u64, f: ProgressFn) {
        let now = Instant::now();
        let every = every.max(1);
        self.obs.progress = Some(ProgressState {
            every,
            next: every,
            callback: f,
            started: now,
            last_wall: now,
            last_events: 0,
        });
    }

    /// Emits a progress snapshot when the event count crosses the next
    /// threshold. One integer compare per step while enabled; absent
    /// entirely when progress is off.
    pub(crate) fn maybe_progress(&mut self) {
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
        let wall = now.duration_since(p.started);
        let callback = Rc::clone(&p.callback);

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
                .obs
                .os_counters
                .as_ref()
                .map_or(0, |c| c.get(Ctr::OsBatchedReplies)),
            device_wake_events: self.device_wake_events,
            device_polls_eliminated: self.device_polls_eliminated,
            disk_wake_events: self.disk_wake_events,
            disk_polls_eliminated: self.devshared.polls_eliminated(),
        };
        self.obs.inc(Ctr::ProgressSnapshots);
        let (at, events) = (self.global_time, self.events_processed);
        self.obs
            .record(at, u32::MAX, TraceKind::Snapshot, events, 0);
        callback(&snap);
    }
}
