//! The device postbox shared between backend device models and the OS
//! server's interrupt handlers.
//!
//! Backend devices (disk controllers, the Ethernet NIC, the interval
//! timer — §3.4) deposit completion records and received frames here and
//! raise the corresponding interrupt-request flag. Kernel interrupt-handler
//! code (bottom half, §3.2) drains the queues under a simulated kernel
//! lock, so the *simulated* drain order is deterministic; the host-level
//! mutexes below only provide memory safety. A handler drains only the
//! records due by its own clock (`drain_*_until(now)`): there is no
//! drain-everything path, since that filter is what keeps handlers
//! deterministic.
//!
//! Every queue keeps an atomic earliest-due-time alongside the mutex, so
//! the hot "is anything due at `now`?" probes — one per OS-daemon block
//! and one per handler drain pass — are answered with a relaxed load
//! instead of a lock acquisition plus an O(pending) scan. The invariant
//! (`earliest == min(due times)`, `u64::MAX` when empty) is maintained
//! under the queue lock; fast-path readers rely on the reply-channel
//! synchronization that already orders deposits before the wake that
//! services them. Eliminated scans are counted in `polls_eliminated`.

use compass_isa::{ConnId, CpuId, Cycles, DiskId, NicId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// A completed disk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskCompletion {
    /// The disk that finished.
    pub disk: DiskId,
    /// The token from the originating [`crate::DevCmd`].
    pub token: u32,
    /// True for writes.
    pub write: bool,
    /// Global simulated completion time.
    pub time: Cycles,
}

/// Kinds of Ethernet frames exchanged with the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection request (client SYN).
    Syn,
    /// Data segment.
    Data,
    /// A pure ACK for server-transmitted data (input-side TCP processing
    /// with no payload; a large share of a busy web server's interrupt
    /// time).
    Ack,
    /// Connection teardown.
    Fin,
}

/// A received Ethernet frame (client → server direction; server → client
/// traffic is a [`crate::DevCmd::NetTx`] event consumed by the traffic
/// source model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Receiving NIC.
    pub nic: NicId,
    /// Connection the frame belongs to.
    pub conn: ConnId,
    /// Frame kind.
    pub kind: FrameKind,
    /// Functional payload (e.g. an HTTP request line).
    pub payload: Vec<u8>,
    /// Global simulated arrival time.
    pub time: Cycles,
}

/// An interval-timer expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerTick {
    /// The CPU whose timer fired.
    pub cpu: CpuId,
    /// Global simulated expiry time.
    pub time: Cycles,
}

/// One device queue plus its lock-free due-time summary.
struct DueQueue<T> {
    q: Mutex<VecDeque<T>>,
    /// Minimum due time of queued records, `u64::MAX` when empty.
    /// Written only under `q`'s lock; read without it.
    earliest: AtomicU64,
    total: AtomicU64,
}

impl<T: Clone> DueQueue<T> {
    fn new() -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            earliest: AtomicU64::new(u64::MAX),
            total: AtomicU64::new(0),
        }
    }

    fn push(&self, item: T, time: Cycles) {
        let mut q = self.q.lock();
        q.push_back(item);
        self.earliest.fetch_min(time, Ordering::AcqRel);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Earliest due time, `u64::MAX` if the queue is (last seen) empty.
    fn earliest(&self) -> u64 {
        self.earliest.load(Ordering::Acquire)
    }

    /// Drains records due at or before `now`; `skipped` counts calls the
    /// due-time summary answered without locking.
    fn drain_until(&self, now: Cycles, due: impl Fn(&T) -> Cycles, skipped: &AtomicU64) -> Vec<T> {
        if self.earliest() > now {
            skipped.fetch_add(1, Ordering::Relaxed);
            return Vec::new();
        }
        let mut q = self.q.lock();
        let mut out = Vec::new();
        let mut min = u64::MAX;
        q.retain(|it| {
            let t = due(it);
            if t <= now {
                out.push(it.clone());
                false
            } else {
                min = min.min(t);
                true
            }
        });
        self.earliest.store(min, Ordering::Release);
        out
    }
}

/// The postbox itself.
pub struct DevShared {
    disk: DueQueue<DiskCompletion>,
    nic_rx: DueQueue<Frame>,
    timer: DueQueue<TimerTick>,
    polls_eliminated: AtomicU64,
}

impl Default for DevShared {
    fn default() -> Self {
        Self::new()
    }
}

impl DevShared {
    /// Creates an empty postbox.
    pub fn new() -> Self {
        Self {
            disk: DueQueue::new(),
            nic_rx: DueQueue::new(),
            timer: DueQueue::new(),
            polls_eliminated: AtomicU64::new(0),
        }
    }

    /// Deposits a disk completion (backend side).
    pub fn push_disk(&self, c: DiskCompletion) {
        let t = c.time;
        self.disk.push(c, t);
    }

    /// Drains disk completions with `time <= now`.
    ///
    /// Interrupt handlers run at a definite simulated time; records the
    /// backend deposited for *later* simulated times must stay queued even
    /// if they have already arrived in host time — this filter is what
    /// keeps handler behaviour deterministic.
    pub fn drain_disk_until(&self, now: Cycles) -> Vec<DiskCompletion> {
        self.disk
            .drain_until(now, |c| c.time, &self.polls_eliminated)
    }

    /// Deposits a received frame (backend NIC model).
    pub fn push_frame(&self, f: Frame) {
        let t = f.time;
        self.nic_rx.push(f, t);
    }

    /// Drains frames with `time <= now` (see [`DevShared::drain_disk_until`]).
    pub fn drain_frames_until(&self, now: Cycles) -> Vec<Frame> {
        self.nic_rx
            .drain_until(now, |f| f.time, &self.polls_eliminated)
    }

    /// Deposits a timer tick (backend interval timer).
    pub fn push_tick(&self, t: TimerTick) {
        let due = t.time;
        self.timer.push(t, due);
    }

    /// Drains timer ticks with `time <= now`
    /// (see [`DevShared::drain_disk_until`]).
    pub fn drain_ticks_until(&self, now: Cycles) -> Vec<TimerTick> {
        self.timer
            .drain_until(now, |t| t.time, &self.polls_eliminated)
    }

    /// True if any queue holds work due at or before `now`. Answered from
    /// the due-time summaries — no locks, no scans; a fruitless probe is
    /// counted as an eliminated poll.
    pub fn has_work_until(&self, now: Cycles) -> bool {
        let due = self.disk.earliest() <= now
            || self.nic_rx.earliest() <= now
            || self.timer.earliest() <= now;
        if !due {
            self.polls_eliminated.fetch_add(1, Ordering::Relaxed);
        }
        due
    }

    /// Lifetime totals `(disk completions, frames, ticks)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.disk.total.load(Ordering::Relaxed),
            self.nic_rx.total.load(Ordering::Relaxed),
            self.timer.total.load(Ordering::Relaxed),
        )
    }

    /// Queue probes (blocked-daemon checks and handler drain passes) the
    /// due-time summaries answered without a lock acquisition or scan.
    pub fn polls_eliminated(&self) -> u64 {
        self.polls_eliminated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_queue_fifo() {
        let d = DevShared::new();
        d.push_disk(DiskCompletion {
            disk: DiskId(0),
            token: 1,
            write: false,
            time: 10,
        });
        d.push_disk(DiskCompletion {
            disk: DiskId(0),
            token: 2,
            write: true,
            time: 20,
        });
        let got = d.drain_disk_until(Cycles::MAX);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].token, 1);
        assert_eq!(got[1].token, 2);
        assert!(d.drain_disk_until(Cycles::MAX).is_empty());
        assert_eq!(d.totals().0, 2);
    }

    #[test]
    fn frames_carry_payload() {
        let d = DevShared::new();
        d.push_frame(Frame {
            nic: NicId(0),
            conn: ConnId(7),
            kind: FrameKind::Data,
            payload: b"GET /file1 HTTP/1.0".to_vec(),
            time: 5,
        });
        let got = d.drain_frames_until(Cycles::MAX);
        assert_eq!(got[0].payload, b"GET /file1 HTTP/1.0");
        assert_eq!(got[0].kind, FrameKind::Data);
    }

    #[test]
    fn time_filtered_drain_leaves_future_records() {
        let d = DevShared::new();
        for (tok, t) in [(1u32, 10u64), (2, 20), (3, 30)] {
            d.push_disk(DiskCompletion {
                disk: DiskId(0),
                token: tok,
                write: false,
                time: t,
            });
        }
        let got = d.drain_disk_until(20);
        assert_eq!(got.iter().map(|c| c.token).collect::<Vec<_>>(), vec![1, 2]);
        assert!(d.has_work_until(30));
        assert!(!d.has_work_until(29));
        let rest = d.drain_disk_until(100);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].token, 3);
    }

    #[test]
    fn frame_and_tick_filters_work() {
        let d = DevShared::new();
        d.push_frame(Frame {
            nic: NicId(0),
            conn: ConnId(1),
            kind: FrameKind::Syn,
            payload: vec![],
            time: 50,
        });
        d.push_tick(TimerTick {
            cpu: CpuId(0),
            time: 70,
        });
        assert!(d.drain_frames_until(49).is_empty());
        assert_eq!(d.drain_frames_until(50).len(), 1);
        assert!(d.drain_ticks_until(69).is_empty());
        assert_eq!(d.drain_ticks_until(70).len(), 1);
    }

    #[test]
    fn has_work_reflects_any_queue() {
        let d = DevShared::new();
        assert!(!d.has_work_until(Cycles::MAX - 1));
        d.push_tick(TimerTick {
            cpu: CpuId(0),
            time: 1,
        });
        assert!(d.has_work_until(1));
        assert_eq!(d.drain_ticks_until(Cycles::MAX).len(), 1);
        assert!(!d.has_work_until(Cycles::MAX - 1));
    }

    #[test]
    fn due_time_summary_tracks_drains_and_counts_eliminated_polls() {
        let d = DevShared::new();
        // Empty postbox: every probe and filtered drain is lock-free.
        assert!(!d.has_work_until(u64::MAX - 1));
        assert!(d.drain_disk_until(100).is_empty());
        assert!(d.drain_frames_until(100).is_empty());
        assert!(d.drain_ticks_until(100).is_empty());
        assert_eq!(d.polls_eliminated(), 4);

        // Future-only records keep the fast path active below their due
        // time and the summary is rebuilt after a partial drain.
        d.push_disk(DiskCompletion {
            disk: DiskId(1),
            token: 9,
            write: true,
            time: 500,
        });
        d.push_disk(DiskCompletion {
            disk: DiskId(1),
            token: 10,
            write: false,
            time: 900,
        });
        assert!(!d.has_work_until(499));
        assert!(d.has_work_until(500));
        assert!(d.drain_disk_until(499).is_empty());
        assert_eq!(d.drain_disk_until(500).len(), 1);
        assert!(!d.has_work_until(899));
        assert_eq!(d.drain_disk_until(900).len(), 1);
        assert!(!d.has_work_until(Cycles::MAX - 1));
    }
}
