//! Backend wake-up channel for posters on ordinary threads.
//!
//! The backend "keeps scanning the event ports of all running frontend
//! processes" (§2). A busy spin would burn a host CPU, so a blocking post
//! from an ordinary thread (the engine unit tests, the benchmark's port
//! probes) notifies this channel, and the backend sleeps between scans
//! when no event is actionable. An epoch counter closes the race between
//! a scan that finds nothing and a post that lands just before the
//! backend sleeps — and it doubles as the backend's cache-invalidation
//! stamp: the incremental port scanner only re-polls ports when the epoch
//! has moved.
//!
//! Simulated processes never notify: they are tasks on the engine's own
//! thread, and their blocking posts touch their index entry and run the
//! engine themselves ([`crate::coro::serve`]). Batched posts never notify
//! either; the blocking post that cuts the batch does. The fast path
//! still matters for thread posters: the epoch lives in an atomic, and
//! the condvar mutex is touched only when the waiter has announced
//! itself, so a notify with the backend awake is two uncontended atomic
//! operations.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// An epoch-counting notification channel (many notifiers, one waiter).
#[derive(Default)]
pub struct Notifier {
    epoch: AtomicU64,
    /// True while the single waiter is inside [`Notifier::wait_past`];
    /// notifies skip the condvar entirely otherwise.
    waiting: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Notifier {
    /// Creates a fresh notifier at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current epoch; read this *before* scanning, pass it to
    /// [`Notifier::wait_past`] after an empty scan.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advances the epoch and wakes the waiter if one is sleeping.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // SeqCst store-load pairing with wait_past: the waiter stores
        // `waiting` then loads `epoch`; we bump `epoch` then load
        // `waiting`. At least one side observes the other, so a waiter
        // that missed this bump is guaranteed visible here — and then the
        // mutex hand-off below cannot complete before it reaches the
        // condvar wait.
        if self.waiting.load(Ordering::SeqCst) {
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    /// Blocks until the epoch exceeds `seen`, or `timeout` elapses.
    /// Returns the epoch observed on wake and whether it advanced.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> (u64, bool) {
        let e = self.epoch.load(Ordering::SeqCst);
        if e > seen {
            return (e, true);
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.lock.lock();
        self.waiting.store(true, Ordering::SeqCst);
        loop {
            let e = self.epoch.load(Ordering::SeqCst);
            if e > seen {
                self.waiting.store(false, Ordering::SeqCst);
                return (e, true);
            }
            if self.cv.wait_until(&mut g, deadline).timed_out() {
                self.waiting.store(false, Ordering::SeqCst);
                let e = self.epoch.load(Ordering::SeqCst);
                return (e, e > seen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn notify_wakes_waiter() {
        let n = Arc::new(Notifier::new());
        let seen = n.epoch();
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            n2.notify();
        });
        let (e, advanced) = n.wait_past(seen, Duration::from_secs(5));
        assert!(advanced);
        assert!(e > seen);
        t.join().unwrap();
    }

    #[test]
    fn missed_notify_is_not_lost() {
        let n = Notifier::new();
        let seen = n.epoch();
        n.notify(); // arrives "before" the wait
        let (_, advanced) = n.wait_past(seen, Duration::from_millis(1));
        assert!(advanced, "epoch counting must absorb early notifies");
    }

    #[test]
    fn timeout_reports_no_progress() {
        let n = Notifier::new();
        let seen = n.epoch();
        let (_, advanced) = n.wait_past(seen, Duration::from_millis(5));
        assert!(!advanced);
    }

    #[test]
    fn notifies_while_awake_are_cheap_and_counted() {
        let n = Notifier::new();
        let e0 = n.epoch();
        for _ in 0..100 {
            n.notify();
        }
        assert_eq!(n.epoch(), e0 + 100);
    }
}
