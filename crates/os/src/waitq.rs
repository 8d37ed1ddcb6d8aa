//! Kernel sleep/wakeup channels.
//!
//! The functional half of the classic `sleep(chan)` / `wakeup(chan)`
//! kernel idiom: a process registers on a channel while holding the
//! subsystem's simulated lock, releases the lock, and blocks; a waker
//! (typically an interrupt handler) removes the sleepers under the same
//! lock and posts `Unblock` events for them. The backend's wakeup latch
//! absorbs the release-then-block window.

use compass_isa::ProcessId;
use std::cell::RefCell;
use std::collections::HashMap;

/// A wait channel identifier. Conventionally the simulated kernel address
/// of the object slept on (buffer header, socket, accept queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chan(pub u32);

/// The kernel's wait queues.
#[derive(Debug, Default)]
pub struct WaitQueues {
    chans: RefCell<HashMap<Chan, Vec<ProcessId>>>,
}

impl WaitQueues {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `pid` as sleeping on `chan`. Call while holding the
    /// subsystem's simulated lock.
    pub fn sleep_on(&self, chan: Chan, pid: ProcessId) {
        let mut g = self.chans.borrow_mut();
        let q = g.entry(chan).or_default();
        debug_assert!(!q.contains(&pid), "{pid} sleeping twice on {chan:?}");
        q.push(pid);
    }

    /// Removes `pid` from `chan` (sleep cancelled, e.g. select retry).
    pub fn cancel(&self, chan: Chan, pid: ProcessId) {
        let mut g = self.chans.borrow_mut();
        if let Some(q) = g.get_mut(&chan) {
            q.retain(|&p| p != pid);
            if q.is_empty() {
                g.remove(&chan);
            }
        }
    }

    /// Takes every sleeper on `chan` (wakeup). Call while holding the
    /// subsystem's simulated lock; post `Unblock` for each afterwards.
    pub fn wake_all(&self, chan: Chan) -> Vec<ProcessId> {
        self.chans.borrow_mut().remove(&chan).unwrap_or_default()
    }

    /// Takes the first sleeper on `chan` (wakeup one).
    pub fn wake_one(&self, chan: Chan) -> Option<ProcessId> {
        let mut g = self.chans.borrow_mut();
        let q = g.get_mut(&chan)?;
        let pid = q.remove(0);
        if q.is_empty() {
            g.remove(&chan);
        }
        Some(pid)
    }

    /// Number of sleepers on a channel (diagnostics).
    pub fn sleepers(&self, chan: Chan) -> usize {
        self.chans.borrow().get(&chan).map_or(0, |q| q.len())
    }

    /// Liveness invariants (the `check-invariants` feature calls this
    /// after every syscall dispatch): no process sleeps twice on the same
    /// channel — a double sleep means a lost wakeup, since `wake_one`
    /// removes one entry — and no emptied queue lingers in the map.
    pub fn check_invariants(&self) -> Result<(), String> {
        let g = self.chans.borrow();
        for (chan, q) in g.iter() {
            if q.is_empty() {
                return Err(format!("{chan:?}: empty wait queue retained"));
            }
            let mut seen = std::collections::HashSet::new();
            for pid in q {
                if !seen.insert(pid) {
                    return Err(format!("{chan:?}: {pid} sleeping twice"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn sleep_wake_all() {
        let w = WaitQueues::new();
        w.sleep_on(Chan(1), p(0));
        w.sleep_on(Chan(1), p(1));
        w.sleep_on(Chan(2), p(2));
        assert_eq!(w.wake_all(Chan(1)), vec![p(0), p(1)]);
        assert_eq!(w.sleepers(Chan(1)), 0);
        assert_eq!(w.sleepers(Chan(2)), 1);
    }

    #[test]
    fn wake_one_is_fifo() {
        let w = WaitQueues::new();
        w.sleep_on(Chan(1), p(0));
        w.sleep_on(Chan(1), p(1));
        assert_eq!(w.wake_one(Chan(1)), Some(p(0)));
        assert_eq!(w.wake_one(Chan(1)), Some(p(1)));
        assert_eq!(w.wake_one(Chan(1)), None);
    }

    #[test]
    fn cancel_removes_only_that_pid() {
        let w = WaitQueues::new();
        w.sleep_on(Chan(1), p(0));
        w.sleep_on(Chan(1), p(1));
        w.cancel(Chan(1), p(0));
        assert_eq!(w.wake_all(Chan(1)), vec![p(1)]);
    }

    #[test]
    fn wake_empty_channel_is_empty() {
        let w = WaitQueues::new();
        assert!(w.wake_all(Chan(9)).is_empty());
    }
}
