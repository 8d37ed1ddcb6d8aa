//! The notify epoch of event-port posters on ordinary threads.
//!
//! Every simulated poster is a task on the engine's own thread: its
//! blocking post touches its index entry and runs the engine itself
//! ([`crate::coro::serve`]), so no simulation ever notifies. A blocking
//! post from an ordinary thread (the benchmark's port probes) cannot run
//! the engine; it bumps this epoch instead, which a consumer polling the
//! port by hand may read. Batched posts never notify; the blocking post
//! that cuts the batch does.

use std::sync::atomic::{AtomicU64, Ordering};

/// An epoch counter that thread posters bump on every blocking post.
#[derive(Default)]
pub struct Notifier {
    epoch: AtomicU64,
}

impl Notifier {
    /// Creates a fresh notifier at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current epoch: how many notifies have landed.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advances the epoch.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_notify_advances_the_epoch() {
        let n = Notifier::new();
        let e0 = n.epoch();
        for _ in 0..100 {
            n.notify();
        }
        assert_eq!(n.epoch(), e0 + 100);
    }
}
