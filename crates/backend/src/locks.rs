//! Backend-arbitrated synchronisation: simulated locks and barriers.
//!
//! Frontend (and OS-server) critical sections are made deterministic by
//! routing lock operations through the backend: acquires are granted in
//! global `(time, pid)` order, so the functional mutations a process makes
//! while holding a simulated lock are ordered identically on every run.
//!
//! Contended acquires *deschedule* the waiter (AIX-style sleeping
//! mutexes): the engine frees the CPU and re-dispatches through the
//! process scheduler, which avoids the classic oversubscription deadlock
//! of pure spinning (a spinner holding the only CPU while the lock holder
//! sits on the ready queue).

use compass_isa::{Cycles, FoldHashMap, ProcessId};
use compass_mem::VAddr;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Synchronisation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncStats {
    /// Acquires granted immediately.
    pub uncontended: u64,
    /// Acquires that had to wait.
    pub contended: u64,
    /// Total cycles processes spent waiting for locks.
    pub lock_wait_cycles: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Total cycles spent waiting at barriers.
    pub barrier_wait_cycles: u64,
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<ProcessId>,
    /// Recursive-acquire depth (hash-bucket locks are re-entrant: two
    /// keys colliding into one lock-manager bucket must not self-deadlock).
    depth: u32,
    /// Waiters in arrival (global time) order, with their arrival times.
    waiters: VecDeque<(ProcessId, Cycles)>,
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: Vec<(ProcessId, Cycles)>,
}

/// What the engine should do after a sync event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Reply immediately to the requester.
    Granted,
    /// Hold the requester's reply; it is waiting.
    Wait,
    /// Release the listed processes, each with its wait time
    /// `(pid, arrival time)` — the engine computes latency from `now`.
    Release(Vec<(ProcessId, Cycles)>),
}

/// The lock/barrier table.
#[derive(Debug, Default)]
pub struct SyncTable {
    locks: FoldHashMap<VAddr, LockState>,
    barriers: FoldHashMap<VAddr, BarrierState>,
    stats: SyncStats,
}

impl SyncTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock acquire by `pid` at time `now`. Re-entrant: the holder may
    /// acquire again (depth counted).
    pub fn acquire(&mut self, addr: VAddr, pid: ProcessId, now: Cycles) -> SyncOutcome {
        let lock = self.locks.entry(addr).or_default();
        if lock.holder.is_none() || lock.holder == Some(pid) {
            lock.holder = Some(pid);
            lock.depth += 1;
            self.stats.uncontended += 1;
            SyncOutcome::Granted
        } else {
            lock.waiters.push_back((pid, now));
            self.stats.contended += 1;
            SyncOutcome::Wait
        }
    }

    /// Lock release by `pid` at time `now`. Grants the head waiter when
    /// the outermost hold ends.
    pub fn release(&mut self, addr: VAddr, pid: ProcessId, now: Cycles) -> SyncOutcome {
        let lock = self
            .locks
            .get_mut(&addr)
            .unwrap_or_else(|| panic!("release of unknown lock {addr} by {pid}"));
        assert_eq!(
            lock.holder,
            Some(pid),
            "release of {addr} by non-holder {pid}"
        );
        lock.depth -= 1;
        if lock.depth > 0 {
            return SyncOutcome::Granted;
        }
        match lock.waiters.pop_front() {
            Some((next, arrived)) => {
                lock.holder = Some(next);
                lock.depth = 1;
                self.stats.lock_wait_cycles += now.saturating_sub(arrived);
                SyncOutcome::Release(vec![(next, arrived)])
            }
            None => {
                lock.holder = None;
                SyncOutcome::Granted
            }
        }
    }

    /// Barrier arrival: `count` participants expected.
    pub fn barrier(&mut self, addr: VAddr, pid: ProcessId, count: u16, now: Cycles) -> SyncOutcome {
        let b = self.barriers.entry(addr).or_default();
        debug_assert!(
            !b.arrived.iter().any(|&(p, _)| p == pid),
            "{pid} entered barrier {addr} twice"
        );
        b.arrived.push((pid, now));
        if b.arrived.len() as u16 == count {
            let released = std::mem::take(&mut b.arrived);
            self.stats.barriers += 1;
            self.stats.barrier_wait_cycles += released
                .iter()
                .map(|&(_, t)| now.saturating_sub(t))
                .sum::<u64>();
            SyncOutcome::Release(released)
        } else {
            SyncOutcome::Wait
        }
    }

    /// The current holder of a lock (diagnostics).
    pub fn holder(&self, addr: VAddr) -> Option<ProcessId> {
        self.locks.get(&addr).and_then(|l| l.holder)
    }

    /// Counters.
    pub fn stats(&self) -> SyncStats {
        self.stats
    }

    /// Diagnostic dump for deadlock reports: held locks and waiter counts.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (addr, l) in &self.locks {
            if l.holder.is_some() || !l.waiters.is_empty() {
                out.push_str(&format!(
                    "lock {addr}: holder={:?} waiters={:?}\n",
                    l.holder,
                    l.waiters.iter().map(|w| w.0).collect::<Vec<_>>()
                ));
            }
        }
        for (addr, b) in &self.barriers {
            if !b.arrived.is_empty() {
                out.push_str(&format!(
                    "barrier {addr}: arrived={:?}\n",
                    b.arrived.iter().map(|a| a.0).collect::<Vec<_>>()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: VAddr = VAddr(0x7000_0040);

    fn p(n: u32) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn uncontended_acquire_release() {
        let mut t = SyncTable::new();
        assert_eq!(t.acquire(L, p(0), 10), SyncOutcome::Granted);
        assert_eq!(t.holder(L), Some(p(0)));
        assert_eq!(t.release(L, p(0), 20), SyncOutcome::Granted);
        assert_eq!(t.holder(L), None);
        assert_eq!(t.stats().uncontended, 1);
        assert_eq!(t.stats().contended, 0);
    }

    #[test]
    fn contended_acquire_waits_and_transfers_in_fifo_order() {
        let mut t = SyncTable::new();
        t.acquire(L, p(0), 0);
        assert_eq!(t.acquire(L, p(1), 5), SyncOutcome::Wait);
        assert_eq!(t.acquire(L, p(2), 7), SyncOutcome::Wait);
        // Release grants p1 (first waiter), ownership transfers directly.
        assert_eq!(
            t.release(L, p(0), 100),
            SyncOutcome::Release(vec![(p(1), 5)])
        );
        assert_eq!(t.holder(L), Some(p(1)));
        assert_eq!(
            t.release(L, p(1), 200),
            SyncOutcome::Release(vec![(p(2), 7)])
        );
        assert_eq!(t.release(L, p(2), 300), SyncOutcome::Granted);
        assert_eq!(t.stats().lock_wait_cycles, 95 + 193);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut t = SyncTable::new();
        t.acquire(L, p(0), 0);
        t.release(L, p(1), 1);
    }

    #[test]
    fn barrier_releases_all_on_last_arrival() {
        let mut t = SyncTable::new();
        assert_eq!(t.barrier(L, p(0), 3, 10), SyncOutcome::Wait);
        assert_eq!(t.barrier(L, p(1), 3, 20), SyncOutcome::Wait);
        let out = t.barrier(L, p(2), 3, 30);
        assert_eq!(
            out,
            SyncOutcome::Release(vec![(p(0), 10), (p(1), 20), (p(2), 30)])
        );
        assert_eq!(t.stats().barriers, 1);
        assert_eq!(t.stats().barrier_wait_cycles, (20 + 10));
        // The barrier is reusable.
        assert_eq!(t.barrier(L, p(0), 2, 40), SyncOutcome::Wait);
        let out2 = t.barrier(L, p(1), 2, 50);
        assert_eq!(out2, SyncOutcome::Release(vec![(p(0), 40), (p(1), 50)]));
    }

    #[test]
    fn distinct_addresses_are_independent_locks() {
        let mut t = SyncTable::new();
        let l2 = VAddr(0x7000_0080);
        t.acquire(L, p(0), 0);
        assert_eq!(t.acquire(l2, p(1), 0), SyncOutcome::Granted);
    }
}
