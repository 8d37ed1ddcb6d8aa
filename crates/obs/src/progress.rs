//! Periodic progress snapshots from the engine loop.
//!
//! A long simulation is a black box without these: the backend emits a
//! [`ProgressSnapshot`] every N serviced events through a registered
//! callback, cheap enough to leave on. The runner prints heartbeats from
//! it; soak harnesses keep the latest snapshot around so a stuck run can
//! report *where* it was stuck (per-process state histogram, least-time
//! lag) instead of just timing out.

use std::rc::Rc;
use std::time::Duration;

/// One heartbeat from the engine loop.
#[derive(Clone, Debug)]
pub struct ProgressSnapshot {
    /// Global simulated time (cycles) of the most recent event.
    pub sim_time: u64,
    /// Events serviced so far.
    pub events: u64,
    /// Wall-clock time since the engine started.
    pub wall: Duration,
    /// Mean serviced events per wall-clock second so far.
    pub events_per_sec: f64,
    /// Per-process state histogram as `(state name, count)`, states in a
    /// fixed order with zero counts omitted.
    pub states: Vec<(&'static str, u32)>,
    /// Least-time lag: how far (cycles) the slowest frontend's safety
    /// bound trails global time. Large and growing = one process starves
    /// the horizon.
    pub min_lag: u64,
    /// Syscall replies that aggregated batched work (see
    /// `Ctr::OsBatchedReplies`). Zero when counters are off.
    pub os_batched_replies: u64,
    /// Device completion wake events scheduled so far.
    pub device_wake_events: u64,
    /// Idle interval-timer polls eliminated so far.
    pub device_polls_eliminated: u64,
    /// Disk/NIC completions that woke the blocked bottom-half daemon.
    pub disk_wake_events: u64,
    /// Device-queue probes the postbox due-time summary answered without
    /// a lock or scan.
    pub disk_polls_eliminated: u64,
}

impl ProgressSnapshot {
    /// One-line rendering for heartbeat printing.
    pub fn one_line(&self) -> String {
        let states = self
            .states
            .iter()
            .map(|(s, n)| format!("{s}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let mut line = format!(
            "t={} events={} ({:.0}/s) lag={} [{}]",
            self.sim_time, self.events, self.events_per_sec, self.min_lag, states
        );
        if self.os_batched_replies > 0 {
            line.push_str(&format!(" obatch={}", self.os_batched_replies));
        }
        if self.device_wake_events > 0 || self.device_polls_eliminated > 0 {
            line.push_str(&format!(
                " wakes={} polls_cut={}",
                self.device_wake_events, self.device_polls_eliminated
            ));
        }
        if self.disk_wake_events > 0 || self.disk_polls_eliminated > 0 {
            line.push_str(&format!(
                " dwakes={} dpolls_cut={}",
                self.disk_wake_events, self.disk_polls_eliminated
            ));
        }
        line
    }
}

/// Callback invoked on each snapshot, on the thread running the
/// simulation. Keep it fast; it runs inline with event servicing.
pub type ProgressFn = Rc<dyn Fn(&ProgressSnapshot)>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_contains_the_essentials() {
        let s = ProgressSnapshot {
            sim_time: 1234,
            events: 99,
            wall: Duration::from_millis(10),
            events_per_sec: 9900.0,
            states: vec![("Running", 2), ("Blocked", 1)],
            min_lag: 7,
            os_batched_replies: 3,
            device_wake_events: 12,
            device_polls_eliminated: 5,
            disk_wake_events: 4,
            disk_polls_eliminated: 8,
        };
        let line = s.one_line();
        assert!(line.contains("t=1234"));
        assert!(line.contains("events=99"));
        assert!(line.contains("Running:2"));
        assert!(line.contains("lag=7"));
        assert!(line.contains("obatch=3"));
        assert!(line.contains("wakes=12"));
    }
}
