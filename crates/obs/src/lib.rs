//! The COMPASS observability layer.
//!
//! COMPASS's value is the numbers it emits (the paper's Table 1 time
//! attribution, the scheduler/placement studies), so the simulator carries
//! a first-class instrumentation layer in the style of gem5's stats
//! framework, which keeps one set of statistics per simulation and reads
//! it when it dumps:
//!
//! * [`counters`] — a fixed catalogue of cheap counters ([`Ctr`]) in one
//!   [`CounterBlock`] per run, read once at the end of the run.
//! * [`trace`] — a config-driven structured trace: typed records in a
//!   bounded ring ([`TraceBuffer`]) with level filtering
//!   ([`TraceLevel`]), exported as JSONL or Chrome `trace_event` JSON.
//!
//! Every hook site holds a clone of one [`Obs`] handle: the run's block
//! and its trace ring, each optional.
//!
//! Everything here is *observation only*: no type in this crate is ever
//! read back by simulation code, so enabling or disabling it cannot
//! perturb simulated timing. Disabled-mode cost is one `Option` branch
//! per hook site.

pub mod config;
pub mod counters;
pub mod trace;

pub use config::ObsConfig;
pub use counters::{CounterBlock, Ctr, CTR_COUNT};
pub use trace::{TraceBuffer, TraceHandle, TraceKind, TraceLevel, TraceRec};

use std::sync::Arc;

/// A hook site's view of the run's observability: the run's one counter
/// block and its trace ring, each `None` when off. Every hook site holds
/// a clone; each method is one branch when its half is off.
#[derive(Clone, Default)]
pub struct Obs {
    /// The run's counter block.
    pub counters: Option<Arc<CounterBlock>>,
    /// The run's structured trace recorder.
    pub trace: Option<TraceHandle>,
}

impl Obs {
    /// Adds one to counter `c` when counters are on.
    #[inline]
    pub fn inc(&self, c: Ctr) {
        if let Some(b) = &self.counters {
            b.inc(c);
        }
    }

    /// Adds `n` to counter `c` when counters are on.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        if let Some(b) = &self.counters {
            b.add(c, n);
        }
    }

    /// Appends an untagged record when tracing admits `kind`.
    #[inline]
    pub fn record(&self, time: u64, pid: u32, kind: TraceKind, a: u64, b: u64) {
        self.trace(TraceRec {
            a,
            b,
            ..TraceRec::new(time, pid, kind)
        });
    }

    /// Appends `rec` when tracing admits its kind.
    #[inline]
    pub fn trace(&self, rec: TraceRec) {
        if let Some(t) = &self.trace {
            t.record(rec);
        }
    }
}

/// The observability section of a finished run, attached to
/// `RunReport` when observability was enabled.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Every counter in catalogue order, read from the run's block
    /// (zeros included, so consumers can index by name).
    pub counters: Vec<(&'static str, u64)>,
    /// Records retained in the trace ring at the end of the run.
    pub trace_records: u64,
    /// Records overwritten because the ring was full.
    pub trace_dropped: u64,
}

impl ObsReport {
    /// Value of one counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The non-zero counters, for compact printing.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .iter()
            .filter(|(_, v)| *v != 0)
            .copied()
            .collect()
    }

    /// Folds another run's report into this one, summing counters by
    /// name. Every report carries the catalogue in order (zeros
    /// included), so two reports from the same build zip positionally;
    /// counters only one side knows (an empty `Default` accumulator, or
    /// reports from builds with different catalogues) are appended rather
    /// than dropped. The fleet runner uses this to aggregate
    /// observability across a whole sweep.
    pub fn merge(&mut self, other: &ObsReport) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => *acc += v,
                None => self.counters.push((name, *v)),
            }
        }
        self.trace_records += other.trace_records;
        self.trace_dropped += other.trace_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_by_name_and_keeps_unknown_counters() {
        let mut a = ObsReport {
            counters: vec![("events", 10), ("os_calls", 0)],
            trace_records: 5,
            trace_dropped: 1,
        };
        let b = ObsReport {
            counters: vec![("events", 32), ("os_calls", 7), ("barriers", 2)],
            trace_records: 3,
            trace_dropped: 0,
        };
        a.merge(&b);
        assert_eq!(a.counter("events"), 42);
        assert_eq!(a.counter("os_calls"), 7);
        assert_eq!(a.counter("barriers"), 2);
        assert_eq!(a.trace_records, 8);
        assert_eq!(a.trace_dropped, 1);
    }

    #[test]
    fn merge_into_empty_is_a_copy() {
        let mut acc = ObsReport::default();
        let b = ObsReport {
            counters: vec![("events", 3)],
            ..Default::default()
        };
        acc.merge(&b);
        acc.merge(&b);
        assert_eq!(acc.counter("events"), 6);
    }
}
