//! Field-by-field comparison of two [`BackendStats`], and of two runs'
//! per-syscall kernel time.
//!
//! The determinism tests assert byte-identical `Debug` output, which is a
//! fine pass/fail signal but a useless diagnostic: a one-counter skew
//! drowns in a hundred lines of pretty-printing. This diff names the
//! first-class field(s) that diverged, which localises a batching bug to
//! a subsystem (scheduler vs memory vs devices) in one line.

use compass::runner::RunReport;
use compass_backend::BackendStats;

macro_rules! diff_fields {
    ($out:ident, $a:ident, $b:ident; $($f:ident),+ $(,)?) => {
        $(
            {
                // `BackendStats` has no top-level `PartialEq`; `Debug`
                // output is total and deterministic, so compare that.
                let left = format!("{:?}", $a.$f);
                let right = format!("{:?}", $b.$f);
                if left != right {
                    $out.push(format!(concat!(stringify!($f), ": {} != {}"), left, right));
                }
            }
        )+
    };
}

/// Returns one message per top-level field of [`BackendStats`] on which
/// `a` and `b` disagree (empty = identical stats).
pub fn diff_backend_stats(a: &BackendStats, b: &BackendStats) -> Vec<String> {
    let mut out = Vec::new();
    diff_fields!(out, a, b;
        procs,
        global_cycles,
        events,
        mem,
        sched,
        sync,
        tlb,
        placement,
        pages_per_node,
        soft_faults,
        disk_ops,
        nic_tx,
        irq_dispatches,
        dropped_events,
    );
    out
}

/// Returns one message per system call whose `(calls, kernel cycles)` row
/// differs between two [`RunReport::syscalls`] tables (empty = identical).
pub fn diff_syscalls(a: &[(String, u64, u64)], b: &[(String, u64, u64)]) -> Vec<String> {
    let mut names: Vec<&str> = a.iter().chain(b).map(|r| r.0.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let row =
        |t: &[(String, u64, u64)], name: &str| t.iter().find(|r| r.0 == name).map(|r| (r.1, r.2));
    names
        .into_iter()
        .filter_map(|n| {
            let (x, y) = (row(a, n), row(b, n));
            (x != y).then(|| format!("syscalls.{n}: {x:?} != {y:?}"))
        })
        .collect()
}

/// What a transport setting (the batch depth) must not change in a run:
/// its [`BackendStats`] and its per-syscall kernel time.
pub fn diff_runs(a: &RunReport, b: &RunReport) -> Vec<String> {
    let mut out = diff_backend_stats(&a.backend, &b.backend);
    out.extend(diff_syscalls(&a.syscalls, &b.syscalls));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_stats_produce_no_diff() {
        let s = BackendStats::default();
        assert!(diff_backend_stats(&s, &s.clone()).is_empty());
    }

    #[test]
    fn a_single_counter_skew_is_named() {
        let a = BackendStats::default();
        let b = BackendStats {
            global_cycles: 1,
            mem: compass_arch::MemStats {
                forwards: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let d = diff_backend_stats(&a, &b);
        assert_eq!(d.len(), 2);
        assert!(d[0].starts_with("global_cycles:"), "{d:?}");
        assert!(d[1].starts_with("mem:"), "{d:?}");
    }

    #[test]
    fn a_syscall_row_skew_is_named() {
        let row = |n: &str, calls, cycles| (n.to_string(), calls, cycles);
        let a = vec![row("send", 9, 900), row("statx", 4, 2_480)];
        let b = vec![row("statx", 4, 2_696), row("send", 9, 900)];
        assert_eq!(
            diff_syscalls(&a, &b),
            ["syscalls.statx: Some((4, 2480)) != Some((4, 2696))"]
        );
        assert_eq!(diff_syscalls(&a, &a[..1]).len(), 1, "a missing row differs");
        assert!(diff_syscalls(&a, &a).is_empty());
    }
}
