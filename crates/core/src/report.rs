//! Report formatting: Table-1-style OS-time breakdowns and per-syscall
//! tables.

use crate::runner::RunReport;
use compass_backend::stats::OsTimeBreakdown;

/// Computes the Table-1 row for a run: shares of total CPU time across
/// user / OS (interrupt + kernel), over all processes including the
/// kernel daemon's interrupt-handler time.
pub fn table1_breakdown(report: &RunReport) -> OsTimeBreakdown {
    report
        .backend
        .os_time_breakdown(0..report.backend.procs.len())
}

/// Renders the Table-1 row the way the paper prints it.
pub fn format_table1(name: &str, report: &RunReport) -> String {
    let b = table1_breakdown(report);
    format!(
        "{name:<18} user {:5.1}%   OS total {:5.1}%   (interrupt {:5.1}%, kernel {:5.1}%)",
        b.user_pct, b.os_pct, b.interrupt_pct, b.kernel_pct
    )
}

/// Renders the per-syscall table (the §3 profiling that selected the
/// category-1 set).
pub fn format_syscall_table(report: &RunReport) -> String {
    let total: u64 = report.syscalls.iter().map(|(_, _, cy)| cy).sum();
    let mut out = String::from("syscall        calls      cycles   share\n");
    for (name, count, cycles) in &report.syscalls {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * *cycles as f64 / total as f64
        };
        out.push_str(&format!(
            "{name:<12} {count:>7} {cycles:>11}  {share:5.1}%\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_backend::stats::{BackendStats, ProcTimes};
    use std::time::Duration;

    fn fake_report() -> RunReport {
        let mut backend = BackendStats::default();
        backend.procs.push(ProcTimes {
            by_mode: [700, 200, 0],
            ..Default::default()
        });
        backend.procs.push(ProcTimes {
            by_mode: [0, 0, 100],
            ..Default::default()
        });
        RunReport {
            backend,
            syscalls: vec![("kreadv".into(), 10, 900), ("send".into(), 5, 100)],
            bufcache: Default::default(),
            net: Default::default(),
            intr_cycles: [0; 3],
            frontends: vec![],
            wall: Duration::from_millis(1),
            app_processes: 1,
            fs_write_bytes: 0,
            obs: None,
            trace: None,
            access_trace: None,
        }
    }

    #[test]
    fn table1_breakdown_includes_daemon_interrupt_time() {
        let r = fake_report();
        let b = table1_breakdown(&r);
        assert!((b.user_pct - 70.0).abs() < 1e-9);
        assert!((b.kernel_pct - 20.0).abs() < 1e-9);
        assert!((b.interrupt_pct - 10.0).abs() < 1e-9);
        assert!((b.os_pct - 30.0).abs() < 1e-9);
    }

    #[test]
    fn formatted_tables_contain_the_numbers() {
        let r = fake_report();
        let t1 = format_table1("TPCD/db2lite", &r);
        assert!(t1.contains("70.0%"));
        let sc = format_syscall_table(&r);
        assert!(sc.contains("kreadv"));
        assert!(sc.contains("90.0%"));
    }
}
