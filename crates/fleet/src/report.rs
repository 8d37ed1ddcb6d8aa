//! The aggregate fleet report: one machine-readable JSON document.
//!
//! JSON is hand-rolled (the workspace has no serialization framework).
//! One layout rule does the heavy lifting for reproducibility: every
//! host-timing field lives in a sub-object named `"host"` rendered on a
//! single line, so byte-comparing two reports
//! modulo host timing is "drop the lines containing `\"host\": {`" —
//! the golden-run determinism test does exactly that.

use crate::lattice::Lattice;
use crate::run::{Job, JobResult};
use compass_obs::{Ctr, ObsReport};
use std::time::Duration;

/// Everything the report document needs.
pub struct ReportInput<'a> {
    /// Fleet preset name.
    pub fleet: &'a str,
    /// The declared lattices.
    pub lattices: &'a [Lattice],
    /// Expanded point count (pre-dedupe).
    pub points: usize,
    /// The unique jobs that ran.
    pub jobs: &'a [Job],
    /// One result per unique job.
    pub results: &'a [Result<JobResult, String>],
    /// Worker threads used.
    pub workers: usize,
    /// Whole-fleet wall time.
    pub wall: Duration,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The paper-study columns of a job row, all simulated: Table 1's
/// user / interrupt / kernel shares of CPU time (every process, the
/// kernel daemon's interrupt time included), the memory-system columns
/// of S2/S3, the scheduler columns of S1, and the per-syscall kernel
/// time behind Table 1's syscall breakdown.
fn study_fields(r: &JobResult) -> String {
    let t = r.stats.os_time_breakdown(0..r.stats.procs.len());
    let m = &r.stats.mem;
    let sched = &r.stats.sched;
    let syscalls: Vec<String> = r
        .syscalls
        .iter()
        .map(|(name, calls, cycles)| {
            format!(
                "{{ \"name\": \"{}\", \"calls\": {calls}, \"cycles\": {cycles} }}",
                esc(name)
            )
        })
        .collect();
    format!(
        "      \"user_pct\": {:.3},\n      \"interrupt_pct\": {:.3},\n      \
         \"kernel_pct\": {:.3},\n      \"mean_latency\": {:.3},\n      \
         \"remote_fraction\": {:.6},\n      \"l1_miss_ratio\": {:.6},\n      \
         \"tlb_miss_ratio\": {:.6},\n      \"dsm_faults\": {},\n      \
         \"dispatches\": {},\n      \"same_cpu\": {},\n      \"migrations\": {},\n      \
         \"preemptions\": {},\n      \"syscalls\": [{}],\n",
        t.user_pct,
        t.interrupt_pct,
        t.kernel_pct,
        m.mean_latency(),
        m.remote_fraction(),
        m.l1_miss_ratio(),
        r.stats.tlb.miss_ratio(),
        m.dsm_faults,
        sched.dispatches,
        sched.same_cpu,
        sched.migrations,
        sched.preemptions,
        syscalls.join(", ")
    )
}

/// Renders the aggregate JSON document. Deterministic for a fixed job
/// list and fixed simulated results: host timing only ever appears in
/// single-line `"host"` sub-objects.
pub fn render(input: &ReportInput<'_>) -> String {
    let mut s = String::new();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    s.push_str("{\n");
    s.push_str(&format!("  \"fleet\": \"{}\",\n", esc(input.fleet)));

    // Lattice declaration summary.
    let unique = input.jobs.len();
    s.push_str("  \"lattice\": {\n");
    s.push_str(&format!("    \"points\": {},\n", input.points));
    s.push_str(&format!("    \"unique_jobs\": {unique},\n"));
    s.push_str(&format!("    \"deduped\": {},\n", input.points - unique));
    s.push_str("    \"lattices\": [\n");
    for (i, lat) in input.lattices.iter().enumerate() {
        s.push_str(&format!(
            "      {{ \"workload\": \"{}\", \"cardinality\": {}, \"axes\": [",
            esc(lat.workload),
            lat.cardinality()
        ));
        for (j, axis) in lat.axes.iter().enumerate() {
            let values: Vec<String> = axis
                .values
                .iter()
                .map(|v| format!("\"{}\"", esc(&v.label())))
                .collect();
            s.push_str(&format!(
                "{{ \"name\": \"{}\", \"values\": [{}] }}",
                axis.name,
                values.join(", ")
            ));
            if j + 1 < lat.axes.len() {
                s.push_str(", ");
            }
        }
        s.push_str("] }");
        s.push_str(if i + 1 < input.lattices.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("    ]\n  },\n");

    // Per-job rows.
    s.push_str("  \"jobs\": [\n");
    for (i, (job, res)) in input.jobs.iter().zip(input.results).enumerate() {
        let comma = if i + 1 < input.jobs.len() { "," } else { "" };
        match res {
            Ok(r) => {
                s.push_str("    {\n");
                s.push_str(&format!("      \"workload\": \"{}\",\n", esc(job.workload)));
                s.push_str(&format!("      \"label\": \"{}\",\n", esc(&job.label())));
                s.push_str(&format!("      \"config\": \"{:016x}\",\n", job.key()));
                s.push_str(&format!(
                    "      \"global_cycles\": {},\n",
                    r.stats.global_cycles
                ));
                s.push_str(&format!("      \"events\": {},\n", r.events));
                s.push_str(&format!("      \"os_calls\": {},\n", r.os_calls));
                s.push_str(&format!(
                    "      \"accesses\": {},\n",
                    r.stats.mem.total_accesses()
                ));
                s.push_str(&format!(
                    "      \"fs_write_bytes\": {},\n",
                    r.fs_write_bytes
                ));
                s.push_str(&format!("      \"barriers\": {},\n", r.stats.sync.barriers));
                s.push_str(&study_fields(r));
                s.push_str(&format!(
                    "      \"host\": {{ \"wall_ms\": {:.1}, \"twin_wall_ms\": {:.1} }}\n",
                    r.wall.as_secs_f64() * 1e3,
                    r.twin_wall.as_secs_f64() * 1e3
                ));
                s.push_str(&format!("    }}{comma}\n"));
            }
            Err(e) => {
                s.push_str(&format!(
                    "    {{ \"workload\": \"{}\", \"label\": \"{}\", \"error\": \"{}\" }}{comma}\n",
                    esc(job.workload),
                    esc(&job.label()),
                    esc(e)
                ));
            }
        }
    }
    s.push_str("  ],\n");

    // Twin oracle verdict: every job that ran was twinned at depth 1.
    let twinned: Vec<(&Job, &JobResult)> = input
        .jobs
        .iter()
        .zip(input.results)
        .filter_map(|(job, res)| Some((job, res.as_ref().ok()?)))
        .collect();
    let details: Vec<String> = twinned
        .iter()
        .filter(|(_, r)| !r.twin_diffs.is_empty())
        .map(|(job, r)| {
            format!(
                "      {{ \"label\": \"{}\", \"diffs\": \"{}\" }}",
                esc(&job.label()),
                esc(&r.twin_diffs.join("; "))
            )
        })
        .collect();
    let twin_wall: Duration = twinned.iter().map(|(_, r)| r.twin_wall).sum();
    s.push_str("  \"twin\": {\n");
    s.push_str(&format!("    \"twinned\": {},\n", twinned.len()));
    s.push_str(&format!("    \"divergences\": {},\n", details.len()));
    s.push_str("    \"details\": [\n");
    for (i, d) in details.iter().enumerate() {
        s.push_str(d);
        s.push_str(if i + 1 < details.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ],\n");
    s.push_str(&format!(
        "    \"host\": {{ \"wall_ms\": {:.1} }}\n",
        twin_wall.as_secs_f64() * 1e3
    ));
    s.push_str("  },\n");

    // Fleet-wide observability totals (nonzero counters only). The
    // simulated counters are bit-reproducible; the host-timing ones
    // (parks, doorbells, wall-clock ns — see `Ctr::host_timing`) go in
    // the single-line `"host"` sub-object like every other host field.
    let mut obs = ObsReport::default();
    for r in input.results.iter().flatten() {
        if let Some(o) = &r.obs {
            obs.merge(o);
        }
    }
    let is_host = |name: &str| Ctr::by_name(name).is_some_and(Ctr::host_timing);
    let (host_ctrs, sim_ctrs): (Vec<_>, Vec<_>) = obs
        .nonzero()
        .into_iter()
        .partition(|(name, _)| is_host(name));
    s.push_str("  \"obs\": {\n");
    for (name, v) in &sim_ctrs {
        s.push_str(&format!("    \"{name}\": {v},\n"));
    }
    s.push_str("    \"host\": {");
    for (i, (name, v)) in host_ctrs.iter().enumerate() {
        s.push_str(&format!(
            " \"{name}\": {v}{}",
            if i + 1 < host_ctrs.len() { "," } else { "" }
        ));
    }
    s.push_str(" }\n  },\n");

    // Host summary — last field, single line, so it strips cleanly.
    let total_events: u64 = input.results.iter().flatten().map(|r| r.events).sum();
    let eps = total_events as f64 / input.wall.as_secs_f64().max(1e-9);
    s.push_str(&format!(
        "  \"host\": {{ \"cpus\": {host_cpus}, \"workers\": {}, \"wall_ms\": {:.1}, \
         \"events_per_sec\": {:.0} }}\n",
        input.workers,
        input.wall.as_secs_f64() * 1e3,
        eps
    ));
    s.push_str("}\n");
    s
}
