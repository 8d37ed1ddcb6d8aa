//! The aggregate fleet report: per-axis sensitivity deltas and the
//! machine-readable JSON document.
//!
//! **Sensitivity** isolates one axis at a time: with every other axis
//! held at its baseline value, each value of the swept axis names one
//! lattice point, and its entry records the delta of the headline
//! simulated statistics against the axis baseline. For the transport
//! axes (batch depth, checkpoint) those deltas double as an oracle —
//! simcheck proves them stats-neutral, so any nonzero simulated delta is
//! a correctness
//! failure ([`Sensitivity::neutral_violations`]), not a finding.
//!
//! **JSON** is hand-rolled (the vendored `serde` is a no-op marker —
//! see `vendor/README.md`). One layout rule does the heavy lifting for
//! reproducibility: every host-timing field lives in a sub-object named
//! `"host"` rendered on a single line, so byte-comparing two reports
//! modulo host timing is "drop the lines containing `\"host\": {`" —
//! the golden-run determinism test does exactly that.

use crate::lattice::{dedupe, FleetPoint, Lattice};
use crate::run::{Job, JobResult, TwinDivergence};
use compass_obs::{Ctr, ObsReport};
use std::collections::HashMap;
use std::time::Duration;

/// One value of a swept axis, relative to the axis baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityEntry {
    /// Value label (e.g. `Affinity`, `16`).
    pub value: String,
    /// Whether this axis is a proven stats-neutral transport knob.
    pub stats_neutral: bool,
    /// Simulated end-time delta vs the axis baseline.
    pub d_global_cycles: i64,
    /// Modeled memory-access delta vs the axis baseline.
    pub d_accesses: i64,
    /// Frontend-event delta vs the axis baseline.
    pub d_events: i64,
    /// Host wall time of the point's run, milliseconds.
    pub wall_ms: f64,
}

/// One axis of one lattice, fully resolved against the run results.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSensitivity {
    /// Workload (lattice) name.
    pub workload: &'static str,
    /// Axis name.
    pub axis: &'static str,
    /// Label of the baseline value (`values[0]`).
    pub baseline: String,
    /// One entry per axis value, in declaration order (entry 0 is the
    /// baseline itself, all deltas zero — kept so the table is total,
    /// and so a degenerate single-value axis still reports its point).
    pub entries: Vec<SensitivityEntry>,
}

/// The resolved sensitivity block.
#[derive(Debug, Clone, Default)]
pub struct Sensitivity {
    /// Per axis, in lattice/declaration order.
    pub axes: Vec<AxisSensitivity>,
    /// Entries on stats-neutral axes whose simulated deltas were not
    /// zero. Must be 0; anything else means a transport knob leaked
    /// into the simulation.
    pub neutral_violations: usize,
}

/// Computes per-axis sensitivity from executed results, looked up by
/// dedupe key (the fleet runs each unique config once; axis points are
/// a subset of the expansion, so every lookup hits when the run
/// succeeded). Axis points whose runs failed are skipped.
pub fn sensitivity(lattices: &[Lattice], by_key: &HashMap<u64, &JobResult>) -> Sensitivity {
    let mut out = Sensitivity::default();
    for lat in lattices {
        for (ai, axis) in lat.axes.iter().enumerate() {
            let points = lat.axis_points(ai);
            let Some(base) = by_key.get(&points[0].dedupe_key()) else {
                continue;
            };
            let mut entries = Vec::new();
            for (vi, p) in points.iter().enumerate() {
                let Some(r) = by_key.get(&p.dedupe_key()) else {
                    continue;
                };
                let neutral = axis.values[vi].stats_neutral();
                let e = SensitivityEntry {
                    value: axis.values[vi].label(),
                    stats_neutral: neutral,
                    d_global_cycles: r.stats.global_cycles as i64 - base.stats.global_cycles as i64,
                    d_accesses: r.stats.mem.total_accesses() as i64
                        - base.stats.mem.total_accesses() as i64,
                    d_events: r.events as i64 - base.events as i64,
                    wall_ms: r.wall.as_secs_f64() * 1e3,
                };
                if neutral && (e.d_global_cycles != 0 || e.d_accesses != 0 || e.d_events != 0) {
                    out.neutral_violations += 1;
                }
                entries.push(e);
            }
            out.axes.push(AxisSensitivity {
                workload: lat.workload,
                axis: axis.name,
                baseline: axis.values[0].label(),
                entries,
            });
        }
    }
    out
}

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
    /// Resolved sensitivity.
    pub sensitivity: &'a Sensitivity,
    /// Twin-oracle sample (job indices).
    pub twin_sample: &'a [usize],
    /// Twin divergences (empty = oracle passed).
    pub twin_divergences: &'a [TwinDivergence],
    /// Wall time of the twin runs.
    pub twin_wall: Duration,
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
                s.push_str(&format!("      \"workload\": \"{}\",\n", esc(r.workload)));
                s.push_str(&format!(
                    "      \"label\": \"{}\",\n",
                    esc(&r.point.label(r.workload))
                ));
                s.push_str(&format!("      \"config\": \"{:016x}\",\n", r.key));
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
                if let Some(identical) = r.resume_identical {
                    s.push_str(&format!("      \"resume_bit_identical\": {identical},\n"));
                }
                s.push_str(&format!(
                    "      \"host\": {{ \"wall_ms\": {:.1} }}\n",
                    r.wall.as_secs_f64() * 1e3
                ));
                s.push_str(&format!("    }}{comma}\n"));
            }
            Err(e) => {
                s.push_str(&format!(
                    "    {{ \"workload\": \"{}\", \"label\": \"{}\", \"error\": \"{}\" }}{comma}\n",
                    esc(job.workload),
                    esc(&job.point.label(job.workload)),
                    esc(e)
                ));
            }
        }
    }
    s.push_str("  ],\n");

    // Sensitivity block.
    s.push_str("  \"sensitivity\": {\n");
    s.push_str(&format!(
        "    \"neutral_violations\": {},\n",
        input.sensitivity.neutral_violations
    ));
    s.push_str("    \"axes\": [\n");
    for (i, ax) in input.sensitivity.axes.iter().enumerate() {
        s.push_str("      {\n");
        s.push_str(&format!(
            "        \"workload\": \"{}\",\n",
            esc(ax.workload)
        ));
        s.push_str(&format!("        \"axis\": \"{}\",\n", esc(ax.axis)));
        s.push_str(&format!(
            "        \"baseline\": \"{}\",\n",
            esc(&ax.baseline)
        ));
        s.push_str("        \"entries\": [\n");
        // Two lines per entry: the simulated deltas, then the host wall
        // on its own line so stripping host lines keeps the deltas.
        for (j, e) in ax.entries.iter().enumerate() {
            s.push_str(&format!(
                "          {{ \"value\": \"{}\", \"stats_neutral\": {}, \
                 \"d_global_cycles\": {}, \"d_accesses\": {}, \"d_events\": {},\n",
                esc(&e.value),
                e.stats_neutral,
                e.d_global_cycles,
                e.d_accesses,
                e.d_events,
            ));
            s.push_str(&format!(
                "            \"host\": {{ \"wall_ms\": {:.1} }} }}{}\n",
                e.wall_ms,
                if j + 1 < ax.entries.len() { "," } else { "" }
            ));
        }
        s.push_str("        ]\n");
        s.push_str(&format!(
            "      }}{}\n",
            if i + 1 < input.sensitivity.axes.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("    ]\n  },\n");

    // Twin oracle verdict.
    s.push_str("  \"twin\": {\n");
    s.push_str(&format!("    \"sampled\": {},\n", input.twin_sample.len()));
    s.push_str(&format!(
        "    \"divergences\": {},\n",
        input.twin_divergences.len()
    ));
    s.push_str("    \"details\": [\n");
    for (i, d) in input.twin_divergences.iter().enumerate() {
        s.push_str(&format!(
            "      {{ \"job\": {}, \"label\": \"{}\", \"diffs\": \"{}\" }}{}\n",
            d.job,
            esc(&d.label),
            esc(&d.diffs.join("; ")),
            if i + 1 < input.twin_divergences.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!(
        "    \"host\": {{ \"wall_ms\": {:.1} }}\n",
        input.twin_wall.as_secs_f64() * 1e3
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

/// Expands and dedupes a preset's lattices into the unique job list.
/// Returns `(total points, unique jobs)`.
pub fn expand_preset(lattices: &[Lattice]) -> (usize, Vec<Job>) {
    let mut points: Vec<FleetPoint> = Vec::new();
    let mut workloads: Vec<&'static str> = Vec::new();
    for lat in lattices {
        for p in lat.expand() {
            points.push(p);
            workloads.push(lat.workload);
        }
    }
    let total = points.len();
    let (unique, map) = dedupe(&points);
    // A representative keeps the workload of its first appearance.
    let mut jobs: Vec<Job> = unique
        .iter()
        .map(|p| Job {
            point: *p,
            workload: "",
        })
        .collect();
    for (pi, &ji) in map.iter().enumerate() {
        if jobs[ji].workload.is_empty() {
            jobs[ji].workload = workloads[pi];
        }
    }
    (total, jobs)
}
