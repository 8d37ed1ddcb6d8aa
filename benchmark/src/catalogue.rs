//! The metric catalogue: every name a run emits, with its unit, its
//! direction and (end to end) its bound. `BENCHMARK.json` must declare
//! exactly this (`--check-manifest`), and a run emits exactly this
//! (`Emitted::finish` refuses anything else), so the two cannot drift.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Whether two runs of the same code must report the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A property of the simulated machine: repeats exactly across
    /// repetitions, runs and hosts (`Ctr::host_timing() == false`,
    /// `BackendStats`, `BufStats`, `NetStats`).
    Sim,
    /// Host time, or a count that races with host scheduling.
    Host,
    /// A property of the host itself (its speed, what a second CPU
    /// offers): reported, never compared.
    Info,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Host,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Kind::{Host, Info, Sim};

/// What a user of the simulator sees. Measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    // Quartile distance over ten seeds (two sets, README "End to end"):
    // at most 2.4 % on three workloads, 4.0 % and 6.4 % on `tpcc`.
    e2e("host_events_per_s", "events/s", Higher, 0.15),
    // Three of the four processes are under 11 MiB, where one more
    // allocator arena or one 0.9 MB response buffer is a tenth of the
    // total: quartile distance up to 11 % (`tpcc`) and 15 % (`httplite`).
    e2e("host_peak_rss_mb", "MiB", Lower, 0.25),
    // Set-up is short and repeated only three times per run: the widest
    // bound the contract allows.
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers (the crates). The traced repetition and the layer
/// probes produce these; they have no bound.
pub const PER_LAYER: &[Metric] = &[
    // -- host-CPU ledger, sampled from /proc/self/task/*/schedstat
    layer("frontend.cpu_s", "s", Lower, Host),
    layer("frontend.runq_wait_s", "s", Lower, Host),
    layer("frontend.ctx_switches", "count", Lower, Host),
    layer("backend.cpu_s", "s", Lower, Host),
    layer("backend.runq_wait_s", "s", Lower, Host),
    layer("backend.ctx_switches", "count", Lower, Host),
    layer("os.cpu_s", "s", Lower, Host),
    layer("os.ctx_switches", "count", Lower, Host),
    layer("os.bottomhalf_cpu_s", "s", Lower, Host),
    layer("core.ledger_coverage", "ratio", Higher, Host),
    layer("core.ctx_switches_per_kevent", "1/kevent", Lower, Host),
    // The host's speed during the traced repetition relative to the
    // reference host: what the ledger's raw seconds were measured under.
    layer("core.host_speed", "ratio", Higher, Info),
    // -- the traced repetition's counters and reports
    layer("frontend.gen_ns", "ns", Lower, Host),
    layer("frontend.posts", "count", Lower, Host),
    layer("frontend.refs_filtered", "count", Higher, Host),
    layer("comm.wait_ns", "ns", Lower, Host),
    layer("comm.ring_posts", "count", Lower, Host),
    layer("comm.ring_stalls", "count", Lower, Host),
    layer("comm.stall_ratio", "ratio", Lower, Host),
    layer("comm.ring_notifies", "count", Lower, Host),
    layer("comm.events_per_post", "ratio", Higher, Host),
    layer("comm.spins_avoided_park", "count", Higher, Host),
    layer("backend.active_ns", "ns", Lower, Host),
    layer("backend.wait_ns", "ns", Lower, Host),
    layer("backend.events", "count", Lower, Sim),
    layer("backend.events_memref", "count", Lower, Sim),
    layer("backend.sim_cycles", "cycles", Lower, Sim),
    layer("backend.sched_dispatches", "count", Lower, Sim),
    layer("backend.tlb_misses", "count", Lower, Sim),
    layer("backend.page_faults", "count", Lower, Sim),
    layer("backend.irq_dispatches", "count", Lower, Sim),
    layer("backend.disk_ops", "count", Lower, Sim),
    layer("backend.disk_wake_events", "count", Lower, Sim),
    layer("backend.os_time_pct", "%", Lower, Sim),
    layer("arch.accesses", "count", Lower, Sim),
    layer("arch.l1_miss_ratio", "ratio", Lower, Sim),
    layer("arch.l2_miss_ratio", "ratio", Lower, Sim),
    layer("arch.remote_fraction", "ratio", Lower, Sim),
    layer("arch.invalidations", "count", Lower, Sim),
    layer("os.calls", "count", Lower, Sim),
    layer("os.batched_replies", "count", Higher, Host),
    layer("os.bufcache_hit_ratio", "ratio", Higher, Sim),
    layer("os.bufcache_writebacks", "count", Lower, Sim),
    layer("os.net_rx_frames", "count", Lower, Sim),
    layer("workloads.units_done", "count", Higher, Sim),
    layer("workloads.sim_p99_latency_cycles", "cycles", Lower, Sim),
    layer("obs.trace_overhead_ratio", "ratio", Lower, Host),
    layer("obs.trace_dropped", "count", Lower, Host),
    // -- layer probes: workload-independent calls into public functions
    layer("isa.block_cost_ns", "ns/op", Lower, Host),
    layer("mem.tlb_access_ns", "ns/op", Lower, Host),
    layer("mem.page_table_translate_ns", "ns/op", Lower, Host),
    layer("comm.port_roundtrip_ns", "ns/op", Lower, Host),
    layer("comm.port_batch8_ns_per_event", "ns/event", Lower, Host),
    layer("comm.reqport_call_ns", "ns/op", Lower, Host),
    layer("comm.port_roundtrip_xcpu_ns", "ns/op", Lower, Info),
    layer("arch.access_l1_hit_ns", "ns/op", Lower, Host),
    layer("arch.access_stream_miss_ns", "ns/op", Lower, Host),
    layer("arch.access_pingpong_ns", "ns/op", Lower, Host),
    layer("arch.mirror_access_ns", "ns/op", Lower, Host),
    layer("backend.sched_cycle_ns", "ns/op", Lower, Host),
    layer("backend.ckpt_encode_ms", "ms", Lower, Host),
    layer("backend.ckpt_decode_ms", "ms", Lower, Host),
    layer("snap.seal_mb_per_s", "MB/s", Higher, Host),
    layer("os.bufcache_lookup_ns", "ns/op", Lower, Host),
    layer("os.bufcache_claim_evict_ns", "ns/op", Lower, Host),
    layer("frontend.raw_ns_per_ref", "ns/ref", Lower, Host),
    layer("core.slowdown_vs_raw", "ratio", Lower, Host),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One line per workload: why it is in the benchmark.
pub const WORKLOAD_WHY: &[(&str, &str)] = &[
    (
        "sci",
        "no syscalls: all host time is the memref path frontend-comm-backend-arch; OS server and devices bypassed",
    ),
    (
        "tpcc",
        "read-write OLTP: lock contention, WAL writes, disk interrupts, scheduler blocking; most rendezvous per event",
    ),
    (
        "tpcd",
        "read-only sequential scan through the same db2lite-bufcache-disk path tpcc writes through; the only large footprint",
    ),
    (
        "httplite",
        "web serving, about 85% kernel time: OS server, syscall port and NIC interrupts dominate; frontend work is about 1%",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::valid_name;
    use std::collections::BTreeSet;

    #[test]
    fn catalogue_respects_the_manifest_limits() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut names = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(crate::manifest::valid_unit(m.unit), "{}", m.unit);
            assert!(names.insert(m.name), "{} declared twice", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(find("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
        assert!(WORKLOAD_WHY.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn sim_counters_match_the_obs_classifier() {
        // Every catalogue entry fed from a `Ctr` must agree with
        // `Ctr::host_timing` on whether it is reproducible.
        for (metric, ctr) in [
            ("backend.events_memref", "events_memref"),
            ("backend.page_faults", "page_faults"),
            ("backend.disk_wake_events", "disk_wake_events"),
            ("os.calls", "os_calls"),
            ("frontend.posts", "frontend_posts"),
            ("comm.ring_posts", "ring_posts"),
            ("comm.ring_stalls", "ring_stalls"),
            ("os.batched_replies", "os_batched_replies"),
        ] {
            let host = compass_obs::Ctr::by_name(ctr).expect(ctr).host_timing();
            assert_eq!(find(metric).unwrap().kind == Host, host, "{metric}");
        }
    }
}
