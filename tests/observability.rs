//! The observability layer end to end: counters and structured tracing
//! — and the load-bearing property that none of it changes the
//! simulation.

use compass::{ArchConfig, CpuCtx, ObsConfig, SimBuilder, TraceLevel};
use compass_backend::BackendStats;
use compass_frontend::FrontendStats;
use compass_os::fs::FileData;
use compass_os::{OsCall, SysVal};

/// A small mixed workload touching every instrumented subsystem: shared
/// memory (locks), private memory, file I/O, compute.
fn workload(nprocs: u16) -> impl FnMut(&mut CpuCtx) {
    move |cpu: &mut CpuCtx| {
        let seg = cpu.shmget(0xBEEF, 4 * 4096);
        let base = cpu.shmat(seg);
        let buf = cpu.malloc_pages(4096);
        let fd = match cpu.os_call(OsCall::Open {
            path: "/data".into(),
            create: false,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("{other:?}"),
        };
        for i in 0..40u32 {
            cpu.lock(base);
            cpu.store(base + 256 + (i % 8) * 64, 8);
            cpu.unlock(base);
            cpu.load(buf + (i % 16) * 64, 8);
            if i % 8 == 0 {
                match cpu.os_call(OsCall::ReadAt {
                    fd,
                    off: (i as u64 % 4) * 1024,
                    len: 1024,
                    buf,
                }) {
                    Ok(SysVal::Data(_)) => {}
                    other => panic!("{other:?}"),
                }
            }
            cpu.compute(500);
        }
        cpu.barrier(base + 64, nprocs);
        let _ = cpu.os_call(OsCall::Close { fd });
    }
}

fn builder(nprocs: u16, obs: ObsConfig) -> SimBuilder {
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).prepare_kernel(|k| {
        k.create_file("/data", FileData::Synthetic { len: 16 * 1024 });
    });
    for _ in 0..nprocs {
        b = b.add_process(workload(nprocs));
    }
    b.config_mut().backend.timer_interval = Some(100_000);
    b.config_mut().obs = obs;
    b
}

#[test]
fn counters_and_trace_capture_the_run() {
    let report = builder(2, ObsConfig::full(TraceLevel::Fine)).run();

    let o = report.obs.expect("obs enabled, report must be present");
    for name in [
        "events_memref",
        "events_sync",
        "events_ctl",
        "sched_dispatches",
        "timer_ticks",
        "replies",
        "ring_posts",
        "os_calls",
        "frontend_posts",
        "backend_active_ns",
        "frontend_gen_ns",
    ] {
        assert!(o.counter(name) > 0, "counter {name} stayed zero: {o:?}");
    }
    // The events the backend serviced match its own statistics.
    let serviced = o.counter("events_memref")
        + o.counter("events_sync")
        + o.counter("events_dev")
        + o.counter("events_ctl");
    assert_eq!(serviced, report.backend.events);

    let trace = report.trace.expect("tracing was on");
    assert!(!trace.is_empty(), "fine tracing must retain records");
    assert_eq!(o.trace_records, trace.len() as u64);

    let jsonl = trace.to_jsonl();
    assert!(jsonl.lines().count() > 0);
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(jsonl.contains("\"kind\":\"pickup\""));
    assert!(jsonl.contains("\"kind\":\"os_call\""));

    let chrome = trace.to_chrome_trace();
    assert!(chrome.starts_with('{') && chrome.ends_with('}'));
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\""), "OS calls become slices");
}

#[test]
fn every_hook_site_counts_into_the_run_report() {
    // The ports, the frontends, their OS calls and pseudo interrupts, and
    // the engine all count into the run's one block: each counter equals
    // the statistic its subsystem keeps for itself. The second run
    // oversubscribes the CPUs and delivers the interrupts of a short
    // timer as pseudo interrupts, so that hook counts too.
    for pseudo in [false, true] {
        let counters = ObsConfig {
            counters: true,
            ..ObsConfig::default()
        };
        let mut b = builder(if pseudo { 6 } else { 2 }, counters);
        if pseudo {
            let cfg = b.config_mut();
            cfg.pseudo_irq = true;
            cfg.backend.timer_interval = Some(5_000);
        }
        let report = b.run();
        let o = report.obs.as_ref().expect("counters on");
        let fe = |f: fn(&FrontendStats) -> u64| report.frontends.iter().map(f).sum::<u64>();
        let be = &report.backend;
        for (name, stat) in [
            ("frontend_posts", fe(|s| s.events)),
            ("os_calls", fe(|s| s.os_calls)),
            ("os_pseudo_irqs", fe(|s| s.pseudo_irqs)),
            ("page_faults", be.soft_faults),
            ("tlb_misses", be.tlb.misses),
            ("sched_dispatches", be.sched.dispatches),
            ("sched_preemptions", be.sched.preemptions),
            (
                "irq_dispatches",
                be.irq_dispatches[0] + be.irq_dispatches[1],
            ),
        ] {
            assert_eq!(o.counter(name), stat, "{name} (pseudo_irq {pseudo})");
        }
        assert_eq!(o.counter("os_pseudo_irqs") > 0, pseudo);
    }
}

#[test]
fn disabled_observability_reports_nothing() {
    let report = builder(2, ObsConfig::default()).run();
    assert!(report.obs.is_none());
    assert!(report.trace.is_none());
}

#[test]
fn observability_does_not_change_the_simulation() {
    // The acceptance bar: full instrumentation on vs everything off must
    // produce byte-identical backend statistics.
    let on = builder(2, ObsConfig::full(TraceLevel::Fine)).run().backend;
    let off = builder(2, ObsConfig::default()).run().backend;
    let bytes = |s: &BackendStats| format!("{s:#?}").into_bytes();
    assert_eq!(
        bytes(&on),
        bytes(&off),
        "instrumentation perturbed the simulation"
    );
}

#[test]
fn shm_exhaustion_surfaces_as_an_error_not_a_crash() {
    // Eager placement + a tiny per-node memory: shmget must fail with
    // ENOMEM semantics at the stub, not panic the backend.
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).add_process(|cpu: &mut CpuCtx| {
        let r = cpu.try_shmget(0xD00D, 64 * 1024 * 1024);
        assert_eq!(r, Err(compass_mem::ShmError::OutOfMemory));
        // The failed call must leave the simulation healthy.
        cpu.compute(100);
        let seg = cpu.try_shmget(0xFEED, 4096).expect("small segment fits");
        let base = cpu.try_shmat(seg).expect("attach succeeds");
        cpu.store(base, 8);
    });
    b.config_mut().backend.placement = compass_mem::PlacementPolicy::RoundRobin;
    b.config_mut().backend.mem_per_node = 1 << 20; // 1 MiB per node
    let report = b.run();
    assert!(report.backend.global_cycles > 0);
}

/// Index writes and processed events of a run with counters on.
fn index_writes_and_events(mut b: SimBuilder) -> (u64, u64) {
    b.config_mut().obs = ObsConfig {
        counters: true,
        ..ObsConfig::default()
    };
    let report = b.run();
    let o = report.obs.expect("counters on");
    let (writes, events) = (o.counter("scan_index_updates"), report.backend.events);
    assert!(events > 10_000, "run too small to measure: {events} events");
    assert!(writes > 0, "the index counter is not wired up");
    (writes, events)
}

#[test]
fn the_least_time_index_is_rewritten_less_than_once_per_event() {
    // Handlers only touch the processes they change, the engine
    // re-derives each once before the next selection, an unchanged entry
    // costs no write, and a run of one process's events is processed in
    // one selection with one write. A small `sci` run (the memref path
    // alone) reads 0.66 writes per event; 1.02 with a selection per
    // event, 2.13 when every touch rewrites its entry at once.
    use compass_workloads::sci::{self, SciConfig};
    let cfg = SciConfig {
        nprocs: 4,
        rows: 16,
        cols: 32,
        iters: 4,
        shm_key: 0x5C1,
    };
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2));
    for rank in 0..cfg.nprocs {
        b = b.add_process(sci::worker(cfg, rank));
    }
    let (writes, events) = index_writes_and_events(b);
    let ratio = writes as f64 / events as f64;
    assert!(
        ratio <= 0.8,
        "{writes} index writes for {events} events = {ratio:.2} per event"
    );
}

#[test]
fn a_kernel_heavy_run_rewrites_the_index_once_per_run_of_events() {
    // A TPC-D scan spends most of its time in kernel code its processes
    // run for themselves (buffer-cache reads, disk waits), and almost
    // every event is the same process's as the one before: one index
    // write covers a whole run of them. 5,000 rows read 0.069 writes per
    // event; 1.01 with a selection per event.
    let sc = compass_simcheck::Scenario {
        workload: compass_simcheck::Workload::Tpcd { lineitems: 5_000 },
        ..compass_simcheck::presets::tpcd_scan()
    };
    let mut b = sc.builder();
    compass_simcheck::apply_scenario_knobs(b.config_mut(), &sc, 64);
    let (writes, events) = index_writes_and_events(b);
    let ratio = writes as f64 / events as f64;
    assert!(
        ratio <= 0.12,
        "{writes} index writes for {events} events = {ratio:.3} per event"
    );
}

/// Full translations, memory-hierarchy accesses (one per reference) and
/// TLB misses of a catalogue scenario run with counters on.
fn full_translations(sc: compass_simcheck::Scenario) -> (u64, u64, u64) {
    let mut b = sc.builder();
    compass_simcheck::apply_scenario_knobs(b.config_mut(), &sc, 64);
    b.config_mut().obs = ObsConfig {
        counters: true,
        ..ObsConfig::default()
    };
    let report = b.run();
    let o = report.obs.expect("counters on");
    (
        o.counter("full_translations"),
        report.backend.mem.total_accesses(),
        report.backend.tlb.misses,
    )
}

// Under `check-invariants` the engine audits the whole cache hierarchy
// after every step, which makes these 20k- and 109k-reference runs take
// many minutes; the audited build covers the memo through `memo_props`
// and the per-step `Vm::check_invariants` of its other runs.
#[cfg_attr(
    feature = "check-invariants",
    ignore = "too slow under per-step audits"
)]
#[test]
fn block_copies_are_served_from_the_reference_memo() {
    // Each CPU memoises its last two pages, so a kernel copy loop, which
    // alternates a kernel buffer page with a user page, takes a full
    // translation only when it moves to a new page pair. With a one-page
    // memo these runs took 18,334 of 20,636 (TPC-D scan) and 98,510 of
    // 109,180 (web serving) references through a full translation.
    for (name, sc, pinned) in [
        (
            "tpcd",
            compass_simcheck::Scenario {
                workload: compass_simcheck::Workload::Tpcd { lineitems: 5_000 },
                ..compass_simcheck::presets::tpcd_scan()
            },
            960,
        ),
        ("http", compass_simcheck::presets::http_table1(), 13_310),
    ] {
        let (full, refs, tlb_misses) = full_translations(sc);
        assert!(
            full >= tlb_misses,
            "{name}: every TLB miss is a full translation"
        );
        assert_eq!(full, pinned, "{name}: {full} of {refs}");
    }
}
