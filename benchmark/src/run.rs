//! One workload, one process: set up, measure, verify, report.
//!
//! `--trace 0` measures the end-to-end metrics with every observer off.
//! `--trace 1` runs the traced repetition (counters + trace ring on, the
//! `/proc` sampler beside it) and the layer probes, and reports the
//! per-layer metrics. Closed loop, one driver thread: the next repetition
//! starts when the previous one has returned.

use crate::catalogue::{Metric, END_TO_END, PER_LAYER};
use crate::golden;
use crate::host::{self, Group, Ledger, Pinning, Sampler};
use crate::json::{num, quote};
use crate::probes;
use crate::stats::{median, Summary};
use crate::workloads::{scales, Fingerprint, Inputs, Rep, Workload, DEFAULT_SEED, VARIANTS};
use compass::{ObsConfig, RunError, TraceLevel};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured repetitions, however short `--seconds` is: every
/// input set once.
const MIN_REPS: usize = VARIANTS;
/// `host_peak_rss_mb` is read after this measured repetition — when
/// every input set has run once — so that it depends neither on how many
/// repetitions fit into `--seconds` nor on which input sets came first.
const RSS_AFTER_REP: usize = VARIANTS;
/// Untraced repetitions before the traced one (`--trace 1`): the base of
/// `obs.trace_overhead_ratio`.
const UNTRACED_REPS: usize = 2;

/// What the command line asked of a single-workload run.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One closed interval of host time. Spans of a run share the workload's
/// name as their identifier.
struct Span {
    name: &'static str,
    parent: &'static str,
    start_us: u64,
    dur_us: u64,
}

/// The benchmark's own spans, kept in memory until the run ends.
struct Spans {
    origin: Instant,
    done: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            done: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, parent: &'static str, start: Instant, dur: Duration) {
        self.done.push(Span {
            name,
            parent,
            start_us: start.duration_since(self.origin).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        });
    }

    fn time<R>(&mut self, name: &'static str, parent: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.push(name, parent, t0, t0.elapsed());
        r
    }

    /// A repetition and, nested in it, the kernel preparation (table or
    /// file-set load) it began with.
    fn rep(
        &mut self,
        name: &'static str,
        parent: &'static str,
        inputs: &Inputs,
        obs: ObsConfig,
    ) -> Result<Rep, RunError> {
        let t0 = Instant::now();
        let r = inputs.run(obs);
        self.push(name, parent, t0, t0.elapsed());
        if let Ok(rep) = &r {
            self.push("setup.build", name, t0, rep.load);
        }
        r
    }

    /// Chrome `trace_event` objects on track `pid 1` (host microseconds).
    fn to_chrome_events(&self, workload: &str) -> Vec<String> {
        self.done
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":0,\
                     \"args\":{{\"id\":{},\"parent\":{}}}}}",
                    quote(s.name),
                    s.start_us,
                    s.dur_us,
                    quote(workload),
                    quote(s.parent)
                )
            })
            .collect()
    }
}

/// Splices the benchmark's spans into the simulator's own Chrome-trace
/// export: track `pid 0` is simulated time (one cycle rendered as one
/// microsecond), track `pid 1` is host time.
fn merge_chrome_trace(program: Option<String>, spans: &[String]) -> String {
    let base = program.unwrap_or_else(|| "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".into());
    let head = base
        .strip_suffix("]}")
        .expect("to_chrome_trace ends its event array with \"]}\"");
    let sep = if head.ends_with('[') || spans.is_empty() {
        ""
    } else {
        ","
    };
    format!("{head}{sep}{}]}}", spans.join(","))
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

/// One input set of a run.
struct InputSet {
    inputs: Inputs,
    /// Whether this is the input `golden.json` pins: the default seed's
    /// variant 0.
    golden: bool,
}

impl InputSet {
    fn new(w: Workload, seed: u64, variant: usize) -> InputSet {
        InputSet {
            inputs: w.inputs(seed, variant),
            golden: seed == DEFAULT_SEED && variant == 0,
        }
    }
}

/// What verification keeps of a repetition.
struct RepFacts {
    /// Which input set of the run it simulated (an index into the run's
    /// input sets).
    variant: usize,
    outcome: Result<SimFacts, String>,
}

struct SimFacts {
    stats_text: String,
    fingerprint: Fingerprint,
    revenue: Option<u64>,
}

impl RepFacts {
    fn of(variant: usize, outcome: &Result<Rep, RunError>) -> RepFacts {
        RepFacts {
            variant,
            outcome: match outcome {
                Ok(rep) => Ok(SimFacts {
                    stats_text: rep.stats_text(),
                    fingerprint: rep.fingerprint(),
                    revenue: rep.revenue,
                }),
                Err(e) => Err(format!("{e}").lines().next().unwrap_or("run error").into()),
            },
        }
    }
}

/// Operations attempted and failed, with the reasons, and the
/// repetitions that broke determinism.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Repetitions whose `BackendStats` differ from an earlier repetition
    /// of the same input. Reported, and fatal to the suite, but not
    /// counted as failed operations: every unit of work still completed
    /// correctly, and the simulator at this commit is known to break
    /// determinism on `httplite` for about one seed in twelve (README,
    /// "Known defect").
    determinism_violations: Vec<String>,
}

/// Judges every repetition of a run. A repetition that returned an
/// error, misses the raw-run oracle, or (on the golden input) misses the
/// golden fingerprint fails all its operations; otherwise the operations
/// the workload itself did not complete fail.
fn verify(w: Workload, inputs: &[InputSet], reps: &[RepFacts]) -> Verdict {
    let mut v = Verdict::default();
    let units = w.units_per_rep();
    let golden = golden::lookup(w);
    // Per input set: the raw-run oracle and the first repetition's
    // statistics, both found on first use.
    let mut oracles: Vec<Option<Option<u64>>> = vec![None; inputs.len()];
    let mut references: Vec<Option<&String>> = vec![None; inputs.len()];
    for (i, rep) in reps.iter().enumerate() {
        v.attempted += units;
        let facts = match &rep.outcome {
            Ok(facts) => facts,
            Err(e) => {
                v.failed += units;
                v.failures.push(format!(
                    "{} repetition {i}: returned an error: {e}",
                    w.name()
                ));
                continue;
            }
        };
        let reference = *references[rep.variant].get_or_insert(&facts.stats_text);
        if *reference != facts.stats_text {
            v.determinism_violations.push(format!(
                "{} repetition {i} (input {}): BackendStats differ from the first repetition \
                 of the same input",
                w.name(),
                rep.variant
            ));
        }
        let oracle = *oracles[rep.variant]
            .get_or_insert_with(|| inputs[rep.variant].inputs.oracle_revenue());
        let problem = if facts.revenue != oracle {
            Some(format!(
                "Q1 revenue {:?} differs from the raw single-stream result {oracle:?}",
                facts.revenue
            ))
        } else {
            match &golden {
                _ if !inputs[rep.variant].golden => None,
                Err(e) => Some(e.clone()),
                Ok(g) if *g != facts.fingerprint => Some(format!(
                    "golden fingerprint mismatch: got {}",
                    golden::render_one(&facts.fingerprint)
                )),
                Ok(_) => None,
            }
        };
        let missing = units.saturating_sub(facts.fingerprint.units_done);
        if let Some(p) = problem {
            v.failed += units;
            v.failures.push(format!("{} repetition {i}: {p}", w.name()));
        } else if missing > 0 {
            v.failed += missing;
            v.failures.push(format!(
                "{} repetition {i}: {missing} of {units} {}s did not complete",
                w.name(),
                w.unit()
            ));
        }
    }
    v
}

// ---------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------

/// The metrics of one run, checked against the catalogue on the way out.
#[derive(Default)]
struct Emitted(Vec<(&'static str, Summary)>);

impl Emitted {
    fn set(&mut self, name: &'static str, s: Summary) {
        self.0.push((name, s));
    }

    fn one(&mut self, name: &'static str, v: f64) {
        self.set(name, Summary::one(v));
    }

    /// Orders the values as `table` declares them. A run that emits a
    /// name the table lacks, or lacks a name the table has, is a bug in
    /// the benchmark: the manifest check relies on the two being equal.
    fn finish(self, table: &'static [Metric]) -> Vec<(&'static Metric, Summary)> {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|m| m.name == *name),
                "emitted metric {name} is not in the catalogue"
            );
        }
        table
            .iter()
            .map(|m| {
                let mut hits = self.0.iter().filter(|(n, _)| *n == m.name);
                let (_, s) = hits
                    .next()
                    .unwrap_or_else(|| panic!("catalogue metric {} was not emitted", m.name));
                assert!(hits.next().is_none(), "metric {} emitted twice", m.name);
                (m, *s)
            })
            .collect()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics read off the traced repetition's reports.
fn report_metrics(out: &mut Emitted, rep: &Rep) {
    let r = &rep.report;
    let b = &r.backend;
    let obs = r.obs.clone().unwrap_or_default();
    let ctr = |name: &str| obs.counter(name) as f64;

    out.one("frontend.gen_ns", ctr("frontend_gen_ns"));
    out.one("frontend.posts", ctr("frontend_posts"));
    out.one("frontend.refs_filtered", ctr("refs_filtered"));

    out.one("comm.wait_ns", ctr("comm_wait_ns"));
    out.one("comm.ring_posts", ctr("ring_posts"));
    out.one("comm.ring_stalls", ctr("ring_stalls"));
    out.one(
        "comm.stall_ratio",
        ratio(obs.counter("ring_stalls"), obs.counter("ring_posts")),
    );
    out.one("comm.ring_notifies", ctr("ring_notifies"));
    out.one(
        "comm.events_per_post",
        ratio(b.events, obs.counter("ring_posts")),
    );
    out.one("comm.spins_avoided_park", ctr("ring_spins_avoided_park"));

    out.one("backend.active_ns", ctr("backend_active_ns"));
    out.one("backend.wait_ns", ctr("backend_wait_ns"));
    out.one("backend.events", b.events as f64);
    out.one("backend.events_memref", ctr("events_memref"));
    out.one("backend.sim_cycles", b.global_cycles as f64);
    out.one("backend.sched_dispatches", b.sched.dispatches as f64);
    out.one("backend.tlb_misses", b.tlb.misses as f64);
    out.one("backend.page_faults", ctr("page_faults"));
    out.one(
        "backend.irq_dispatches",
        b.irq_dispatches.iter().sum::<u64>() as f64,
    );
    out.one(
        "backend.disk_ops",
        b.disk_ops.iter().map(|d| d.0).sum::<u64>() as f64,
    );
    out.one("backend.disk_wake_events", ctr("disk_wake_events"));
    out.one(
        "backend.os_time_pct",
        compass::report::table1_breakdown(r).os_pct,
    );

    let m = &b.mem;
    let l1_misses = m.total_accesses() - m.l1_hits.iter().sum::<u64>();
    out.one("arch.accesses", m.total_accesses() as f64);
    out.one("arch.l1_miss_ratio", m.l1_miss_ratio());
    out.one(
        "arch.l2_miss_ratio",
        ratio(
            l1_misses.saturating_sub(m.l2_hits.iter().sum::<u64>()),
            l1_misses,
        ),
    );
    out.one("arch.remote_fraction", m.remote_fraction());
    out.one("arch.invalidations", m.invalidations_delivered as f64);

    out.one("os.calls", ctr("os_calls"));
    out.one("os.batched_replies", ctr("os_batched_replies"));
    out.one(
        "os.bufcache_hit_ratio",
        ratio(r.bufcache.hits, r.bufcache.hits + r.bufcache.misses),
    );
    out.one("os.bufcache_writebacks", r.bufcache.writebacks as f64);
    out.one("os.net_rx_frames", r.net.rx_frames as f64);

    out.one("workloads.units_done", rep.units_done as f64);
    out.one(
        "workloads.sim_p99_latency_cycles",
        rep.p99_latency_cycles as f64,
    );
    out.one("obs.trace_dropped", obs.trace_dropped as f64);
}

/// The host-CPU ledger of the traced repetition.
fn ledger_metrics(out: &mut Emitted, ledger: &Ledger, sampled: Duration, events: u64) {
    let secs = |ns: u64| ns as f64 / 1e9;
    let (fe, be) = (ledger.of(Group::Frontend), ledger.of(Group::Backend));
    let (os, bh) = (ledger.of(Group::Os), ledger.of(Group::BottomHalf));
    out.one("frontend.cpu_s", secs(fe.run_ns));
    out.one("frontend.runq_wait_s", secs(fe.wait_ns));
    out.one("frontend.ctx_switches", fe.slices as f64);
    out.one("backend.cpu_s", secs(be.run_ns));
    out.one("backend.runq_wait_s", secs(be.wait_ns));
    out.one("backend.ctx_switches", be.slices as f64);
    out.one("os.cpu_s", secs(os.run_ns));
    out.one("os.ctx_switches", (os.slices + bh.slices) as f64);
    out.one("os.bottomhalf_cpu_s", secs(bh.run_ns));
    out.one(
        "core.ledger_coverage",
        ledger.total_cpu_s() / sampled.as_secs_f64().max(1e-9),
    );
    out.one(
        "core.ctx_switches_per_kevent",
        ledger.sim_ctx_switches() as f64 * 1e3 / (events as f64).max(1.0),
    );
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Everything a finished run reports.
struct Outcome {
    detail: String,
    last_line: String,
}

fn render(
    args: &RunArgs,
    pin: &Pinning,
    verdict: &Verdict,
    metrics: &[(&'static Metric, Summary)],
    fingerprint: Option<Fingerprint>,
    measured_walls: &[f64],
) -> Outcome {
    let correct = verdict.failed == 0;
    let w = args.workload;
    println!(
        "workload {} seed {} trace {} pinned {} host_cpus {}",
        w.name(),
        args.seed,
        args.trace as u8,
        pin.pinned,
        pin.host_cpus
    );
    for (m, s) in metrics {
        println!("metric {:<34} {:>18} {}", m.name, num(s.median), m.unit);
    }
    println!(
        "ops_attempted {} ops_failed {} ({}s)",
        verdict.attempted,
        verdict.failed,
        w.unit()
    );
    for f in &verdict.failures {
        println!("FAILED {f}");
    }
    for d in &verdict.determinism_violations {
        println!("NONDETERMINISTIC {d}");
    }

    let brief: Vec<String> = metrics
        .iter()
        .map(|(m, s)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(s.median),
                quote(m.unit)
            )
        })
        .collect();
    let last_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted,
        verdict.failed,
        brief.join(", ")
    );

    let full: Vec<String> = metrics
        .iter()
        .map(|(m, s)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
                quote(m.name),
                num(s.median),
                quote(m.unit),
                num(s.min),
                num(s.max),
                s.n
            )
        })
        .collect();
    let pairs = |kv: Vec<(&'static str, String)>| -> String {
        kv.iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let quoted = |v: &[String]| v.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", ");
    let walls: Vec<String> = measured_walls.iter().map(|w| num(*w)).collect();
    let detail = format!(
        "{{\n  \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n  \
         \"host\": {{{}}},\n  \"scales\": {{{}}},\n  \
         \"correct\": {correct}, \"ops_attempted\": {}, \"ops_failed\": {}, \
         \"unit_of_work\": {},\n  \"failures\": [{}],\n  \"determinism_violations\": [{}],\n  \
         \"repetition_wall_s\": [{}],\n  \"fingerprint\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        quote(w.name()),
        args.seed,
        num(args.seconds),
        args.trace as u8,
        pairs(host::host_record(pin)),
        pairs(
            scales()
                .into_iter()
                .map(|(k, v)| (k, v.to_string()))
                .collect()
        ),
        verdict.attempted,
        verdict.failed,
        quote(w.unit()),
        quoted(&verdict.failures),
        quoted(&verdict.determinism_violations),
        walls.join(", "),
        fingerprint.map_or("null".into(), |f| golden::render_one(&f)),
        full.join(",\n"),
    );
    Outcome { detail, last_line }
}

/// Where a run's detail file goes.
pub fn detail_path(out_dir: &Path, w: Workload, trace: bool) -> PathBuf {
    out_dir.join(format!("{}.trace{}.json", w.name(), trace as u8))
}

/// Runs one workload in this process and prints its result; the last
/// line of standard output is the result object, which carries the
/// correctness verdict (the exit status does not: a run that measured
/// and reported has done its job).
pub fn run_one(args: &RunArgs) -> Result<(), String> {
    // Pin before any simulator thread exists: children inherit the mask.
    let pin = host::pin_process();
    let outcome = if args.trace {
        traced(args, &pin)?
    } else {
        untraced(args, &pin)
    };
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| {
            std::fs::write(
                detail_path(&args.out_dir, args.workload, args.trace),
                &outcome.detail,
            )
        })
        .map_err(|e| format!("cannot write under {}: {e}", args.out_dir.display()))?;
    println!("{}", outcome.last_line);
    Ok(())
}

/// `--trace 0`: the end-to-end metrics, every observer off.
fn untraced(args: &RunArgs, pin: &Pinning) -> Outcome {
    let w = args.workload;
    let mut facts = Vec::new();

    // Every timed interval is bracketed by two timings of the calibration
    // kernel and reported in calibrated seconds (host.rs, "Host-speed
    // calibration").
    let mut cal = host::calibration_kernel();
    let mut speeds = Vec::new();
    let mut calibrated = |wall_s: f64| {
        let after = host::calibration_kernel();
        let speed = host::host_speed(std::mem::replace(&mut cal, after), after);
        speeds.push(speed);
        wall_s * speed
    };

    // Set-up: every input set from the seed, then a warm-up repetition
    // (which loads the tables or the file set). The warm-up simulates the
    // golden input whatever the seed: it is there to warm the host, and
    // on one fixed input `setup_s` is comparable across seeds (a `tpcc`
    // repetition takes 1.1-1.9 s depending on its transaction stream) and
    // every run checks the golden fingerprint. Done SETUPS times; the
    // median is reported, so one slow set-up does not decide the metric.
    let mut setup_s = Vec::new();
    let inputs = (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut inputs: Vec<InputSet> = (0..VARIANTS)
                .map(|v| InputSet::new(w, args.seed, v))
                .collect();
            inputs.push(InputSet::new(w, DEFAULT_SEED, 0));
            let warm = inputs[VARIANTS].inputs.run(ObsConfig::default());
            setup_s.push(calibrated(t0.elapsed().as_secs_f64()));
            facts.push(RepFacts::of(VARIANTS, &warm));
            inputs
        })
        .last()
        .expect("SETUPS is at least 1");

    // Measure for `--seconds`, at least MIN_REPS repetitions, cycling
    // through the input sets. A repetition that errs ends the loop: its
    // siblings would only repeat the watchdog timeout.
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut rss = 0.0;
    let began = Instant::now();
    while rates.len() < MIN_REPS || began.elapsed().as_secs_f64() < args.seconds {
        let variant = rates.len() % VARIANTS;
        let outcome = inputs[variant].inputs.run(ObsConfig::default());
        facts.push(RepFacts::of(variant, &outcome));
        let Ok(rep) = outcome else { break };
        let wall = rep.report.wall.as_secs_f64();
        rates.push(rep.report.backend.events as f64 / calibrated(wall).max(1e-9));
        walls.push(wall);
        if rates.len() == RSS_AFTER_REP {
            rss = host::peak_rss_mib();
        }
    }
    if rss == 0.0 {
        rss = host::peak_rss_mib();
    }
    let verdict = verify(w, &inputs, &facts);
    let mut out = Emitted::default();
    out.set("host_events_per_s", Summary::of(&rates));
    out.one("host_peak_rss_mb", rss);
    out.set("setup_s", Summary::of(&setup_s));
    // The golden input's fingerprint, as the warm-ups produced it.
    let fingerprint = facts
        .iter()
        .filter(|f| f.variant == VARIANTS)
        .find_map(|f| f.outcome.as_ref().ok())
        .map(|f| f.fingerprint);
    let outcome = render(
        args,
        pin,
        &verdict,
        &out.finish(END_TO_END),
        fingerprint,
        &walls,
    );
    let speed = Summary::of(&speeds);
    println!(
        "host speed while measuring: median {} of the reference host (min {}, max {})",
        num(speed.median),
        num(speed.min),
        num(speed.max)
    );
    outcome
}

/// `--trace 1`: the traced repetition, the ledger and the layer probes.
fn traced(args: &RunArgs, pin: &Pinning) -> Result<Outcome, String> {
    let w = args.workload;
    let mut spans = Spans::new();
    let run_start = Instant::now();
    let mut facts = Vec::new();

    // The traced run simulates input set 0 only: its layer counts are
    // then comparable from run to run, and at the default seed they are
    // the golden file's.
    let set = spans.time("setup.inputs", "run", || InputSet::new(w, args.seed, 0));
    let inputs = &set.inputs;
    let warm = spans.rep("run.warmup", "run", inputs, ObsConfig::default());
    facts.push(RepFacts::of(0, &warm));

    let mut walls = Vec::new();
    for _ in 0..UNTRACED_REPS {
        let outcome = spans.rep("run.rep", "run", inputs, ObsConfig::default());
        facts.push(RepFacts::of(0, &outcome));
        if let Ok(rep) = outcome {
            walls.push(rep.report.wall.as_secs_f64());
        }
    }

    // The traced repetition: counters and the coarse trace ring on inside
    // the program, the scheduler ledger sampled from outside it.
    let obs = ObsConfig {
        counters: true,
        trace: TraceLevel::Coarse,
        ..ObsConfig::default()
    };
    let cal_before = spans.time("calibrate", "run", host::calibration_kernel);
    let sampler = Sampler::start();
    let sampled_from = Instant::now();
    let outcome = spans.rep("run.traced", "run", inputs, obs);
    let sampled = sampled_from.elapsed();
    let ledger = sampler.finish();
    let cal_after = spans.time("calibrate", "run", host::calibration_kernel);
    facts.push(RepFacts::of(0, &outcome));

    let verdict = spans.time("verify", "run", || {
        verify(w, std::slice::from_ref(&set), &facts)
    });
    let rep = outcome.map_err(|e| {
        format!(
            "{}: the traced repetition failed, no layer metrics: {e}",
            w.name()
        )
    })?;

    let mut out = Emitted::default();
    report_metrics(&mut out, &rep);
    ledger_metrics(&mut out, &ledger, sampled, rep.report.backend.events);
    out.one("core.host_speed", host::host_speed(cal_before, cal_after));
    out.one(
        "obs.trace_overhead_ratio",
        rep.report.wall.as_secs_f64() / median(&walls).max(1e-9),
    );
    for (name, v) in probes::run_all(pin, |name, f| spans.time(name, "probes", f)) {
        out.one(name, v);
    }
    spans.push("run", "", run_start, run_start.elapsed());

    let chrome = merge_chrome_trace(
        rep.report.trace.as_ref().map(|t| t.to_chrome_trace()),
        &spans.to_chrome_events(w.name()),
    );
    let trace_path = args.out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&trace_path, chrome))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    Ok(render(
        args,
        pin,
        &verdict,
        &out.finish(PER_LAYER),
        Some(rep.fingerprint()),
        &walls,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_merge_into_the_programs_chrome_trace() {
        let mut spans = Spans::new();
        spans.time("verify", "run", || ());
        let events = spans.to_chrome_events("sci");
        let empty = merge_chrome_trace(None, &events);
        let program = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"x\"}]}";
        let both = merge_chrome_trace(Some(program.into()), &events);
        for (text, n) in [(empty, 1), (both, 2)] {
            let doc = json::parse(&text).expect("merged trace is JSON");
            let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
            assert_eq!(evs.len(), n);
            let span = evs.last().unwrap();
            assert_eq!(span.get("name").and_then(|v| v.as_str()), Some("verify"));
            let id = span.get("args").and_then(|a| a.get("id"));
            assert_eq!(id.and_then(|v| v.as_str()), Some("sci"));
        }
        let none = merge_chrome_trace(Some(program.into()), &[]);
        assert_eq!(none, program);
    }

    #[test]
    fn emission_follows_the_catalogue_order() {
        let mut out = Emitted::default();
        out.one("setup_s", 1.0);
        out.one("host_peak_rss_mb", 2.0);
        out.one("host_events_per_s", 3.0);
        let names: Vec<_> = out.finish(END_TO_END).iter().map(|(m, _)| m.name).collect();
        assert_eq!(names, ["host_events_per_s", "host_peak_rss_mb", "setup_s"]);
    }

    #[test]
    #[should_panic(expected = "was not emitted")]
    fn a_missing_metric_is_refused() {
        let mut out = Emitted::default();
        out.one("setup_s", 1.0);
        out.finish(END_TO_END);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn an_undeclared_metric_is_refused() {
        let mut out = Emitted::default();
        out.one("made_up", 1.0);
        out.finish(END_TO_END);
    }
}
