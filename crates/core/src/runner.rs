//! The simulation runner: builds the communicator, the backend, the shared
//! kernel with its bottom-half daemon, and the frontend processes, runs to
//! completion, and collects every statistic.
//!
//! One host thread, `compass-backend`, runs the whole simulation: the
//! frontends (which run their own OS calls) and the daemon are tasks on
//! its executor (see
//! [`compass_comm::coro`]), resumed by the engine whenever it needs their
//! next event — the paper's single backend process, with no other
//! simulator threads.

use crate::config::SimConfig;
use compass_arch::ArchConfig;
use compass_backend::devices::NullTraffic;
use compass_backend::{Backend, BackendStats, RunError, TraceRecord, TrafficSource};
use compass_comm::{Class, DevShared, EventPort, Executor, Notifier};
use compass_frontend::{CpuCtx, FrontendStats, Process};
use compass_isa::{Cycles, ProcessId};
use compass_obs::{Ctr, ObsHub, ObsReport, ProgressFn, TraceBuffer, TraceHandle};
use compass_os::bufcache::BufStats;
use compass_os::net::NetStats;
use compass_os::{KernelShared, OsObs};
use parking_lot::Mutex;
use std::panic::resume_unwind;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RunReport {
    /// Backend counters (time attribution, memory system, scheduler,
    /// devices…).
    pub backend: BackendStats,
    /// Per-syscall `(name, count, cycles)`, sorted by cycles.
    pub syscalls: Vec<(String, u64, u64)>,
    /// Buffer-cache counters.
    pub bufcache: BufStats,
    /// Network-stack counters.
    pub net: NetStats,
    /// Interrupt-handler cycles by source `[disk, net, timer]`.
    pub intr_cycles: [Cycles; 3],
    /// Per-process frontend counters.
    pub frontends: Vec<FrontendStats>,
    /// Host wall-clock time of the simulation: from starting the
    /// `compass-backend` thread to joining it (setup of the simulated
    /// threads, the run, and their teardown).
    pub wall: Duration,
    /// Number of application processes (the kernel daemon is `pid
    /// app_processes`).
    pub app_processes: usize,
    /// Bytes written to files through `write`/`writev`. Architecture-
    /// independent: simcheck's metamorphic checks assert it is invariant
    /// across scheduler/placement/cache knobs.
    pub fs_write_bytes: u64,
    /// Merged observability counters (present when
    /// [`SimConfig::obs`](crate::SimConfig) enabled anything).
    pub obs: Option<ObsReport>,
    /// The structured trace ring, for JSONL / Chrome `trace_event`
    /// export (present when tracing was on).
    pub trace: Option<Arc<TraceBuffer>>,
    /// Every backend call into the architecture models, in global
    /// simulated order (present after [`SimBuilder::record_accesses`]).
    pub access_trace: Option<Vec<TraceRecord>>,
}

impl RunReport {
    /// Pids of the application processes.
    pub fn app_pids(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.app_processes
    }

    /// Total simulated CPU cycles (user + kernel + interrupt, all
    /// processes including the daemon's handler time).
    pub fn total_cpu_cycles(&self) -> Cycles {
        self.backend.procs.iter().map(|p| p.cpu_cycles()).sum()
    }
}

type PrepareFn = Box<dyn FnOnce(&KernelShared) + Send>;

/// Builds and runs one simulation.
pub struct SimBuilder {
    config: SimConfig,
    processes: Vec<Box<dyn Process>>,
    traffic: Option<Box<dyn TrafficSource>>,
    prepare: Option<PrepareFn>,
    record_accesses: bool,
    progress: Option<ProgressFn>,
    #[cfg(feature = "check-invariants")]
    schedule_seed: Option<u64>,
}

impl SimBuilder {
    /// Starts from an architecture with default everything else.
    pub fn new(arch: ArchConfig) -> Self {
        Self::with_config(SimConfig::new(arch))
    }

    /// Starts from a full configuration.
    pub fn with_config(config: SimConfig) -> Self {
        Self {
            config,
            processes: Vec::new(),
            traffic: None,
            prepare: None,
            record_accesses: false,
            progress: None,
            #[cfg(feature = "check-invariants")]
            schedule_seed: None,
        }
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.config
    }

    /// Adds a simulated application process; pids are assigned in call
    /// order.
    pub fn add_process(mut self, p: impl Process + 'static) -> Self {
        self.processes.push(Box::new(p));
        self
    }

    /// Installs the client-side traffic source (the SPECWeb-style trace
    /// player).
    pub fn traffic(mut self, t: impl TrafficSource + 'static) -> Self {
        self.traffic = Some(Box::new(t));
        self
    }

    /// Runs `f` against the functional kernel before simulation starts
    /// (file-set population, database loading — not simulated, exactly
    /// like the paper's pre-test file set generator).
    pub fn prepare_kernel(mut self, f: impl FnOnce(&KernelShared) + Send + 'static) -> Self {
        self.prepare = Some(Box::new(f));
        self
    }

    /// Records every backend call into the architecture models, in global
    /// simulated order, into [`RunReport::access_trace`] (the simcheck
    /// reference oracle replays it — see [`compass_backend::trace`]).
    pub fn record_accesses(mut self) -> Self {
        self.record_accesses = true;
        self
    }

    /// Installs the progress-snapshot callback. Snapshots fire every
    /// `SimConfig::obs.progress_every` serviced events; setting a
    /// callback without a period implies the default period.
    pub fn progress(
        mut self,
        f: impl Fn(&compass_obs::ProgressSnapshot) + Send + Sync + 'static,
    ) -> Self {
        if self.config.obs.progress_every.is_none() {
            self.config.obs.progress_every = Some(100_000);
        }
        self.progress = Some(Arc::new(f));
        self
    }

    /// Runs the simulated threads on a seeded random schedule instead of
    /// first-ready-first-run (see `Executor::set_schedule_seed`) — the
    /// schedule-independence oracle: results must be bit-identical for
    /// every seed. Only in `check-invariants` builds.
    #[cfg(feature = "check-invariants")]
    pub fn schedule_seed(mut self, seed: u64) -> Self {
        self.schedule_seed = Some(seed);
        self
    }

    /// Runs the simulation to completion; panics (with the deadlock
    /// report) if the run ends in an error. Use [`SimBuilder::try_run`]
    /// to handle errors structurally.
    pub fn run(self) -> RunReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion, returning a structured error
    /// instead of panicking when the backend detects a deadlock (sync
    /// cycle or host-timeout) or itself panics. On error every event port
    /// is poisoned, so all simulated threads unwind cleanly before this
    /// returns. A panic inside a simulated thread (a workload bug) is
    /// re-raised here.
    pub fn try_run(self) -> Result<RunReport, RunError> {
        let SimBuilder {
            config,
            processes,
            traffic,
            prepare,
            record_accesses,
            progress,
            #[cfg(feature = "check-invariants")]
            schedule_seed,
        } = self;
        config.validate().expect("invalid simulation configuration");
        let nprocs = processes.len();
        assert!(nprocs > 0, "no processes to simulate");
        let daemon_pid = ProcessId(nprocs as u32);

        // --- Observability ---
        let hub = config.obs.enabled().then(ObsHub::new);
        let counters = config.obs.counters.then(|| hub.as_ref().unwrap());
        let trace = (config.obs.trace != compass_obs::TraceLevel::Off)
            .then(|| TraceHandle::new(config.obs.trace, config.obs.trace_capacity));

        // --- Communicator ---
        // Only posters on ordinary threads bump the ports' notify epoch;
        // every poster here is a task, so nothing reads it.
        let notifier = Arc::new(Notifier::new());
        let devshared = Arc::new(DevShared::new());
        // The batch depth is the ring capacity. Every poster on a ring
        // (the frontend and its OS calls, the daemon on its own) batches
        // while the ring keeps a slot for the blocking cut, so a frontend
        // batch and a kernel tail share one bound. Pseudo-IRQ delivery
        // checks every reply: one slot, nothing batches.
        let ring_cap = if config.pseudo_irq {
            1
        } else {
            config.backend.batch_depth
        };
        let ports: Vec<Arc<EventPort>> = (0..=nprocs)
            .map(|pid| {
                let mut port = EventPort::with_capacity(
                    ProcessId(pid as u32),
                    Arc::clone(&notifier),
                    ring_cap,
                );
                if let Some(hub) = counters {
                    port.set_counters(hub.register(&format!("port-{pid}")));
                }
                Arc::new(port)
            })
            .collect();

        // --- OS server ---
        let kernel = KernelShared::new(config.kernel, Arc::clone(&devshared));
        if let Some(f) = prepare {
            f(&kernel);
        }
        let os_block = counters.map(|hub| hub.register("os"));
        let os_obs = OsObs {
            counters: os_block.clone(),
            trace: trace.clone(),
        };
        // --- Backend ---
        let mut backend = Backend::new(
            config.backend.clone(),
            ports.clone(),
            Arc::clone(&devshared),
            Some(daemon_pid),
            traffic.unwrap_or_else(|| Box::new(NullTraffic)),
        );
        if record_accesses {
            backend.arch_mut().record_trace();
        }
        let backend_block = counters.map(|hub| hub.register("backend"));
        if let Some(block) = &backend_block {
            backend.set_counters(Arc::clone(block));
        }
        if let Some(block) = &os_block {
            // Progress snapshots surface the OS-side batching counter
            // alongside the backend's own.
            backend.set_os_counters(Arc::clone(block));
        }
        if let Some(t) = &trace {
            backend.set_trace(t.clone());
        }
        if let Some(every) = config.obs.progress_every {
            // Snapshots still count (and trace) with no user callback.
            backend.set_progress(every, progress.unwrap_or_else(|| Arc::new(|_| {})));
        }
        // --- Frontend processes ---
        let frontend_setup: Vec<_> = processes
            .into_iter()
            .enumerate()
            .map(|(pid, body)| {
                let fe_block = counters.map(|hub| hub.register(&format!("frontend-{pid}")));
                (pid, body, fe_block)
            })
            .collect();
        let timing = config.timing.clone();
        let pseudo = config.pseudo_irq;
        let results: Arc<Mutex<Vec<Option<FrontendStats>>>> =
            Arc::new(Mutex::new(vec![None; nprocs]));

        // --- Run: every simulated thread is a task on the backend thread ---
        let started = Instant::now();
        let run = {
            let kernel = Arc::clone(&kernel);
            let ports = ports.clone();
            let results = Arc::clone(&results);
            std::thread::Builder::new()
                .name("compass-backend".into())
                .spawn(move || {
                    let mut exec = Executor::new();
                    #[cfg(feature = "check-invariants")]
                    if let Some(seed) = schedule_seed {
                        exec.set_schedule_seed(seed);
                    }
                    compass_os::start_daemon(
                        &kernel,
                        daemon_pid,
                        Arc::clone(&ports[daemon_pid.index()]),
                        os_obs.counters.clone(),
                        &mut exec,
                    );
                    for (pid, mut body, fe_block) in frontend_setup {
                        let port = Arc::clone(&ports[pid]);
                        let kernel = Arc::clone(&kernel);
                        let os_obs = os_obs.clone();
                        let timing = timing.clone();
                        let results = Arc::clone(&results);
                        exec.spawn(Class::Frontend, fe_block.clone(), move || {
                            let pid_id = ProcessId(pid as u32);
                            let mut cpu = CpuCtx::simulated(pid_id, port, kernel, timing);
                            if pseudo {
                                cpu.enable_pseudo_irq();
                            }
                            cpu.set_obs(fe_block, os_obs);
                            // A poisoned port unwinds this task with
                            // SimAbort; the backend reports the error.
                            cpu.start();
                            body.run(&mut cpu);
                            cpu.exit();
                            results.lock()[pid] = Some(cpu.stats());
                        });
                    }
                    // On error (a backend panic included) every port is
                    // poisoned, so every task unwinds below.
                    let outcome = backend.run_with(&mut exec);
                    // Run the tasks still ready to their end, then unwind
                    // every task still suspended (the daemon; on error,
                    // all).
                    exec.cancel_all();
                    (outcome, exec.take_panic(), exec.busy_ns())
                })
                .expect("spawn backend")
        };
        let (outcome, task_panic, busy_ns) = run.join().expect("backend thread panicked");
        let wall = started.elapsed();
        // The host ledger's backend class: all of the wall outside the
        // tasks' own running time — the engine, the executor, setting up
        // the simulated threads, and spawning and joining the backend
        // thread, which alone take 10-15 % of a few-millisecond run.
        if let Some(block) = &backend_block {
            block.add(
                Ctr::HostBackendNs,
                (wall.as_nanos() as u64).saturating_sub(busy_ns),
            );
        }
        if let Some(payload) = task_panic {
            resume_unwind(payload);
        }
        let outcome = outcome?;
        if let Some(detail) = kernel.unsettled() {
            return Err(RunError::UnsettledDrain { detail });
        }
        let frontends = std::mem::take(&mut *results.lock())
            .into_iter()
            .map(|s| s.expect("frontend aborted but the backend reported no error"))
            .collect();

        let obs = hub.as_ref().map(|hub| {
            if let (Some(block), Some(t)) = (&backend_block, &trace) {
                block.add(Ctr::TraceDropped, t.buf.dropped());
            }
            ObsReport {
                counters: hub.merge().all(),
                trace_records: trace.as_ref().map_or(0, |t| t.buf.len() as u64),
                trace_dropped: trace.as_ref().map_or(0, |t| t.buf.dropped()),
            }
        });

        let bufcache = kernel.bufs.lock().stats();
        let net = kernel.net.lock().stats;
        let intr_cycles = [
            kernel.intr_cycles[0].load(Ordering::Relaxed),
            kernel.intr_cycles[1].load(Ordering::Relaxed),
            kernel.intr_cycles[2].load(Ordering::Relaxed),
        ];
        Ok(RunReport {
            backend: outcome.stats,
            syscalls: kernel.stats.snapshot(),
            bufcache,
            net,
            intr_cycles,
            frontends,
            wall,
            app_processes: nprocs,
            fs_write_bytes: kernel.fs_write_bytes.load(Ordering::Relaxed),
            obs,
            trace: trace.map(|t| t.buf),
            access_trace: outcome.access_trace,
        })
    }
}
