//! **compass-fleet** — the design-space-exploration runner.
//!
//! COMPASS studies (the paper's Table 1, its scheduler, placement and
//! memory-system comparisons) vary simulated knobs over a workload; this
//! crate is the one harness for them. It turns a declarative parameter
//! lattice into a deduplicated, parallel, self-checking sweep:
//!
//! 1. **Declare** ([`lattice`]): a [`Lattice`] is a baseline
//!    [`compass_simcheck::Scenario`] plus axes over the simulated
//!    machine (architecture shape, cache geometry, scheduler, placement,
//!    pre-emption). Presets ([`presets`]) are unions of lattices over the
//!    shared scenario catalogue.
//! 2. **Expand & dedupe** ([`expand_preset`]): cartesian expansion in a
//!    fixed order, then collapse of scenarios whose canonical simulated
//!    configuration ([`compass::SimConfig::config_hash`] + workload
//!    identity) is equal — shared baselines across sub-sweeps run once.
//! 3. **Fan out** ([`run`]): a work queue across host cores (clamped to
//!    `available_parallelism`, so a 1-CPU host runs serially), each job
//!    one full simulation with counters on at the shipped batch depth.
//! 4. **Verify** ([`run::run_job`]): every job is re-run at batch depth 1
//!    (every poster per event) and must reproduce its `BackendStats` and
//!    its per-syscall kernel time bit for bit — the batch depth is a
//!    transport setting, never a result.
//! 5. **Aggregate** ([`report`]): one machine-readable JSON document —
//!    per-job stats, the twin verdict and fleet-wide observability
//!    totals. Host timing is segregated into single-line `"host"`
//!    sub-objects so reports are byte-comparable modulo the host.

pub mod lattice;
pub mod presets;
pub mod report;
pub mod run;

pub use lattice::{dedupe_key, expand_preset, Axis, Knob, Lattice};
pub use report::{render, ReportInput};
pub use run::{run_fleet, run_job, Job, JobResult};
