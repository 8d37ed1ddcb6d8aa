//! **compass-fleet** — the design-space-exploration runner.
//!
//! COMPASS studies (the paper's Table 1, its scheduler, placement and
//! memory-system comparisons, the transport ablations) vary simulated
//! knobs over a workload; this crate is the one harness for them. It
//! turns a declarative parameter lattice into a deduplicated, parallel,
//! self-checking sweep:
//!
//! 1. **Declare** ([`lattice`]): a [`Lattice`] is a baseline
//!    [`compass_simcheck::Scenario`] plus axes (geometry, protocol,
//!    placement, scheduler, batch depth, checkpoint gate). Presets
//!    ([`presets`]) are unions of lattices over the shared scenario
//!    catalogue.
//! 2. **Expand & dedupe** ([`lattice::dedupe`]): cartesian expansion in
//!    a fixed order, then collapse of points whose canonical simulated
//!    configuration ([`compass::SimConfig::config_hash`] + workload
//!    identity) is equal — shared baselines across sub-sweeps run once.
//! 3. **Fan out** ([`run`]): a work queue across host cores (clamped to
//!    `available_parallelism`, so a 1-CPU host runs serially), each job
//!    one full simulation with counters on.
//! 4. **Aggregate** ([`report`]): one machine-readable JSON document —
//!    per-job stats, fleet-wide observability totals, and per-axis
//!    sensitivity deltas (each axis isolated with every other axis at
//!    baseline). Host timing is segregated into single-line `"host"`
//!    sub-objects so reports are byte-comparable modulo the host.
//! 5. **Verify** ([`run::run_twins`]): the fleet oracle re-runs a
//!    deterministic sample of jobs at the transport baseline (depth 1:
//!    every poster per event) and requires
//!    bit-identical `BackendStats` — the simcheck neutrality theorems,
//!    spot-checked inside every sweep that relies on them.

pub mod lattice;
pub mod presets;
pub mod report;
pub mod run;

pub use lattice::{dedupe, Axis, FleetPoint, Knob, Lattice};
pub use report::{expand_preset, render, sensitivity, ReportInput, Sensitivity};
pub use run::{run_fleet, run_job, run_twins, twin_of, twin_sample, Job, JobResult};
