//! **simcheck** — the differential-oracle and invariant-checking harness
//! for the COMPASS reproduction.
//!
//! The simulator's load-bearing promise (§2 of the paper) is that the
//! global event scheduler's least-execution-time pickup rule makes the
//! simulation a deterministic function of the workload alone: the engine
//! mode, the event-batch depth and the host thread schedule must not leak
//! into any statistic. `simcheck` attacks that promise from three sides:
//!
//! 1. **Reference oracle** ([`oracle`]): a depth-1 run records every call
//!    the engine makes into the architecture models (see
//!    [`compass_backend::trace`]); a simple unbatched single-step replay
//!    through a fresh [`compass_arch::Hierarchy`] must reproduce every
//!    per-access latency and the final memory statistics bit for bit, and
//!    the recorded times must be non-decreasing (the pickup rule's global
//!    order).
//! 2. **Batch-depth differentials** ([`check`]): the same scenario at
//!    depths 1, 4, 16 and 64 must produce field-identical
//!    [`compass_backend::BackendStats`] and identical per-syscall kernel
//!    time ([`diff`] localises a divergence to the first differing field
//!    or system call).
//! 3. **Metamorphic checks** ([`check`]): architecture-independent
//!    quantities — per-process frontend events and OS calls, bytes
//!    written through `os::fs`, barrier episodes — must be invariant
//!    across scheduler, page-placement, cache-geometry and memory-system
//!    knobs for workloads whose instruction stream does not depend on
//!    timing ([`scenario::Workload::timing_independent`]).
//!
//! Scenarios are generated from a seed ([`scenario::Scenario::from_seed`])
//! over the [`compass_workloads`] crates plus a file-I/O chaos workload,
//! and greedily shrunk on failure ([`check::shrink_failure`]). The
//! `simcheck` binary drives one-shot seed replay, fixed scenario counts
//! and time-bounded soaks; build with `--features check-invariants` to
//! additionally run the per-step invariant layer (directory exactness,
//! cache inclusion, MESI exclusivity, wait-queue liveness, page-table /
//! frame ownership) inside every run.

pub mod check;
pub mod diff;
pub mod oracle;
pub mod presets;
pub mod scenario;
pub mod soak;

pub use check::{
    apply_scenario_knobs, check_scenario, check_scenario_with_soak_ckpt, metamorphic_variants,
    run_scenario, shrink_failure, CkptMode,
};
pub use diff::{diff_backend_stats, diff_runs};
pub use oracle::verify_trace;
pub use scenario::{ArchPreset, Geometry, Scenario, Workload};
pub use soak::SoakState;
