//! The COMPASS **frontend** application-process model.
//!
//! "The frontend processes are built by compiling the application source
//! code to generate assembly code. The assembly code is then run through
//! an instrumentation program which inserts special assembly code at end
//! of each basic block and each memory reference." (§2)
//!
//! In this reproduction, workloads are real Rust code written against
//! [`CpuCtx`] — the programmatic equivalent of the inserted
//! instrumentation: basic-block costs advance the process execution-time
//! counter, memory references produce timed events over the simulated
//! address space, OS calls go through stubs that run the simulated kernel
//! code on the process's own task (the paper's paired OS thread, as a
//! function call), and the interrupt-request flag is checked on the way
//! out of every event rendezvous (§3.2). The same workload code runs in
//! two environments:
//!
//! * **simulated** — user and kernel events flow to the backend;
//! * **raw** — no events, the same kernel code runs silently: the
//!   paper's uninstrumented baseline for the slowdown tables;
//!
//! selected by which [`CpuCtx`] constructor the harness uses.

pub mod ctx;

pub use ctx::{CpuCtx, FrontendStats, Process};
