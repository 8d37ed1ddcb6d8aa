//! **COMPASS** — COMmercial PArallel Shared memory Simulator.
//!
//! A Rust reproduction of the execution-driven simulator described in
//! "The Design of COMPASS: An Execution Driven Simulator for Commercial
//! Applications Running on Shared Memory Multiprocessors" (Nanda, Hu,
//! Ohara, Benveniste, Giampapa, Michael — IBM T.J. Watson, IPPS 1998).
//!
//! COMPASS simulates commercial applications (OLTP, decision support, web
//! serving) on shared-memory multiprocessors *including the OS services
//! they spend their time in*: frontend processes generate timed memory
//! events; a multi-threaded user-mode OS server simulates category-1
//! kernel paths (file I/O, TCP/IP, select, …); the backend owns the
//! architecture models (caches, directory coherence, buses, network),
//! the process scheduler, virtual memory, and the physical devices.
//!
//! # Quick start
//!
//! ```
//! use compass::{SimBuilder, ArchConfig};
//! use compass_os::{OsCall, SysVal};
//!
//! let report = SimBuilder::new(ArchConfig::simple_smp(2))
//!     .prepare_kernel(|k| {
//!         k.create_file("/data", compass_os::fs::FileData::Synthetic { len: 8192 });
//!     })
//!     .add_process(|cpu: &mut compass::CpuCtx| {
//!         let buf = cpu.malloc(4096);
//!         let fd = match cpu.os_call(OsCall::Open { path: "/data".into(), create: false }) {
//!             Ok(SysVal::NewFd(fd)) => fd,
//!             other => panic!("{other:?}"),
//!         };
//!         let _ = cpu.os_call(OsCall::Read { fd, len: 4096, buf });
//!         let _ = cpu.os_call(OsCall::Close { fd });
//!     })
//!     .run();
//! assert!(report.backend.global_cycles > 0);
//! ```
//!
//! The crates underneath are re-exported for direct use:
//! [`compass_arch`] (architecture models), [`compass_backend`] (engine),
//! [`compass_os`] (the OS server), [`compass_frontend`] (the
//! instrumentation API), [`compass_mem`] and [`compass_isa`].

pub mod config;
pub mod raw;
pub mod report;
pub mod runner;

pub use compass_arch::{ArchConfig, CacheConfig, LatencyParams, MemSysKind, Topology};
pub use compass_backend::{
    BackendConfig, DeadlockKind, DeadlockReport, RunError, SchedPolicy, VmFault, VmFaultKind,
    WildAccessReport,
};
pub use compass_frontend::{CpuCtx, Process};
pub use compass_isa::{BlockCost, Cycles, InstClass, ProcessId, TimingModel};
pub use compass_mem::{PlacementPolicy, VAddr};
pub use compass_obs::{ObsConfig, ObsReport, ProgressSnapshot, TraceLevel};
pub use compass_os::{KernelConfig, OsCall, SysVal};
pub use config::SimConfig;
pub use raw::{run_raw, RawReport};
pub use report::{format_syscall_table, format_table1};
pub use runner::{RunReport, SimBuilder};
