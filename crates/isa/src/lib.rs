//! Instruction-set timing model and shared identifiers for the COMPASS
//! reproduction.
//!
//! COMPASS ("COMmercial PArallel Shared memory Simulator", Nanda et al.,
//! IPPS 1998) instruments application assembly code so that each basic block
//! and each memory reference updates a per-process *execution time* counter
//! from per-instruction cycle estimates, assuming 100% instruction-cache
//! hits. This crate provides the equivalent cost model:
//!
//! * [`InstClass`] — instruction classes of a PowerPC-604-style in-order
//!   pipeline with per-class cycle costs;
//! * [`TimingModel`] — a configurable per-class cost table;
//! * [`BlockCost`] — a pre-computed basic-block cost, the unit by which
//!   frontend processes advance their clocks between memory references;
//! * the small identifier newtypes ([`ProcessId`], [`CpuId`], [`NodeId`],
//!   …) shared by every other crate in the workspace;
//! * [`hash`] — the fixed hasher of the simulator-state maps.
//!
//! Nothing in this crate depends on the rest of the simulator; it sits at
//! the bottom of the crate DAG.

pub mod block;
pub mod hash;
pub mod ids;
pub mod inst;
pub mod timing;

pub use block::{BlockCost, BlockCostBuilder};
pub use hash::{FoldHashMap, FoldHashSet};
pub use ids::{ConnId, CpuId, Cycles, DiskId, NicId, NodeId, ProcessId, SegId};
pub use inst::InstClass;
pub use timing::TimingModel;
