//! Backend architecture models for the COMPASS reproduction.
//!
//! "The backend simulation process simulates the target shared memory
//! multiprocessor architecture including several levels of caches, memory
//! buses, memory controllers, coherence controllers, network, and physical
//! devices of the target computer system. The simplest backend consists of
//! only a one-level cache per processor and the most complex backend models
//! all the other system components along with a two-level cache per
//! processor." (§2)
//!
//! This crate provides those models:
//!
//! * [`config`] — cache geometries, latency parameters, memory-system
//!   selection (simple / CC-NUMA / COMA; software DSM lives in the backend
//!   because it needs the page tables);
//! * [`cache`] — set-associative caches with MESI line states;
//! * [`directory`] — the per-node coherence directory;
//! * [`bus`] / [`interconnect`] — occupancy-based contention models for
//!   node buses and the inter-node network;
//! * [`hierarchy`] — the composed memory system: per-CPU L1 (+ optional
//!   L2), node buses, directory protocol, COMA attraction memory;
//! * [`stats`] — the counters every report and table draws from.
//!
//! Everything here is single-threaded and driven by the backend in global
//! simulated-time order, so the models are plain `&mut self` state machines
//! — no locks on the simulation hot path.

#![forbid(unsafe_code)]

pub mod bus;
pub mod cache;
pub mod config;
pub mod directory;
pub mod hierarchy;
pub mod interconnect;
pub mod mirror;
pub mod stats;

pub use cache::{Cache, LineState};
pub use config::{ArchConfig, CacheConfig, LatencyParams, MemSysKind};
pub use directory::{DirEntry, Directory};
pub use hierarchy::{Access, AccessResult, Hierarchy};
pub use interconnect::{Interconnect, Topology};
pub use mirror::L1Mirror;
pub use stats::{AccessClass, MemStats};
