//! The COMPASS **Communicator**.
//!
//! "The *Communicator* provides the interface between the frontend
//! application processes and the backend simulation process. To reduce
//! communication overhead to a minimum, this interface uses custom built
//! Shared Memory Message Passing incorporating a shared memory segment and
//! a set of blocking and non-blocking message passing primitives." (§2)
//!
//! In this reproduction the "shared memory segment" is process memory, and
//! the frontends, OS-server threads and bottom-half daemon are stackful
//! coroutines ([`coro`]) that the backend's host thread resumes: a blocking
//! primitive suspends its caller back to the engine instead of parking a
//! host thread, so a rendezvous is a user-space stack switch. The
//! primitives are built from atomics (see *Rust Atomics and Locks*, ch.
//! 4–5, whose one-shot channel design the [`rendezvous`] module's reply
//! slot follows) and keep a `thread::park` fallback for callers on
//! ordinary threads. The non-blocking primitive is a bounded SPSC event
//! ring per port: the frontend batches a basic block's worth of timed
//! events and rendezvouses only on the batch's final (blocking) event.
//!
//! Contents:
//!
//! * [`coro`] — the coroutines, their executor, and the wait/wake
//!   protocol every blocking primitive uses;
//! * [`event`] — the event/reply ABI between frontends and the backend;
//! * [`rendezvous`] — the bounded event ring with its blocking-reply slot;
//! * [`port`] — event ports (hot, atomics-based) and generic request ports
//!   (OS ports use these);
//! * [`cpu_states`] — the shared "CPU-states" area with interrupt request
//!   and interrupt enable bits (§3.2);
//! * [`devshared`] — the device postbox: completion records and network
//!   frames deposited by backend device models for the OS server's
//!   interrupt handlers;
//! * [`notifier`] — the backend wake-up channel.

pub mod coro;
pub mod cpu_states;
pub mod devshared;
pub mod event;
pub mod notifier;
pub mod port;
pub mod rendezvous;

pub use coro::{Class, Executor};
pub use cpu_states::{CpuStates, IrqSource};
pub use devshared::{DevShared, DiskCompletion, Frame, FrameKind, TimerTick};
pub use event::{
    BlockReason, CtlOp, DevCmd, Event, EventBody, ExecMode, Folded, MemRefKind, Reply, ReplyData,
    SimAbort, SyncOp,
};
pub use notifier::Notifier;
pub use port::{EventPort, ReqPort};
pub use rendezvous::EventRing;
