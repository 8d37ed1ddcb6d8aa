//! The COMPASS **Communicator**.
//!
//! "The *Communicator* provides the interface between the frontend
//! application processes and the backend simulation process. To reduce
//! communication overhead to a minimum, this interface uses custom built
//! Shared Memory Message Passing incorporating a shared memory segment and
//! a set of blocking and non-blocking message passing primitives." (§2)
//!
//! In this reproduction the "shared memory segment" is process memory, and
//! the frontends (which run their own OS calls) and the bottom-half daemon
//! are stackful coroutines ([`coro`]) on the thread running the
//! simulation. A blocking primitive called from one of them runs the
//! engine on the caller's own stack until its reply is out
//! ([`coro::serve`]), and suspends back to the engine only when it is
//! not; so a rendezvous is a function call or a user-space stack switch. The primitives are built
//! from atomics (see *Rust Atomics and Locks*, ch. 4–5, whose one-shot
//! channel design the [`rendezvous`] module's reply slot follows). Tasks
//! are the engine's only posters; a caller on an ordinary thread (the
//! benchmark's port probes) bumps a notify epoch and parks with
//! `thread::park`, and never reaches an engine. The non-blocking
//! primitive is a bounded SPSC event ring per
//! port: the frontend batches a basic block's worth of timed events and
//! rendezvouses only on the batch's final (blocking) event.
//!
//! Contents:
//!
//! * [`coro`] — the coroutines, their executor, and the wait/wake
//!   protocol every blocking primitive uses;
//! * [`event`] — the event/reply ABI between frontends and the backend;
//! * [`rendezvous`] — the bounded event ring with its blocking-reply slot;
//! * [`port`] — event ports (hot, atomics-based) and a generic request
//!   port (the paper's OS-port shape; unused by the simulator, kept for
//!   the benchmark's `comm.reqport_call_ns` probe);
//! * [`devshared`] — the device postbox: completion records and network
//!   frames deposited by backend device models for the OS server's
//!   interrupt handlers;
//! * [`notifier`] — the notify epoch that posters on ordinary threads
//!   bump.

pub mod coro;
pub mod devshared;
pub mod event;
pub mod notifier;
pub mod port;
pub mod rendezvous;

pub use coro::{Class, Executor};
pub use devshared::{DevShared, DiskCompletion, Frame, FrameKind, TimerTick};
pub use event::{
    BlockReason, CtlOp, DevCmd, Event, EventBody, ExecMode, Folded, MemRefKind, Reply, ReplyData,
    SimAbort, SyncOp,
};
pub use notifier::Notifier;
pub use port::{EventPort, ReqPort};
pub use rendezvous::EventRing;
