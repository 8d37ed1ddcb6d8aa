//! The COMPASS **OS server**: a multi-threaded, user-mode kernel that
//! simulates the *category-1* AIX services commercial applications spend
//! their time in (§3.1).
//!
//! "COMPASS addresses this problem with a multi-threaded OS server using
//! POSIX threads. For a multi-process application, there is a one-to-one
//! mapping between a user process and an OS thread running in the server.
//! Each OS thread provides kernel services for its corresponding user
//! process. … Since multiple threads share the same address space, the
//! address sharing problem of multiple kernel instances is solved.
//! Moreover, dedicated threads can be scheduled to simulate bottom half
//! kernel activities."
//!
//! Layout:
//!
//! * [`proto`] — the system-call ABI (`OsCall`, `SysResult`) between
//!   application stubs and the kernel;
//! * [`kmem`] — the simulated kernel heap (kernel structures live at
//!   simulated kernel addresses so their memory behaviour is simulated);
//! * [`kctx`] — `KernelCtx`, the handle kernel code uses to emit
//!   instrumented events (through the calling process's own event port)
//!   or to run silently in *raw* mode;
//! * [`waitq`] — kernel sleep/wakeup channels;
//! * [`bufcache`] — the disk buffer cache;
//! * [`fs`] — inodes, directories, per-process descriptor tables;
//! * [`net`] — TCP/IP model: listeners, connections, mbufs;
//! * [`syscalls`] — the category-1 system calls (kreadv, kwritev, open,
//!   close, select, statx, naccept, send, recv, …) with per-call time
//!   accounting;
//! * [`handlers`] — bottom-half interrupt handlers (disk, Ethernet,
//!   interval timer);
//! * [`server`] — the shared kernel and the bottom-half kernel daemon.
//!
//! The paper's one-to-one process/OS-thread mapping is a function call
//! here: every simulated entity is a coroutine on the backend's host
//! thread, so a process runs its system calls and pseudo interrupts on
//! its own task (`CpuCtx::os_call`), posting kernel-mode events on its
//! own event port — the port the paper's OS thread would have used.
//! The kernel state all of them share is one [`KernelShared`].

pub mod bufcache;
pub mod fs;
pub mod handlers;
pub mod kctx;
pub mod kmem;
pub mod net;
pub mod proto;
pub mod server;
pub mod syscalls;
pub mod waitq;

pub use kctx::{EventSink, KernelCtx, KernelPerf, PortSink, RawSink};
pub use proto::{Errno, Fd, OsCall, SysResult, SysVal};
pub use server::{start_daemon, KernelConfig, KernelShared, OsObs, SyscallStats};
