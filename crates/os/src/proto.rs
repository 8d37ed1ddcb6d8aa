//! The OS-port protocol between application stubs and OS threads.
//!
//! "The COMPASS instrumentor replaces all OS calls in a user application
//! with COMPASS OS stubs. … If the stub finds that the call can be handled
//! by an OS server, it sends the OS request, along with its arguments, to
//! its 'companion' OS thread via the OS port. The application process then
//! halts. … The OS thread returns the OS call by sending the result and/or
//! the error code back to the application process after which the
//! application process resumes execution." (§3.1)
//!
//! The process's logical clock travels with each request and response:
//! while the OS thread executes kernel code it advances the clock by
//! posting kernel-mode events on the *process's own* event port, and the
//! stub adopts the advanced clock on return.

use compass_comm::EventPort;
use compass_isa::{ConnId, Cycles, ProcessId};
use compass_mem::VAddr;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A per-process file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Fd(pub u32);

/// Error numbers (the subset our kernel produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Errno {
    /// No such file.
    NoEnt,
    /// Bad file descriptor.
    BadF,
    /// Operation would block (non-blocking variants).
    Again,
    /// File exists (exclusive create).
    Exist,
    /// Connection closed by peer.
    ConnClosed,
    /// Descriptor is not of the expected kind.
    NotSock,
    /// Invalid argument.
    Inval,
    /// Out of (simulated) memory — shm frame exhaustion.
    NoMem,
    /// The simulation is tearing down (backend gone, port poisoned); the
    /// call was not simulated and the caller must unwind.
    Aborted,
}

impl std::fmt::Display for Errno {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// File metadata returned by `statx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileStat {
    /// Inode number.
    pub inode: u64,
    /// Length in bytes.
    pub len: u64,
}

/// System calls served by the OS server (the category-1 set the paper's
/// profiles identify: kreadv, kwritev, select, statx, connect, open,
/// close, naccept, send — §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsCall {
    /// `open(path)`; `create` makes the file if absent.
    Open {
        /// Path in the simulated filesystem.
        path: String,
        /// Create if missing.
        create: bool,
    },
    /// `close(fd)` — files and sockets.
    Close {
        /// Descriptor.
        fd: Fd,
    },
    /// `kreadv`: read `len` bytes at the current offset into the user
    /// buffer at `buf` (the copyout touches user memory in kernel mode).
    Read {
        /// Descriptor.
        fd: Fd,
        /// Bytes to read.
        len: u32,
        /// User destination buffer (simulated address).
        buf: VAddr,
    },
    /// Positioned read (`pread`): like [`OsCall::Read`] at `off`.
    ReadAt {
        /// Descriptor.
        fd: Fd,
        /// File offset.
        off: u64,
        /// Bytes to read.
        len: u32,
        /// User destination buffer.
        buf: VAddr,
    },
    /// `kwritev`: write `data` at the current offset; `buf` is the user
    /// source buffer whose loads are simulated.
    Write {
        /// Descriptor.
        fd: Fd,
        /// Bytes to write (functional content).
        data: Vec<u8>,
        /// User source buffer (simulated address).
        buf: VAddr,
    },
    /// Positioned write (`pwrite`).
    WriteAt {
        /// Descriptor.
        fd: Fd,
        /// File offset.
        off: u64,
        /// Bytes to write.
        data: Vec<u8>,
        /// User source buffer.
        buf: VAddr,
    },
    /// `lseek(fd, off)` (absolute).
    Seek {
        /// Descriptor.
        fd: Fd,
        /// New offset.
        off: u64,
    },
    /// `fsync(fd)`: force dirty buffers of the file to disk and wait.
    Fsync {
        /// Descriptor.
        fd: Fd,
    },
    /// `statx(path)`.
    Stat {
        /// Path.
        path: String,
    },
    /// `unlink(path)`.
    Unlink {
        /// Path.
        path: String,
    },
    /// Create a listening socket on a TCP port.
    Listen {
        /// TCP port.
        port: u16,
    },
    /// `naccept(lfd)`: block until a connection arrives; returns its fd.
    Accept {
        /// Listener descriptor.
        lfd: Fd,
    },
    /// `select(fds)`: block until one of `fds` is readable; returns the
    /// readable subset.
    Select {
        /// Watched descriptors.
        fds: Vec<Fd>,
    },
    /// `recv(fd, len)`: block for data on a connection.
    Recv {
        /// Socket descriptor.
        fd: Fd,
        /// Max bytes.
        len: u32,
        /// User destination buffer.
        buf: VAddr,
    },
    /// `send(fd, len)`: transmit `len` bytes (content is synthetic —
    /// clients don't parse it; the loads from the user buffer are
    /// simulated).
    Send {
        /// Socket descriptor.
        fd: Fd,
        /// Bytes to send.
        len: u32,
        /// User source buffer.
        buf: VAddr,
    },
    /// `mmap(path, len)`: map a file at `region` (the stub allocates the
    /// region; the kernel builds the mapping, the backend installs PTEs).
    Mmap {
        /// File to map.
        path: String,
        /// Mapping length.
        len: u32,
        /// Region base chosen by the caller.
        region: VAddr,
    },
    /// `munmap(region, len)`.
    Munmap {
        /// Region base.
        region: VAddr,
        /// Region length.
        len: u32,
    },
    /// `msync(fd, off, len)`: force the dirty cached blocks of the byte
    /// range to disk and wait.
    Msync {
        /// Descriptor.
        fd: Fd,
        /// Range start.
        off: u64,
        /// Range length.
        len: u64,
    },
    /// `gettimeofday` via the real-time clock device.
    GetTime,
    /// Sleep for a simulated duration.
    Sleep {
        /// Cycles to sleep.
        cycles: Cycles,
    },
}

impl OsCall {
    /// Short name for per-syscall accounting; the file I/O and network
    /// names follow the AIX kernel entry points the paper lists.
    pub fn name(&self) -> &'static str {
        match self {
            OsCall::Open { .. } => "open",
            OsCall::Close { .. } => "close",
            OsCall::Read { .. } => "kreadv",
            OsCall::ReadAt { .. } => "kreadv",
            OsCall::Write { .. } => "kwritev",
            OsCall::WriteAt { .. } => "kwritev",
            OsCall::Seek { .. } => "lseek",
            OsCall::Fsync { .. } => "fsync",
            OsCall::Stat { .. } => "statx",
            OsCall::Unlink { .. } => "unlink",
            OsCall::Mmap { .. } => "mmap",
            OsCall::Munmap { .. } => "munmap",
            OsCall::Msync { .. } => "msync",
            OsCall::Listen { .. } => "listen",
            OsCall::Accept { .. } => "naccept",
            OsCall::Select { .. } => "select",
            OsCall::Recv { .. } => "recv",
            OsCall::Send { .. } => "send",
            OsCall::GetTime => "gettimeofday",
            OsCall::Sleep { .. } => "sleep",
        }
    }
}

/// Successful system-call results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysVal {
    /// Nothing.
    Unit,
    /// A count or offset.
    Int(i64),
    /// A new descriptor.
    NewFd(Fd),
    /// Data read.
    Data(Vec<u8>),
    /// File metadata.
    Stat(FileStat),
    /// An accepted connection `(fd, conn)`.
    Accepted(Fd, ConnId),
    /// Readable descriptors out of a select.
    Ready(Vec<Fd>),
    /// Time in cycles.
    Time(Cycles),
}

/// Result of a system call.
pub type SysResult = Result<SysVal, Errno>;

/// Messages an application (or the server manager) sends to an OS thread.
pub enum OsMsg {
    /// Pairing request: "An OS thread will receive the request and bind
    /// itself to the frontend process. … the application process also
    /// passes its own event port setting to the OS thread." (§3.1)
    Connect {
        /// The requesting process.
        pid: ProcessId,
        /// Its event port, which the OS thread will use for kernel events.
        port: Arc<EventPort>,
    },
    /// A system call, carrying the process clock.
    Call {
        /// Process execution-time counter at the call site.
        clock: Cycles,
        /// Kernel batch credit the process's own blocking replies folded
        /// since its last call returned; `None` if it has not rendezvoused
        /// since (see `KernelPerf::frontend_folded`).
        folded: Option<Cycles>,
        /// The call.
        call: OsCall,
    },
    /// Several adjacent system calls in one port crossing (ISSUE 6): the
    /// OS thread dispatches them back-to-back on one kernel context and
    /// the single reply coalesces every result. Semantically identical to
    /// the same calls issued one at a time with nothing in between — the
    /// stub only uses it where no user event separates the calls.
    CallBatch {
        /// Process clock at the first call site.
        clock: Cycles,
        /// As for [`OsMsg::Call`].
        folded: Option<Cycles>,
        /// The calls, executed in order.
        calls: Vec<OsCall>,
    },
    /// Pseudo interrupt request (§3.2): the frontend saw the interrupt
    /// flag; the OS thread runs the handlers.
    PseudoIrq {
        /// Process clock at the check.
        clock: Cycles,
    },
    /// "When the frontend process exits, it sends an EXIT message to its
    /// OS thread counterpart. The OS thread becomes 'single' again."
    Exit {
        /// Kernel batch credit folded since the last call returned (the
        /// exit event always rendezvouses, so this is never unknown).
        folded: Cycles,
    },
}

/// OS-thread responses.
#[derive(Debug)]
pub enum OsRet {
    /// Pairing accepted.
    Connected,
    /// Call finished; the stub adopts the advanced clock.
    Done {
        /// Process clock after the kernel code ran.
        clock: Cycles,
        /// The result.
        result: SysResult,
    },
    /// A [`OsMsg::CallBatch`] finished: one aggregated reply, one result
    /// per call in order.
    DoneBatch {
        /// Process clock after every call ran.
        clock: Cycles,
        /// Per-call results.
        results: Vec<SysResult>,
    },
    /// Acknowledges Exit.
    Bye,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_names_match_the_paper() {
        assert_eq!(
            OsCall::Read {
                fd: Fd(0),
                len: 1,
                buf: VAddr(0)
            }
            .name(),
            "kreadv"
        );
        assert_eq!(
            OsCall::Write {
                fd: Fd(0),
                data: vec![],
                buf: VAddr(0)
            }
            .name(),
            "kwritev"
        );
        assert_eq!(OsCall::Accept { lfd: Fd(0) }.name(), "naccept");
        assert_eq!(OsCall::Stat { path: "x".into() }.name(), "statx");
        assert_eq!(OsCall::Select { fds: vec![] }.name(), "select");
    }
}
