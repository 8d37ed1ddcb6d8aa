//! The system-call ABI between application stubs and the kernel.
//!
//! "The COMPASS instrumentor replaces all OS calls in a user application
//! with COMPASS OS stubs. … If the stub finds that the call can be handled
//! by an OS server, it sends the OS request, along with its arguments, to
//! its 'companion' OS thread via the OS port." (§3.1)
//!
//! Here the stub (`CpuCtx::os_call`) runs the kernel code itself, on the
//! calling process's own task: an [`OsCall`] goes in, a [`SysResult`]
//! comes out, and the process's logical clock advances by the kernel-mode
//! events the call posted on the process's own event port.

use compass_isa::{ConnId, Cycles};
use compass_mem::VAddr;

/// A per-process file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

/// Error numbers (the subset our kernel produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

impl std::fmt::Display for Errno {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// File metadata returned by `statx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
