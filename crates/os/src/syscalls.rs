//! Category-1 system calls.
//!
//! Each call runs as instrumented kernel code: it takes simulated kernel
//! locks, touches the kernel structures it manipulates (descriptor table
//! entries, inode records, buffer headers, protocol control blocks,
//! mbufs), moves data with simulated block copies, issues device commands,
//! and sleeps on wait channels — so both the *time* spent in the kernel
//! and the *memory behaviour* of the kernel are simulated, which is the
//! whole point of the OS server (§3.1).
//!
//! Functional state (file bytes, socket buffers, descriptor tables) is
//! mutated only while holding the owning subsystem's *simulated* lock, so
//! mutation order is identical on every run.

use crate::bufcache::{BufId, BUF_SIZE, DISK_BLOCKS_PER_BUF};
use crate::fs::{Desc, FileData};
use crate::kctx::KernelCtx;
use crate::proto::{Errno, Fd, OsCall, SysResult, SysVal};
use crate::server::{fd_table_addr, locks, KernelShared, TokenInfo};
use crate::waitq::Chan;
use compass_comm::{BlockReason, DevCmd};
use compass_mem::VAddr;

/// Dispatches one system call, recording per-call time in the kernel's
/// syscall statistics.
pub fn dispatch(kc: &mut KernelCtx<'_>, k: &KernelShared, call: OsCall) -> SysResult {
    let name = call.name();
    let start = kc.clock;
    let excluded_start = kc.excluded;
    let result = dispatch_inner(kc, k, call);
    // CPU time only: block waits (disk, net) are excluded, matching the
    // paper's "total CPU time which excludes wait time due to disk IO",
    // and so is credit folded for other code. Batched events whose
    // latencies are still unknown are charged when they fold.
    let elapsed = kc.clock - start;
    k.stats
        .record(name, elapsed - (kc.excluded - excluded_start));
    if let Some((earlier, cycles)) = kc.end_call(name) {
        k.stats.charge(earlier, cycles);
    }
    #[cfg(feature = "check-invariants")]
    k.waitq
        .check_invariants()
        .unwrap_or_else(|e| panic!("waitq invariant violated after {name}: {e}"));
    result
}

fn dispatch_inner(kc: &mut KernelCtx<'_>, k: &KernelShared, call: OsCall) -> SysResult {
    kc.syscall_overhead();
    match call {
        OsCall::Open { path, create } => sys_open(kc, k, &path, create),
        OsCall::Close { fd } => sys_close(kc, k, fd),
        OsCall::Read { fd, len, buf } => sys_read(kc, k, fd, None, len, buf),
        OsCall::ReadAt { fd, off, len, buf } => sys_read(kc, k, fd, Some(off), len, buf),
        OsCall::Write { fd, data, buf } => sys_write(kc, k, fd, None, &data, buf),
        OsCall::WriteAt { fd, off, data, buf } => sys_write(kc, k, fd, Some(off), &data, buf),
        OsCall::Seek { fd, off } => sys_seek(kc, k, fd, off),
        OsCall::Fsync { fd } => sys_fsync(kc, k, fd),
        OsCall::Stat { path } => sys_stat(kc, k, &path),
        OsCall::Unlink { path } => sys_unlink(kc, k, &path),
        OsCall::Mmap { path, len, region } => sys_mmap(kc, k, &path, len, region),
        OsCall::Munmap { region, len } => sys_munmap(kc, k, region, len),
        OsCall::Msync { fd, off, len } => sys_msync(kc, k, fd, off, len),
        OsCall::Listen { port } => sys_listen(kc, k, port),
        OsCall::Accept { lfd } => sys_accept(kc, k, lfd),
        OsCall::Select { fds } => sys_select(kc, k, &fds),
        OsCall::Recv { fd, len, buf } => sys_recv(kc, k, fd, len, buf),
        OsCall::Send { fd, len, buf } => sys_send(kc, k, fd, len, buf),
        OsCall::GetTime => Ok(SysVal::Time(kc.read_clock())),
        OsCall::Sleep { cycles } => {
            kc.compute(cycles);
            Ok(SysVal::Unit)
        }
    }
}

// ----------------------------------------------------------------------
// Descriptor helpers
// ----------------------------------------------------------------------

/// Resolves a descriptor under the file-table lock, touching its entry.
fn resolve(kc: &mut KernelCtx<'_>, k: &KernelShared, fd: Fd) -> Result<Desc, Errno> {
    kc.lock(locks::FILETAB);
    kc.load(fd_table_addr(kc.pid, fd.0), 16);
    let r = k.fds.borrow_mut().get(kc.pid, fd);
    kc.unlock(locks::FILETAB);
    r
}

// ----------------------------------------------------------------------
// Files
// ----------------------------------------------------------------------

fn sys_open(kc: &mut KernelCtx<'_>, k: &KernelShared, path: &str, create: bool) -> SysResult {
    kc.lock(locks::FILETAB);
    kc.compute(k.cfg.path_per_byte * path.len() as u64);
    // Functional namespace work first, touches after: never post events
    // while holding the host `fs` mutex (other sim threads take it under
    // different simulated locks, e.g. the read path's EOF check).
    enum Found {
        Existing(u64, compass_mem::VAddr),
        Created(u64, compass_mem::VAddr),
        Missing,
    }
    let found = {
        let mut fs = k.fs.borrow_mut();
        match fs.lookup(path) {
            Some(no) => Found::Existing(no, fs.inode(no).kaddr),
            None if create => {
                let kaddr = k.heap.alloc(256);
                let no = fs.create(path, FileData::Bytes(Vec::new()), kaddr);
                Found::Created(no, kaddr)
            }
            None => Found::Missing,
        }
    };
    let inode = match found {
        Found::Existing(no, kaddr) => {
            kc.load(kaddr, 64);
            Some(no)
        }
        Found::Created(no, kaddr) => {
            kc.store(kaddr, 64);
            Some(no)
        }
        Found::Missing => None,
    };
    let result = match inode {
        Some(no) => {
            let fd = k.fds.borrow_mut().install(
                kc.pid,
                Desc::File {
                    inode: no,
                    offset: 0,
                },
            );
            kc.store(fd_table_addr(kc.pid, fd.0), 16);
            Ok(SysVal::NewFd(fd))
        }
        None => Err(Errno::NoEnt),
    };
    kc.unlock(locks::FILETAB);
    result
}

fn sys_close(kc: &mut KernelCtx<'_>, k: &KernelShared, fd: Fd) -> SysResult {
    kc.lock(locks::FILETAB);
    kc.store(fd_table_addr(kc.pid, fd.0), 16);
    let desc = k.fds.borrow_mut().close(kc.pid, fd);
    kc.unlock(locks::FILETAB);
    match desc? {
        Desc::File { .. } => Ok(SysVal::Unit),
        Desc::Sock { conn } => {
            kc.lock(locks::NET);
            let pcb = {
                let mut net = k.net.borrow_mut();
                let pcb = net.conn(conn).map(|c| c.pcb_addr);
                let _ = net.close(conn);
                pcb
            };
            if let Some(pcb) = pcb {
                kc.store(pcb, 32);
            }
            kc.unlock(locks::NET);
            // FIN to the peer.
            kc.compute(k.cfg.tcp_per_packet);
            kc.dev(DevCmd::NetTx {
                nic: compass_isa::NicId(0),
                conn,
                bytes: 0,
            });
            Ok(SysVal::Unit)
        }
        Desc::Listener { port } => {
            kc.lock(locks::NET);
            k.net.borrow_mut().unlisten(port);
            kc.unlock(locks::NET);
            Ok(SysVal::Unit)
        }
    }
}

fn sys_seek(kc: &mut KernelCtx<'_>, k: &KernelShared, fd: Fd, off: u64) -> SysResult {
    kc.lock(locks::FILETAB);
    kc.store(fd_table_addr(kc.pid, fd.0), 16);
    let r = {
        let mut fds = k.fds.borrow_mut();
        match fds.get_mut(kc.pid, fd) {
            Ok(Desc::File { offset, .. }) => {
                *offset = off;
                Ok(SysVal::Int(off as i64))
            }
            Ok(_) => Err(Errno::NotSock),
            Err(e) => Err(e),
        }
    };
    kc.unlock(locks::FILETAB);
    r
}

fn sys_stat(kc: &mut KernelCtx<'_>, k: &KernelShared, path: &str) -> SysResult {
    kc.lock(locks::FILETAB);
    kc.compute(k.cfg.path_per_byte * path.len() as u64);
    let (r, kaddr) = {
        let fs = k.fs.borrow_mut();
        let s = fs.stat(path);
        let kaddr = s.as_ref().ok().map(|st| fs.inode(st.inode).kaddr);
        (s, kaddr)
    };
    if let Some(kaddr) = kaddr {
        kc.load(kaddr, 64);
    }
    kc.unlock(locks::FILETAB);
    r.map(SysVal::Stat)
}

fn sys_unlink(kc: &mut KernelCtx<'_>, k: &KernelShared, path: &str) -> SysResult {
    kc.lock(locks::FILETAB);
    kc.compute(k.cfg.path_per_byte * path.len() as u64);
    let r = k.fs.borrow_mut().unlink(path);
    kc.unlock(locks::FILETAB);
    r.map(|_| SysVal::Unit)
}

/// Ensures `(inode, blk)` is cached and valid, sleeping on disk I/O as
/// needed. Returns the buffer's data address for copy instrumentation.
fn ensure_cached(
    kc: &mut KernelCtx<'_>,
    k: &KernelShared,
    inode: u64,
    blk: u64,
    fill_from_disk: bool,
) -> (BufId, VAddr) {
    loop {
        kc.lock(locks::BUF);
        kc.compute(60); // hash probe
        enum Action {
            Done(BufId, VAddr),
            SleepInFlight,
            IssueRead {
                id: BufId,
                token: u32,
                writeback: Option<(u64, u64, u32)>,
            },
            Overwrite {
                id: BufId,
                daddr: VAddr,
                writeback: Option<(u64, u64, u32)>,
            },
        }
        // The simulated BUF lock serialises every user of the buffer
        // cache; the host guard only lives for the functional update and
        // is dropped before the header touch posts an event.
        let (hdr, action) = {
            let mut bufs = k.bufs.borrow_mut();
            match bufs.lookup(inode, blk) {
                Some(id) => {
                    let b = bufs.buf(id);
                    let hdr = b.hdr_addr;
                    if b.valid {
                        (hdr, Action::Done(id, b.data_addr))
                    } else {
                        // Someone else's I/O is in flight: sleep on it.
                        k.waitq.sleep_on(Chan(hdr.0), kc.pid);
                        (hdr, Action::SleepInFlight)
                    }
                }
                None => {
                    let (id, wb) = bufs.claim(inode, blk);
                    let hdr = bufs.buf(id).hdr_addr;
                    let writeback = wb.map(|w| {
                        let token = k.new_token(TokenInfo {
                            chan: Chan(0),
                            tag: w.tag,
                        });
                        (w.tag.0, w.tag.1, token)
                    });
                    if fill_from_disk {
                        bufs.buf_mut(id).io_pending = true;
                        let token = k.new_token(TokenInfo {
                            chan: Chan(hdr.0),
                            tag: (inode, blk),
                        });
                        k.waitq.sleep_on(Chan(hdr.0), kc.pid);
                        (
                            hdr,
                            Action::IssueRead {
                                id,
                                token,
                                writeback,
                            },
                        )
                    } else {
                        // Full-block overwrite: no read needed.
                        bufs.buf_mut(id).valid = true;
                        let daddr = bufs.buf(id).data_addr;
                        (
                            hdr,
                            Action::Overwrite {
                                id,
                                daddr,
                                writeback,
                            },
                        )
                    }
                }
            }
        };
        // A cached buffer's header is read, a claimed one's written.
        if matches!(action, Action::Done(..) | Action::SleepInFlight) {
            kc.load(hdr, 32);
        } else {
            kc.store(hdr, 32);
        }
        match action {
            Action::Done(id, daddr) => {
                kc.unlock(locks::BUF);
                return (id, daddr);
            }
            Action::Overwrite {
                id,
                daddr,
                writeback,
            } => {
                if let Some((wino, wblk, wtoken)) = writeback {
                    kc.unlock(locks::BUF);
                    issue_disk_write(kc, k, wino, wblk, wtoken);
                    kc.lock(locks::BUF);
                }
                kc.unlock(locks::BUF);
                return (id, daddr);
            }
            Action::SleepInFlight => {
                kc.unlock(locks::BUF);
                kc.block(BlockReason::Disk);
                if !kc.is_simulated() {
                    // Raw mode never leaves I/O pending; this is a bug.
                    panic!("raw-mode buffer left in flight");
                }
            }
            Action::IssueRead {
                id,
                token,
                writeback,
            } => {
                kc.unlock(locks::BUF);
                if let Some((wino, wblk, wtoken)) = writeback {
                    issue_disk_write(kc, k, wino, wblk, wtoken);
                }
                kc.dev(DevCmd::DiskRead {
                    disk: k.disk_for(inode),
                    block: blk * DISK_BLOCKS_PER_BUF as u64,
                    nblocks: DISK_BLOCKS_PER_BUF,
                    token,
                });
                if kc.is_simulated() {
                    kc.block(BlockReason::Disk);
                    // Loop: re-check validity (spurious wakes are safe).
                } else {
                    // Raw: complete synchronously.
                    let mut bufs = k.bufs.borrow_mut();
                    bufs.buf_mut(id).io_pending = false;
                    bufs.buf_mut(id).valid = true;
                    k.waitq.cancel(Chan(bufs.buf(id).hdr_addr.0), kc.pid);
                    k.take_token(token);
                }
            }
        }
    }
}

/// Issues a fire-and-forget eviction writeback.
fn issue_disk_write(kc: &mut KernelCtx<'_>, k: &KernelShared, inode: u64, blk: u64, token: u32) {
    kc.dev(DevCmd::DiskWrite {
        disk: k.disk_for(inode),
        block: blk * DISK_BLOCKS_PER_BUF as u64,
        nblocks: DISK_BLOCKS_PER_BUF,
        token,
    });
    if !kc.is_simulated() {
        k.take_token(token);
    }
}

fn sys_read(
    kc: &mut KernelCtx<'_>,
    k: &KernelShared,
    fd: Fd,
    at: Option<u64>,
    len: u32,
    ubuf: VAddr,
) -> SysResult {
    let desc = resolve(kc, k, fd)?;
    let (inode, start) = match desc {
        Desc::File { inode, offset } => (inode, at.unwrap_or(offset)),
        Desc::Sock { conn } => {
            // read(2) on a socket behaves like recv.
            return recv_on_conn(kc, k, conn, len, ubuf);
        }
        Desc::Listener { .. } => return Err(Errno::NotSock),
    };
    let mut out = Vec::with_capacity(len as usize);
    let mut off = start;
    while (out.len() as u32) < len {
        // EOF check against the inode before touching the cache.
        let file_len = { k.fs.borrow_mut().inode(inode).len() };
        if off >= file_len {
            break;
        }
        let blk = off / BUF_SIZE as u64;
        let inoff = (off % BUF_SIZE as u64) as u32;
        let (_, daddr) = ensure_cached(kc, k, inode, blk, true);
        // Functional read + simulated copyout under the buffer lock.
        kc.lock(locks::BUF);
        let chunk = {
            let fs = k.fs.borrow_mut();
            fs.inode(inode)
                .read_at(off, (BUF_SIZE - inoff).min(len - out.len() as u32))
        };
        if !chunk.is_empty() {
            kc.copy(daddr + inoff, ubuf + out.len() as u32, chunk.len() as u32);
        }
        kc.unlock(locks::BUF);
        if chunk.is_empty() {
            break; // EOF
        }
        off += chunk.len() as u64;
        out.extend_from_slice(&chunk);
    }
    if at.is_none() {
        kc.lock(locks::FILETAB);
        kc.store(fd_table_addr(kc.pid, fd.0), 16);
        if let Ok(Desc::File { offset, .. }) = k.fds.borrow_mut().get_mut(kc.pid, fd) {
            *offset = off;
        }
        kc.unlock(locks::FILETAB);
    }
    Ok(SysVal::Data(out))
}

fn sys_write(
    kc: &mut KernelCtx<'_>,
    k: &KernelShared,
    fd: Fd,
    at: Option<u64>,
    data: &[u8],
    ubuf: VAddr,
) -> SysResult {
    let desc = resolve(kc, k, fd)?;
    let (inode, start) = match desc {
        Desc::File { inode, offset } => (inode, at.unwrap_or(offset)),
        Desc::Sock { conn } => return send_on_conn(kc, k, conn, data.len() as u32, ubuf),
        Desc::Listener { .. } => return Err(Errno::NotSock),
    };
    let mut pos: usize = 0;
    while pos < data.len() {
        let off = start + pos as u64;
        let blk = off / BUF_SIZE as u64;
        let inoff = (off % BUF_SIZE as u64) as u32;
        let n = ((BUF_SIZE - inoff) as usize).min(data.len() - pos);
        // Partial-block writes over existing data read-modify-write; full
        // blocks (or appends past EOF) skip the read.
        let file_len = { k.fs.borrow_mut().inode(inode).len() };
        let partial = inoff != 0 || (n as u32) < BUF_SIZE;
        let needs_read = partial && blk * (BUF_SIZE as u64) < file_len;
        let (id, daddr) = ensure_cached(kc, k, inode, blk, needs_read);
        kc.lock(locks::BUF);
        let hdr = {
            let mut bufs = k.bufs.borrow_mut();
            let b = bufs.buf_mut(id);
            b.dirty = true;
            b.valid = true;
            b.hdr_addr
        };
        kc.store(hdr, 32);
        kc.copy(ubuf + pos as u32, daddr + inoff, n as u32);
        k.fs.borrow_mut()
            .inode_mut(inode)
            .write_at(off, &data[pos..pos + n]);
        kc.unlock(locks::BUF);
        pos += n;
    }
    if at.is_none() {
        kc.lock(locks::FILETAB);
        kc.store(fd_table_addr(kc.pid, fd.0), 16);
        if let Ok(Desc::File { offset, .. }) = k.fds.borrow_mut().get_mut(kc.pid, fd) {
            *offset = start + data.len() as u64;
        }
        kc.unlock(locks::FILETAB);
    }
    k.fs_write_bytes
        .set(k.fs_write_bytes.get() + data.len() as u64);
    Ok(SysVal::Int(data.len() as i64))
}

fn sys_fsync(kc: &mut KernelCtx<'_>, k: &KernelShared, fd: Fd) -> SysResult {
    let desc = resolve(kc, k, fd)?;
    let Desc::File { inode, .. } = desc else {
        return Err(Errno::NotSock);
    };
    // Phase 1: issue every dirty block's write.
    kc.lock(locks::BUF);
    let dirty: Vec<(BufId, u64, VAddr)> = {
        let mut bufs = k.bufs.borrow_mut();
        let ids = bufs.dirty_of(inode);
        ids.iter()
            .map(|&id| {
                let b = bufs.buf_mut(id);
                b.dirty = false;
                b.io_pending = true;
                (id, b.tag.expect("dirty buffer has a tag").1, b.hdr_addr)
            })
            .collect()
    };
    for &(_, _, hdr) in &dirty {
        kc.store(hdr, 32);
    }
    kc.unlock(locks::BUF);
    for &(_, blk, hdr) in &dirty {
        let token = k.new_token(TokenInfo {
            chan: Chan(hdr.0),
            tag: (inode, blk),
        });
        kc.dev(DevCmd::DiskWrite {
            disk: k.disk_for(inode),
            block: blk * DISK_BLOCKS_PER_BUF as u64,
            nblocks: DISK_BLOCKS_PER_BUF,
            token,
        });
        if !kc.is_simulated() {
            let mut bufs = k.bufs.borrow_mut();
            bufs.buf_mut(dirty.iter().find(|d| d.1 == blk).expect("issued").0)
                .io_pending = false;
            k.take_token(token);
        }
    }
    // Phase 2: wait for each completion.
    if kc.is_simulated() {
        for &(id, _, hdr) in &dirty {
            loop {
                kc.lock(locks::BUF);
                let pending = {
                    let bufs = k.bufs.borrow_mut();
                    let still = bufs.buf(id).io_pending;
                    if still {
                        k.waitq.sleep_on(Chan(hdr.0), kc.pid);
                    }
                    still
                };
                kc.unlock(locks::BUF);
                if !pending {
                    break;
                }
                kc.block(BlockReason::Disk);
            }
        }
    }
    Ok(SysVal::Unit)
}

/// `mmap`: namespace lookup plus per-page mapping setup. The page-table
/// entries themselves are category-2 state; the frontend stub posts the
/// `MapRegion` control event right after this call returns.
fn sys_mmap(
    kc: &mut KernelCtx<'_>,
    k: &KernelShared,
    path: &str,
    len: u32,
    region: VAddr,
) -> SysResult {
    kc.lock(locks::FILETAB);
    kc.compute(k.cfg.path_per_byte * path.len() as u64);
    let kaddr = {
        let fs = k.fs.borrow_mut();
        fs.lookup(path).map(|no| fs.inode(no).kaddr)
    };
    let result = match kaddr {
        Some(kaddr) => {
            kc.load(kaddr, 64);
            // Per-page map bookkeeping (vm_map entries, object refs).
            let pages = len.div_ceil(BUF_SIZE) as u64;
            kc.compute(90 * pages);
            kc.store(kaddr, 16);
            Ok(SysVal::Int(region.0 as i64))
        }
        None => Err(Errno::NoEnt),
    };
    kc.unlock(locks::FILETAB);
    result
}

/// `munmap`: tear the map entries down (TLB shootdowns are charged by the
/// backend when the stub posts `UnmapRegion`).
fn sys_munmap(kc: &mut KernelCtx<'_>, k: &KernelShared, region: VAddr, len: u32) -> SysResult {
    let _ = region;
    kc.lock(locks::FILETAB);
    let pages = len.div_ceil(BUF_SIZE) as u64;
    kc.compute(70 * pages);
    kc.unlock(locks::FILETAB);
    let _ = k;
    Ok(SysVal::Unit)
}

/// `msync`: like fsync restricted to a byte range — write the range's
/// dirty cached blocks and wait for each.
fn sys_msync(kc: &mut KernelCtx<'_>, k: &KernelShared, fd: Fd, off: u64, len: u64) -> SysResult {
    let desc = resolve(kc, k, fd)?;
    let Desc::File { inode, .. } = desc else {
        return Err(Errno::NotSock);
    };
    let first = off / BUF_SIZE as u64;
    let last = (off + len).div_ceil(BUF_SIZE as u64);
    kc.lock(locks::BUF);
    let dirty: Vec<(BufId, u64, VAddr)> = {
        let mut bufs = k.bufs.borrow_mut();
        let ids = bufs.dirty_of(inode);
        ids.iter()
            .filter_map(|&id| {
                let blk = bufs.buf(id).tag.expect("dirty buffer has a tag").1;
                if blk >= first && blk < last {
                    let b = bufs.buf_mut(id);
                    b.dirty = false;
                    b.io_pending = true;
                    Some((id, blk, b.hdr_addr))
                } else {
                    None
                }
            })
            .collect()
    };
    for &(_, _, hdr) in &dirty {
        kc.store(hdr, 32);
    }
    kc.unlock(locks::BUF);
    for &(id, blk, hdr) in &dirty {
        let token = k.new_token(TokenInfo {
            chan: Chan(hdr.0),
            tag: (inode, blk),
        });
        kc.dev(DevCmd::DiskWrite {
            disk: k.disk_for(inode),
            block: blk * DISK_BLOCKS_PER_BUF as u64,
            nblocks: DISK_BLOCKS_PER_BUF,
            token,
        });
        if !kc.is_simulated() {
            k.bufs.borrow_mut().buf_mut(id).io_pending = false;
            k.take_token(token);
        }
    }
    if kc.is_simulated() {
        for &(id, _, hdr) in &dirty {
            loop {
                kc.lock(locks::BUF);
                let pending = {
                    let bufs = k.bufs.borrow_mut();
                    let still = bufs.buf(id).io_pending;
                    if still {
                        k.waitq.sleep_on(Chan(hdr.0), kc.pid);
                    }
                    still
                };
                kc.unlock(locks::BUF);
                if !pending {
                    break;
                }
                kc.block(BlockReason::Disk);
            }
        }
    }
    Ok(SysVal::Int(dirty.len() as i64))
}

// ----------------------------------------------------------------------
// Network
// ----------------------------------------------------------------------

fn sys_listen(kc: &mut KernelCtx<'_>, k: &KernelShared, port: u16) -> SysResult {
    kc.lock(locks::NET);
    let result = {
        let kaddr = k.heap.alloc(128);
        kc.store(kaddr, 64);
        k.net.borrow_mut().listen(port, kaddr)
    };
    kc.unlock(locks::NET);
    result?;
    kc.lock(locks::FILETAB);
    let fd = k.fds.borrow_mut().install(kc.pid, Desc::Listener { port });
    kc.store(fd_table_addr(kc.pid, fd.0), 16);
    kc.unlock(locks::FILETAB);
    Ok(SysVal::NewFd(fd))
}

fn sys_accept(kc: &mut KernelCtx<'_>, k: &KernelShared, lfd: Fd) -> SysResult {
    let desc = resolve(kc, k, lfd)?;
    let Desc::Listener { port } = desc else {
        return Err(Errno::NotSock);
    };
    loop {
        kc.lock(locks::NET);
        let (got, lkaddr) = {
            let mut net = k.net.borrow_mut();
            let lkaddr = net.listener(port).map(|l| l.kaddr);
            (net.accept(port), lkaddr)
        };
        let lkaddr = lkaddr.ok_or(Errno::BadF)?;
        kc.load(lkaddr, 64);
        match got {
            Some(conn) => {
                kc.unlock(locks::NET);
                kc.lock(locks::FILETAB);
                let fd = k.fds.borrow_mut().install(kc.pid, Desc::Sock { conn });
                kc.store(fd_table_addr(kc.pid, fd.0), 16);
                kc.unlock(locks::FILETAB);
                return Ok(SysVal::Accepted(fd, conn));
            }
            None => {
                k.waitq.sleep_on(Chan(lkaddr.0), kc.pid);
                kc.unlock(locks::NET);
                if !kc.is_simulated() {
                    panic!("raw-mode accept would block forever (no traffic source)");
                }
                kc.block(BlockReason::Net);
            }
        }
    }
}

fn sys_select(kc: &mut KernelCtx<'_>, k: &KernelShared, fds: &[Fd]) -> SysResult {
    // Resolve all descriptors once.
    kc.lock(locks::FILETAB);
    let mut descs = Vec::with_capacity(fds.len());
    for &fd in fds {
        kc.load(fd_table_addr(kc.pid, fd.0), 16);
        descs.push((fd, k.fds.borrow_mut().get(kc.pid, fd)?));
    }
    kc.unlock(locks::FILETAB);
    loop {
        kc.lock(locks::NET);
        kc.compute(k.cfg.select_per_fd * fds.len() as u64);
        let (ready, chans) = {
            let net = k.net.borrow_mut();
            let mut ready = Vec::new();
            let mut chans = Vec::new();
            for &(fd, desc) in &descs {
                match desc {
                    Desc::File { .. } => ready.push(fd), // files: always ready
                    Desc::Listener { port } => {
                        if net.listener_readable(port) {
                            ready.push(fd);
                        } else if let Some(l) = net.listener(port) {
                            chans.push(Chan(l.kaddr.0));
                        }
                    }
                    Desc::Sock { conn } => {
                        if net.readable(conn) {
                            ready.push(fd);
                        } else if let Some(c) = net.conn(conn) {
                            chans.push(Chan(c.pcb_addr.0));
                        }
                    }
                }
            }
            (ready, chans)
        };
        if !ready.is_empty() {
            kc.unlock(locks::NET);
            return Ok(SysVal::Ready(ready));
        }
        for &c in &chans {
            k.waitq.sleep_on(c, kc.pid);
        }
        kc.unlock(locks::NET);
        if !kc.is_simulated() {
            panic!("raw-mode select would block forever (no traffic source)");
        }
        kc.block(BlockReason::Select);
        // Cancel stale registrations before rescanning.
        kc.lock(locks::NET);
        for &c in &chans {
            k.waitq.cancel(c, kc.pid);
        }
        kc.unlock(locks::NET);
    }
}

fn sys_recv(kc: &mut KernelCtx<'_>, k: &KernelShared, fd: Fd, len: u32, ubuf: VAddr) -> SysResult {
    let desc = resolve(kc, k, fd)?;
    let Desc::Sock { conn } = desc else {
        return Err(Errno::NotSock);
    };
    recv_on_conn(kc, k, conn, len, ubuf)
}

fn recv_on_conn(
    kc: &mut KernelCtx<'_>,
    k: &KernelShared,
    conn: compass_isa::ConnId,
    len: u32,
    ubuf: VAddr,
) -> SysResult {
    loop {
        kc.lock(locks::NET);
        let (outcome, pcb) = {
            let mut net = k.net.borrow_mut();
            let pcb = net.conn(conn).map(|c| c.pcb_addr);
            (net.recv(conn, len), pcb)
        };
        let pcb = pcb.ok_or(Errno::BadF)?;
        kc.load(pcb, 64);
        match outcome {
            Ok(data) => {
                if !data.is_empty() {
                    // Copy from the socket buffer to the user buffer.
                    kc.copy(pcb + 128, ubuf, data.len() as u32);
                }
                kc.unlock(locks::NET);
                return Ok(SysVal::Data(data));
            }
            Err(Errno::Again) => {
                k.waitq.sleep_on(Chan(pcb.0), kc.pid);
                kc.unlock(locks::NET);
                if !kc.is_simulated() {
                    panic!("raw-mode recv would block forever (no traffic source)");
                }
                kc.block(BlockReason::Net);
            }
            Err(e) => {
                kc.unlock(locks::NET);
                return Err(e);
            }
        }
    }
}

fn sys_send(kc: &mut KernelCtx<'_>, k: &KernelShared, fd: Fd, len: u32, ubuf: VAddr) -> SysResult {
    let desc = resolve(kc, k, fd)?;
    let Desc::Sock { conn } = desc else {
        return Err(Errno::NotSock);
    };
    send_on_conn(kc, k, conn, len, ubuf)
}

fn send_on_conn(
    kc: &mut KernelCtx<'_>,
    k: &KernelShared,
    conn: compass_isa::ConnId,
    len: u32,
    ubuf: VAddr,
) -> SysResult {
    kc.lock(locks::NET);
    let sent = {
        let mut net = k.net.borrow_mut();
        net.sent(conn, len)
            .map(|()| net.conn(conn).map(|c| c.pcb_addr))
    };
    let pcb = match sent {
        Ok(pcb) => pcb,
        Err(e) => {
            kc.unlock(locks::NET);
            return Err(e);
        }
    };
    let pcb = pcb.ok_or(Errno::BadF)?;
    kc.store(pcb, 64);
    kc.unlock(locks::NET);

    // Segment the payload: per segment, allocate an mbuf, copy user data
    // in, checksum it in software, run TCP/IP output, hand to the NIC.
    let mss = k.cfg.mss;
    let mut sent = 0u32;
    while sent < len || (len == 0 && sent == 0) {
        let chunk = mss.min(len - sent).max(if len == 0 { 0 } else { 1 });
        kc.lock(locks::KMEM);
        let mbuf = k.heap.alloc(2048);
        kc.store(mbuf, 32);
        kc.unlock(locks::KMEM);
        if chunk > 0 {
            kc.copy(ubuf + sent, mbuf + 64, chunk);
            kc.compute((chunk as u64 * k.cfg.checksum_per_byte_x100) / 100);
        }
        kc.compute(k.cfg.tcp_per_packet + k.cfg.ip_per_packet);
        kc.dev(DevCmd::NetTx {
            nic: compass_isa::NicId(0),
            conn,
            bytes: chunk,
        });
        kc.lock(locks::KMEM);
        k.heap.free(mbuf, 2048);
        kc.unlock(locks::KMEM);
        sent += chunk;
        if len == 0 {
            break;
        }
    }
    Ok(SysVal::Int(len as i64))
}
