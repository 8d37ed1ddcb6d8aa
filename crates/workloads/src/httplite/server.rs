//! The pre-fork web server (the Apache analogue of §4.2).
//!
//! N identical worker processes share one listening socket (inherited
//! from the parent in Apache; joined by port here). Each worker loops:
//! take a request ticket, `naccept`, `recv` the GET line, `statx` + `open`
//! + `kreadv` the file through the buffer cache, `send` header and body,
//!   `close`. The syscall mix is exactly the set the paper's SPECWeb
//!   profile names.

use compass_frontend::CpuCtx;
use compass_mem::VAddr;
use compass_os::{Errno, OsCall, SysVal};
use std::sync::{Arc, Mutex};

/// Server parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// TCP port to serve.
    pub port: u16,
    /// Read/send chunk size.
    pub chunk: u32,
    /// Shared-memory key for the ticket counter segment.
    pub shm_key: u32,
    /// Use `select` before `naccept` (exercises the paper's select-heavy
    /// profile); plain blocking accept otherwise.
    pub use_select: bool,
    /// Serve multiple requests per accepted connection: after each
    /// response the worker `recv`s again, and an empty read (client FIN)
    /// ends the connection. Off reproduces the classic one-request
    /// HTTP/1.0 flow. With keep-alive on, size the ticket pool with
    /// [`super::TracePlayer::expected_connections`] — tickets gate
    /// *accepts*, and connections now carry whole request blocks.
    pub keep_alive: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 80,
            chunk: 8_192,
            shm_key: 0x11BB,
            use_select: true,
            keep_alive: false,
        }
    }
}

/// The ticket pool: how many requests remain to be served. Functional
/// state is host-shared; mutation happens only inside the simulated
/// ticket lock, so the distribution of requests over workers is
/// deterministic.
#[derive(Debug)]
pub struct SharedTickets {
    remaining: Mutex<u64>,
}

impl SharedTickets {
    /// Creates a pool of `n` tickets (one per trace request).
    pub fn new(n: u64) -> Arc<Self> {
        Arc::new(Self {
            remaining: Mutex::new(n),
        })
    }

    fn take(&self) -> bool {
        let mut g = self.remaining.lock().expect("tickets poisoned");
        if *g == 0 {
            false
        } else {
            *g -= 1;
            true
        }
    }
}

fn expect_fd(r: Result<SysVal, Errno>) -> compass_os::Fd {
    match r {
        Ok(SysVal::NewFd(fd)) => fd,
        other => panic!("expected fd, got {other:?}"),
    }
}

/// Builds the body of one worker process.
pub fn worker(cfg: ServerConfig, tickets: Arc<SharedTickets>) -> impl FnMut(&mut CpuCtx) + Send {
    move |cpu: &mut CpuCtx| {
        let buf = cpu.malloc_pages(cfg.chunk.max(4096));
        let lfd = expect_fd(cpu.os_call(OsCall::Listen { port: cfg.port }));
        // Ticket lock lives in a small shared segment.
        let seg = cpu.shmget(cfg.shm_key, 4096);
        let tick_lock = cpu.shmat(seg);

        loop {
            // Deterministically decide whether another request exists.
            cpu.lock(tick_lock);
            let more = tickets.take();
            cpu.store(tick_lock + 64, 8);
            cpu.unlock(tick_lock);
            if !more {
                break;
            }

            if cfg.use_select {
                let ready = cpu.os_call(OsCall::Select { fds: vec![lfd] });
                match ready {
                    Ok(SysVal::Ready(_)) => {}
                    other => panic!("select: {other:?}"),
                }
            }
            let (fd, _conn) = match cpu.os_call(OsCall::Accept { lfd }) {
                Ok(SysVal::Accepted(fd, conn)) => (fd, conn),
                other => panic!("accept: {other:?}"),
            };

            // One request per iteration; keep-alive connections loop
            // until the client closes (empty read = EOF).
            let mut conn_closed = false;
            // A served file's close is deferred to just before the next
            // request's recv (keep-alive only).
            let mut pending_file_close: Option<compass_os::Fd> = None;
            loop {
                // Read the request line.
                let recv = OsCall::Recv {
                    fd,
                    len: cfg.chunk,
                    buf,
                };
                if let Some(ffd) = pending_file_close.take() {
                    let _ = cpu.os_call(OsCall::Close { fd: ffd });
                }
                let request = match cpu.os_call(recv) {
                    Ok(SysVal::Data(d)) => d,
                    other => panic!("recv: {other:?}"),
                };
                if cfg.keep_alive && request.is_empty() {
                    break; // client finished its request block
                }
                let path = parse_get(&request);

                // User-mode request handling: URI parsing, access checks,
                // logging, header formatting — Apache burns ~10k
                // instructions of user time per request (the paper
                // measures 14.9% user).
                cpu.compute(15_000);
                cpu.touch_range(buf, request.len().max(64) as u32, 64, false);
                cpu.touch_range(buf + 2048, 512, 64, true); // log record

                match path {
                    Some(path) => {
                        // stat + open name the same path back to back. On
                        // the 404 path — dynamically dead for paths a
                        // generated fileset serves — the open fails NoEnt
                        // harmlessly after the stat.
                        let stat_result = cpu.os_call(OsCall::Stat { path: path.clone() });
                        let open_result = cpu.os_call(OsCall::Open {
                            path,
                            create: false,
                        });
                        let len = match stat_result {
                            Ok(SysVal::Stat(st)) => st.len,
                            Err(Errno::NoEnt) => {
                                send_all(cpu, fd, 64, buf); // 404
                                if cfg.keep_alive {
                                    continue; // the connection survives
                                }
                                let _ = cpu.os_call(OsCall::Close { fd });
                                conn_closed = true;
                                break;
                            }
                            other => panic!("stat: {other:?}"),
                        };
                        let ffd = expect_fd(open_result);
                        // Header formatting, then the body in chunks.
                        cpu.compute(1_800);
                        send_all(cpu, fd, 128, buf);
                        let mut off = 0u64;
                        while off < len {
                            let n = (cfg.chunk as u64).min(len - off) as u32;
                            match cpu.os_call(OsCall::ReadAt {
                                fd: ffd,
                                off,
                                len: n,
                                buf,
                            }) {
                                Ok(SysVal::Data(d)) if !d.is_empty() => {
                                    cpu.compute(700); // buffer management per chunk
                                    send_all(cpu, fd, d.len() as u32, buf);
                                    off += d.len() as u64;
                                }
                                Ok(SysVal::Data(_)) => break,
                                other => panic!("read: {other:?}"),
                            }
                        }
                        if cfg.keep_alive {
                            // Deferred: rides the next recv (or, at end
                            // of the request block, closes before the
                            // empty read returns).
                            pending_file_close = Some(ffd);
                        } else {
                            let _ = cpu.os_call(OsCall::Close { fd: ffd });
                            let _ = cpu.os_call(OsCall::Close { fd });
                            conn_closed = true;
                            break;
                        }
                    }
                    None => {
                        send_all(cpu, fd, 64, buf); // 400 Bad Request
                        if !cfg.keep_alive {
                            break; // the close below ends the connection
                        }
                    }
                }
                if !cfg.keep_alive {
                    break;
                }
            }
            if !conn_closed {
                let _ = cpu.os_call(OsCall::Close { fd });
            }
        }
    }
}

fn send_all(cpu: &mut CpuCtx, fd: compass_os::Fd, len: u32, buf: VAddr) {
    match cpu.os_call(OsCall::Send { fd, len, buf }) {
        Ok(SysVal::Int(_)) => {}
        Err(Errno::ConnClosed) => {} // client went away; Apache shrugs
        other => panic!("send: {other:?}"),
    }
}

/// Parses `GET <path> HTTP/1.0` from a request buffer.
pub fn parse_get(request: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(request).ok()?;
    let mut parts = text.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    Some(parts.next()?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_get_extracts_the_path() {
        assert_eq!(
            parse_get(b"GET /spec/dir00001/class2_4 HTTP/1.0\r\n\r\n"),
            Some("/spec/dir00001/class2_4".to_string())
        );
        assert_eq!(parse_get(b"POST /x HTTP/1.0"), None);
        assert_eq!(parse_get(b"\xff\xfe"), None);
        assert_eq!(parse_get(b"GET"), None);
    }

    #[test]
    fn tickets_run_out_exactly_once() {
        let t = SharedTickets::new(3);
        assert!(t.take());
        assert!(t.take());
        assert!(t.take());
        assert!(!t.take());
        assert!(!t.take());
    }
}
