//! F2 — OS-port and event-port communication (paper Figure 2): OS calls
//! travel to the paired OS thread, kernel code generates kernel-mode
//! events on the process's own event port, interrupts arrive through the
//! CPU-states flags, and the network path (trace-player frames → Ethernet
//! interrupt → TCP processing → socket wakeup) works end to end.

use compass::{ArchConfig, CpuCtx, SimBuilder};
use compass_backend::TrafficSource;
use compass_comm::{Frame, FrameKind};
use compass_isa::{ConnId, Cycles, NicId};
use compass_os::{OsCall, SysVal};

/// A scripted client: injects the given frames, ignores server output.
struct Script(Vec<(Cycles, Frame)>);

impl TrafficSource for Script {
    fn initial(&mut self) -> Vec<(Cycles, Frame)> {
        std::mem::take(&mut self.0)
    }
    fn on_tx(&mut self, _conn: ConnId, _bytes: u32, _now: Cycles) -> Vec<(Cycles, Frame)> {
        Vec::new()
    }
}

fn syn(conn: u32, port: u16, at: Cycles) -> (Cycles, Frame) {
    (
        at,
        Frame {
            nic: NicId(0),
            conn: ConnId(conn),
            kind: FrameKind::Syn,
            payload: port.to_be_bytes().to_vec(),
            time: at,
        },
    )
}

fn data(conn: u32, payload: &[u8], at: Cycles) -> (Cycles, Frame) {
    (
        at,
        Frame {
            nic: NicId(0),
            conn: ConnId(conn),
            kind: FrameKind::Data,
            payload: payload.to_vec(),
            time: at,
        },
    )
}

fn fin(conn: u32, at: Cycles) -> (Cycles, Frame) {
    (
        at,
        Frame {
            nic: NicId(0),
            conn: ConnId(conn),
            kind: FrameKind::Fin,
            payload: Vec::new(),
            time: at,
        },
    )
}

#[test]
fn accept_recv_send_roundtrip() {
    let traffic = Script(vec![
        syn(1, 80, 50_000),
        data(1, b"GET /file1 HTTP/1.0", 120_000),
        fin(1, 400_000),
    ]);
    let mut b = SimBuilder::new(ArchConfig::simple_smp(1))
        .traffic(traffic)
        .add_process(|cpu: &mut CpuCtx| {
            let buf = cpu.malloc_pages(8192);
            let lfd = match cpu.os_call(OsCall::Listen { port: 80 }) {
                Ok(SysVal::NewFd(fd)) => fd,
                other => panic!("{other:?}"),
            };
            let (fd, conn) = match cpu.os_call(OsCall::Accept { lfd }) {
                Ok(SysVal::Accepted(fd, conn)) => (fd, conn),
                other => panic!("{other:?}"),
            };
            assert_eq!(conn, ConnId(1));
            let req = match cpu.os_call(OsCall::Recv { fd, len: 4096, buf }) {
                Ok(SysVal::Data(d)) => d,
                other => panic!("{other:?}"),
            };
            assert_eq!(req, b"GET /file1 HTTP/1.0");
            // Respond with 10 KB.
            cpu.os_call(OsCall::Send {
                fd,
                len: 10_240,
                buf,
            })
            .unwrap();
            // Peer FIN -> EOF.
            loop {
                match cpu.os_call(OsCall::Recv { fd, len: 4096, buf }) {
                    Ok(SysVal::Data(d)) if d.is_empty() => break,
                    Ok(SysVal::Data(_)) => {}
                    other => panic!("{other:?}"),
                }
            }
            cpu.os_call(OsCall::Close { fd }).unwrap();
            cpu.os_call(OsCall::Close { fd: lfd }).unwrap();
        });
    b.config_mut().backend.deadlock_ms = 3_000;
    let r = b.run();
    assert_eq!(r.net.conns, 1);
    assert_eq!(r.net.tx_bytes, 10_240);
    assert!(
        r.backend.irq_dispatches[1] >= 3,
        "SYN, data, FIN interrupts"
    );
    // Accept and recv blocked while waiting for the client.
    assert!(r.backend.procs[0].block_wait > 0);
    // TCP output segmented the 10 KB response (mss 1460 -> 8 segments).
    assert_eq!(r.backend.nic_tx.0, 10_240 /* FIN counted as 0 bytes */);
    assert!(r.syscalls.iter().any(|(n, _, _)| n == "naccept"));
    assert!(r.syscalls.iter().any(|(n, _, _)| n == "send"));
}

#[test]
fn select_wakes_on_connection_and_data() {
    let traffic = Script(vec![syn(1, 8080, 200_000), data(1, b"ping", 500_000)]);
    let mut b = SimBuilder::new(ArchConfig::simple_smp(1))
        .traffic(traffic)
        .add_process(|cpu: &mut CpuCtx| {
            let buf = cpu.malloc(4096);
            let lfd = match cpu.os_call(OsCall::Listen { port: 8080 }) {
                Ok(SysVal::NewFd(fd)) => fd,
                other => panic!("{other:?}"),
            };
            // Select on the listener: blocks until the SYN arrives.
            let ready = match cpu.os_call(OsCall::Select { fds: vec![lfd] }) {
                Ok(SysVal::Ready(r)) => r,
                other => panic!("{other:?}"),
            };
            assert_eq!(ready, vec![lfd]);
            let (fd, _) = match cpu.os_call(OsCall::Accept { lfd }) {
                Ok(SysVal::Accepted(fd, conn)) => (fd, conn),
                other => panic!("{other:?}"),
            };
            // Select on the connection: blocks until data arrives.
            let ready = match cpu.os_call(OsCall::Select { fds: vec![lfd, fd] }) {
                Ok(SysVal::Ready(r)) => r,
                other => panic!("{other:?}"),
            };
            assert_eq!(ready, vec![fd]);
            match cpu.os_call(OsCall::Recv { fd, len: 64, buf }) {
                Ok(SysVal::Data(d)) => assert_eq!(d, b"ping"),
                other => panic!("{other:?}"),
            }
            cpu.os_call(OsCall::Close { fd }).unwrap();
            cpu.os_call(OsCall::Close { fd: lfd }).unwrap();
        });
    b.config_mut().backend.deadlock_ms = 3_000;
    let r = b.run();
    assert!(r.syscalls.iter().any(|(n, c, _)| n == "select" && *c == 2));
}

#[test]
fn kernel_time_is_attributed_to_kernel_mode() {
    let mut b = SimBuilder::new(ArchConfig::simple_smp(1))
        .prepare_kernel(|k| {
            k.create_file("/f", compass_os::fs::FileData::Synthetic { len: 32 * 1024 });
        })
        .add_process(|cpu: &mut CpuCtx| {
            let buf = cpu.malloc_pages(4096);
            let fd = match cpu.os_call(OsCall::Open {
                path: "/f".into(),
                create: false,
            }) {
                Ok(SysVal::NewFd(fd)) => fd,
                other => panic!("{other:?}"),
            };
            loop {
                match cpu.os_call(OsCall::Read { fd, len: 4096, buf }) {
                    Ok(SysVal::Data(d)) if d.is_empty() => break,
                    Ok(SysVal::Data(_)) => {}
                    other => panic!("{other:?}"),
                }
            }
            // A little user-mode work for contrast.
            cpu.compute(1_000);
        });
    b.config_mut().backend.deadlock_ms = 3_000;
    let r = b.run();
    let user: u64 = r.backend.procs.iter().map(|p| p.by_mode[0]).sum();
    let kernel: u64 = r.backend.procs.iter().map(|p| p.by_mode[1]).sum();
    let interrupt: u64 = r.backend.procs.iter().map(|p| p.by_mode[2]).sum();
    assert!(
        kernel > user,
        "an I/O-bound loop spends most time in the OS"
    );
    assert!(interrupt > 0, "disk completions ran interrupt handlers");
    // The per-syscall accounting agrees that kreadv dominates.
    assert_eq!(r.syscalls[0].0, "kreadv");
    // Kernel-mode memory accesses were simulated.
    assert!(r.backend.mem.accesses[1] > 0);
}

#[test]
fn batched_syscall_errors_are_per_call_and_depth_invariant() {
    // ISSUE 6: `CallBatch` carries adjacent syscalls in one port
    // crossing. Failures must come back *per call* — an errno in the
    // middle of a batch aborts nothing — and the simulated timeline must
    // be identical to issuing the same calls one `Call` at a time, at
    // any kernel batch depth.
    fn run_once(batched: bool, kernel_batch_depth: usize) -> u64 {
        let mut b = SimBuilder::new(ArchConfig::simple_smp(1))
            .prepare_kernel(|k| {
                k.create_file("/f", compass_os::fs::FileData::Synthetic { len: 4_096 });
            })
            .add_process(move |cpu: &mut CpuCtx| {
                let fd = match cpu.os_call(OsCall::Open {
                    path: "/f".into(),
                    create: false,
                }) {
                    Ok(SysVal::NewFd(fd)) => fd,
                    other => panic!("{other:?}"),
                };
                let calls = vec![
                    OsCall::Stat { path: "/f".into() },
                    OsCall::Open {
                        path: "/missing".into(),
                        create: false,
                    },
                    OsCall::Close { fd },
                    OsCall::Close { fd }, // double close
                ];
                let results = if batched {
                    cpu.os_call_batch(calls)
                } else {
                    calls.into_iter().map(|c| cpu.os_call(c)).collect()
                };
                assert!(
                    matches!(results[0], Ok(SysVal::Stat(ref st)) if st.len == 4_096),
                    "stat: {:?}",
                    results[0]
                );
                assert_eq!(
                    results[1],
                    Err(compass_os::Errno::NoEnt),
                    "missing file must fail mid-batch"
                );
                assert_eq!(results[2], Ok(SysVal::Unit), "close after an error runs");
                assert_eq!(
                    results[3],
                    Err(compass_os::Errno::BadF),
                    "double close must fail per-call"
                );
            });
        let c = b.config_mut();
        c.backend.deadlock_ms = 3_000;
        c.kernel_batch_depth = kernel_batch_depth;
        b.run().backend.global_cycles
    }
    let anchor = run_once(false, 1);
    for (batched, kb) in [(true, 1), (true, 64), (false, 64), (true, 8)] {
        assert_eq!(
            run_once(batched, kb),
            anchor,
            "timeline moved: batched={batched} kernel_batch_depth={kb}"
        );
    }
}

#[test]
fn pseudo_interrupt_path_stays_deterministic() {
    // §3.2's user-mode delivery: the frontend checks the interrupt flag on
    // the way out of every event rendezvous and forwards a pseudo
    // interrupt request to its OS thread. Enabled *with* the daemon; both
    // drain under the simulated INTR lock, so results must match across
    // runs.
    fn run_once() -> (u64, Vec<(String, u64, u64)>) {
        let mut b = SimBuilder::new(ArchConfig::simple_smp(1))
            .prepare_kernel(|k| {
                k.create_file("/f", compass_os::fs::FileData::Synthetic { len: 16 * 1024 });
            })
            .add_process(|cpu: &mut CpuCtx| {
                let buf = cpu.malloc_pages(4096);
                let fd = match cpu.os_call(OsCall::Open {
                    path: "/f".into(),
                    create: false,
                }) {
                    Ok(SysVal::NewFd(fd)) => fd,
                    other => panic!("{other:?}"),
                };
                loop {
                    match cpu.os_call(OsCall::Read { fd, len: 4096, buf }) {
                        Ok(SysVal::Data(d)) if d.is_empty() => break,
                        Ok(SysVal::Data(_)) => {}
                        other => panic!("{other:?}"),
                    }
                }
            });
        b.config_mut().pseudo_irq = true;
        b.config_mut().backend.deadlock_ms = 3_000;
        let r = b.run();
        (r.backend.global_cycles, r.syscalls)
    }
    let (c1, s1) = run_once();
    let (c2, s2) = run_once();
    assert_eq!(c1, c2);
    assert_eq!(s1, s2);
}
