//! F2 — OS calls and event-port communication (paper Figure 2): a process
//! runs its OS calls' kernel code itself, generating kernel-mode events on
//! its own event port, interrupts arrive through the reply's
//! interrupt-request flag, and the network path (trace-player frames →
//! Ethernet interrupt → TCP processing → socket wakeup) works end to end.

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
    let b = SimBuilder::new(ArchConfig::simple_smp(1))
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
    let b = SimBuilder::new(ArchConfig::simple_smp(1))
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
    let r = b.run();
    assert!(r.syscalls.iter().any(|(n, c, _)| n == "select" && *c == 2));
}

#[test]
fn kernel_time_is_attributed_to_kernel_mode() {
    let b = SimBuilder::new(ArchConfig::simple_smp(1))
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
    // Adjacent syscalls whose kernel events share the port ring's batch:
    // failures must come back *per call* — an errno in the middle of a
    // run of calls aborts nothing — and the simulated timeline must be
    // identical at any batch depth.
    fn run_once(batch_depth: usize) -> u64 {
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
                let results: Vec<_> = calls.into_iter().map(|c| cpu.os_call(c)).collect();
                assert!(
                    matches!(results[0], Ok(SysVal::Stat(ref st)) if st.len == 4_096),
                    "stat: {:?}",
                    results[0]
                );
                assert_eq!(
                    results[1],
                    Err(compass_os::Errno::NoEnt),
                    "missing file must fail mid-run"
                );
                assert_eq!(results[2], Ok(SysVal::Unit), "close after an error runs");
                assert_eq!(
                    results[3],
                    Err(compass_os::Errno::BadF),
                    "double close must fail per-call"
                );
            });
        let c = b.config_mut();
        c.backend.batch_depth = batch_depth;
        b.run().backend.global_cycles
    }
    let anchor = run_once(8);
    for depth in [1, 64] {
        assert_eq!(
            run_once(depth),
            anchor,
            "timeline moved: batch_depth={depth}"
        );
    }
}

/// Batching is stats-neutral, so a wiring slip that left the syscall
/// path or the bottom-half daemon at depth 1 would pass every anchor.
/// This reads the host-side evidence instead: syscalls that batched
/// kernel events (`os_batched_replies`), and the non-blocking events the
/// daemon posted on its own port (that port's `ring_batched`, read from
/// the fine trace's pickups because counters merge across ports). The
/// workload misses the buffer cache, so disk interrupts reach the
/// daemon. Under `pseudo_irq` every port ring has one slot, so nothing
/// batches at any depth.
#[test]
fn one_batch_depth_reaches_every_poster() {
    fn run_once(batch_depth: usize, pseudo_irq: bool) -> (u64, u64, u64) {
        let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).prepare_kernel(|k| {
            k.create_file("/f", compass_os::fs::FileData::Synthetic { len: 32 * 1024 });
        });
        for _ in 0..2 {
            b = b.add_process(|cpu: &mut CpuCtx| {
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
                let _ = cpu.os_call(OsCall::Close { fd });
            });
        }
        let c = b.config_mut();
        c.backend.batch_depth = batch_depth;
        c.pseudo_irq = pseudo_irq;
        c.obs = compass::ObsConfig::full(compass::TraceLevel::Fine);
        let r = b.run();
        assert!(
            r.backend.disk_ops.iter().any(|&(ops, _)| ops > 0),
            "the reads must reach the disks"
        );
        let daemon = r.app_processes as u32;
        let trace = r.trace.expect("tracing on");
        assert_eq!(trace.dropped(), 0, "trace ring too small for this run");
        let daemon_batched = trace
            .records()
            .iter()
            .filter(|t| t.kind == compass_obs::TraceKind::Pickup && t.pid == daemon && t.b == 0)
            .count() as u64;
        let o = r.obs.expect("counters on");
        (
            o.counter("os_batched_replies"),
            daemon_batched,
            o.counter("ring_batched"),
        )
    }
    assert_eq!(
        run_once(1, false),
        (0, 0, 0),
        "depth 1 must post every event blocking"
    );
    let shipped = compass::SimConfig::new(ArchConfig::ccnuma(2, 2))
        .backend
        .batch_depth;
    assert_eq!(
        run_once(shipped, true),
        (0, 0, 0),
        "pseudo-IRQ delivery must post every event blocking"
    );
    let (os_batched, daemon_batched, _) = run_once(shipped, false);
    assert!(os_batched > 0, "the syscall path never batched");
    assert!(daemon_batched > 0, "the bottom-half daemon never batched");
}

/// The pseudo-IRQ scenario: §3.2's user-mode delivery path with a
/// process that keeps the CPU busy while another one's disk reads
/// complete, so interrupt requests reach a running process. One CPU; the
/// reader reads a 64 KiB file in 4 KiB `Read`s (the buffer cache misses,
/// so every read sleeps on the disk), the other computes and sweeps a
/// 64 KiB buffer.
fn pseudo_irq_builder() -> compass::SimBuilder {
    let mut b = SimBuilder::new(ArchConfig::simple_smp(1))
        .prepare_kernel(|k| {
            k.create_file("/f", compass_os::fs::FileData::Synthetic { len: 64 * 1024 });
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
        })
        .add_process(|cpu: &mut CpuCtx| {
            const LEN: u32 = 64 * 1024;
            let buf = cpu.malloc_pages(LEN);
            for i in 0..40_000u32 {
                cpu.compute(50);
                cpu.load(buf + (i * 64) % LEN, 8);
            }
        });
    b.config_mut().pseudo_irq = true;
    b
}

/// What the pseudo-IRQ anchor pins.
#[derive(Debug, PartialEq)]
struct PseudoIrqRun {
    global_cycles: u64,
    syscalls: Vec<(String, u64, u64)>,
    pseudo_irqs: Vec<u64>,
    by_mode: Vec<[u64; 3]>,
}

fn pseudo_irq_run(b: compass::SimBuilder) -> (PseudoIrqRun, [u64; 3]) {
    let r = b.run();
    let run = PseudoIrqRun {
        global_cycles: r.backend.global_cycles,
        syscalls: r.syscalls,
        pseudo_irqs: r.frontends.iter().map(|f| f.pseudo_irqs).collect(),
        by_mode: r.backend.procs.iter().map(|p| p.by_mode).collect(),
    };
    (run, r.backend.irq_dispatches)
}

#[test]
fn pseudo_interrupt_path_stays_deterministic() {
    // §3.2's user-mode delivery: the frontend checks the interrupt flag on
    // the way out of every event rendezvous and runs the pending handlers
    // itself, in interrupt mode. Enabled *with* the daemon; both drain
    // under the simulated INTR lock, so results are pinned.
    let (run, _) = pseudo_irq_run(pseudo_irq_builder());
    assert!(
        run.pseudo_irqs.iter().sum::<u64>() > 0,
        "no pseudo interrupt"
    );
    let pinned = PseudoIrqRun {
        global_cycles: 13_567_854,
        syscalls: vec![("kreadv".into(), 17, 118_852), ("open".into(), 1, 392)],
        pseudo_irqs: vec![0, 5],
        by_mode: vec![[0, 119_304, 0], [4_489_795, 0, 155], [0, 0, 58_646]],
    };
    assert_eq!(run, pinned);
    #[cfg(feature = "check-invariants")]
    for seed in [0x5EED_0003, 0x5EED_0004] {
        let (twin, _) = pseudo_irq_run(pseudo_irq_builder().schedule_seed(seed));
        assert_eq!(twin, pinned, "schedule {seed:#x}");
    }
}

/// An interrupt request is edge-triggered in simulated time: the
/// blocking reply that hands it to an application process consumes it, so
/// a process cannot take more pseudo interrupts than the backend
/// dispatched device interrupts — with disk interrupts alone, and with
/// interval-timer ticks as well.
#[test]
fn one_device_interrupt_delivers_at_most_one_pseudo_interrupt() {
    for timer in [None, Some(200_000)] {
        let mut b = pseudo_irq_builder();
        b.config_mut().backend.timer_interval = timer;
        let (run, dispatches) = pseudo_irq_run(b);
        let pseudo: u64 = run.pseudo_irqs.iter().sum();
        let irqs: u64 = dispatches.iter().sum();
        assert!(
            0 < pseudo && pseudo <= irqs,
            "timer {timer:?}: {pseudo} pseudo interrupts for {irqs} device interrupts"
        );
    }
}

#[test]
fn per_syscall_cycles_do_not_depend_on_batch_depth() {
    // Per-call kernel time (`RunReport::syscalls`, Table 1's syscall
    // rows) is a simulated quantity like any other: batching may change
    // when a kernel context learns its events' latencies, never which
    // call they are charged to.
    let sc = compass_simcheck::presets::http_small();
    let table = |depth| {
        compass_simcheck::run_scenario(&sc, depth, false, false)
            .expect("http_small runs")
            .syscalls
    };
    let base = table(1);
    assert!(!base.is_empty(), "http_small makes system calls");
    for depth in [8, 64] {
        assert_eq!(table(depth), base, "syscall table at depth {depth} vs 1");
    }
}
