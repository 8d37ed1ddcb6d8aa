//! Kernel code paths under the raw sink: the same syscall implementations
//! the simulator runs, executed functionally (no backend, no threads).
//! Fast checks of buffer-cache interaction, descriptor bookkeeping and
//! cost accounting that the simulated integration tests exercise slowly.

use compass_comm::{DevShared, ExecMode};
use compass_isa::ProcessId;
use compass_mem::VAddr;
use compass_os::fs::FileData;
use compass_os::kctx::{KernelCtx, RawSink};
use compass_os::{syscalls, Errno, KernelConfig, KernelShared, OsCall, SysVal};
use std::rc::Rc;

fn kernel() -> Rc<KernelShared> {
    let k = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
    k.create_file("/a", FileData::Bytes(b"abcdefghij".to_vec()));
    k.create_file("/big", FileData::Synthetic { len: 64 * 1024 });
    k
}

fn kc(sink: &RawSink) -> KernelCtx<'_> {
    KernelCtx::new(ProcessId(0), sink, 0, ExecMode::Kernel, 64)
}

fn call(k: &KernelShared, kc: &mut KernelCtx<'_>, c: OsCall) -> Result<SysVal, Errno> {
    syscalls::dispatch(kc, k, c)
}

const BUF: VAddr = VAddr(0x1000_0000);

#[test]
fn read_fills_the_buffer_cache_and_costs_time() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    let fd = match call(
        &k,
        &mut kc,
        OsCall::Open {
            path: "/big".into(),
            create: false,
        },
    ) {
        Ok(SysVal::NewFd(fd)) => fd,
        other => panic!("{other:?}"),
    };
    let t0 = kc.clock;
    match call(
        &k,
        &mut kc,
        OsCall::Read {
            fd,
            len: 8192,
            buf: BUF,
        },
    ) {
        Ok(SysVal::Data(d)) => assert_eq!(d.len(), 8192),
        other => panic!("{other:?}"),
    }
    let cold = kc.clock - t0;
    assert_eq!(k.bufs.borrow_mut().stats().misses, 2, "two 4 KiB blocks");
    // Same range again: cache hits, cheaper.
    call(&k, &mut kc, OsCall::Seek { fd, off: 0 }).unwrap();
    let t1 = kc.clock;
    call(
        &k,
        &mut kc,
        OsCall::Read {
            fd,
            len: 8192,
            buf: BUF,
        },
    )
    .unwrap();
    let warm = kc.clock - t1;
    assert!(
        warm <= cold,
        "warm read must not cost more ({warm} > {cold})"
    );
    assert_eq!(k.bufs.borrow_mut().stats().misses, 2, "no new misses");
    assert!(k.bufs.borrow_mut().stats().hits >= 2);
}

#[test]
fn write_then_read_across_processes_shares_the_cache() {
    let k = kernel();
    let sink = RawSink;
    // Process 0 writes.
    let mut kc0 = KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64);
    let fd0 = match call(
        &k,
        &mut kc0,
        OsCall::Open {
            path: "/shared".into(),
            create: true,
        },
    ) {
        Ok(SysVal::NewFd(fd)) => fd,
        other => panic!("{other:?}"),
    };
    call(
        &k,
        &mut kc0,
        OsCall::Write {
            fd: fd0,
            data: b"hello from p0".to_vec(),
            buf: BUF,
        },
    )
    .unwrap();
    // Process 1 reads through its own descriptor table.
    let mut kc1 = KernelCtx::new(ProcessId(1), &sink, 0, ExecMode::Kernel, 64);
    let fd1 = match call(
        &k,
        &mut kc1,
        OsCall::Open {
            path: "/shared".into(),
            create: false,
        },
    ) {
        Ok(SysVal::NewFd(fd)) => fd,
        other => panic!("{other:?}"),
    };
    match call(
        &k,
        &mut kc1,
        OsCall::Read {
            fd: fd1,
            len: 64,
            buf: BUF,
        },
    ) {
        Ok(SysVal::Data(d)) => assert_eq!(d, b"hello from p0"),
        other => panic!("{other:?}"),
    }
    // Descriptor namespaces are per process: each got fd 0.
    assert_eq!(fd0, fd1);
}

#[test]
fn kernel_heap_is_balanced_after_send_paths() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    // Listener + fake connection through the stack's own entry points.
    call(&k, &mut kc, OsCall::Listen { port: 80 }).unwrap();
    {
        let pcb = k.heap.alloc(192);
        k.net.borrow_mut().syn(compass_isa::ConnId(5), 80, pcb);
    }
    let live_before = k.heap.live_bytes();
    let fd = match call(
        &k,
        &mut kc,
        OsCall::Accept {
            lfd: compass_os::Fd(0),
        },
    ) {
        Ok(SysVal::Accepted(fd, _)) => fd,
        other => panic!("{other:?}"),
    };
    // Send 5 segments: every mbuf must be freed again.
    call(
        &k,
        &mut kc,
        OsCall::Send {
            fd,
            len: 7_000,
            buf: BUF,
        },
    )
    .unwrap();
    assert_eq!(
        k.heap.live_bytes(),
        live_before,
        "mbufs leaked on the send path"
    );
}

#[test]
fn per_syscall_accounting_counts_calls_once() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    for _ in 0..3 {
        call(&k, &mut kc, OsCall::Stat { path: "/a".into() }).unwrap();
    }
    let _ = call(
        &k,
        &mut kc,
        OsCall::Stat {
            path: "/missing".into(),
        },
    );
    let snap = k.stats.snapshot();
    let stat = snap
        .iter()
        .find(|(n, _, _)| n == "statx")
        .expect("statx recorded");
    assert_eq!(stat.1, 4, "errors are still calls");
    assert!(stat.2 > 0, "statx costs cycles");
}

#[test]
fn eviction_writeback_preserves_content() {
    // A tiny cache forces dirty evictions between write and read-back.
    let cfg = KernelConfig {
        nbufs: 2,
        ..KernelConfig::default()
    };
    let k = KernelShared::new(cfg, Rc::new(DevShared::new()));
    k.create_file("/t", FileData::Bytes(Vec::new()));
    let sink = RawSink;
    let mut kc = KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64);
    let fd = match call(
        &k,
        &mut kc,
        OsCall::Open {
            path: "/t".into(),
            create: false,
        },
    ) {
        Ok(SysVal::NewFd(fd)) => fd,
        other => panic!("{other:?}"),
    };
    // Write 6 distinct blocks through a 2-buffer cache.
    for blk in 0..6u64 {
        call(
            &k,
            &mut kc,
            OsCall::WriteAt {
                fd,
                off: blk * 4096,
                data: vec![blk as u8 + 1; 4096],
                buf: BUF,
            },
        )
        .unwrap();
    }
    for blk in 0..6u64 {
        match call(
            &k,
            &mut kc,
            OsCall::ReadAt {
                fd,
                off: blk * 4096,
                len: 4,
                buf: BUF,
            },
        ) {
            Ok(SysVal::Data(d)) => assert_eq!(d, vec![blk as u8 + 1; 4]),
            other => panic!("{other:?}"),
        }
    }
    assert!(
        k.bufs.borrow_mut().stats().writebacks > 0,
        "evictions happened"
    );
}
