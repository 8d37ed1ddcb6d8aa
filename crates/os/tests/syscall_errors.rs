//! Error paths of the category-1 syscall implementations, run under the
//! raw sink: bad descriptors, double closes, reads after close, kind
//! mismatches, and short reads at EOF through the buffer cache. The happy
//! paths are covered by `kernel_raw.rs` and the simulated integration
//! tests; these pin down what the kernel *refuses* to do.

use compass_comm::{DevShared, ExecMode};
use compass_isa::ProcessId;
use compass_mem::VAddr;
use compass_os::fs::FileData;
use compass_os::kctx::{KernelCtx, RawSink};
use compass_os::{syscalls, Errno, Fd, KernelConfig, KernelShared, OsCall, SysVal};
use std::rc::Rc;

fn kernel() -> Rc<KernelShared> {
    let k = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
    k.create_file("/ten", FileData::Bytes(b"0123456789".to_vec()));
    k
}

fn kc(sink: &RawSink) -> KernelCtx<'_> {
    KernelCtx::new(ProcessId(0), sink, 0, ExecMode::Kernel, 64)
}

fn call(k: &KernelShared, kc: &mut KernelCtx<'_>, c: OsCall) -> Result<SysVal, Errno> {
    syscalls::dispatch(kc, k, c)
}

fn open(k: &KernelShared, kc: &mut KernelCtx<'_>, path: &str, create: bool) -> Fd {
    match call(
        k,
        kc,
        OsCall::Open {
            path: path.into(),
            create,
        },
    ) {
        Ok(SysVal::NewFd(fd)) => fd,
        other => panic!("open {path}: {other:?}"),
    }
}

const BUF: VAddr = VAddr(0x1000_0000);

#[test]
fn open_of_a_missing_file_is_noent() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::Open {
                path: "/does-not-exist".into(),
                create: false,
            },
        ),
        Err(Errno::NoEnt)
    );
    // Stat and unlink agree.
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::Stat {
                path: "/does-not-exist".into(),
            },
        ),
        Err(Errno::NoEnt)
    );
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::Unlink {
                path: "/does-not-exist".into(),
            },
        ),
        Err(Errno::NoEnt)
    );
}

#[test]
fn operations_on_a_never_opened_fd_are_badf() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    let bogus = Fd(99);
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::Read {
                fd: bogus,
                len: 16,
                buf: BUF,
            },
        ),
        Err(Errno::BadF)
    );
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::Write {
                fd: bogus,
                data: vec![1, 2, 3],
                buf: BUF,
            },
        ),
        Err(Errno::BadF)
    );
    assert_eq!(
        call(&k, &mut kc, OsCall::Seek { fd: bogus, off: 0 }),
        Err(Errno::BadF)
    );
    assert_eq!(
        call(&k, &mut kc, OsCall::Fsync { fd: bogus }),
        Err(Errno::BadF)
    );
    assert_eq!(
        call(&k, &mut kc, OsCall::Close { fd: bogus }),
        Err(Errno::BadF)
    );
}

#[test]
fn double_close_fails_and_fd_stays_dead() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    let fd = open(&k, &mut kc, "/ten", false);
    assert_eq!(call(&k, &mut kc, OsCall::Close { fd }), Ok(SysVal::Unit));
    assert_eq!(
        call(&k, &mut kc, OsCall::Close { fd }),
        Err(Errno::BadF),
        "second close of the same fd"
    );
    // Read after close: the descriptor must not have been resurrected.
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::Read {
                fd,
                len: 4,
                buf: BUF,
            },
        ),
        Err(Errno::BadF)
    );
}

#[test]
fn descriptors_are_per_process() {
    let k = kernel();
    let sink = RawSink;
    let mut kc0 = KernelCtx::new(ProcessId(0), &sink, 0, ExecMode::Kernel, 64);
    let mut kc1 = KernelCtx::new(ProcessId(1), &sink, 0, ExecMode::Kernel, 64);
    let fd = open(&k, &mut kc0, "/ten", false);
    // Process 1 never opened it: same number, different fd table.
    assert_eq!(
        call(
            &k,
            &mut kc1,
            OsCall::Read {
                fd,
                len: 4,
                buf: BUF,
            },
        ),
        Err(Errno::BadF)
    );
    assert_eq!(call(&k, &mut kc0, OsCall::Close { fd }), Ok(SysVal::Unit));
}

#[test]
fn file_calls_on_a_listener_are_notsock() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    let lfd = match call(&k, &mut kc, OsCall::Listen { port: 8080 }) {
        Ok(SysVal::NewFd(fd)) => fd,
        other => panic!("listen: {other:?}"),
    };
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::Read {
                fd: lfd,
                len: 16,
                buf: BUF,
            },
        ),
        Err(Errno::NotSock)
    );
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::Write {
                fd: lfd,
                data: vec![0; 8],
                buf: BUF,
            },
        ),
        Err(Errno::NotSock)
    );
    assert_eq!(
        call(&k, &mut kc, OsCall::Seek { fd: lfd, off: 0 }),
        Err(Errno::NotSock)
    );
    assert_eq!(
        call(&k, &mut kc, OsCall::Fsync { fd: lfd }),
        Err(Errno::NotSock)
    );
    // And the converse: accept on a regular file is NotSock.
    let fd = open(&k, &mut kc, "/ten", false);
    assert_eq!(
        call(&k, &mut kc, OsCall::Accept { lfd: fd }),
        Err(Errno::NotSock)
    );
}

#[test]
fn reads_at_eof_are_short_then_empty_through_the_bufcache() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    let fd = open(&k, &mut kc, "/ten", false);
    // The file is 10 bytes; a 4 KiB read returns exactly the 10.
    match call(
        &k,
        &mut kc,
        OsCall::Read {
            fd,
            len: 4096,
            buf: BUF,
        },
    ) {
        Ok(SysVal::Data(d)) => assert_eq!(d, b"0123456789".to_vec()),
        other => panic!("{other:?}"),
    }
    // At EOF: an empty read, not an error.
    match call(
        &k,
        &mut kc,
        OsCall::Read {
            fd,
            len: 4096,
            buf: BUF,
        },
    ) {
        Ok(SysVal::Data(d)) => assert!(d.is_empty(), "read past EOF must be empty"),
        other => panic!("{other:?}"),
    }
    // Positional reads straddling EOF are shortened the same way.
    match call(
        &k,
        &mut kc,
        OsCall::ReadAt {
            fd,
            off: 8,
            len: 64,
            buf: BUF,
        },
    ) {
        Ok(SysVal::Data(d)) => assert_eq!(d, b"89".to_vec()),
        other => panic!("{other:?}"),
    }
    match call(
        &k,
        &mut kc,
        OsCall::ReadAt {
            fd,
            off: 1_000_000,
            len: 64,
            buf: BUF,
        },
    ) {
        Ok(SysVal::Data(d)) => assert!(d.is_empty()),
        other => panic!("{other:?}"),
    }
    assert_eq!(call(&k, &mut kc, OsCall::Close { fd }), Ok(SysVal::Unit));
}

#[test]
fn writes_past_eof_extend_and_count_fs_write_bytes() {
    let k = kernel();
    let sink = RawSink;
    let mut kc = kc(&sink);
    let before = k.fs_write_bytes.get();
    let fd = open(&k, &mut kc, "/new", true);
    assert_eq!(
        call(
            &k,
            &mut kc,
            OsCall::WriteAt {
                fd,
                off: 4096,
                data: vec![7u8; 100],
                buf: BUF,
            },
        ),
        Ok(SysVal::Int(100))
    );
    match call(
        &k,
        &mut kc,
        OsCall::Stat {
            path: "/new".into(),
        },
    ) {
        Ok(SysVal::Stat(st)) => assert_eq!(st.len, 4196, "write at 4096 + 100 bytes"),
        other => panic!("{other:?}"),
    }
    let after = k.fs_write_bytes.get();
    assert_eq!(after - before, 100, "fs_write_bytes counts every byte");
    assert_eq!(call(&k, &mut kc, OsCall::Close { fd }), Ok(SysVal::Unit));
}
