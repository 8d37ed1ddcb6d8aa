//! Category-1 syscall semantics under full simulation: edge cases, error
//! paths, and the mmap/munmap/msync family the paper's TPC profiles name.

use compass::{ArchConfig, CpuCtx, SimBuilder};
use compass_os::fs::FileData;
use compass_os::{Errno, Fd, OsCall, SysVal};

fn sim(body: impl FnMut(&mut CpuCtx) + 'static) -> compass::runner::RunReport {
    let b = SimBuilder::new(ArchConfig::simple_smp(1))
        .prepare_kernel(|k| {
            k.create_file("/small", FileData::Bytes(b"0123456789".to_vec()));
            k.create_file("/big", FileData::Synthetic { len: 20 * 1024 });
        })
        .add_process(body);
    b.run()
}

fn open(cpu: &mut CpuCtx, path: &str, create: bool) -> Fd {
    match cpu.os_call(OsCall::Open {
        path: path.into(),
        create,
    }) {
        Ok(SysVal::NewFd(fd)) => fd,
        other => panic!("open: {other:?}"),
    }
}

#[test]
fn open_of_missing_file_fails_cleanly() {
    sim(|cpu: &mut CpuCtx| {
        assert_eq!(
            cpu.os_call(OsCall::Open {
                path: "/nope".into(),
                create: false
            }),
            Err(Errno::NoEnt)
        );
        assert_eq!(
            cpu.os_call(OsCall::Stat {
                path: "/nope".into()
            }),
            Err(Errno::NoEnt)
        );
        // But create succeeds and stat then sees it.
        let _fd = open(cpu, "/nope", true);
        match cpu.os_call(OsCall::Stat {
            path: "/nope".into(),
        }) {
            Ok(SysVal::Stat(st)) => assert_eq!(st.len, 0),
            other => panic!("{other:?}"),
        }
    });
}

#[test]
fn bad_fd_errors_everywhere() {
    sim(|cpu: &mut CpuCtx| {
        let buf = cpu.malloc(64);
        let bad = Fd(42);
        assert_eq!(
            cpu.os_call(OsCall::Read {
                fd: bad,
                len: 8,
                buf
            }),
            Err(Errno::BadF)
        );
        assert_eq!(cpu.os_call(OsCall::Close { fd: bad }), Err(Errno::BadF));
        assert_eq!(cpu.os_call(OsCall::Fsync { fd: bad }), Err(Errno::BadF));
        // Double close.
        let fd = open(cpu, "/small", false);
        cpu.os_call(OsCall::Close { fd }).unwrap();
        assert_eq!(cpu.os_call(OsCall::Close { fd }), Err(Errno::BadF));
    });
}

#[test]
fn seek_and_sequential_reads_compose() {
    sim(|cpu: &mut CpuCtx| {
        let buf = cpu.malloc(64);
        let fd = open(cpu, "/small", false);
        cpu.os_call(OsCall::Seek { fd, off: 4 }).unwrap();
        match cpu.os_call(OsCall::Read { fd, len: 3, buf }) {
            Ok(SysVal::Data(d)) => assert_eq!(d, b"456"),
            other => panic!("{other:?}"),
        }
        // Offset advanced.
        match cpu.os_call(OsCall::Read { fd, len: 10, buf }) {
            Ok(SysVal::Data(d)) => assert_eq!(d, b"789"),
            other => panic!("{other:?}"),
        }
        // EOF.
        match cpu.os_call(OsCall::Read { fd, len: 10, buf }) {
            Ok(SysVal::Data(d)) => assert!(d.is_empty()),
            other => panic!("{other:?}"),
        }
    });
}

#[test]
fn writes_cross_block_boundaries_correctly() {
    sim(|cpu: &mut CpuCtx| {
        let buf = cpu.malloc_pages(16 * 1024);
        let fd = open(cpu, "/rmw", true);
        // Write 10 KiB spanning three 4 KiB blocks.
        let payload: Vec<u8> = (0..10_240u32).map(|i| (i % 251) as u8).collect();
        cpu.os_call(OsCall::WriteAt {
            fd,
            off: 100,
            data: payload.clone(),
            buf,
        })
        .unwrap();
        // Read it back across the same boundaries.
        match cpu.os_call(OsCall::ReadAt {
            fd,
            off: 100,
            len: 10_240,
            buf,
        }) {
            Ok(SysVal::Data(d)) => assert_eq!(d, payload),
            other => panic!("{other:?}"),
        }
        // The zero-fill hole before offset 100 reads as zeroes.
        match cpu.os_call(OsCall::ReadAt {
            fd,
            off: 0,
            len: 100,
            buf,
        }) {
            Ok(SysVal::Data(d)) => assert_eq!(d, vec![0u8; 100]),
            other => panic!("{other:?}"),
        }
    });
}

#[test]
fn unlink_keeps_open_descriptors_alive() {
    sim(|cpu: &mut CpuCtx| {
        let buf = cpu.malloc(64);
        let fd = open(cpu, "/small", false);
        cpu.os_call(OsCall::Unlink {
            path: "/small".into(),
        })
        .unwrap();
        // Path is gone…
        assert_eq!(
            cpu.os_call(OsCall::Stat {
                path: "/small".into()
            }),
            Err(Errno::NoEnt)
        );
        // …but the open descriptor still reads (UNIX semantics).
        match cpu.os_call(OsCall::Read { fd, len: 4, buf }) {
            Ok(SysVal::Data(d)) => assert_eq!(d, b"0123"),
            other => panic!("{other:?}"),
        }
    });
}

#[test]
fn mmap_msync_munmap_family_works() {
    let r = sim(|cpu: &mut CpuCtx| {
        // Map the big file, touch it (demand paging through the backend).
        let region = cpu.mmap("/big", 8 * 1024).expect("mmap");
        cpu.touch_range(region, 8 * 1024, 64, false);

        // Mapping a missing file fails.
        assert_eq!(cpu.mmap("/gone", 4096), Err(Errno::NoEnt));

        // Dirty a file through write, then msync a sub-range: only that
        // range's blocks are forced.
        let buf = cpu.malloc_pages(4096);
        let fd = open(cpu, "/dirty", true);
        for blk in 0..4u64 {
            cpu.os_call(OsCall::WriteAt {
                fd,
                off: blk * 4096,
                data: vec![7u8; 4096],
                buf,
            })
            .unwrap();
        }
        match cpu.os_call(OsCall::Msync {
            fd,
            off: 0,
            len: 2 * 4096,
        }) {
            Ok(SysVal::Int(n)) => assert_eq!(n, 2, "exactly the range's blocks"),
            other => panic!("msync: {other:?}"),
        }
        // A second msync over everything flushes the remaining two.
        match cpu.os_call(OsCall::Msync {
            fd,
            off: 0,
            len: 4 * 4096,
        }) {
            Ok(SysVal::Int(n)) => assert_eq!(n, 2),
            other => panic!("msync: {other:?}"),
        }
        cpu.munmap(region, 8 * 1024).expect("munmap");
        cpu.os_call(OsCall::Close { fd }).unwrap();
    });
    for name in ["mmap", "msync", "munmap"] {
        assert!(
            r.syscalls.iter().any(|(n, _, _)| n == name),
            "{name} missing from accounting: {:?}",
            r.syscalls
        );
    }
    // msync forced four blocks to disk.
    let writes: u64 = r.backend.disk_ops.iter().map(|d| d.1).sum();
    assert!(writes >= 4 * 8, "msync must reach the disk");
}

#[test]
fn gettimeofday_reads_the_simulated_clock() {
    sim(|cpu: &mut CpuCtx| {
        let t1 = match cpu.os_call(OsCall::GetTime) {
            Ok(SysVal::Time(t)) => t,
            other => panic!("{other:?}"),
        };
        cpu.compute(50_000);
        let t2 = match cpu.os_call(OsCall::GetTime) {
            Ok(SysVal::Time(t)) => t,
            other => panic!("{other:?}"),
        };
        assert!(t2 >= t1 + 50_000, "clock must track simulated time");
    });
}

#[test]
fn file_ops_on_sockets_and_vice_versa_fail() {
    sim(|cpu: &mut CpuCtx| {
        let lfd = match cpu.os_call(OsCall::Listen { port: 99 }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("{other:?}"),
        };
        let buf = cpu.malloc(64);
        assert_eq!(
            cpu.os_call(OsCall::Read {
                fd: lfd,
                len: 8,
                buf
            }),
            Err(Errno::NotSock)
        );
        assert_eq!(
            cpu.os_call(OsCall::Seek { fd: lfd, off: 0 }),
            Err(Errno::NotSock)
        );
        let ffd = open(cpu, "/small", false);
        assert_eq!(
            cpu.os_call(OsCall::Recv {
                fd: ffd,
                len: 8,
                buf
            }),
            Err(Errno::NotSock)
        );
        assert_eq!(
            cpu.os_call(OsCall::Accept { lfd: ffd }),
            Err(Errno::NotSock)
        );
    });
}
