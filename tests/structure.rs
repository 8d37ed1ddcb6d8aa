//! F1 — the COMPASS structure (paper Figure 1): frontend application
//! processes + OS server + backend simulation process, glued by the
//! communicator. These tests drive the full assembly end to end.

use compass::{ArchConfig, CpuCtx, SimBuilder};
use compass_isa::SegId;
use compass_mem::VAddr;
use compass_os::fs::FileData;
use compass_os::{OsCall, SysVal};

#[test]
fn single_process_compute_only() {
    let b = SimBuilder::new(ArchConfig::simple_smp(1)).add_process(|cpu: &mut CpuCtx| {
        cpu.compute(10_000);
        let a = cpu.malloc(256);
        for i in 0..32 {
            cpu.store(a + i * 8, 8);
        }
        for i in 0..32 {
            cpu.load(a + i * 8, 8);
        }
    });
    let r = b.run();
    // Every frontend event reached the backend, plus the kernel daemon's
    // own Start/Block events.
    assert!(r.backend.events >= r.frontends[0].events + 2);
    assert!(r.backend.global_cycles >= 10_000);
    // 32 stores + 32 loads reached the memory system.
    assert_eq!(r.backend.mem.total_accesses(), 64);
    // Everything ran in user mode.
    assert_eq!(r.backend.procs[0].by_mode[1], 0);
}

#[test]
fn multiple_processes_interleave_deterministically() {
    fn build() -> compass::runner::RunReport {
        let mut b = SimBuilder::new(ArchConfig::simple_smp(2));
        for p in 0..3 {
            b = b.add_process(move |cpu: &mut CpuCtx| {
                let a = cpu.malloc(4096);
                for i in 0..200u32 {
                    cpu.store(a + (i * 16) % 4096, 8);
                    cpu.compute(10 + p);
                }
            });
        }
        b.run()
    }
    let r1 = build();
    let r2 = build();
    assert_eq!(
        r1.backend.global_cycles, r2.backend.global_cycles,
        "simulation must be deterministic"
    );
    assert_eq!(r1.backend.mem, r2.backend.mem);
    for (a, b) in r1.backend.procs.iter().zip(&r2.backend.procs) {
        assert_eq!(a, b);
    }
    // 3 processes on 2 CPUs: someone waited on the ready queue.
    assert!(r1.backend.procs.iter().any(|p| p.ready_wait > 0));
}

#[test]
fn simulated_locks_serialise_critical_sections() {
    use std::sync::{Arc, Mutex};
    let shared = Arc::new(Mutex::new(Vec::<(u32, u32)>::new()));
    let lock_addr = VAddr(0x7000_0000); // will land inside the shm segment
    let mut b = SimBuilder::new(ArchConfig::simple_smp(2));
    for p in 0..2u32 {
        let shared = Arc::clone(&shared);
        b = b.add_process(move |cpu: &mut CpuCtx| {
            let seg: SegId = cpu.shmget(42, 4096);
            let base = cpu.shmat(seg);
            assert_eq!(base, lock_addr);
            for i in 0..50u32 {
                cpu.lock(base);
                // Functional mutation inside the simulated critical
                // section: entries from one holder never interleave.
                shared.lock().unwrap().push((p, i));
                cpu.store(base + 64, 8);
                cpu.unlock(base);
                cpu.compute(100);
            }
        });
    }
    let r = b.run();
    assert_eq!(shared.lock().unwrap().len(), 100);
    assert!(r.backend.sync.uncontended + r.backend.sync.contended == 100);
}

#[test]
fn shm_pages_are_shared_between_processes() {
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 1));
    for _ in 0..2 {
        b = b.add_process(|cpu: &mut CpuCtx| {
            let seg = cpu.shmget(7, 8192);
            let base = cpu.shmat(seg);
            for i in 0..16 {
                cpu.store(base + i * 512, 8);
                cpu.load(base + i * 512, 8);
            }
            cpu.shmdt(seg);
        });
    }
    let r = b.run();
    // Cross-process sharing produced coherence traffic.
    assert!(r.backend.mem.invalidations_delivered > 0 || r.backend.mem.forwards > 0);
}

#[test]
fn file_reads_go_through_buffer_cache_and_disk() {
    let b = SimBuilder::new(ArchConfig::simple_smp(1))
        .prepare_kernel(|k| {
            k.create_file("/data", FileData::Synthetic { len: 64 * 1024 });
        })
        .add_process(|cpu: &mut CpuCtx| {
            let buf = cpu.malloc_pages(8192);
            let fd = match cpu.os_call(OsCall::Open {
                path: "/data".into(),
                create: false,
            }) {
                Ok(SysVal::NewFd(fd)) => fd,
                other => panic!("{other:?}"),
            };
            // Read the file twice: first pass misses, second pass hits.
            for _ in 0..2 {
                let _ = cpu.os_call(OsCall::Seek { fd, off: 0 });
                loop {
                    match cpu.os_call(OsCall::Read { fd, len: 8192, buf }) {
                        Ok(SysVal::Data(d)) if d.is_empty() => break,
                        Ok(SysVal::Data(_)) => {}
                        other => panic!("{other:?}"),
                    }
                }
            }
            let _ = cpu.os_call(OsCall::Close { fd });
        });
    let r = b.run();
    assert_eq!(r.bufcache.misses, 16, "64 KiB = 16 buffers, read once");
    assert!(r.bufcache.hits >= 16, "second pass must hit");
    assert_eq!(r.backend.disk_ops.iter().map(|d| d.0).sum::<u64>(), 16);
    // Kernel time exists and interrupt handlers ran.
    let kernel_cycles: u64 = r.backend.procs.iter().map(|p| p.by_mode[1]).sum();
    let intr_cycles: u64 = r.backend.procs.iter().map(|p| p.by_mode[2]).sum();
    assert!(kernel_cycles > 0);
    assert!(intr_cycles > 0);
    assert_eq!(r.backend.irq_dispatches[0], 16);
    // The process blocked for the disk.
    assert!(r.backend.procs[0].block_wait > 0);
}

#[test]
fn workspace_layout_and_feature_surface() {
    // The crate DAG the documentation promises: every member exists, and
    // the `check-invariants` feature is declared exactly by the members
    // whose code reads it (plus the root package's tests), so a
    // workspace-wide `--features check-invariants` build reaches every
    // audit and no member carries an option that changes nothing.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let members = [
        ("isa", false),
        ("mem", false),
        ("comm", true),
        ("arch", false),
        ("os", true),
        ("frontend", false),
        ("backend", true),
        ("core", true),
        ("workloads", false),
        ("bench", false),
        ("simcheck", true),
    ];
    for (m, reads_feature) in members {
        let manifest = root.join("crates").join(m).join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("workspace member crates/{m} missing: {e}"));
        assert_eq!(
            text.contains("check-invariants"),
            reads_feature,
            "crates/{m}/Cargo.toml: check-invariants is declared where it is read, only there"
        );
    }
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    assert!(root_manifest.contains("check-invariants"));
    // The checking harness ships a binary named `simcheck`.
    let simcheck = std::fs::read_to_string(root.join("crates/simcheck/Cargo.toml")).unwrap();
    assert!(simcheck.contains("name = \"simcheck\""));
    for src in ["scenario.rs", "oracle.rs", "diff.rs", "check.rs", "main.rs"] {
        assert!(
            root.join("crates/simcheck/src").join(src).exists(),
            "simcheck module {src} missing"
        );
    }
}

#[test]
fn the_engine_has_one_run_mode() {
    // Tasks are the engine's only posters: their blocking posts touch
    // their own index entries and run the engine themselves. So the
    // backend's code (each file up to its `#[cfg(test)]`) neither names
    // the notifier that posters on ordinary threads bump nor touches a
    // host thread.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/backend/src");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("crates/backend/src") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable source");
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for name in ["Notifier", "std::thread"] {
            assert!(
                !code.contains(name),
                "{}: names `{name}` outside its tests",
                path.display()
            );
        }
        files += 1;
    }
    assert!(files >= 10, "only {files} backend sources found");
}

#[test]
fn a_run_is_single_thread_state_on_the_calling_thread() {
    // `try_run` runs the executor and the engine inline, so the runner
    // touches no host thread, and the kernel and the device postbox are
    // plain single-thread state (`RefCell`/`Cell` behind an `Rc`): no
    // host lock or atomic in their code (each file up to its
    // `#[cfg(test)]`).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).expect("readable source");
        text.split("#[cfg(test)]")
            .next()
            .unwrap_or_default()
            .to_string()
    };
    let runner = root.join("crates/core/src/runner.rs");
    assert!(
        !code(&runner).contains("std::thread"),
        "{}: names `std::thread` outside its tests",
        runner.display()
    );
    let mut files = vec![root.join("crates/comm/src/devshared.rs")];
    for entry in std::fs::read_dir(root.join("crates/os/src")).expect("crates/os/src") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    assert!(files.len() >= 10, "only {} sources found", files.len());
    for path in &files {
        let code = code(path);
        for name in ["parking_lot", "Mutex", "Atomic"] {
            assert!(
                !code.contains(name),
                "{}: names `{name}` outside its tests",
                path.display()
            );
        }
    }
}

#[test]
fn engine_trace_recording_is_complete_and_ordered() {
    // The simcheck oracle's foundation (API surface asserted here, full
    // differential replay in crates/simcheck): SimBuilder::record_accesses
    // captures every architecture access in non-decreasing time order,
    // and the count matches the backend's own accounting.
    use compass_backend::TraceRecord;
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 1)).record_accesses();
    for _ in 0..2 {
        b = b.add_process(|cpu: &mut CpuCtx| {
            let seg = cpu.shmget(11, 4096);
            let base = cpu.shmat(seg);
            let heap = cpu.malloc(4096);
            for i in 0..64 {
                cpu.store(heap + (i % 32) * 128, 8);
                cpu.load(base + (i % 8) * 64, 8);
            }
        });
    }
    let r = b.run();
    let trace = r.access_trace.as_deref().expect("recording was on");
    assert!(!trace.is_empty(), "recorder captured nothing");
    let accesses = trace
        .iter()
        .filter(|t| matches!(t, TraceRecord::Access { .. }))
        .count() as u64;
    assert_eq!(
        accesses,
        r.backend.mem.total_accesses(),
        "every hierarchy access must be recorded exactly once"
    );
    let mut last = 0;
    for rec in trace.iter() {
        if let TraceRecord::Access { time, .. } = rec {
            assert!(*time >= last, "trace must be in global time order");
            last = *time;
        }
    }
    // Architecture-independent accounting reached the report.
    assert_eq!(r.fs_write_bytes, 0, "no file writes in this workload");
}

#[test]
fn file_writes_and_fsync_hit_the_disk() {
    let b = SimBuilder::new(ArchConfig::simple_smp(1)).add_process(|cpu: &mut CpuCtx| {
        let buf = cpu.malloc_pages(4096);
        let fd = match cpu.os_call(OsCall::Open {
            path: "/log".into(),
            create: true,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("{other:?}"),
        };
        for i in 0..4u8 {
            let data = vec![i; 4096];
            let _ = cpu.os_call(OsCall::Write { fd, data, buf }).unwrap();
        }
        cpu.os_call(OsCall::Fsync { fd }).unwrap();
        // Read back and verify content survived the cache.
        let _ = cpu.os_call(OsCall::Seek { fd, off: 4096 });
        match cpu.os_call(OsCall::Read { fd, len: 16, buf }) {
            Ok(SysVal::Data(d)) => assert_eq!(d, vec![1u8; 16]),
            other => panic!("{other:?}"),
        }
        let _ = cpu.os_call(OsCall::Close { fd });
    });
    let r = b.run();
    // fsync pushed 4 dirty buffers to disk.
    let (_ops, blocks): (u64, u64) = r
        .backend
        .disk_ops
        .iter()
        .fold((0, 0), |(o, bl), &(a, b)| (o + a, bl + b));
    assert!(blocks >= 4 * 8, "4 pages of 8 disk blocks written");
    assert!(r.syscalls.iter().any(|(n, c, _)| n == "kwritev" && *c == 4));
    assert!(r.syscalls.iter().any(|(n, _, _)| n == "fsync"));
}
