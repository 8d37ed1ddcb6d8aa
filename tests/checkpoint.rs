//! Deterministic checkpoint/restore end to end (ISSUE 8).
//!
//! A checkpointed run records every architecture-model outcome plus a
//! hierarchy snapshot at quiesced cuts; a resumed run re-executes the
//! workload live, feeds the models from the stream under the
//! resume-identity oracle, swaps the snapshot in at the cut, and must
//! finish with **bit-identical** `BackendStats` — at every combination
//! transport setting (batch depth), because those are stats-neutral by
//! construction. Fast-forward skips
//! the timing models during warmup, so a long run becomes
//! checkpoint-warm-then-measure; timing-independent counters must agree
//! with a cold run. Corrupt checkpoints must error, never panic.

use compass::{ArchConfig, CpuCtx, RunError, RunReport, SimBuilder, VAddr, VmFaultKind};
use compass_backend::BackendStats;
use compass_os::fs::FileData;
use compass_os::{OsCall, SysVal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// A seeded, timing-independent chaos body: private and locked shared
/// memory, file reads and writes, compute, and a trailing barrier. The
/// op sequence depends only on `(seed, rank)`, so every transport knob
/// and every checkpoint mode sees the same instruction stream.
fn chaos(seed: u64, rank: u16, nprocs: u16, steps: u32) -> impl FnMut(&mut CpuCtx) + Send {
    move |cpu: &mut CpuCtx| {
        let mut rng = StdRng::seed_from_u64(seed ^ ((rank as u64 + 1) * 0x9E37_79B9));
        let seg = cpu.shmget(0xCC9, 8 * 4096);
        let base = cpu.shmat(seg);
        let heap = cpu.malloc_pages(8 * 4096);
        let buf = cpu.malloc_pages(4096);
        let fd = match cpu.os_call(OsCall::Open {
            path: "/ckpt.dat".into(),
            create: false,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("open: {other:?}"),
        };
        let wfd = match cpu.os_call(OsCall::Open {
            path: format!("/ckpt.out{rank}"),
            create: true,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("create: {other:?}"),
        };
        for step in 0..steps {
            match rng.gen_range(0..8u32) {
                0..=2 => {
                    let a = heap + rng.gen_range(0..8 * 4096 - 8);
                    if rng.gen_bool(0.5) {
                        cpu.load(a, 8);
                    } else {
                        cpu.store(a, 8);
                    }
                }
                3 => {
                    cpu.lock(base);
                    cpu.store(base + 128 + (rank as u32 % 8) * 64, 8);
                    cpu.unlock(base);
                }
                4..=5 => {
                    let off = rng.gen_range(0..60u64) * 1024;
                    match cpu.os_call(OsCall::ReadAt {
                        fd,
                        off,
                        len: 1024,
                        buf,
                    }) {
                        Ok(SysVal::Data(_)) => {}
                        other => panic!("read: {other:?}"),
                    }
                }
                6 => {
                    let data = vec![rank as u8; 256];
                    match cpu.os_call(OsCall::Write { fd: wfd, data, buf }) {
                        Ok(SysVal::Int(256)) => {}
                        other => panic!("write: {other:?}"),
                    }
                }
                _ => cpu.compute(60 + (step as u64 % 11) * 9),
            }
        }
        cpu.barrier(base + 64, nprocs);
        let _ = cpu.os_call(OsCall::Close { fd: wfd });
        let _ = cpu.os_call(OsCall::Close { fd });
    }
}

#[derive(Clone, Copy)]
enum Ckpt<'a> {
    Off,
    Record(&'a Path),
    Resume(&'a Path),
}

fn builder(nprocs: u16, steps: u32, depth: usize) -> SimBuilder {
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).prepare_kernel(|k| {
        k.create_file("/ckpt.dat", FileData::Synthetic { len: 64 * 1024 });
    });
    for rank in 0..nprocs {
        b = b.add_process(chaos(0xC0FFEE, rank, nprocs, steps));
    }
    b.config_mut().backend.batch_depth = depth;
    b.config_mut().backend.timer_interval = Some(500_000);
    b.config_mut().backend.deadlock_ms = 10_000;
    b
}

fn run(depth: usize, ckpt: Ckpt) -> RunReport {
    let mut b = builder(3, 40, depth);
    b = match ckpt {
        Ckpt::Off => b,
        Ckpt::Record(p) => b.checkpoint_every(700, p),
        Ckpt::Resume(p) => b.resume(p),
    };
    b.run()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("compass-ckpt-{}-{name}.ckpt", std::process::id()))
}

fn assert_bit_identical(a: &BackendStats, b: &BackendStats, what: &str) {
    assert_eq!(
        format!("{a:#?}"),
        format!("{b:#?}"),
        "{what}: BackendStats are not bit-identical"
    );
}

/// Cold vs record vs resume across depth {1,16}: all bit-identical.
#[test]
fn resume_is_bit_identical_across_the_knob_matrix() {
    let cold = run(1, Ckpt::Off);
    for depth in [1usize, 16] {
        let what = format!("depth={depth}");
        let path = tmp(&format!("mx-{depth}"));
        let _ = std::fs::remove_file(&path);
        let rec = run(depth, Ckpt::Record(&path));
        assert_bit_identical(&cold.backend, &rec.backend, &format!("record {what}"));
        assert!(path.exists(), "{what}: no cut was written");
        let res = run(depth, Ckpt::Resume(&path));
        assert_bit_identical(&cold.backend, &res.backend, &format!("resume {what}"));
        let _ = std::fs::remove_file(&path);
    }
}

/// A checkpoint recorded under one set of transport knobs resumes
/// bit-identically under a different set (the stream is
/// transport-invariant).
#[test]
fn resume_under_different_knobs_is_bit_identical() {
    let cold = run(1, Ckpt::Off);
    let path = tmp("knobs");
    let _ = std::fs::remove_file(&path);
    let _ = run(1, Ckpt::Record(&path));
    assert!(path.exists());
    let res = run(16, Ckpt::Resume(&path));
    assert_bit_identical(&cold.backend, &res.backend, "resume under flipped knobs");
    let _ = std::fs::remove_file(&path);
}

/// A wild access after the cut aborts the recording run with a
/// structured error (not a panic, not a deadlock); the checkpoint
/// written before the abort resumes cleanly once the bug is "fixed".
#[test]
fn resume_mid_soak_after_injected_abort() {
    let wild_after = |wild: bool, ckpt: Ckpt| {
        let mut b = builder(2, 40, 1);
        b = b.add_process(move |cpu: &mut CpuCtx| {
            let heap = cpu.malloc_pages(4 * 4096);
            for i in 0..600u32 {
                cpu.store(heap + (i % (4 * 4096 - 8)), 8);
            }
            if wild {
                // Below TEXT_BASE: the null-guard region, never mappable.
                cpu.load(VAddr(0x100), 8);
            }
        });
        b = match ckpt {
            Ckpt::Off => b,
            Ckpt::Record(p) => b.checkpoint_every(400, p),
            Ckpt::Resume(p) => b.resume(p),
        };
        b.try_run()
    };
    let path = tmp("abort");
    let _ = std::fs::remove_file(&path);
    let err = wild_after(true, Ckpt::Record(&path)).expect_err("wild access must abort the run");
    match &err {
        RunError::WildAccess { report } => {
            assert_eq!(
                report.fault.kind,
                VmFaultKind::Wild(compass_mem::Region::Unmapped)
            );
            assert_eq!(report.fault.va, VAddr(0x100));
            assert!(err.to_string().contains("wild access"));
        }
        other => panic!("expected WildAccess, got {other}"),
    }
    assert!(path.exists(), "a cut must have landed before the abort");
    // Same workload with the wild access removed: the pre-cut stream is
    // unchanged, so the resume replays it, swaps the snapshot in, and
    // completes cleanly.
    let report = wild_after(false, Ckpt::Resume(&path)).expect("resume after abort must complete");
    assert!(report.backend.mem.total_accesses() > 0);
    let _ = std::fs::remove_file(&path);
}

/// Fast-forward skips the timing models but not the functional work:
/// frontend event counts, OS calls, written bytes, and barrier episodes
/// match a cold run; memory-model traffic shrinks.
#[test]
fn fast_forward_matches_cold_on_timing_independent_counters() {
    let cold = run(1, Ckpt::Off);
    let mut b = builder(3, 40, 1);
    b = b.fast_forward(2_000);
    let ff = b.run();
    for (pid, (a, b)) in cold.frontends.iter().zip(&ff.frontends).enumerate() {
        assert_eq!(
            a.events, b.events,
            "frontend event count differs, pid {pid}"
        );
        assert_eq!(a.os_calls, b.os_calls, "os_call count differs, pid {pid}");
    }
    assert_eq!(cold.fs_write_bytes, ff.fs_write_bytes);
    assert_eq!(cold.backend.sync.barriers, ff.backend.sync.barriers);
    assert!(
        ff.backend.mem.total_accesses() < cold.backend.mem.total_accesses(),
        "fast-forward must skip architecture-model accesses \
         (ff {} vs cold {})",
        ff.backend.mem.total_accesses(),
        cold.backend.mem.total_accesses()
    );
}

/// The paper's long-run recipe: fast-forward the warmup, checkpoint,
/// then measure. A resumed run re-executes the same warmup and must be
/// bit-identical to the recording run.
#[test]
fn fast_forward_then_checkpoint_then_resume_is_bit_identical() {
    let path = tmp("ffck");
    let _ = std::fs::remove_file(&path);
    let mut b = builder(3, 40, 1);
    b = b.fast_forward(300).checkpoint_every(300, &path);
    let rec = b.run();
    assert!(path.exists(), "no cut written after warmup");
    let mut b = builder(3, 40, 1);
    b = b.resume(&path);
    let res = b.run();
    assert_bit_identical(&rec.backend, &res.backend, "ff+checkpoint resume");
    let _ = std::fs::remove_file(&path);
}

/// Corrupted, truncated, missing, and wrong-architecture checkpoints all
/// come back as structured `RunError::Checkpoint` — never a panic.
#[test]
fn corrupt_checkpoints_error_instead_of_panicking() {
    let path = tmp("corrupt");
    let _ = std::fs::remove_file(&path);
    let _ = run(1, Ckpt::Record(&path));
    let frame = std::fs::read(&path).expect("checkpoint written");

    let expect_ckpt_err = |bytes: &[u8], what: &str| {
        let bad = tmp("corrupt-bad");
        std::fs::write(&bad, bytes).unwrap();
        let err = builder(3, 40, 1)
            .resume(&bad)
            .try_run()
            .expect_err(&format!("{what} must fail"));
        assert!(
            matches!(err, RunError::Checkpoint { .. }),
            "{what}: expected RunError::Checkpoint, got {err}"
        );
        let _ = std::fs::remove_file(&bad);
    };

    // Truncations at several depths, including an empty file.
    for len in [0, 1, 7, frame.len() / 2, frame.len() - 1] {
        expect_ckpt_err(&frame[..len], &format!("truncation to {len} bytes"));
    }
    // Byte flips across the frame (header, records, snapshot, checksum).
    for i in [0, 8, 13, frame.len() / 2, frame.len() - 1] {
        let mut bad = frame.clone();
        bad[i] ^= 0x01;
        expect_ckpt_err(&bad, &format!("byte flip at {i}"));
    }
    // Garbage that is not a frame at all.
    expect_ckpt_err(b"not a checkpoint", "garbage file");
    // Missing file.
    let missing = builder(3, 40, 1)
        .resume(tmp("never-written"))
        .try_run()
        .expect_err("missing checkpoint must fail");
    assert!(matches!(missing, RunError::Checkpoint { .. }));
    // Wrong architecture: same workload on an SMP instead of ccNUMA.
    let mut b = SimBuilder::new(ArchConfig::simple_smp(4)).prepare_kernel(|k| {
        k.create_file("/ckpt.dat", FileData::Synthetic { len: 64 * 1024 });
    });
    for rank in 0..3 {
        b = b.add_process(chaos(0xC0FFEE, rank, 3, 40));
    }
    b.config_mut().backend.deadlock_ms = 10_000;
    let err = b
        .resume(&path)
        .try_run()
        .expect_err("arch mismatch must fail");
    match &err {
        RunError::Checkpoint { msg } => {
            assert!(msg.contains("architecture"), "unhelpful message: {msg}")
        }
        other => panic!("expected Checkpoint, got {other}"),
    }
    let _ = std::fs::remove_file(&path);
}
