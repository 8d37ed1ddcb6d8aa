//! The soak harness must survive being killed: `--resume DIR` continues
//! from the last persisted state, resuming the in-flight seed's baseline
//! from its checkpoint cut and diffing it against an uninterrupted twin.
//!
//! Two layers:
//!
//! * a deterministic in-process test that manufactures exactly the
//!   post-kill disk state (a cut file + an `inflight` marker) and runs
//!   the resume path directly, asserting the resumed baseline's stats
//!   match the uninterrupted twin field for field;
//! * a process-level test that spawns the real `simcheck` binary,
//!   SIGKILLs it mid-soak, and restarts it with the same `--resume`
//!   directory, asserting the second incarnation picks up where the
//!   first died instead of starting over.

use compass_simcheck::check::{run_scenario_ckpt, CkptMode};
use compass_simcheck::soak::{self, SoakState};
use compass_simcheck::Scenario;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("compass-soak-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Records a seed's baseline with checkpoint cuts, as the resumable soak
/// does; returns true when at least one cut landed (i.e. the run served
/// >= 500 events, so there is something to resume from).
fn record_baseline_with_cuts(dir: &std::path::Path, seed: u64) -> bool {
    let sc = Scenario::from_seed(seed);
    let ckpt = soak::inflight_ckpt(dir);
    run_scenario_ckpt(
        &sc,
        1,
        false,
        false,
        sc.os_batch,
        sc.disk_wake,
        CkptMode::Record {
            every: 500,
            path: &ckpt,
        },
    )
    .expect("baseline must complete");
    ckpt.exists()
}

/// The satellite's core assertion: a baseline continued from its last
/// checkpoint cut produces `BackendStats` identical to an uninterrupted
/// twin of the same scenario. The disk state here is exactly what a
/// SIGKILL between two cuts leaves behind (state file marking the seed
/// in flight + the latest cut), so this is the deterministic version of
/// the process-kill test below.
#[test]
fn resumed_inflight_seed_matches_uninterrupted_twin() {
    let dir = tmpdir("inprocess");
    // Find the first seed whose baseline is long enough to cut at least
    // one checkpoint; scanning keeps the test robust to scenario-space
    // reshuffles without pinning a magic seed.
    let seed = (0..50)
        .find(|&s| record_baseline_with_cuts(&dir, s))
        .expect("some seed within 0..50 must serve >= 500 events");
    SoakState {
        next_seed: seed,
        checked: 0,
        failed: 0,
        inflight: Some(seed),
    }
    .save(&dir)
    .unwrap();

    let (resumed, failures) = soak::resume_inflight(&dir, seed);
    assert!(resumed, "a cut existed, so the resume path must engage");
    assert!(
        failures.is_empty(),
        "resumed baseline diverged from its uninterrupted twin:\n{}",
        failures.join("\n")
    );
    // The cut is consumed either way; a later resume has nothing to do.
    let (resumed_again, _) = soak::resume_inflight(&dir, seed);
    assert!(!resumed_again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills a real soak run mid-flight and restarts it with the same state
/// directory: the second incarnation must continue from the persisted
/// seed counter (resuming or rerunning the interrupted seed), finish
/// cleanly, and extend — never rewind — the progress tallies.
#[test]
fn killed_soak_binary_resumes_where_it_died() {
    let exe = env!("CARGO_BIN_EXE_simcheck");
    let dir = tmpdir("killed");

    let mut child = Command::new(exe)
        .args(["--soak", "20", "--no-shrink", "--resume"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn simcheck");
    // Let it get at least one scenario in flight, then SIGKILL it —
    // no destructors, exactly the OOM-kill shape the soak must survive.
    let mut state_seen = None;
    for _ in 0..600 {
        std::thread::sleep(Duration::from_millis(50));
        state_seen = SoakState::load(&dir);
        if state_seen.is_some_and(|st| st.checked >= 1 || st.inflight.is_some()) {
            break;
        }
    }
    child.kill().expect("kill simcheck");
    let _ = child.wait();
    let before = SoakState::load(&dir)
        .or(state_seen)
        .expect("the killed soak must have persisted state");

    let out = Command::new(exe)
        .args(["--soak", "2", "--no-shrink", "--resume"])
        .arg(&dir)
        .output()
        .expect("re-run simcheck");
    assert!(
        out.status.success(),
        "resumed soak failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    if before.inflight.is_some() {
        // The kill landed mid-seed: the restart must say what it did
        // with the interrupted seed (resume from cut, or rerun when the
        // kill beat the first cut).
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("from its checkpoint cut") || stdout.contains("rerunning"),
            "no resume/rerun line in:\n{stdout}"
        );
    }
    let after = SoakState::load(&dir).expect("state survives the second run");
    assert!(after.inflight.is_none(), "second run exited cleanly");
    assert!(
        after.next_seed >= before.next_seed,
        "progress went backwards: {before:?} -> {after:?}"
    );
    assert!(after.checked > before.checked.saturating_sub(1));
    let _ = std::fs::remove_dir_all(&dir);
}
