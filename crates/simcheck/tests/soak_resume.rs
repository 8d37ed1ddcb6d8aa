//! The soak harness must survive being killed: `--resume DIR` continues
//! from the last persisted state. The seed that was in flight is re-run
//! from scratch (the simulation is deterministic, so a re-run is an
//! exact resume), the restart says so, and the tallies never move
//! backwards.
//!
//! The test spawns the real `simcheck` binary, SIGKILLs it mid-soak, and
//! restarts it with the same `--resume` directory.

use compass_simcheck::soak::SoakState;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("compass-soak-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Restarts a soak over `dir` and returns its stdout and the state it
/// leaves behind.
fn restart(dir: &std::path::Path) -> (String, SoakState) {
    let out = Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .args(["--soak", "2", "--no-shrink", "--resume"])
        .arg(dir)
        .output()
        .expect("re-run simcheck");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "resumed soak failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let state = SoakState::load(dir).expect("state survives the restart");
    (stdout, state)
}

/// The disk state a kill leaves behind mid-seed — a state file marking
/// the seed in flight — is picked up deterministically: the restart
/// re-runs that seed first and counts it once.
#[test]
fn an_interrupted_seed_is_rerun_and_counted_once() {
    let dir = tmpdir("inflight");
    let before = SoakState {
        next_seed: 3,
        checked: 3,
        failed: 0,
        inflight: Some(3),
    };
    before.save(&dir).unwrap();
    let (stdout, after) = restart(&dir);
    assert!(
        stdout.contains("in-flight seed 3 was interrupted; rerunning"),
        "no rerun line in:\n{stdout}"
    );
    assert_eq!(after.inflight, None, "the restart exited cleanly");
    assert_eq!(after.failed, 0);
    // Seed 3 and every later seed the restart checked count once each.
    assert_eq!(after.checked, 3 + (after.next_seed - 3));
    assert!(after.next_seed > 3, "the interrupted seed was not re-run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills a real soak run mid-flight and restarts it with the same state
/// directory: the second incarnation must continue from the persisted
/// seed counter (re-running the interrupted seed), finish cleanly, and
/// extend — never rewind — the progress tallies.
#[test]
fn killed_soak_binary_resumes_where_it_died() {
    let dir = tmpdir("killed");
    let mut child = Command::new(env!("CARGO_BIN_EXE_simcheck"))
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

    let (stdout, after) = restart(&dir);
    if let Some(seed) = before.inflight {
        // The kill landed mid-seed: the restart must say it re-runs it.
        assert!(
            stdout.contains(&format!("in-flight seed {seed} was interrupted; rerunning")),
            "no rerun line in:\n{stdout}"
        );
    }
    assert!(after.inflight.is_none(), "second run exited cleanly");
    assert!(
        after.next_seed > before.next_seed,
        "progress went backwards or stalled: {before:?} -> {after:?}"
    );
    assert!(
        after.checked > before.checked && after.failed >= before.failed,
        "tallies went backwards: {before:?} -> {after:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
