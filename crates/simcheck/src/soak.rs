//! Crash-resumable soak state (ROADMAP item 3, last leftover).
//!
//! A soak run with `--resume DIR` persists two things into `DIR`:
//!
//! * `soak.state` — a tiny `key=value` file with the next seed, the
//!   running checked/failed tallies, and the seed currently in flight,
//!   atomically rewritten (tmp + rename) around every scenario;
//! * `inflight.ckpt` — checkpoint cuts of the in-flight seed's baseline
//!   run, rewritten every 500 serviced events by the engine's normal
//!   checkpoint machinery.
//!
//! If the soak process dies (OOM kill, ^C, host reboot), restarting with
//! the same `--resume DIR` continues instead of starting over: the
//! interrupted seed's baseline is **resumed from its last cut** under
//! the resume-identity oracle and diffed field-by-field against a fresh
//! uninterrupted twin of the same scenario — any divergence is reported
//! exactly like a differential failure — and the soak then proceeds with
//! the following seeds. A kill that lands before the first cut simply
//! reruns the seed from scratch.

use crate::check::{self, CkptMode};
use crate::diff;
use crate::scenario::Scenario;
use std::path::{Path, PathBuf};

/// Persistent progress of a resumable soak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoakState {
    /// First seed the next scenario loop iteration should check.
    pub next_seed: u64,
    /// Scenarios completed so far (across all incarnations).
    pub checked: u64,
    /// Failures recorded so far (across all incarnations).
    pub failed: u64,
    /// Seed whose check stack was running when the state was written
    /// (`None` between scenarios).
    pub inflight: Option<u64>,
}

/// The state file inside a soak directory.
pub fn state_path(dir: &Path) -> PathBuf {
    dir.join("soak.state")
}

/// The in-flight baseline's checkpoint file inside a soak directory.
pub fn inflight_ckpt(dir: &Path) -> PathBuf {
    dir.join("inflight.ckpt")
}

impl SoakState {
    /// Loads the state file from `dir`; `None` when absent or malformed
    /// (a malformed file means a torn write from a mid-rename kill of
    /// the *tmp* file — the soak then conservatively starts over).
    pub fn load(dir: &Path) -> Option<SoakState> {
        let text = std::fs::read_to_string(state_path(dir)).ok()?;
        let mut st = SoakState::default();
        let mut keys = 0u8;
        for line in text.lines() {
            let (k, v) = line.split_once('=')?;
            match k {
                "next_seed" => st.next_seed = v.parse().ok()?,
                "checked" => st.checked = v.parse().ok()?,
                "failed" => st.failed = v.parse().ok()?,
                "inflight" => {
                    st.inflight = match v {
                        "none" => None,
                        s => Some(s.parse().ok()?),
                    }
                }
                _ => return None,
            }
            keys += 1;
        }
        // A torn or truncated file must read as "no state", not as a
        // soak that silently restarts from seed 0.
        (keys == 4).then_some(st)
    }

    /// Atomically writes the state file into `dir` (created if missing).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let body = format!(
            "next_seed={}\nchecked={}\nfailed={}\ninflight={}\n",
            self.next_seed,
            self.checked,
            self.failed,
            self.inflight.map_or("none".into(), |s| s.to_string()),
        );
        let tmp = dir.join("soak.state.tmp");
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, state_path(dir))
    }
}

/// Checks one seed resumably: marks it in flight, cuts baseline
/// checkpoints into `dir`, and clears the in-flight marker (and cut
/// file) once the check stack completes. Returns the check failures.
pub fn check_seed(dir: &Path, state: &mut SoakState, seed: u64) -> Vec<String> {
    state.inflight = Some(seed);
    state.next_seed = seed;
    state.save(dir).expect("soak state must be writable");
    let ckpt = inflight_ckpt(dir);
    let _ = std::fs::remove_file(&ckpt);
    let sc = Scenario::from_seed(seed);
    let failures = check::check_scenario_with_soak_ckpt(&sc, Some(&ckpt));
    state.inflight = None;
    state.next_seed = seed + 1;
    state.checked += 1;
    if !failures.is_empty() {
        state.failed += 1;
    }
    state.save(dir).expect("soak state must be writable");
    let _ = std::fs::remove_file(&ckpt);
    failures
}

/// Continues a killed soak's in-flight seed from its last checkpoint
/// cut: the baseline is resumed under the resume-identity oracle and
/// diffed field-by-field against a fresh uninterrupted twin of the same
/// scenario. Returns `(resumed_from_cut, failures)`; when no cut landed
/// before the kill there is nothing to resume and the caller reruns the
/// seed from scratch (`resumed_from_cut = false`, no failures).
pub fn resume_inflight(dir: &Path, seed: u64) -> (bool, Vec<String>) {
    let ckpt = inflight_ckpt(dir);
    if !ckpt.exists() {
        return (false, Vec::new());
    }
    let sc = Scenario::from_seed(seed);
    let mut failures = Vec::new();
    let resumed = check::run_scenario_ckpt(&sc, 1, false, false, CkptMode::Resume { path: &ckpt });
    match resumed {
        Ok(resumed) => {
            // The uninterrupted twin: the same scenario run cold, start
            // to finish. Resume replays the pre-cut stream, swaps the
            // snapshot in, and continues live, so the two must agree on
            // every backend statistic.
            match check::run_scenario(&sc, 1, false, false) {
                Ok(twin) => {
                    for d in diff::diff_backend_stats(&twin.backend, &resumed.backend) {
                        failures.push(format!(
                            "resumed soak baseline vs uninterrupted twin (seed {seed}): {d}"
                        ));
                    }
                }
                Err(e) => failures.push(format!("uninterrupted twin deadlocked: {e}")),
            }
        }
        Err(e) => failures.push(format!("soak resume from cut failed (seed {seed}): {e}")),
    }
    let _ = std::fs::remove_file(&ckpt);
    (true, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("compass-soak-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn state_round_trips_atomically() {
        let dir = tmpdir("state");
        assert!(SoakState::load(&dir).is_none());
        let st = SoakState {
            next_seed: 17,
            checked: 16,
            failed: 2,
            inflight: Some(17),
        };
        st.save(&dir).unwrap();
        assert_eq!(SoakState::load(&dir), Some(st));
        let done = SoakState {
            inflight: None,
            ..st
        };
        done.save(&dir).unwrap();
        assert_eq!(SoakState::load(&dir), Some(done));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_state_is_rejected_not_misread() {
        let dir = tmpdir("malformed");
        std::fs::create_dir_all(&dir).unwrap();
        for bad in ["", "next_seed=", "nonsense\n", "next_seed=3\nbogus_key=1\n"] {
            std::fs::write(state_path(&dir), bad).unwrap();
            assert_eq!(SoakState::load(&dir), None, "accepted {bad:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_no_cut_reports_nothing_to_resume() {
        let dir = tmpdir("nocut");
        std::fs::create_dir_all(&dir).unwrap();
        let (resumed, failures) = resume_inflight(&dir, 0);
        assert!(!resumed);
        assert!(failures.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
