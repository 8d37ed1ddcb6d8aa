//! Crash-resumable soak state.
//!
//! A soak run with `--resume DIR` persists `DIR/soak.state`: a tiny
//! `key=value` file with the next seed, the running checked/failed
//! tallies, and the seed currently in flight, atomically rewritten
//! (tmp + rename) around every scenario.
//!
//! If the soak process dies (OOM kill, ^C, host reboot), restarting with
//! the same `--resume DIR` continues instead of starting over: the
//! interrupted seed is re-run from scratch — the simulation is
//! deterministic, so a re-run is an exact resume — and the soak then
//! proceeds with the following seeds. The tallies only ever grow.

use crate::check;
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

/// Checks one seed resumably: marks it in flight in `dir` and clears the
/// marker once the check stack completes. Returns the check failures.
pub fn check_seed(dir: &Path, state: &mut SoakState, seed: u64) -> Vec<String> {
    state.inflight = Some(seed);
    state.next_seed = seed;
    state.save(dir).expect("soak state must be writable");
    let failures = check::check_scenario(&Scenario::from_seed(seed));
    state.inflight = None;
    state.next_seed = seed + 1;
    state.checked += 1;
    if !failures.is_empty() {
        state.failed += 1;
    }
    state.save(dir).expect("soak state must be writable");
    failures
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
}
