//! A virtually-indexed shadow of one CPU's L1 tag state.
//!
//! The simulator itself no longer uses it: every reference crosses the
//! communicator and is answered by the real [`crate::Hierarchy`]. It remains
//! because the benchmark's `arch.mirror_access_ns` probe times it.

use crate::cache::{Cache, LineState};
use crate::config::CacheConfig;

/// A virtually-indexed shadow of one CPU's private L1, kept for the
/// benchmark's `arch.mirror_access_ns` probe.
///
/// Reuses the backend's [`Cache`] state machine with the same geometry and
/// LRU policy as the real L1, so self-inflicted capacity evictions track
/// closely; external state changes (coherence, context switches) are not
/// seen.
pub struct L1Mirror {
    cache: Cache,
}

impl L1Mirror {
    /// Builds a mirror with the real L1's geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            cache: Cache::new(cfg),
        }
    }

    /// One reference at virtual address `va`. Returns `true` if the line
    /// was already resident with sufficient permission — i.e. the real L1
    /// would serve the access at the fixed hit latency — and then updates
    /// the shadow to reflect the post-access state (the line resident,
    /// writable if this or any earlier reference wrote it).
    ///
    /// Loads predict a hit on any resident state; stores only on a
    /// writable (Exclusive/Modified) line — a store to a Shared line is a
    /// directory upgrade.
    pub fn access(&mut self, va: u64, write: bool) -> bool {
        let idx = self.cache.line_of(va);
        match self.cache.probe(idx) {
            Some(st) => {
                if write && !st.writable() {
                    // Model the upgrade the real access performs.
                    self.cache.set_state(idx, LineState::Modified);
                    false
                } else {
                    if write && st == LineState::Exclusive {
                        self.cache.set_state(idx, LineState::Modified);
                    }
                    true
                }
            }
            None => {
                // Optimistic fill: assume the common private-data grant
                // (Exclusive, so a later store also hits).
                let state = if write {
                    LineState::Modified
                } else {
                    LineState::Exclusive
                };
                let _ = self.cache.insert(idx, state);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mirror() -> L1Mirror {
        L1Mirror::new(CacheConfig {
            size: 1024,
            assoc: 2,
            line: 32,
        })
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut m = mirror();
        assert!(!m.access(0x1000, false));
        assert!(m.access(0x1000, false));
        assert!(m.access(0x1008, false), "same line");
    }

    #[test]
    fn store_after_load_fill_hits() {
        // Optimistic Exclusive grant on a load fill: the following store
        // is a silent E->M upgrade, exactly like the real L1.
        let mut m = mirror();
        assert!(!m.access(0x2000, false));
        assert!(m.access(0x2000, true));
        assert!(m.access(0x2000, true));
    }

    #[test]
    fn capacity_evictions_track_geometry() {
        let mut m = mirror(); // 16 sets x 2 ways, 32 B lines
        let stride = 16 * 32; // same set
        m.access(0x0, false);
        m.access(stride, false);
        m.access(0x0, false); // refresh LRU
        m.access(2 * stride, false); // evicts `stride`
        assert!(m.access(0x0, false));
        assert!(!m.access(stride, false), "evicted line predicts miss");
    }
}
