//! Aggregated memory-system statistics.

/// Execution class of an access, for Table-1-style attribution.
/// (Mirrors the communicator's `ExecMode`; the arch crate keeps its own
/// copy to stay at the bottom of the crate DAG.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Application code.
    User = 0,
    /// Kernel (category-1 OS server) code.
    Kernel = 1,
    /// Interrupt-handler code.
    Interrupt = 2,
}

impl AccessClass {
    /// All classes.
    pub const ALL: [AccessClass; 3] = [
        AccessClass::User,
        AccessClass::Kernel,
        AccessClass::Interrupt,
    ];

    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Counters accumulated by the memory hierarchy, split by access class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Accesses per class.
    pub accesses: [u64; 3],
    /// L1 hits per class.
    pub l1_hits: [u64; 3],
    /// L2 hits per class (of accesses that missed L1).
    pub l2_hits: [u64; 3],
    /// COMA attraction-memory hits per class.
    pub am_hits: [u64; 3],
    /// Accesses whose line's home was remote (a different node).
    pub remote_accesses: [u64; 3],
    /// Accesses served entirely on the local node.
    pub local_accesses: [u64; 3],
    /// Total memory latency charged, per class (cycles).
    pub latency: [u64; 3],
    /// Cache-to-cache transfers observed.
    pub forwards: u64,
    /// Invalidation messages delivered to caches.
    pub invalidations_delivered: u64,
    /// Software-DSM page faults taken.
    pub dsm_faults: u64,
    /// Software-DSM bytes moved.
    pub dsm_bytes: u64,
}

impl MemStats {
    /// Total accesses across classes.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Overall L1 miss ratio.
    pub fn l1_miss_ratio(&self) -> f64 {
        let acc: u64 = self.accesses.iter().sum();
        let hits: u64 = self.l1_hits.iter().sum();
        if acc == 0 {
            0.0
        } else {
            (acc - hits) as f64 / acc as f64
        }
    }

    /// Fraction of accesses whose home was remote.
    pub fn remote_fraction(&self) -> f64 {
        let r: u64 = self.remote_accesses.iter().sum();
        let l: u64 = self.local_accesses.iter().sum();
        if r + l == 0 {
            0.0
        } else {
            r as f64 / (r + l) as f64
        }
    }

    /// Mean access latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        let acc = self.total_accesses();
        if acc == 0 {
            0.0
        } else {
            self.latency.iter().sum::<u64>() as f64 / acc as f64
        }
    }

    /// Serializes every counter.
    /// Nothing in the simulator reads or writes it: only the benchmark's
    /// checkpoint probe does, and it goes with that probe (ROADMAP item 1a).
    pub fn encode_snapshot(&self, w: &mut compass_snap::Writer) {
        for arr in [
            &self.accesses,
            &self.l1_hits,
            &self.l2_hits,
            &self.am_hits,
            &self.remote_accesses,
            &self.local_accesses,
            &self.latency,
        ] {
            for &f in arr {
                w.u64(f);
            }
        }
        for f in [
            self.forwards,
            self.invalidations_delivered,
            self.dsm_faults,
            self.dsm_bytes,
        ] {
            w.u64(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_on_empty_stats_are_zero() {
        let s = MemStats::default();
        assert_eq!(s.l1_miss_ratio(), 0.0);
        assert_eq!(s.remote_fraction(), 0.0);
        assert_eq!(s.mean_latency(), 0.0);
    }

    #[test]
    fn class_indices_are_dense() {
        for (i, c) in AccessClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
