//! The least-time scanner's index: one min-tournament over the fixed
//! process slots.
//!
//! Every process slot holds one entry: its head event's effective-time
//! key while its port has one pending, its clock lower bound while it is
//! constraining with an empty ring, or nothing while it cannot post
//! (exited, or suspended on a held event). The least entry answers both
//! questions a step asks at once: if it is a pending key, that event is
//! the earliest and no bound precedes it — safe; if it is a bound, every
//! pending event is later and only a device task not after the bound may
//! run.
//!
//! Entries are packed into `u128`s whose integer order is [`Key`] order,
//! with the bound/pending flag in the lowest bit (below the pid, so it
//! never decides an order: pids are unique). The tree is a flat array
//! sized once: leaves at `n..2n`, node `j` the min of `2j` and `2j + 1`,
//! the overall minimum at node 1 — O(1) to read, and an update is one
//! leaf write plus ⌈log₂ n⌉ branch-free mins, with no allocation.

use compass_isa::Cycles;

/// A scan key `(time, rank, id)`. Device tasks are rank 0 and events
/// rank 1, so at equal times hardware acts before software observes;
/// the pid breaks the remaining ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key(pub Cycles, pub u8, pub u64);

/// One process slot's entry in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Indexed {
    /// Not scanned: exited, or suspended on a held event.
    Off,
    /// Head event pending at this effective-time key.
    Pending(Key),
    /// Constraining with an empty ring; clock lower bound.
    Bound(Cycles),
}

/// Bits of a packed key holding the pid.
const ID_BITS: u32 = 55;

/// Number of process slots the packing can name.
const MAX_SLOTS: usize = 1 << ID_BITS;

/// The empty slot: above every packed key (real keys have rank 1).
const EMPTY: u128 = u128::MAX;

/// Packs `k` so that `pack(a) < pack(b)` iff `a < b`: time in bits
/// 64..128, rank in 56..64, pid in 1..56; bit 0 is left for the bound
/// flag.
fn pack(k: Key) -> u128 {
    debug_assert!(k.2 < MAX_SLOTS as u64, "pid {} beyond the packing", k.2);
    (u128::from(k.0) << 64) | (u128::from(k.1) << 56) | (u128::from(k.2) << 1)
}

fn unpack(v: u128) -> (Key, bool) {
    let id = (v >> 1) as u64 & (MAX_SLOTS as u64 - 1);
    (Key((v >> 64) as u64, (v >> 56) as u8, id), v & 1 == 1)
}

/// The min-tournament over `n` process slots.
pub(crate) struct ScanIndex {
    n: usize,
    /// `tree[n + i]` is slot `i`; `tree[1]` the least entry.
    tree: Box<[u128]>,
    /// Leaf writes so far (`Ctr::ScanIndexUpdates`).
    writes: u64,
}

impl ScanIndex {
    /// An index over `n` slots, all [`Indexed::Off`]. Panics if a pid in
    /// `0..n` does not fit the packing.
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n <= MAX_SLOTS,
            "{n} processes exceed the scan index's {MAX_SLOTS} slots"
        );
        Self {
            n,
            tree: vec![EMPTY; 2 * n.max(1)].into_boxed_slice(),
            writes: 0,
        }
    }

    /// Slot `i`'s entry.
    pub(crate) fn get(&self, i: usize) -> Indexed {
        match self.tree[self.n + i] {
            EMPTY => Indexed::Off,
            v => match unpack(v) {
                (k, true) => Indexed::Bound(k.0),
                (k, false) => Indexed::Pending(k),
            },
        }
    }

    /// Sets slot `i`'s entry; a no-op when it is unchanged.
    pub(crate) fn set(&mut self, i: usize, e: Indexed) {
        let v = match e {
            Indexed::Off => EMPTY,
            Indexed::Pending(k) => pack(k),
            Indexed::Bound(b) => pack(Key(b, 1, i as u64)) | 1,
        };
        let mut j = self.n + i;
        if self.tree[j] == v {
            return;
        }
        self.tree[j] = v;
        self.writes += 1;
        while j > 1 {
            j >>= 1;
            self.tree[j] = self.tree[2 * j].min(self.tree[2 * j + 1]);
        }
    }

    /// The least entry's key — a bound `b` of slot `i` reads as
    /// `Key(b, 1, i)` — and whether it is a bound.
    pub(crate) fn first(&self) -> Option<(Key, bool)> {
        (self.tree[1] != EMPTY).then(|| unpack(self.tree[1]))
    }

    /// The least entry among every slot but `i`, read like [`Self::first`]:
    /// the min over the siblings on `i`'s path to the root, in
    /// ⌈log₂ n⌉ reads. Slot `i`'s own entry may be stale.
    pub(crate) fn first_excluding(&self, i: usize) -> Option<(Key, bool)> {
        let mut j = self.n + i;
        let mut least = EMPTY;
        while j > 1 {
            least = least.min(self.tree[j ^ 1]);
            j >>= 1;
        }
        (least != EMPTY).then(|| unpack(least))
    }

    /// Leaf writes since construction.
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Reference model: the lesser of the least pending key and the
    /// least `(bound, pid)`, each kept in a `BTreeSet`.
    fn reference_first(slots: &[Indexed]) -> Option<(Key, bool)> {
        let mut pending = BTreeSet::new();
        let mut bounds = BTreeSet::new();
        for (i, e) in slots.iter().enumerate() {
            match *e {
                Indexed::Off => {}
                Indexed::Pending(k) => {
                    pending.insert(k);
                }
                Indexed::Bound(b) => {
                    bounds.insert((b, i as u64));
                }
            }
        }
        let p = pending.first().map(|&k| (k, false));
        let b = bounds.first().map(|&(b, i)| (Key(b, 1, i), true));
        match (p, b) {
            (Some(p), Some(b)) => Some(p.min(b)),
            (p, b) => p.or(b),
        }
    }

    fn entry(i: usize, kind: u8, t: Cycles) -> Indexed {
        match kind {
            0 => Indexed::Off,
            1 => Indexed::Pending(Key(t, 1, i as u64)),
            _ => Indexed::Bound(t),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_the_btreeset_model(
            n in 1usize..=70,
            ops in prop::collection::vec((0usize..70, 0u8..3, 0u64..6), 1..300),
        ) {
            let mut idx = ScanIndex::new(n);
            let mut model = vec![Indexed::Off; n];
            prop_assert_eq!(idx.first(), None);
            for (slot, kind, t) in ops {
                // Times from a tiny range: most comparisons are ties that
                // only the pid can break.
                let i = slot % n;
                let e = entry(i, kind, t);
                idx.set(i, e);
                model[i] = e;
                prop_assert_eq!(idx.get(i), e);
                prop_assert_eq!(idx.first(), reference_first(&model));
                for k in 0..n {
                    let mut others = model.clone();
                    others[k] = Indexed::Off;
                    prop_assert_eq!(idx.first_excluding(k), reference_first(&others));
                }
            }
            for i in 0..n {
                idx.set(i, Indexed::Off);
            }
            prop_assert_eq!(idx.first(), None);
        }

        #[test]
        fn packing_preserves_key_order(
            a in (any::<u64>(), any::<u8>(), 0u64..MAX_SLOTS as u64),
            b in (any::<u64>(), any::<u8>(), 0u64..MAX_SLOTS as u64),
            near in 0u8..4,
        ) {
            let a = Key(a.0, a.1, a.2);
            // Also compare keys that share their leading fields.
            let b = match near {
                0 => Key(b.0, b.1, b.2),
                1 => Key(a.0, b.1, b.2),
                2 => Key(a.0, a.1, b.2),
                _ => a,
            };
            prop_assert_eq!(pack(a).cmp(&pack(b)), a.cmp(&b));
            prop_assert_eq!(unpack(pack(a)), (a, false));
        }
    }

    #[test]
    fn equal_times_are_broken_by_pid_and_bounds_hold_back_later_pids() {
        let mut idx = ScanIndex::new(3);
        idx.set(2, Indexed::Pending(Key(10, 1, 2)));
        idx.set(1, Indexed::Pending(Key(10, 1, 1)));
        assert_eq!(idx.first(), Some((Key(10, 1, 1), false)));
        // A bound at the same time ranks by pid like an event would.
        idx.set(0, Indexed::Bound(10));
        assert_eq!(idx.first(), Some((Key(10, 1, 0), true)));
        idx.set(0, Indexed::Bound(11));
        assert_eq!(idx.first(), Some((Key(10, 1, 1), false)));
    }

    #[test]
    fn unchanged_entries_cost_no_write() {
        let mut idx = ScanIndex::new(5);
        idx.set(3, Indexed::Bound(7));
        idx.set(3, Indexed::Bound(7));
        idx.set(3, Indexed::Bound(8));
        idx.set(4, Indexed::Off);
        assert_eq!(idx.writes(), 2);
    }

    #[test]
    #[should_panic(expected = "exceed the scan index")]
    fn pids_beyond_the_packing_are_refused() {
        ScanIndex::new(MAX_SLOTS + 1);
    }
}
