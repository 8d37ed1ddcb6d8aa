//! Home-node page placement.
//!
//! "In a separate structure in the backend we keep a hash table of the home
//! nodes of each of the pages hashed by physical address. The home nodes
//! can be assigned at the time of page creation (if a round-robin or block
//! page placement policy is being used) or when the page is first
//! referenced (if a first-touch page placement algorithm is used)."
//! (§3.3.1)

use compass_isa::{FoldHashMap, NodeId};

/// Page placement policies (paper §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Pages are assigned to nodes round-robin at creation time.
    RoundRobin,
    /// Contiguous blocks of pages go to the same node at creation time; the
    /// field is the block length in pages.
    Block(u32),
    /// A page's home is the node that first references it.
    FirstTouch,
}

impl PlacementPolicy {
    /// True if homes are assigned eagerly at segment-creation time.
    pub fn is_eager(self) -> bool {
        !matches!(self, PlacementPolicy::FirstTouch)
    }

    /// Home node for the `idx`-th page of a segment under an eager policy.
    ///
    /// Panics for [`PlacementPolicy::FirstTouch`], whose homes are decided
    /// at first reference.
    pub fn eager_home(self, idx: u64, nodes: usize) -> NodeId {
        debug_assert!(nodes > 0);
        match self {
            PlacementPolicy::RoundRobin => NodeId((idx % nodes as u64) as u16),
            PlacementPolicy::Block(len) => {
                let len = len.max(1) as u64;
                NodeId(((idx / len) % nodes as u64) as u16)
            }
            PlacementPolicy::FirstTouch => {
                panic!("first-touch has no creation-time home")
            }
        }
    }
}

/// Per-policy placement statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Pages whose home was assigned at creation time.
    pub eager_placements: u64,
    /// Pages whose home was assigned at first touch.
    pub first_touch_placements: u64,
    /// Pages migrated to a new home after placement.
    pub migrations: u64,
}

/// The backend's page-home hash table, keyed by physical page number.
#[derive(Debug, Clone, Default)]
pub struct HomeMap {
    homes: FoldHashMap<u64, NodeId>,
    stats: PlacementStats,
}

impl HomeMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a creation-time (eager) home for frame `ppn`.
    pub fn place_eager(&mut self, ppn: u64, home: NodeId) {
        let prev = self.homes.insert(ppn, home);
        debug_assert!(prev.is_none(), "frame {ppn:#x} placed twice");
        self.stats.eager_placements += 1;
    }

    /// Returns the home of `ppn`, assigning `toucher` as home on first
    /// reference (first-touch policy) when none is recorded.
    pub fn home_or_first_touch(&mut self, ppn: u64, toucher: NodeId) -> NodeId {
        match self.homes.entry(ppn) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.stats.first_touch_placements += 1;
                *e.insert(toucher)
            }
        }
    }

    /// Returns the home of `ppn` if one has been assigned.
    pub fn home(&self, ppn: u64) -> Option<NodeId> {
        self.homes.get(&ppn).copied()
    }

    /// Migrates `ppn` to a new home (page-migration studies / COMA
    /// relocation). Returns the old home.
    pub fn migrate(&mut self, ppn: u64, new_home: NodeId) -> Option<NodeId> {
        let old = self.homes.insert(ppn, new_home);
        if old.is_some() {
            self.stats.migrations += 1;
        }
        old
    }

    /// Pages with assigned homes.
    pub fn len(&self) -> usize {
        self.homes.len()
    }

    /// True if no page has a home yet.
    pub fn is_empty(&self) -> bool {
        self.homes.is_empty()
    }

    /// Placement statistics.
    pub fn stats(&self) -> PlacementStats {
        self.stats
    }

    /// Histogram of pages per home node (for placement-study reports).
    pub fn pages_per_node(&self, nodes: usize) -> Vec<u64> {
        let mut hist = vec![0u64; nodes];
        for home in self.homes.values() {
            if home.index() < nodes {
                hist[home.index()] += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_nodes() {
        let p = PlacementPolicy::RoundRobin;
        let homes: Vec<_> = (0..8).map(|i| p.eager_home(i, 4).0).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn block_places_runs_of_pages() {
        let p = PlacementPolicy::Block(3);
        let homes: Vec<_> = (0..9).map(|i| p.eager_home(i, 2).0).collect();
        assert_eq!(homes, vec![0, 0, 0, 1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn block_of_zero_acts_like_block_of_one() {
        let p = PlacementPolicy::Block(0);
        assert_eq!(p.eager_home(0, 2), NodeId(0));
        assert_eq!(p.eager_home(1, 2), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "first-touch")]
    fn first_touch_has_no_eager_home() {
        PlacementPolicy::FirstTouch.eager_home(0, 4);
    }

    #[test]
    fn first_touch_assigns_on_first_reference_only() {
        let mut m = HomeMap::new();
        assert_eq!(m.home_or_first_touch(10, NodeId(2)), NodeId(2));
        // Second toucher does not steal the home.
        assert_eq!(m.home_or_first_touch(10, NodeId(3)), NodeId(2));
        assert_eq!(m.stats().first_touch_placements, 1);
    }

    #[test]
    fn eager_then_touch_respects_eager_home() {
        let mut m = HomeMap::new();
        m.place_eager(5, NodeId(1));
        assert_eq!(m.home_or_first_touch(5, NodeId(0)), NodeId(1));
        assert_eq!(m.stats().eager_placements, 1);
        assert_eq!(m.stats().first_touch_placements, 0);
    }

    #[test]
    fn migrate_updates_home_and_counts() {
        let mut m = HomeMap::new();
        m.place_eager(5, NodeId(0));
        assert_eq!(m.migrate(5, NodeId(3)), Some(NodeId(0)));
        assert_eq!(m.home(5), Some(NodeId(3)));
        assert_eq!(m.stats().migrations, 1);
    }

    #[test]
    fn histogram_counts_pages() {
        let mut m = HomeMap::new();
        m.place_eager(0, NodeId(0));
        m.place_eager(1, NodeId(0));
        m.place_eager(2, NodeId(1));
        assert_eq!(m.pages_per_node(2), vec![2, 1]);
        assert_eq!(m.len(), 3);
    }
}
