//! Per-node physical frame allocation.
//!
//! The simulated machine's physical memory is divided among NUMA nodes.
//! The backend asks this allocator for a frame *on a specific node* when a
//! placement decision has been made (round-robin/block at creation time,
//! first-touch at first reference — §3.3.1 of the paper).

use crate::addr::PAGE_SHIFT;
use compass_isa::NodeId;

/// Allocates simulated physical frames, node by node.
///
/// Frames are never freed individually in the current model (the paper's
/// simulator runs one workload to completion); `free_frames` reports the
/// remaining budget and exhaustion is an error so misconfigured runs fail
/// loudly instead of silently aliasing.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// Number of frames each node may hand out in total.
    frames_per_node: u64,
    /// Next unused local frame index, per node.
    next_local: Vec<u64>,
}

/// Error returned when a node's memory is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfFrames {
    /// The node whose pool was exhausted.
    pub node: NodeId,
}

impl std::fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulated physical memory exhausted on {}", self.node)
    }
}

impl std::error::Error for OutOfFrames {}

impl FrameAllocator {
    /// Creates an allocator for `nodes` nodes with `mem_bytes_per_node`
    /// bytes of memory each.
    pub fn new(nodes: usize, mem_bytes_per_node: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        Self {
            frames_per_node: mem_bytes_per_node >> PAGE_SHIFT,
            next_local: vec![0; nodes],
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.next_local.len()
    }

    /// Allocates one frame on `node`, returning its global frame number.
    ///
    /// Global frame numbers encode the node in the high bits so that a
    /// frame's *physical* location is recoverable from the address alone
    /// (the home-node map may still differ, e.g. after page migration).
    pub fn alloc_on(&mut self, node: NodeId) -> Result<u64, OutOfFrames> {
        let idx = node.index();
        assert!(idx < self.next_local.len(), "node {node} out of range");
        if self.next_local[idx] >= self.frames_per_node {
            return Err(OutOfFrames { node });
        }
        let local = self.next_local[idx];
        self.next_local[idx] += 1;
        Ok(Self::compose(node, local))
    }

    /// Remaining frames on `node`.
    pub fn free_frames(&self, node: NodeId) -> u64 {
        self.frames_per_node - self.next_local[node.index()]
    }

    /// Total frames allocated so far across all nodes.
    pub fn allocated(&self) -> u64 {
        self.next_local.iter().sum()
    }

    /// Node that physically hosts a frame number produced by this allocator.
    #[inline]
    pub fn node_of_frame(ppn: u64) -> NodeId {
        NodeId((ppn >> Self::NODE_SHIFT) as u16)
    }

    /// True when `ppn` is a frame this allocator has actually handed out:
    /// its node exists and its local index is below the node's allocation
    /// watermark. Invariant checks use this to catch page-table entries
    /// pointing at frames that were never allocated.
    pub fn is_allocated(&self, ppn: u64) -> bool {
        let node = (ppn >> Self::NODE_SHIFT) as usize;
        let local = ppn & ((1 << Self::NODE_SHIFT) - 1);
        self.next_local.get(node).is_some_and(|&next| local < next)
    }

    /// Bits reserved for the local frame index (1 TiB of 4 KiB frames per
    /// node — far more than any simulated configuration needs, while keeping
    /// user frame numbers below [`crate::addr::KERNEL_PPN_BASE`]).
    const NODE_SHIFT: u32 = 28;

    #[inline]
    fn compose(node: NodeId, local: u64) -> u64 {
        debug_assert!(local < (1 << Self::NODE_SHIFT));
        ((node.0 as u64) << Self::NODE_SHIFT) | local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::KERNEL_PPN_BASE;

    #[test]
    fn frames_are_unique_and_tagged_with_node() {
        let mut fa = FrameAllocator::new(4, 1 << 20);
        let mut seen = std::collections::HashSet::new();
        for n in 0..4u16 {
            for _ in 0..10 {
                let f = fa.alloc_on(NodeId(n)).unwrap();
                assert!(seen.insert(f), "duplicate frame {f:#x}");
                assert_eq!(FrameAllocator::node_of_frame(f), NodeId(n));
            }
        }
        assert_eq!(fa.allocated(), 40);
    }

    #[test]
    fn exhaustion_is_reported() {
        // 2 pages of memory per node.
        let mut fa = FrameAllocator::new(1, 8192);
        assert!(fa.alloc_on(NodeId(0)).is_ok());
        assert!(fa.alloc_on(NodeId(0)).is_ok());
        assert_eq!(fa.alloc_on(NodeId(0)), Err(OutOfFrames { node: NodeId(0) }));
        assert_eq!(fa.free_frames(NodeId(0)), 0);
    }

    #[test]
    fn user_frames_stay_below_kernel_range() {
        let mut fa = FrameAllocator::new(16, 1 << 30);
        for n in 0..16u16 {
            let f = fa.alloc_on(NodeId(n)).unwrap();
            assert!(f < KERNEL_PPN_BASE);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn allocating_on_unknown_node_panics() {
        let mut fa = FrameAllocator::new(2, 1 << 20);
        let _ = fa.alloc_on(NodeId(7));
    }
}
