//! Basic-block cost accounting.
//!
//! The COMPASS instrumentor inserts code "at the end of each basic block and
//! each memory reference" that advances the process execution-time counter.
//! A [`BlockCost`] is the pre-computed cycle total of the non-memory
//! instructions of one basic block; workloads declare their computation in
//! these units, and the frontend adds the block cost to the process clock
//! each time the block "executes".

use crate::{Cycles, InstClass, TimingModel};

/// The pre-computed cost of one basic block of straight-line code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCost {
    /// Total static cycles of the block's non-memory instructions (the
    /// memory instructions' *address generation* cycles are included; their
    /// memory latency is supplied per-reference by the backend).
    pub cycles: Cycles,
    /// Number of instructions in the block (for MIPS-style statistics).
    pub instructions: u32,
}

impl BlockCost {
    /// A block containing nothing (zero cost); useful as an accumulator
    /// identity.
    pub const ZERO: BlockCost = BlockCost {
        cycles: 0,
        instructions: 0,
    };

    /// A block of `n` single-cycle instructions.
    pub const fn of_cycles(n: Cycles) -> Self {
        BlockCost {
            cycles: n,
            instructions: n as u32,
        }
    }

    /// Combines two blocks executed back to back.
    #[inline]
    pub fn and_then(self, other: BlockCost) -> BlockCost {
        BlockCost {
            cycles: self.cycles.saturating_add(other.cycles),
            instructions: self.instructions.saturating_add(other.instructions),
        }
    }

    /// The block repeated `n` times (e.g. an unrolled inner loop).
    pub fn repeat(self, n: u64) -> BlockCost {
        BlockCost {
            cycles: self.cycles.saturating_mul(n),
            instructions: (self.instructions as u64)
                .saturating_mul(n)
                .min(u32::MAX as u64) as u32,
        }
    }
}

/// Builds a [`BlockCost`] from instruction-class counts, the way the
/// instrumentor tallies a compiled basic block.
#[derive(Debug, Clone)]
pub struct BlockCostBuilder<'t> {
    timing: &'t TimingModel,
    cycles: Cycles,
    instructions: u32,
}

impl<'t> BlockCostBuilder<'t> {
    /// Starts an empty block under the given timing model.
    pub fn new(timing: &'t TimingModel) -> Self {
        Self {
            timing,
            cycles: 0,
            instructions: 0,
        }
    }

    /// Adds `n` instructions of class `c`.
    pub fn add(mut self, c: InstClass, n: u32) -> Self {
        self.cycles = self.cycles.saturating_add(self.timing.cost_n(c, n as u64));
        self.instructions = self.instructions.saturating_add(n);
        self
    }

    /// Finishes the block.
    pub fn build(self) -> BlockCost {
        BlockCost {
            cycles: self.cycles,
            instructions: self.instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_class_costs() {
        let t = TimingModel::powerpc_604();
        let b = BlockCostBuilder::new(&t)
            .add(InstClass::IntAlu, 5)
            .add(InstClass::IntMul, 1)
            .add(InstClass::Branch, 1)
            .build();
        assert_eq!(b.cycles, 5 + 4 + 1);
        assert_eq!(b.instructions, 7);
    }

    #[test]
    fn and_then_is_associative_on_examples() {
        let a = BlockCost::of_cycles(3);
        let b = BlockCost::of_cycles(5);
        let c = BlockCost::of_cycles(7);
        assert_eq!(a.and_then(b).and_then(c), a.and_then(b.and_then(c)));
    }

    #[test]
    fn zero_is_identity() {
        let a = BlockCost::of_cycles(11);
        assert_eq!(a.and_then(BlockCost::ZERO), a);
        assert_eq!(BlockCost::ZERO.and_then(a), a);
    }

    #[test]
    fn repeat_multiplies_cycles() {
        let a = BlockCost::of_cycles(4).repeat(10);
        assert_eq!(a.cycles, 40);
        assert_eq!(a.instructions, 40);
    }

    #[test]
    fn repeat_saturates_instruction_count() {
        let a = BlockCost {
            cycles: 1,
            instructions: u32::MAX,
        }
        .repeat(8);
        assert_eq!(a.instructions, u32::MAX);
        assert_eq!(a.cycles, 8);
    }
}
