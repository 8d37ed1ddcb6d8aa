//! Instruction classes of the simulated target processor.
//!
//! COMPASS estimates execution time from "the specifications of the
//! microprocessor instruction set" — a static per-instruction cycle cost.
//! The target machines in the paper are PowerPC 604-class SMPs, so the
//! default costs in [`crate::TimingModel`] follow that generation of
//! in-order-completion superscalar cores: single-cycle integer ALU ops,
//! multi-cycle multiply/divide, pipelined floating point, and single-cycle
//! address generation for loads/stores (the *memory* latency of a load or
//! store is supplied by the backend architecture model, not by this table).

/// Classes of instructions with distinct static cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer add/sub/logical/shift/compare.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Floating-point add/sub/convert.
    FpAdd,
    /// Floating-point multiply (and fused multiply-add).
    FpMul,
    /// Floating-point divide.
    FpDiv,
    /// Conditional or unconditional branch.
    Branch,
    /// Load: address generation only; memory latency comes from the backend.
    Load,
    /// Store: address generation only; memory latency comes from the backend.
    Store,
    /// Atomic read-modify-write (lwarx/stwcx-style pair).
    Rmw,
    /// System call entry/exit overhead (trap instruction).
    Syscall,
    /// No-op / miscellaneous single-cycle instruction.
    Nop,
}

impl InstClass {
    /// All classes, for exhaustive iteration in tests and table dumps.
    pub const ALL: [InstClass; 12] = [
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::IntDiv,
        InstClass::FpAdd,
        InstClass::FpMul,
        InstClass::FpDiv,
        InstClass::Branch,
        InstClass::Load,
        InstClass::Store,
        InstClass::Rmw,
        InstClass::Syscall,
        InstClass::Nop,
    ];

    /// Dense index for table lookup.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; InstClass::ALL.len()];
        for c in InstClass::ALL {
            assert!(c.index() < InstClass::ALL.len());
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
