//! Static per-class instruction cycle costs.

use crate::{Cycles, InstClass};

/// A per-class static cycle cost table.
///
/// The default models a PowerPC-604-class core at the granularity COMPASS
/// uses: the instrumentation assumes 100% instruction-cache hits and charges
/// a fixed cost per instruction class; memory latency for loads/stores is
/// added later by the backend architecture model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingModel {
    costs: [Cycles; InstClass::ALL.len()],
    /// Clock frequency of the simulated processor in MHz; used only for
    /// converting cycle counts to seconds in reports (the paper's host and
    /// target are 133 MHz PowerPC parts).
    pub clock_mhz: u32,
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::powerpc_604()
    }
}

impl TimingModel {
    /// PowerPC-604-style costs (133 MHz parts, as in the paper's Tables 2-3).
    pub fn powerpc_604() -> Self {
        let mut costs = [1; InstClass::ALL.len()];
        costs[InstClass::IntAlu.index()] = 1;
        costs[InstClass::IntMul.index()] = 4;
        costs[InstClass::IntDiv.index()] = 20;
        costs[InstClass::FpAdd.index()] = 3;
        costs[InstClass::FpMul.index()] = 3;
        costs[InstClass::FpDiv.index()] = 18;
        costs[InstClass::Branch.index()] = 1;
        costs[InstClass::Load.index()] = 1;
        costs[InstClass::Store.index()] = 1;
        costs[InstClass::Rmw.index()] = 2;
        costs[InstClass::Syscall.index()] = 40;
        costs[InstClass::Nop.index()] = 1;
        Self {
            costs,
            clock_mhz: 133,
        }
    }

    /// A uniform single-cycle model, useful for tests that want event counts
    /// to equal cycle counts.
    pub fn unit() -> Self {
        Self {
            costs: [1; InstClass::ALL.len()],
            clock_mhz: 100,
        }
    }

    /// Cycle cost of one instruction of class `c`.
    #[inline]
    pub fn cost(&self, c: InstClass) -> Cycles {
        self.costs[c.index()]
    }

    /// Overrides the cost of one class (builder style).
    pub fn with_cost(mut self, c: InstClass, cycles: Cycles) -> Self {
        self.costs[c.index()] = cycles;
        self
    }

    /// Cost of `n` instructions of class `c`.
    #[inline]
    pub fn cost_n(&self, c: InstClass, n: u64) -> Cycles {
        self.cost(c).saturating_mul(n)
    }

    /// Converts a cycle count to seconds at this model's clock frequency.
    pub fn cycles_to_secs(&self, cycles: Cycles) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_powerpc_604() {
        let t = TimingModel::default();
        assert_eq!(t, TimingModel::powerpc_604());
        assert_eq!(t.clock_mhz, 133);
    }

    #[test]
    fn divide_is_much_slower_than_alu() {
        let t = TimingModel::powerpc_604();
        assert!(t.cost(InstClass::IntDiv) > 10 * t.cost(InstClass::IntAlu));
        assert!(t.cost(InstClass::FpDiv) > t.cost(InstClass::FpMul));
    }

    #[test]
    fn with_cost_overrides_only_one_class() {
        let t = TimingModel::unit().with_cost(InstClass::FpDiv, 99);
        assert_eq!(t.cost(InstClass::FpDiv), 99);
        assert_eq!(t.cost(InstClass::IntAlu), 1);
    }

    #[test]
    fn cost_n_multiplies() {
        let t = TimingModel::powerpc_604();
        assert_eq!(t.cost_n(InstClass::FpMul, 10), 30);
    }

    #[test]
    fn cost_n_saturates() {
        let t = TimingModel::unit().with_cost(InstClass::Nop, u64::MAX);
        assert_eq!(t.cost_n(InstClass::Nop, 2), u64::MAX);
    }

    #[test]
    fn cycles_to_secs_uses_clock() {
        let t = TimingModel::powerpc_604();
        let s = t.cycles_to_secs(133_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
