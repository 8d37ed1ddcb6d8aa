//! The "CPU-states" structure (§3.2).
//!
//! "Each CPU has an 'interrupt request' flag bit as well as an 'interrupt
//! enable' bit in the CPU-states structure. When the backend schedules an
//! interrupt for a given processor, the former sets the 'interrupt request'
//! flag bit in the CPU-state area of that processor."
//!
//! The backend raises a request bit per device interrupt and hands the
//! request to the next blocking reply of an application process on that
//! CPU (`Reply::irq_pending`), clearing the bits as it does: a request is
//! edge-triggered in simulated time. No simulated kernel path masks
//! interrupts, so the enable bit is not modelled. Only the engine reads
//! or writes the area (a frontend learns of a request from its reply), so
//! it is a plain struct the engine owns.

use compass_isa::{CpuId, ProcessId};

/// Sources of interrupts in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrqSource {
    /// Disk-controller completion.
    Disk = 0,
    /// Ethernet receive/transmit.
    Net = 1,
    /// Interval timer.
    Timer = 2,
}

impl IrqSource {
    /// Bit mask of this source in the request word.
    #[inline]
    pub fn mask(self) -> u32 {
        1 << (self as u32)
    }

    /// All sources.
    pub const ALL: [IrqSource; 3] = [IrqSource::Disk, IrqSource::Net, IrqSource::Timer];
}

#[derive(Debug, Clone, Copy, Default)]
struct CpuState {
    /// Pending IRQ mask.
    word: u32,
    /// The process on the CPU, if any.
    running: Option<ProcessId>,
    /// Cycles stolen from this CPU by interrupt handlers since the last
    /// reply to its running process.
    steal: u64,
}

/// The CPU-states area: one record per simulated processor.
#[derive(Debug, Clone)]
pub struct CpuStates {
    cpus: Vec<CpuState>,
}

impl CpuStates {
    /// Creates the area for `ncpus` processors, all idle with nothing
    /// pending.
    pub fn new(ncpus: usize) -> Self {
        assert!(ncpus > 0);
        Self {
            cpus: vec![CpuState::default(); ncpus],
        }
    }

    /// Sets the interrupt-request flag of `src` on `cpu`.
    pub fn raise(&mut self, cpu: CpuId, src: IrqSource) {
        self.cpus[cpu.index()].word |= src.mask();
    }

    /// Clears every interrupt-request flag of `cpu` (the request was
    /// handed to a process).
    pub fn clear(&mut self, cpu: CpuId) {
        self.cpus[cpu.index()].word = 0;
    }

    /// Pending IRQ mask of `cpu`.
    #[inline]
    pub fn pending(&self, cpu: CpuId) -> u32 {
        self.cpus[cpu.index()].word
    }

    /// Records which process runs on `cpu`.
    pub fn set_running(&mut self, cpu: CpuId, pid: Option<ProcessId>) {
        self.cpus[cpu.index()].running = pid;
    }

    /// The process running on `cpu`, if any.
    pub fn running(&self, cpu: CpuId) -> Option<ProcessId> {
        self.cpus[cpu.index()].running
    }

    /// Adds interrupt-handler steal cycles to `cpu` (folded into the next
    /// reply of the process running there).
    pub fn add_steal(&mut self, cpu: CpuId, cycles: u64) {
        self.cpus[cpu.index()].steal += cycles;
    }

    /// Takes (and clears) the accumulated steal cycles of `cpu`.
    #[inline]
    pub fn take_steal(&mut self, cpu: CpuId) -> u64 {
        std::mem::take(&mut self.cpus[cpu.index()].steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CpuId = CpuId(0);
    const C1: CpuId = CpuId(1);

    #[test]
    fn raise_clear_pending() {
        let mut s = CpuStates::new(2);
        assert_eq!(s.pending(C0), 0);
        s.raise(C0, IrqSource::Disk);
        s.raise(C0, IrqSource::Timer);
        assert_eq!(
            s.pending(C0),
            IrqSource::Disk.mask() | IrqSource::Timer.mask()
        );
        assert_eq!(s.pending(C1), 0, "per-CPU isolation");
        s.raise(C1, IrqSource::Net);
        s.clear(C0);
        assert_eq!(s.pending(C0), 0);
        assert_eq!(s.pending(C1), IrqSource::Net.mask(), "per-CPU isolation");
    }

    #[test]
    fn running_pid_roundtrip() {
        let mut s = CpuStates::new(1);
        assert_eq!(s.running(C0), None);
        s.set_running(C0, Some(ProcessId(5)));
        assert_eq!(s.running(C0), Some(ProcessId(5)));
        s.set_running(C0, None);
        assert_eq!(s.running(C0), None);
    }

    #[test]
    fn steal_accumulates_and_drains() {
        let mut s = CpuStates::new(1);
        s.add_steal(C0, 100);
        s.add_steal(C0, 50);
        assert_eq!(s.take_steal(C0), 150);
        assert_eq!(s.take_steal(C0), 0);
    }

    #[test]
    fn irq_masks_are_distinct() {
        let mut seen = 0u32;
        for src in IrqSource::ALL {
            assert_eq!(seen & src.mask(), 0);
            seen |= src.mask();
        }
    }
}
