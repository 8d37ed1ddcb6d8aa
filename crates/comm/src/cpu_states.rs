//! The shared "CPU-states" structure (§3.2).
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
//! interrupts, so the enable bit is not modelled.

use compass_isa::{CpuId, ProcessId};
use crossbeam_utils::CachePadded;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sources of interrupts in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

const IDLE_PID: u32 = u32::MAX;

struct CpuState {
    /// Pending IRQ mask.
    word: CachePadded<AtomicU32>,
    /// Pid currently running on the CPU (`IDLE_PID` when idle). Written by
    /// the backend scheduler, read by everyone (diagnostics, stats).
    running: AtomicU32,
    /// Cycles stolen from this CPU by interrupt handlers since the last
    /// reply to its running process.
    steal: AtomicU64,
}

/// The CPU-states area: one record per simulated processor.
pub struct CpuStates {
    cpus: Vec<CpuState>,
}

impl CpuStates {
    /// Creates the area for `ncpus` processors, all idle with nothing
    /// pending.
    pub fn new(ncpus: usize) -> Self {
        assert!(ncpus > 0);
        let cpus = (0..ncpus)
            .map(|_| CpuState {
                word: CachePadded::new(AtomicU32::new(0)),
                running: AtomicU32::new(IDLE_PID),
                steal: AtomicU64::new(0),
            })
            .collect();
        Self { cpus }
    }

    /// Number of simulated CPUs.
    pub fn ncpus(&self) -> usize {
        self.cpus.len()
    }

    /// Sets the interrupt-request flag of `src` on `cpu`.
    pub fn raise(&self, cpu: CpuId, src: IrqSource) {
        self.cpus[cpu.index()]
            .word
            .fetch_or(src.mask(), Ordering::AcqRel);
    }

    /// Clears every interrupt-request flag of `cpu` (the request was
    /// handed to a process).
    pub fn clear(&self, cpu: CpuId) {
        self.cpus[cpu.index()].word.store(0, Ordering::Release);
    }

    /// Pending IRQ mask of `cpu`.
    pub fn pending(&self, cpu: CpuId) -> u32 {
        self.cpus[cpu.index()].word.load(Ordering::Acquire)
    }

    /// Records which process runs on `cpu` (backend scheduler only).
    pub fn set_running(&self, cpu: CpuId, pid: Option<ProcessId>) {
        self.cpus[cpu.index()]
            .running
            .store(pid.map_or(IDLE_PID, |p| p.0), Ordering::Release);
    }

    /// The process running on `cpu`, if any.
    pub fn running(&self, cpu: CpuId) -> Option<ProcessId> {
        match self.cpus[cpu.index()].running.load(Ordering::Acquire) {
            IDLE_PID => None,
            p => Some(ProcessId(p)),
        }
    }

    /// Adds interrupt-handler steal cycles to `cpu` (accumulated by the
    /// backend, folded into the next reply of the process running there).
    pub fn add_steal(&self, cpu: CpuId, cycles: u64) {
        self.cpus[cpu.index()]
            .steal
            .fetch_add(cycles, Ordering::AcqRel);
    }

    /// Takes (and clears) the accumulated steal cycles of `cpu`.
    pub fn take_steal(&self, cpu: CpuId) -> u64 {
        self.cpus[cpu.index()].steal.swap(0, Ordering::AcqRel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CpuId = CpuId(0);
    const C1: CpuId = CpuId(1);

    #[test]
    fn raise_clear_pending() {
        let s = CpuStates::new(2);
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
        let s = CpuStates::new(1);
        assert_eq!(s.running(C0), None);
        s.set_running(C0, Some(ProcessId(5)));
        assert_eq!(s.running(C0), Some(ProcessId(5)));
        s.set_running(C0, None);
        assert_eq!(s.running(C0), None);
    }

    #[test]
    fn steal_accumulates_and_drains() {
        let s = CpuStates::new(1);
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
