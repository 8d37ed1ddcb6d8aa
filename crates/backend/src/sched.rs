//! The process scheduler (§3.3.2).
//!
//! "This process scheduler keeps a mapping of processes and their
//! associated processors. If there are more processes than processors in
//! the system, then certain processes will not be assigned a processor,
//! and that process will be blocked. When the simulator starts, it assigns
//! processors to processes as long as there are free processors. All other
//! processes are placed on a ready queue and wait for an available
//! processor."

use crate::config::SchedPolicy;
use compass_isa::{CpuId, ProcessId};
use std::collections::VecDeque;

/// Outcome of asking for a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// The process got this CPU.
    Assigned(CpuId),
    /// No CPU free: the process waits on the ready queue.
    Queued,
}

/// Scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Dispatches performed.
    pub dispatches: u64,
    /// Dispatches onto the CPU the process last used (affinity hits).
    pub same_cpu: u64,
    /// Dispatches onto a different CPU of a previously-used node.
    pub same_node: u64,
    /// Dispatches that moved the process to a node it never used.
    pub migrations: u64,
    /// Pre-emptions performed.
    pub preemptions: u64,
}

#[derive(Debug, Clone, Default)]
struct ProcSched {
    last_cpu: Option<CpuId>,
    used_cpus: Vec<CpuId>,
}

/// The process scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedPolicy,
    /// cpu -> node, built once so dispatch reads it instead of dividing.
    cpu_node: Box<[usize]>,
    /// cpu -> running pid.
    running: Vec<Option<ProcessId>>,
    ready: VecDeque<ProcessId>,
    procs: Vec<ProcSched>,
    stats: SchedStats,
}

impl Scheduler {
    /// Creates a scheduler for `ncpus` CPUs grouped `cpus_per_node` to a
    /// node, managing processes `0..nprocs`.
    pub fn new(policy: SchedPolicy, ncpus: usize, cpus_per_node: usize, nprocs: usize) -> Self {
        assert!(ncpus > 0 && cpus_per_node > 0);
        Self {
            policy,
            cpu_node: (0..ncpus).map(|c| c / cpus_per_node).collect(),
            running: vec![None; ncpus],
            ready: VecDeque::new(),
            procs: vec![ProcSched::default(); nprocs],
            stats: SchedStats::default(),
        }
    }

    fn node_of(&self, cpu: CpuId) -> usize {
        self.cpu_node[cpu.index()]
    }

    /// The process running on `cpu`.
    pub fn running_on(&self, cpu: CpuId) -> Option<ProcessId> {
        self.running[cpu.index()]
    }

    /// The CPU `pid` runs on, if it is running.
    pub fn cpu_of(&self, pid: ProcessId) -> Option<CpuId> {
        self.running
            .iter()
            .position(|&p| p == Some(pid))
            .map(CpuId::from)
    }

    /// Number of processes waiting for a CPU.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn free_cpus(&self) -> impl Iterator<Item = CpuId> + '_ {
        self.running
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| CpuId::from(i))
    }

    /// Picks a CPU for `pid` among the free ones according to the policy.
    fn choose_cpu(&self, pid: ProcessId) -> Option<CpuId> {
        let mut free = self.free_cpus();
        match self.policy {
            SchedPolicy::Fcfs => free.next(),
            SchedPolicy::Affinity => {
                let free: Vec<CpuId> = free.collect();
                if free.is_empty() {
                    return None;
                }
                let ps = &self.procs[pid.index()];
                // 1. The CPU it used last.
                if let Some(last) = ps.last_cpu {
                    if free.contains(&last) {
                        return Some(last);
                    }
                }
                // 2. Any CPU it used before.
                if let Some(&c) = free.iter().find(|c| ps.used_cpus.contains(c)) {
                    return Some(c);
                }
                // 3. A CPU on a node it used before.
                let used_nodes: Vec<usize> =
                    ps.used_cpus.iter().map(|&c| self.node_of(c)).collect();
                if let Some(&c) = free
                    .iter()
                    .find(|&&c| used_nodes.contains(&self.node_of(c)))
                {
                    return Some(c);
                }
                // 4. Anywhere.
                free.first().copied()
            }
        }
    }

    fn record_dispatch(&mut self, pid: ProcessId, cpu: CpuId) {
        self.stats.dispatches += 1;
        let node = self.node_of(cpu);
        let ps = &mut self.procs[pid.index()];
        if ps.last_cpu == Some(cpu) {
            self.stats.same_cpu += 1;
        } else if ps
            .used_cpus
            .iter()
            .any(|&c| self.cpu_node[c.index()] == node)
        {
            self.stats.same_node += 1;
        } else if ps.last_cpu.is_some() {
            self.stats.migrations += 1;
        }
        ps.last_cpu = Some(cpu);
        if !ps.used_cpus.contains(&cpu) {
            ps.used_cpus.push(cpu);
        }
        self.running[cpu.index()] = Some(pid);
    }

    /// Requests a CPU for a newly runnable process (start or unblock).
    /// "When a process completes a blocking OS call it will be scheduled if
    /// there are free processors. Otherwise, it will be placed on the ready
    /// queue."
    pub fn make_runnable(&mut self, pid: ProcessId) -> Dispatch {
        match self.choose_cpu(pid) {
            Some(cpu) => {
                self.record_dispatch(pid, cpu);
                Dispatch::Assigned(cpu)
            }
            None => {
                debug_assert!(!self.ready.contains(&pid), "{pid} queued twice");
                self.ready.push_back(pid);
                Dispatch::Queued
            }
        }
    }

    /// Releases `pid`'s CPU (block or exit) and dispatches the head of the
    /// ready queue onto the freed CPU, if anyone is waiting.
    ///
    /// Returns the process dispatched onto the newly freed CPU.
    pub fn release_cpu(&mut self, pid: ProcessId) -> Option<(ProcessId, CpuId)> {
        let cpu = self
            .cpu_of(pid)
            .expect("release_cpu of a non-running process");
        self.running[cpu.index()] = None;
        self.dispatch_onto_free()
    }

    /// Dispatches the ready-queue head onto a free CPU chosen by policy.
    fn dispatch_onto_free(&mut self) -> Option<(ProcessId, CpuId)> {
        let next = *self.ready.front()?;
        let cpu = self.choose_cpu(next)?;
        self.ready.pop_front();
        self.record_dispatch(next, cpu);
        Some((next, cpu))
    }

    /// Pre-empts the process on `cpu` if someone is waiting: the running
    /// process goes to the back of the ready queue and the head waiter
    /// gets the CPU. Returns `(victim, dispatched)` if a switch happened.
    pub fn preempt(&mut self, cpu: CpuId) -> Option<(ProcessId, ProcessId)> {
        if self.ready.is_empty() {
            return None;
        }
        let victim = self.running[cpu.index()]?;
        self.running[cpu.index()] = None;
        self.ready.push_back(victim);
        let next = self
            .ready
            .pop_front()
            .expect("ready queue non-empty by construction");
        self.record_dispatch(next, cpu);
        self.stats.preemptions += 1;
        Some((victim, next))
    }

    /// Records a pre-emption performed by the engine at an event boundary
    /// (the engine releases the CPU and requeues the victim itself).
    pub fn note_preemption(&mut self) {
        self.stats.preemptions += 1;
    }

    /// Counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn fcfs_fills_cpus_then_queues() {
        let mut s = Scheduler::new(SchedPolicy::Fcfs, 2, 2, 4);
        assert_eq!(s.make_runnable(p(0)), Dispatch::Assigned(CpuId(0)));
        assert_eq!(s.make_runnable(p(1)), Dispatch::Assigned(CpuId(1)));
        assert_eq!(s.make_runnable(p(2)), Dispatch::Queued);
        assert_eq!(s.ready_len(), 1);
        assert_eq!(s.running_on(CpuId(0)), Some(p(0)));
    }

    #[test]
    fn release_dispatches_ready_head() {
        let mut s = Scheduler::new(SchedPolicy::Fcfs, 1, 1, 3);
        s.make_runnable(p(0));
        s.make_runnable(p(1));
        s.make_runnable(p(2));
        let (next, cpu) = s.release_cpu(p(0)).unwrap();
        assert_eq!(next, p(1));
        assert_eq!(cpu, CpuId(0));
        assert_eq!(s.ready_len(), 1);
    }

    #[test]
    fn release_with_empty_queue_frees_cpu() {
        let mut s = Scheduler::new(SchedPolicy::Fcfs, 2, 2, 2);
        s.make_runnable(p(0));
        assert!(s.release_cpu(p(0)).is_none());
        assert_eq!(s.running_on(CpuId(0)), None);
    }

    #[test]
    fn affinity_prefers_last_cpu() {
        let mut s = Scheduler::new(SchedPolicy::Affinity, 2, 1, 2);
        s.make_runnable(p(0)); // cpu0
        s.make_runnable(p(1)); // cpu1
        s.release_cpu(p(0));
        s.release_cpu(p(1));
        // Both CPUs free; p1 should return to cpu1 even though cpu0 is
        // listed first.
        assert_eq!(s.make_runnable(p(1)), Dispatch::Assigned(CpuId(1)));
        assert_eq!(s.stats().same_cpu, 1);
    }

    #[test]
    fn affinity_falls_back_to_same_node() {
        // 2 nodes x 2 cpus. p0 ran on cpu1 (node0); cpu1 now busy, cpu0
        // (node0) and cpu2 (node1) free -> prefer cpu0.
        let mut s = Scheduler::new(SchedPolicy::Affinity, 4, 2, 3);
        // Occupy cpu0 then move p0 to cpu1 by occupying in order.
        assert_eq!(s.make_runnable(p(1)), Dispatch::Assigned(CpuId(0)));
        assert_eq!(s.make_runnable(p(0)), Dispatch::Assigned(CpuId(1)));
        s.release_cpu(p(0)); // cpu1 free
        assert_eq!(s.make_runnable(p(2)), Dispatch::Assigned(CpuId(1)));
        // Now p0 runnable again: cpu1 busy; free cpus are 2,3 (node1) and
        // none on node0... free cpu0? cpu0 is busy (p1). So p0 must take a
        // node-1 cpu — a migration.
        assert_eq!(s.make_runnable(p(0)), Dispatch::Assigned(CpuId(2)));
        assert_eq!(s.stats().migrations, 1);
    }

    #[test]
    fn fcfs_ignores_history() {
        let mut s = Scheduler::new(SchedPolicy::Fcfs, 2, 2, 2);
        s.make_runnable(p(0)); // cpu0
        s.make_runnable(p(1)); // cpu1
        s.release_cpu(p(1));
        s.make_runnable(p(1)); // FCFS: first free cpu = cpu1 anyway here
        assert_eq!(s.cpu_of(p(1)), Some(CpuId(1)));
        s.release_cpu(p(0));
        s.release_cpu(p(1));
        // cpu0 and cpu1 free; FCFS gives cpu0 regardless of history.
        assert_eq!(s.make_runnable(p(1)), Dispatch::Assigned(CpuId(0)));
    }

    #[test]
    fn preempt_swaps_running_and_ready() {
        let mut s = Scheduler::new(SchedPolicy::Fcfs, 1, 1, 3);
        s.make_runnable(p(0));
        s.make_runnable(p(1));
        s.make_runnable(p(2));
        let (victim, next) = s.preempt(CpuId(0)).unwrap();
        assert_eq!(victim, p(0));
        assert_eq!(next, p(1));
        assert_eq!(s.running_on(CpuId(0)), Some(p(1)));
        // Victim is at the back: p2 goes before p0.
        let (v2, n2) = s.preempt(CpuId(0)).unwrap();
        assert_eq!((v2, n2), (p(1), p(2)));
        assert_eq!(s.stats().preemptions, 2);
    }

    #[test]
    fn preempt_without_waiters_is_noop() {
        let mut s = Scheduler::new(SchedPolicy::Fcfs, 2, 2, 2);
        s.make_runnable(p(0));
        assert!(s.preempt(CpuId(0)).is_none());
        assert_eq!(s.running_on(CpuId(0)), Some(p(0)));
    }

    #[test]
    fn preempt_idle_cpu_with_waiters() {
        // A waiter exists but the target CPU is idle: nothing to pre-empt
        // (the waiter would have been dispatched at release time).
        let mut s = Scheduler::new(SchedPolicy::Fcfs, 1, 1, 2);
        s.make_runnable(p(0));
        s.make_runnable(p(1)); // queued
        s.running[0] = None; // simulate a transient idle slot
        assert!(s.preempt(CpuId(0)).is_none());
    }
}
