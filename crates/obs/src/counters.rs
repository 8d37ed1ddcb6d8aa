//! The counter catalogue and the lock-free aggregation hub.
//!
//! Each subsystem (backend engine, every event port, the processes' OS
//! calls, each frontend) owns an [`CounterBlock`] — a fixed array of relaxed
//! `AtomicU64`s it alone increments — registered with the run's
//! [`ObsHub`]. Nothing is shared on the hot path; the hub walks the
//! blocks once at the end of the run and sums them into a
//! [`CounterSnapshot`]. Increments on an owned cache line with relaxed
//! ordering cost a handful of cycles; hook sites additionally gate on an
//! `Option` so a disabled run pays only the branch.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The fixed counter catalogue. The numeric value is the slot index in a
/// [`CounterBlock`] and is internal: reports, the fleet and the benchmark
/// read counters by [`Ctr::name`], so names are the stable interface. A
/// name that leaves the catalogue reads as 0 through
/// `ObsReport::counter`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Ctr {
    /// Memory-reference events serviced by the backend.
    EventsMemRef,
    /// Synchronisation events (locks/barriers) serviced.
    EventsSync,
    /// Device-command events serviced.
    EventsDev,
    /// Control events (start/exit/block/shm/map…) serviced.
    EventsCtl,
    /// Scheduler dispatches (a process installed on a CPU).
    SchedDispatches,
    /// Quantum-expiry preemptions delivered.
    SchedPreemptions,
    /// Page faults taken (soft faults + demand fills).
    PageFaults,
    /// TLB misses charged by address translation.
    TlbMisses,
    /// DSM page transfers/invalidations (CC-NUMA/COMA/SW-DSM modes).
    DsmTransfers,
    /// Interval-timer ticks serviced by the backend.
    TimerTicks,
    /// Interrupts dispatched to the bottom-half daemon.
    IrqDispatches,
    /// Replies delivered to blocked posters.
    Replies,
    /// Progress snapshots emitted.
    ProgressSnapshots,
    /// Blocking posts through an event ring.
    RingPosts,
    /// Events published in batched (credit) mode.
    RingBatched,
    /// Backend notifications: blocking posts from ordinary threads (a
    /// task's post runs the engine itself and never notifies).
    RingNotifies,
    /// Blocking posts whose poster had to suspend (or park) for the
    /// reply, counted once per post. A task's post is served on its own
    /// stack first and suspends only if the reply is still missing, so
    /// `ring_posts - ring_stalls` is the number of posts served to their
    /// reply without a suspension.
    RingStalls,
    /// Posts answered with `Aborted` because the ring was poisoned.
    RingAborts,
    /// Sum of ring occupancy sampled at each pop (divide by
    /// [`Ctr::PortOccSamples`] for mean batch depth actually seen).
    PortOccSum,
    /// Number of occupancy samples.
    PortOccSamples,
    /// System calls the processes ran.
    OsCalls,
    /// Pseudo interrupts the processes ran (§3.2).
    OsPseudoIrqs,
    /// Events posted by frontends (app processes).
    FrontendPosts,
    /// Wall-clock ns frontends spent generating events (their tasks'
    /// running time): the frontend class of the host ledger, beside
    /// [`Ctr::HostOsNs`], [`Ctr::HostBottomHalfNs`] and
    /// [`Ctr::HostBackendNs`].
    FrontendGenNs,
    /// Wall-clock ns frontends spent suspended in the communicator
    /// (between a blocking post and the resume that follows it).
    CommWaitNs,
    /// Wall-clock ns the backend spent servicing events.
    BackendActiveNs,
    /// Trace records dropped because the ring was full.
    TraceDropped,
    /// System calls whose kernel context batched events instead of
    /// round-tripping per event (their latencies settle through credit).
    OsBatchedReplies,
    /// Device completion wake events scheduled (disk completions and
    /// network deliveries entered into the engine's task heap).
    DeviceWakeEvents,
    /// Interval-timer polls skipped because the target CPU was idle (the
    /// tick disarms instead of rescheduling).
    DevicePollsEliminated,
    /// Disk/NIC completion deliveries that woke the blocked OS bottom-half
    /// daemon (wake-driven, not polled).
    DiskWakeEvents,
    /// Device-queue probes (blocked-daemon checks and handler drain
    /// passes) the postbox due-time summary answered without a lock
    /// acquisition or queue scan.
    DiskPollsEliminated,
    /// Host ns the processes spent running their OS calls and pseudo
    /// interrupts (the in-program host ledger: with
    /// [`Ctr::FrontendGenNs`], the bottom-half and backend classes, it
    /// sums to the run's wall).
    HostOsNs,
    /// Host ns spent running the bottom-half daemon task.
    HostBottomHalfNs,
    /// Host ns of the run's wall spent outside every task: the engine,
    /// the executor, and spawning and joining the backend thread.
    HostBackendNs,
    /// Leaf writes to the engine's least-time index: one per process
    /// entry that actually changed when re-derived before a selection.
    ScanIndexUpdates,
}

/// Number of counters in the catalogue.
pub const CTR_COUNT: usize = Ctr::ScanIndexUpdates as usize + 1;

impl Ctr {
    /// Every counter, in slot order.
    pub const ALL: [Ctr; CTR_COUNT] = [
        Ctr::EventsMemRef,
        Ctr::EventsSync,
        Ctr::EventsDev,
        Ctr::EventsCtl,
        Ctr::SchedDispatches,
        Ctr::SchedPreemptions,
        Ctr::PageFaults,
        Ctr::TlbMisses,
        Ctr::DsmTransfers,
        Ctr::TimerTicks,
        Ctr::IrqDispatches,
        Ctr::Replies,
        Ctr::ProgressSnapshots,
        Ctr::RingPosts,
        Ctr::RingBatched,
        Ctr::RingNotifies,
        Ctr::RingStalls,
        Ctr::RingAborts,
        Ctr::PortOccSum,
        Ctr::PortOccSamples,
        Ctr::OsCalls,
        Ctr::OsPseudoIrqs,
        Ctr::FrontendPosts,
        Ctr::FrontendGenNs,
        Ctr::CommWaitNs,
        Ctr::BackendActiveNs,
        Ctr::TraceDropped,
        Ctr::OsBatchedReplies,
        Ctr::DeviceWakeEvents,
        Ctr::DevicePollsEliminated,
        Ctr::DiskWakeEvents,
        Ctr::DiskPollsEliminated,
        Ctr::HostOsNs,
        Ctr::HostBottomHalfNs,
        Ctr::HostBackendNs,
        Ctr::ScanIndexUpdates,
    ];

    /// True for counters that measure the *host* transport mechanics
    /// (posts, replies, parks, doorbells, occupancy, wall-clock ns) rather
    /// than the simulated machine. Two runs of the same configuration
    /// produce bit-identical simulated counters, but the host set depends
    /// on transport knobs and host timing: ns are wall-clock by
    /// definition, and post/reply counts move with batch depths — even
    /// though `BackendStats` stays bit-identical throughout.
    /// Report generators (the fleet runner's aggregate JSON) segregate
    /// these so reports stay byte-comparable modulo the host.
    pub fn host_timing(self) -> bool {
        // Inverted match: the *simulated-machine* counters — event,
        // syscall, fault, dispatch, and device-wake counts driven
        // purely by simulated time — are the reproducible set.
        !matches!(
            self,
            Ctr::EventsMemRef
                | Ctr::EventsSync
                | Ctr::EventsDev
                | Ctr::EventsCtl
                | Ctr::SchedDispatches
                | Ctr::SchedPreemptions
                | Ctr::PageFaults
                | Ctr::TlbMisses
                | Ctr::DsmTransfers
                | Ctr::TimerTicks
                | Ctr::IrqDispatches
                | Ctr::OsCalls
                | Ctr::OsPseudoIrqs
                | Ctr::DeviceWakeEvents
                | Ctr::DevicePollsEliminated
                | Ctr::DiskWakeEvents
                | Ctr::DiskPollsEliminated
                | Ctr::ScanIndexUpdates
        )
    }

    /// Reverse of [`Ctr::name`].
    pub fn by_name(name: &str) -> Option<Ctr> {
        Ctr::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Stable snake_case name used in reports and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Ctr::EventsMemRef => "events_memref",
            Ctr::EventsSync => "events_sync",
            Ctr::EventsDev => "events_dev",
            Ctr::EventsCtl => "events_ctl",
            Ctr::SchedDispatches => "sched_dispatches",
            Ctr::SchedPreemptions => "sched_preemptions",
            Ctr::PageFaults => "page_faults",
            Ctr::TlbMisses => "tlb_misses",
            Ctr::DsmTransfers => "dsm_transfers",
            Ctr::TimerTicks => "timer_ticks",
            Ctr::IrqDispatches => "irq_dispatches",
            Ctr::Replies => "replies",
            Ctr::ProgressSnapshots => "progress_snapshots",
            Ctr::RingPosts => "ring_posts",
            Ctr::RingBatched => "ring_batched",
            Ctr::RingNotifies => "ring_notifies",
            Ctr::RingStalls => "ring_stalls",
            Ctr::RingAborts => "ring_aborts",
            Ctr::PortOccSum => "port_occ_sum",
            Ctr::PortOccSamples => "port_occ_samples",
            Ctr::OsCalls => "os_calls",
            Ctr::OsPseudoIrqs => "os_pseudo_irqs",
            Ctr::FrontendPosts => "frontend_posts",
            Ctr::FrontendGenNs => "frontend_gen_ns",
            Ctr::CommWaitNs => "comm_wait_ns",
            Ctr::BackendActiveNs => "backend_active_ns",
            Ctr::TraceDropped => "trace_dropped",
            Ctr::OsBatchedReplies => "os_batched_replies",
            Ctr::DeviceWakeEvents => "device_wake_events",
            Ctr::DevicePollsEliminated => "device_polls_eliminated",
            Ctr::DiskWakeEvents => "disk_wake_events",
            Ctr::DiskPollsEliminated => "disk_polls_eliminated",
            Ctr::HostOsNs => "host_os_ns",
            Ctr::HostBottomHalfNs => "host_bottom_half_ns",
            Ctr::HostBackendNs => "host_backend_ns",
            Ctr::ScanIndexUpdates => "scan_index_updates",
        }
    }
}

/// One subsystem's counters: a fixed array of relaxed atomics. The owner
/// increments; the hub reads at merge time.
pub struct CounterBlock {
    slots: [AtomicU64; CTR_COUNT],
}

impl Default for CounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterBlock {
    /// A zeroed block.
    pub fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        self.slots[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter.
    #[inline]
    pub fn inc(&self, c: Ctr) {
        self.add(c, 1);
    }

    /// Current value of one counter.
    pub fn get(&self, c: Ctr) -> u64 {
        self.slots[c as usize].load(Ordering::Relaxed)
    }
}

/// Merged totals across every registered block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    totals: [u64; CTR_COUNT],
}

impl CounterSnapshot {
    /// Value of one counter.
    pub fn get(&self, c: Ctr) -> u64 {
        self.totals[c as usize]
    }

    /// Every counter with its stable name, in catalogue order.
    pub fn all(&self) -> Vec<(&'static str, u64)> {
        Ctr::ALL.iter().map(|c| (c.name(), self.get(*c))).collect()
    }
}

/// The per-run registry of counter blocks. Registration happens during
/// setup (mutex-protected, cold); merging happens once after the run.
#[derive(Default)]
pub struct ObsHub {
    blocks: Mutex<Vec<(String, Arc<CounterBlock>)>>,
}

impl ObsHub {
    /// A fresh hub.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers and returns a new block for `label` (labels are for
    /// debugging; duplicates are fine — blocks merge by summing).
    pub fn register(&self, label: &str) -> Arc<CounterBlock> {
        let block = Arc::new(CounterBlock::new());
        self.blocks
            .lock()
            .push((label.to_string(), Arc::clone(&block)));
        block
    }

    /// Sums every registered block.
    pub fn merge(&self) -> CounterSnapshot {
        let mut totals = [0u64; CTR_COUNT];
        for (_, block) in self.blocks.lock().iter() {
            for (i, slot) in totals.iter_mut().enumerate() {
                *slot += block.slots[i].load(Ordering::Relaxed);
            }
        }
        CounterSnapshot { totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_consistent() {
        for (i, c) in Ctr::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "slot order mismatch for {c:?}");
        }
        let mut names: Vec<_> = Ctr::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CTR_COUNT, "duplicate counter name");
    }

    #[test]
    fn names_round_trip_and_classify() {
        for c in Ctr::ALL {
            assert_eq!(Ctr::by_name(c.name()), Some(c), "{c:?}");
        }
        assert_eq!(Ctr::by_name("no_such_counter"), None);
        // Wall-clock measurements and ring traffic are host timing;
        // simulated event/syscall/device counts are reproducible.
        assert!(Ctr::FrontendGenNs.host_timing());
        assert!(Ctr::HostBottomHalfNs.host_timing());
        assert!(Ctr::HostBackendNs.host_timing());
        assert!(Ctr::RingNotifies.host_timing());
        assert!(Ctr::RingStalls.host_timing());
        assert!(Ctr::Replies.host_timing());
        assert!(!Ctr::EventsMemRef.host_timing());
        assert!(!Ctr::OsCalls.host_timing());
        assert!(!Ctr::DiskWakeEvents.host_timing());
        assert!(!Ctr::ScanIndexUpdates.host_timing());
    }

    #[test]
    fn hub_merges_across_blocks() {
        let hub = ObsHub::new();
        let a = hub.register("backend");
        let b = hub.register("port-0");
        a.add(Ctr::EventsMemRef, 3);
        b.inc(Ctr::EventsMemRef);
        b.inc(Ctr::RingNotifies);
        let snap = hub.merge();
        assert_eq!(snap.get(Ctr::EventsMemRef), 4);
        assert_eq!(snap.get(Ctr::RingNotifies), 1);
        assert_eq!(snap.get(Ctr::OsCalls), 0);
        assert_eq!(snap.all().len(), CTR_COUNT);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let hub = ObsHub::new();
        let block = hub.register("x");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&block);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        b.inc(Ctr::FrontendPosts);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hub.merge().get(Ctr::FrontendPosts), 40_000);
    }
}
