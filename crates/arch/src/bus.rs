//! Node-bus and memory-controller contention model.
//!
//! A split-transaction bus is modelled by its *occupancy*: each transaction
//! holds the bus for a fixed number of cycles; a transaction arriving while
//! the bus is busy queues behind it. Because the backend processes events
//! in nondecreasing global time, a single `busy_until` horizon per resource
//! captures FIFO queueing exactly.

use compass_isa::Cycles;

/// A time-shared resource (bus, memory controller, network link).
#[derive(Debug, Clone, Default)]
pub struct BusyResource {
    busy_until: Cycles,
    /// Total cycles of occupancy charged.
    pub busy_cycles: Cycles,
    /// Total cycles transactions spent queued.
    pub queue_cycles: Cycles,
    /// Number of transactions served.
    pub transactions: u64,
}

impl BusyResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges a transaction of `occupancy` cycles starting no earlier
    /// than `now`. Returns the *total delay* experienced by the requester
    /// (queueing + occupancy).
    pub fn acquire(&mut self, now: Cycles, occupancy: Cycles) -> Cycles {
        let start = self.busy_until.max(now);
        let wait = start - now;
        self.busy_until = start + occupancy;
        self.busy_cycles += occupancy;
        self.queue_cycles += wait;
        self.transactions += 1;
        wait + occupancy
    }

    /// Serializes the full occupancy state, `busy_until` horizon
    /// included. Nothing in the simulator reads or writes it: only the
    /// benchmark's checkpoint probe does, and it goes with that probe
    /// (ROADMAP item 1a).
    pub fn encode_snapshot(&self, w: &mut compass_snap::Writer) {
        w.u64(self.busy_until);
        w.u64(self.busy_cycles);
        w.u64(self.queue_cycles);
        w.u64(self.transactions);
    }

    /// Utilisation over an interval of `elapsed` cycles.
    pub fn utilisation(&self, elapsed: Cycles) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / elapsed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bus_charges_only_occupancy() {
        let mut b = BusyResource::new();
        assert_eq!(b.acquire(100, 6), 6);
        assert_eq!(b.queue_cycles, 0);
        assert_eq!(b.busy_cycles, 6);
    }

    #[test]
    fn back_to_back_transactions_queue() {
        let mut b = BusyResource::new();
        assert_eq!(b.acquire(0, 10), 10); // busy until 10
        assert_eq!(b.acquire(0, 10), 20); // waits 10, then 10
        assert_eq!(b.acquire(5, 10), 25); // waits 15, then 10
        assert_eq!(b.queue_cycles, 10 + 15);
        assert_eq!(b.transactions, 3);
    }

    #[test]
    fn gap_lets_bus_go_idle() {
        let mut b = BusyResource::new();
        b.acquire(0, 10);
        assert_eq!(b.acquire(100, 10), 10, "bus idle again by t=100");
    }

    #[test]
    fn utilisation_is_fractional() {
        let mut b = BusyResource::new();
        b.acquire(0, 25);
        assert!((b.utilisation(100) - 0.25).abs() < 1e-12);
        assert_eq!(BusyResource::new().utilisation(0), 0.0);
    }
}
