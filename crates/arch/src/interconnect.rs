//! The inter-node network model.
//!
//! Latency = fixed overhead + hops × per-hop + payload × per-byte, plus
//! queueing at the sender's network interface (one [`BusyResource`] per
//! node). Topologies determine the hop count; contention inside the fabric
//! is folded into the interface occupancy, a standard first-order model.

use crate::bus::BusyResource;
use crate::config::LatencyParams;
use compass_isa::Cycles;

/// Interconnect topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Single-hop crossbar.
    Crossbar,
    /// Bidirectional ring.
    Ring,
    /// 2D mesh, as square as possible.
    Mesh2D,
}

impl Topology {
    /// Hop count between two nodes (0 when equal).
    pub fn hops(self, from: usize, to: usize, nodes: usize) -> u64 {
        if from == to {
            return 0;
        }
        match self {
            Topology::Crossbar => 1,
            Topology::Ring => {
                let d = from.abs_diff(to);
                d.min(nodes - d) as u64
            }
            Topology::Mesh2D => {
                let w = (nodes as f64).sqrt().ceil() as usize;
                let (fx, fy) = (from % w, from / w);
                let (tx, ty) = (to % w, to / w);
                (fx.abs_diff(tx) + fy.abs_diff(ty)) as u64
            }
        }
    }
}

/// Per-network counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages sent (excluding node-local "messages").
    pub messages: u64,
    /// Total payload bytes moved between nodes.
    pub bytes: u64,
    /// Total hop count across all messages.
    pub hops: u64,
}

/// The network: topology + per-node interface occupancy.
#[derive(Debug, Clone)]
pub struct Interconnect {
    topology: Topology,
    nodes: usize,
    interfaces: Vec<BusyResource>,
    stats: NetStats,
}

impl Interconnect {
    /// Creates the network for `nodes` nodes.
    pub fn new(topology: Topology, nodes: usize) -> Self {
        assert!(nodes > 0);
        Self {
            topology,
            nodes,
            interfaces: vec![BusyResource::new(); nodes],
            stats: NetStats::default(),
        }
    }

    /// Latency for a `bytes`-byte message from `from` to `to` starting at
    /// `now`, including sender-interface queueing. Node-local messages are
    /// free (the node bus already charged them).
    pub fn send(
        &mut self,
        lat: &LatencyParams,
        now: Cycles,
        from: usize,
        to: usize,
        bytes: u32,
    ) -> Cycles {
        if from == to {
            return 0;
        }
        let hops = self.topology.hops(from, to, self.nodes);
        let wire =
            lat.net_fixed + hops * lat.net_per_hop + (bytes as u64 * lat.net_per_byte_x100) / 100;
        let iface = self.interfaces[from].acquire(now, lat.net_fixed.max(1));
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        self.stats.hops += hops;
        // The interface delay overlaps the fixed overhead conservatively:
        // total is queueing + wire time.
        (iface - lat.net_fixed.max(1).min(iface)) + wire
    }

    /// Counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Serializes every interface's occupancy state and the counters
    /// (topology and node count come from the configuration).
    /// Nothing in the simulator reads or writes it: only the benchmark's
    /// checkpoint probe does, and it goes with that probe (ROADMAP item 1a).
    pub fn encode_snapshot(&self, w: &mut compass_snap::Writer) {
        w.u64(self.interfaces.len() as u64);
        for iface in &self.interfaces {
            iface.encode_snapshot(w);
        }
        w.u64(self.stats.messages);
        w.u64(self.stats.bytes);
        w.u64(self.stats.hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_is_single_hop() {
        let t = Topology::Crossbar;
        assert_eq!(t.hops(0, 3, 8), 1);
        assert_eq!(t.hops(2, 2, 8), 0);
    }

    #[test]
    fn ring_takes_shortest_way_around() {
        let t = Topology::Ring;
        assert_eq!(t.hops(0, 1, 8), 1);
        assert_eq!(t.hops(0, 7, 8), 1, "wraps around");
        assert_eq!(t.hops(0, 4, 8), 4);
        assert_eq!(t.hops(1, 6, 8), 3);
    }

    #[test]
    fn mesh_uses_manhattan_distance() {
        // 4 nodes -> 2x2 mesh.
        let t = Topology::Mesh2D;
        assert_eq!(t.hops(0, 3, 4), 2); // (0,0) -> (1,1)
        assert_eq!(t.hops(0, 1, 4), 1);
        // 9 nodes -> 3x3 mesh, corners are 4 apart.
        assert_eq!(t.hops(0, 8, 9), 4);
    }

    #[test]
    fn local_send_is_free() {
        let mut net = Interconnect::new(Topology::Crossbar, 4);
        let lat = LatencyParams::default();
        assert_eq!(net.send(&lat, 0, 2, 2, 64), 0);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn remote_send_scales_with_hops_and_bytes() {
        let mut net = Interconnect::new(Topology::Ring, 8);
        let lat = LatencyParams::default();
        let near = net.send(&lat, 0, 0, 1, 64);
        let mut net2 = Interconnect::new(Topology::Ring, 8);
        let far = net2.send(&lat, 0, 0, 4, 64);
        assert!(far > near, "more hops must cost more");
        let mut net3 = Interconnect::new(Topology::Ring, 8);
        let big = net3.send(&lat, 0, 0, 1, 4096);
        assert!(big > near, "more bytes must cost more");
    }

    #[test]
    fn interface_contention_queues() {
        let mut net = Interconnect::new(Topology::Crossbar, 2);
        let lat = LatencyParams::default();
        let first = net.send(&lat, 0, 0, 1, 64);
        let second = net.send(&lat, 0, 0, 1, 64);
        assert!(second > first, "same-cycle messages must queue at the NI");
    }

    #[test]
    fn stats_accumulate() {
        let mut net = Interconnect::new(Topology::Crossbar, 4);
        let lat = LatencyParams::default();
        net.send(&lat, 0, 0, 1, 100);
        net.send(&lat, 0, 1, 3, 200);
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().bytes, 300);
        assert_eq!(net.stats().hops, 2);
    }
}
