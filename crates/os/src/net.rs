//! The in-kernel TCP/IP model: listeners, connections, socket buffers.
//!
//! The SPECWeb profile in the paper attributes most of the web server's
//! kernel time to "kwritev, kreadv, select, statx, connect, open, close,
//! naccept and send which are predominantly due to the TCP/IP stack", plus
//! Ethernet interrupt handlers. This module supplies the functional state
//! those paths manipulate; the per-packet costs (mbuf handling, header
//! processing, software checksum) are charged by the syscall and handler
//! code in [`crate::syscalls`] / [`crate::handlers`].

use crate::proto::Errno;
use compass_isa::ConnId;
use compass_mem::VAddr;
use std::collections::{HashMap, VecDeque};

/// One TCP connection.
#[derive(Debug)]
pub struct Conn {
    /// Connection id (assigned by the client-side traffic source).
    pub id: ConnId,
    /// Simulated address of the protocol control block.
    pub pcb_addr: VAddr,
    /// Received, not-yet-consumed bytes (socket receive buffer).
    pub rx: VecDeque<u8>,
    /// Peer sent FIN.
    pub peer_closed: bool,
    /// Locally closed.
    pub closed: bool,
    /// Total bytes sent on this connection.
    pub tx_bytes: u64,
    /// Total bytes received.
    pub rx_bytes: u64,
}

/// A listening socket.
#[derive(Debug)]
pub struct Listener {
    /// TCP port.
    pub port: u16,
    /// Simulated address of the listener structure.
    pub kaddr: VAddr,
    /// Connections accepted by the stack, waiting for `naccept`.
    pub accept_q: VecDeque<ConnId>,
}

/// Network counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections established.
    pub conns: u64,
    /// Frames processed by the receive path.
    pub rx_frames: u64,
    /// Bytes delivered into socket buffers.
    pub rx_bytes: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
}

/// The network stack's functional state (guarded by the simulated NET
/// lock).
#[derive(Debug, Default)]
pub struct NetState {
    conns: HashMap<ConnId, Conn>,
    listeners: HashMap<u16, Listener>,
    /// Counters.
    pub stats: NetStats,
}

impl NetState {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or joins) a listener on `port`. Joining an existing listener
    /// models the pre-fork server idiom: every worker process accepts from
    /// the same queue, as Apache children do on an inherited socket.
    pub fn listen(&mut self, port: u16, kaddr: VAddr) -> Result<(), Errno> {
        self.listeners.entry(port).or_insert_with(|| Listener {
            port,
            kaddr,
            accept_q: VecDeque::new(),
        });
        Ok(())
    }

    /// Borrows a listener.
    pub fn listener(&self, port: u16) -> Option<&Listener> {
        self.listeners.get(&port)
    }

    /// Closes a listener; queued-but-unaccepted connections are dropped.
    pub fn unlisten(&mut self, port: u16) -> Option<Listener> {
        self.listeners.remove(&port)
    }

    /// Stack-side connection establishment (SYN processing): creates the
    /// connection and queues it on the listener. Returns `false` if no
    /// listener exists (the frame is dropped, as a RST would).
    pub fn syn(&mut self, conn: ConnId, port: u16, pcb_addr: VAddr) -> bool {
        let Some(l) = self.listeners.get_mut(&port) else {
            return false;
        };
        l.accept_q.push_back(conn);
        self.conns.insert(
            conn,
            Conn {
                id: conn,
                pcb_addr,
                rx: VecDeque::new(),
                peer_closed: false,
                closed: false,
                tx_bytes: 0,
                rx_bytes: 0,
            },
        );
        self.stats.conns += 1;
        true
    }

    /// Pops an accepted connection off a listener.
    pub fn accept(&mut self, port: u16) -> Option<ConnId> {
        self.listeners.get_mut(&port)?.accept_q.pop_front()
    }

    /// Delivers received payload into a connection's socket buffer.
    /// Returns `false` for unknown/closed connections (dropped).
    pub fn deliver(&mut self, conn: ConnId, payload: &[u8]) -> bool {
        match self.conns.get_mut(&conn) {
            Some(c) if !c.closed => {
                c.rx.extend(payload.iter().copied());
                c.rx_bytes += payload.len() as u64;
                self.stats.rx_bytes += payload.len() as u64;
                true
            }
            _ => false,
        }
    }

    /// Marks the peer side closed (FIN).
    pub fn peer_close(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.peer_closed = true;
        }
    }

    /// Consumes up to `len` bytes from a connection's receive buffer.
    /// `Ok(empty)` means EOF (peer closed, buffer drained);
    /// `Err(Again)` means no data yet.
    pub fn recv(&mut self, conn: ConnId, len: u32) -> Result<Vec<u8>, Errno> {
        let c = self.conns.get_mut(&conn).ok_or(Errno::BadF)?;
        if c.closed {
            return Err(Errno::ConnClosed);
        }
        if c.rx.is_empty() {
            return if c.peer_closed {
                Ok(Vec::new())
            } else {
                Err(Errno::Again)
            };
        }
        let n = (len as usize).min(c.rx.len());
        Ok(c.rx.drain(..n).collect())
    }

    /// Records a transmission.
    pub fn sent(&mut self, conn: ConnId, bytes: u32) -> Result<(), Errno> {
        let c = self.conns.get_mut(&conn).ok_or(Errno::BadF)?;
        if c.closed {
            return Err(Errno::ConnClosed);
        }
        c.tx_bytes += bytes as u64;
        self.stats.tx_bytes += bytes as u64;
        Ok(())
    }

    /// Closes the local side.
    pub fn close(&mut self, conn: ConnId) -> Result<(), Errno> {
        let c = self.conns.get_mut(&conn).ok_or(Errno::BadF)?;
        c.closed = true;
        Ok(())
    }

    /// Readability for select: data queued, or EOF pending.
    pub fn readable(&self, conn: ConnId) -> bool {
        self.conns
            .get(&conn)
            .is_some_and(|c| !c.rx.is_empty() || c.peer_closed)
    }

    /// A listener is "readable" when connections await accept.
    pub fn listener_readable(&self, port: u16) -> bool {
        self.listeners
            .get(&port)
            .is_some_and(|l| !l.accept_q.is_empty())
    }

    /// Borrows a connection (diagnostics/tests).
    pub fn conn(&self, conn: ConnId) -> Option<&Conn> {
        self.conns.get(&conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: VAddr = VAddr(0xC002_0000);

    #[test]
    fn listen_syn_accept_flow() {
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        assert!(n.syn(ConnId(1), 80, K + 64));
        assert!(n.listener_readable(80));
        assert_eq!(n.accept(80), Some(ConnId(1)));
        assert!(!n.listener_readable(80));
        assert_eq!(n.accept(80), None);
    }

    #[test]
    fn syn_without_listener_is_dropped() {
        let mut n = NetState::new();
        assert!(!n.syn(ConnId(1), 8080, K));
        assert!(n.conn(ConnId(1)).is_none());
    }

    #[test]
    fn second_listen_joins_the_existing_queue() {
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        n.syn(ConnId(1), 80, K);
        // A second worker listening on the same port shares the queue.
        n.listen(80, K + 4096).unwrap();
        assert_eq!(n.accept(80), Some(ConnId(1)));
        assert_eq!(n.listener(80).unwrap().kaddr, K, "original listener kept");
    }

    #[test]
    fn deliver_then_recv() {
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        n.syn(ConnId(1), 80, K);
        assert_eq!(n.recv(ConnId(1), 10), Err(Errno::Again));
        assert!(n.deliver(ConnId(1), b"GET /x"));
        assert!(n.readable(ConnId(1)));
        assert_eq!(n.recv(ConnId(1), 3).unwrap(), b"GET");
        assert_eq!(n.recv(ConnId(1), 100).unwrap(), b" /x");
        assert_eq!(n.recv(ConnId(1), 10), Err(Errno::Again));
    }

    #[test]
    fn fin_gives_eof_after_drain() {
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        n.syn(ConnId(1), 80, K);
        n.deliver(ConnId(1), b"x");
        n.peer_close(ConnId(1));
        assert_eq!(n.recv(ConnId(1), 10).unwrap(), b"x");
        assert_eq!(n.recv(ConnId(1), 10).unwrap(), Vec::<u8>::new(), "EOF");
    }

    #[test]
    fn close_rejects_further_io() {
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        n.syn(ConnId(1), 80, K);
        n.close(ConnId(1)).unwrap();
        assert_eq!(n.recv(ConnId(1), 1), Err(Errno::ConnClosed));
        assert_eq!(n.sent(ConnId(1), 1), Err(Errno::ConnClosed));
        assert!(!n.deliver(ConnId(1), b"y"), "late frames are dropped");
    }

    #[test]
    fn churn_mid_transfer_drains_buffered_data_then_eofs() {
        // A churned client FINs while response bytes are still queued in
        // its socket buffer: the reader must see every buffered byte
        // before the EOF, never a truncated stream.
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        n.syn(ConnId(1), 80, K);
        n.deliver(ConnId(1), b"GET /a");
        assert_eq!(n.recv(ConnId(1), 4).unwrap(), b"GET ");
        n.peer_close(ConnId(1));
        // Frames racing the FIN (retransmits, reordered segments) still
        // land: only a *local* close drops them.
        assert!(n.deliver(ConnId(1), b"bc"), "frame racing the FIN lands");
        assert!(n.readable(ConnId(1)));
        assert_eq!(n.recv(ConnId(1), 100).unwrap(), b"/abc");
        assert_eq!(n.recv(ConnId(1), 1).unwrap(), Vec::<u8>::new(), "EOF");
        assert_eq!(n.conn(ConnId(1)).unwrap().rx_bytes, 8);
    }

    #[test]
    fn unknown_connection_io_is_badf() {
        let mut n = NetState::new();
        assert_eq!(n.recv(ConnId(9), 1), Err(Errno::BadF));
        assert_eq!(n.sent(ConnId(9), 1), Err(Errno::BadF));
        assert_eq!(n.close(ConnId(9)), Err(Errno::BadF));
        assert!(!n.readable(ConnId(9)));
    }

    #[test]
    fn unlisten_drops_queued_connections_and_stops_syns() {
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        n.syn(ConnId(1), 80, K);
        n.syn(ConnId(2), 80, K + 64);
        let l = n.unlisten(80).expect("listener existed");
        assert_eq!(l.accept_q, [ConnId(1), ConnId(2)]);
        assert_eq!(n.accept(80), None, "queue went with the listener");
        assert!(!n.listener_readable(80));
        assert!(!n.syn(ConnId(3), 80, K), "SYN after unlisten is a RST");
        // Established connections outlive their listener (as in TCP).
        assert!(n.deliver(ConnId(1), b"x"));
        assert_eq!(n.recv(ConnId(1), 1).unwrap(), b"x");
    }

    #[test]
    fn local_close_discards_buffered_rx() {
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        n.syn(ConnId(1), 80, K);
        n.deliver(ConnId(1), b"pending");
        n.close(ConnId(1)).unwrap();
        assert_eq!(
            n.recv(ConnId(1), 100),
            Err(Errno::ConnClosed),
            "buffered bytes are unreachable after local close"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut n = NetState::new();
        n.listen(80, K).unwrap();
        n.syn(ConnId(1), 80, K);
        n.deliver(ConnId(1), b"abcd");
        n.sent(ConnId(1), 100).unwrap();
        assert_eq!(n.stats.conns, 1);
        assert_eq!(n.stats.rx_bytes, 4);
        assert_eq!(n.stats.tx_bytes, 100);
    }
}
