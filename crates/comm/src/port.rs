//! Event ports and OS-style request ports.
//!
//! "Contained inside each application process, the *event port* is
//! responsible for communicating with the backend… The event port also
//! contains the per-process and per-event data structures which are shared
//! between the frontend and backend processes." (§2)
//!
//! The [`EventPort`] wraps the bounded [`crate::rendezvous::EventRing`]:
//! the frontend appends a basic block's worth of timed events with
//! [`EventPort::post_batched`] (non-blocking, and silent: the backend
//! learns of the batch from its cut) and rendezvouses with
//! [`EventPort::post`] on the batch's final event, whose reply aggregates
//! the batched latencies. A post from a task on the thread running the
//! engine is served on the poster's own stack ([`coro::serve`]): the
//! engine steps there until the reply is out, and the poster suspends
//! only if it is not. A poster on an ordinary thread (the benchmark's
//! port probes) bumps the port's [`Notifier`] epoch and waits.
//! The [`ReqPort`] is the generic blocking request/response rendezvous
//! used for OS ports ("The OS port is used to accept OS calls from an
//! application process", §3.1): a mutex-guarded request/response pair
//! whose blocked side waits through [`crate::coro`] (a task suspends, a
//! thread parks).

use crate::coro::{self, Waiter};
use crate::event::{Event, Folded, Reply};
use crate::notifier::Notifier;
use crate::rendezvous::EventRing;
use compass_isa::{Cycles, ProcessId};
use compass_obs::{CounterBlock, Ctr};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-process event port: the frontend (user and kernel code alike)
/// posts timed events; the backend scans, pops, and replies to blocking
/// entries.
pub struct EventPort {
    /// The process this port belongs to.
    pub pid: ProcessId,
    ring: EventRing,
    notifier: Arc<Notifier>,
    /// Observability counters (`None` = disabled; one branch per hook).
    counters: Option<Arc<CounterBlock>>,
    /// [`Folded`] of the latest blocking reply, user then kernel: data
    /// the port shares between poster and backend (§2). Written before
    /// the reply is released and read after it arrives, so the reply
    /// handoff orders both accesses.
    folded: [AtomicU64; 2],
}

impl EventPort {
    /// Creates a port whose ring holds at most `capacity` events: the
    /// batch depth of every poster on it (1 = a rendezvous per event).
    pub fn with_capacity(pid: ProcessId, notifier: Arc<Notifier>, capacity: usize) -> Self {
        Self {
            pid,
            ring: EventRing::new(capacity),
            notifier,
            counters: None,
            folded: Default::default(),
        }
    }

    /// Attaches observability counters to the port and its ring. Setup
    /// time only, before the port is shared.
    pub fn set_counters(&mut self, c: Arc<CounterBlock>) {
        self.ring.set_counters(Arc::clone(&c));
        self.counters = Some(c);
    }

    /// The ring capacity (maximum batch length).
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Poster: room for one more non-blocking event while keeping a slot
    /// for the blocking post that cuts the batch. Reads the ring's real
    /// occupancy, so a frontend batch and its own OS calls' kernel tail
    /// in one ring are bounded together. A poster only yields at a
    /// blocking post, so the occupancy can only fall under it.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.ring.len() + 1 < self.ring.capacity()
    }

    /// Posts a blocking event: publishes it, has the engine serve it, and
    /// waits for the reply. A task on the engine's thread runs the engine
    /// itself until the reply is out ([`coro::serve`]); any other poster
    /// bumps the notifier's epoch. Any events batched before it are
    /// consumed first; the reply's latency aggregates theirs (credit
    /// accounting lives in the backend).
    #[inline]
    pub fn post(&self, ev: Event) -> Reply {
        debug_assert_eq!(ev.pid, self.pid, "event posted on foreign port");
        // Serving or notifying must come *after* the ring publish;
        // post_with runs the hook between the Release publish and waiting.
        self.ring.post_with(ev, || {
            if !coro::serve(self.pid, || self.ring.is_replied()) {
                if let Some(c) = &self.counters {
                    c.inc(Ctr::RingNotifies);
                }
                self.notifier.notify();
            }
        })
    }

    /// Appends a non-blocking event to the batch and returns immediately.
    /// Nobody is told: the blocking post that cuts the batch tells the
    /// backend about the whole ring, and until then the poster's clock
    /// bound holds back every later event anyway.
    #[inline]
    pub fn post_batched(&self, ev: Event) {
        debug_assert_eq!(ev.pid, self.pid, "event posted on foreign port");
        self.ring.publish(ev, false);
    }

    /// Backend: peeks the head event's timestamp (as posted — the backend
    /// adds any latency credit it owes this process).
    #[inline]
    pub fn peek_time(&self) -> Option<Cycles> {
        self.ring.peek_time()
    }

    /// Backend: pops the head event. The `bool` is `wants_reply`: `true`
    /// means a producer waits until [`EventPort::reply`] (possibly much
    /// later — deferred replies implement blocking calls and descheduling).
    pub fn pop(&self) -> Option<(Event, bool)> {
        if let Some(c) = &self.counters {
            // Occupancy at pop time ≈ the batch depth the backend actually
            // sees (mean = port_occ_sum / port_occ_samples).
            c.add(Ctr::PortOccSum, self.ring.len() as u64);
            c.inc(Ctr::PortOccSamples);
        }
        self.ring.pop()
    }

    /// Backend: replies to the outstanding blocking event.
    pub fn reply(&self, r: Reply) {
        self.ring.reply(r);
    }

    /// Backend: records how much batch credit the outstanding blocking
    /// event's reply folds in (before that reply is sent).
    pub fn set_folded(&self, f: Folded) {
        self.folded[0].store(f.user, Ordering::Relaxed);
        self.folded[1].store(f.kernel, Ordering::Relaxed);
    }

    /// Poster: the batch credit folded into the reply it just received.
    pub fn folded(&self) -> Folded {
        Folded {
            user: self.folded[0].load(Ordering::Relaxed),
            kernel: self.folded[1].load(Ordering::Relaxed),
        }
    }

    /// Number of unconsumed events in the ring (diagnostic).
    pub fn pending(&self) -> usize {
        self.ring.len()
    }

    /// True while a poster on this port waits for a reply.
    pub fn has_blocked_poster(&self) -> bool {
        self.ring.has_blocked_poster()
    }

    /// Backend teardown: poisons the ring — wakes a waiting poster with an
    /// `Aborted` reply and makes every later post return `Aborted`.
    pub fn poison(&self) {
        self.ring.poison();
    }

    /// True once the port has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.ring.is_poisoned()
    }
}

/// A blocking request/response rendezvous between one client and one
/// server — the shape of the paper's OS port. The simulator no longer
/// uses it (a process runs its OS calls on its own task); the
/// benchmark's `comm.reqport_call_ns` probe measures it.
///
/// `call` blocks until the server `respond`s; `recv` blocks until a
/// request arrives. Neither holds the mutex while it waits.
pub struct ReqPort<Q, S> {
    inner: Mutex<ReqInner<Q, S>>,
}

struct ReqInner<Q, S> {
    req: Option<Q>,
    resp: Option<S>,
    /// The server blocked in `recv`.
    server: Option<Waiter>,
    /// The client blocked in `call`.
    client: Option<Waiter>,
}

impl<Q, S> Default for ReqPort<Q, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Q, S> ReqPort<Q, S> {
    /// Creates an idle port.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(ReqInner {
                req: None,
                resp: None,
                server: None,
                client: None,
            }),
        }
    }

    /// Client: sends a request and blocks for the response.
    pub fn call(&self, q: Q) -> S {
        {
            let mut g = self.inner.lock();
            assert!(
                g.req.is_none() && g.resp.is_none(),
                "ReqPort::call while a call is outstanding"
            );
            g.req = Some(q);
            if let Some(w) = g.server.take() {
                w.wake();
            }
        }
        loop {
            {
                let mut g = self.inner.lock();
                if let Some(s) = g.resp.take() {
                    return s;
                }
                g.client = Some(Waiter::current());
            }
            coro::wait();
        }
    }

    /// Server: blocks until a request arrives and takes it.
    pub fn recv(&self) -> Q {
        loop {
            {
                let mut g = self.inner.lock();
                if let Some(q) = g.req.take() {
                    return q;
                }
                g.server = Some(Waiter::current());
            }
            coro::wait();
        }
    }

    /// Server: responds to the request taken by the last [`ReqPort::recv`].
    pub fn respond(&self, s: S) {
        let mut g = self.inner.lock();
        debug_assert!(g.resp.is_none(), "double respond");
        g.resp = Some(s);
        if let Some(w) = g.client.take() {
            w.wake();
        }
    }

    /// Server: non-blocking receive.
    pub fn try_recv(&self) -> Option<Q> {
        self.inner.lock().req.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CtlOp, EventBody};
    use std::thread;

    fn ev(pid: u32, time: Cycles) -> Event {
        Event {
            pid: ProcessId(pid),
            time,
            body: EventBody::Ctl(CtlOp::Yield),
        }
    }

    #[test]
    fn event_port_notifies_backend() {
        let notifier = Arc::new(Notifier::new());
        let port = Arc::new(EventPort::with_capacity(
            ProcessId(3),
            Arc::clone(&notifier),
            1,
        ));
        let seen = notifier.epoch();
        let p2 = Arc::clone(&port);
        let poster = thread::spawn(move || p2.post(ev(3, 11)));
        // Backend side: poll for the notification, then serve.
        while notifier.epoch() == seen {
            thread::yield_now();
        }
        assert_eq!(port.peek_time(), Some(11));
        let (e, wants) = port.pop().unwrap();
        assert_eq!(e.pid, ProcessId(3));
        assert!(wants);
        port.reply(Reply::latency(2));
        assert_eq!(poster.join().unwrap().latency, 2);
    }

    #[test]
    fn batched_posts_stay_silent_and_drain_in_order() {
        let notifier = Arc::new(Notifier::new());
        let port = EventPort::with_capacity(ProcessId(0), Arc::clone(&notifier), 8);
        let e0 = notifier.epoch();
        port.post_batched(ev(0, 1));
        port.post_batched(ev(0, 2));
        port.post_batched(ev(0, 3));
        assert_eq!(notifier.epoch(), e0, "only the blocking cut notifies");
        assert_eq!(port.pending(), 3);
        for t in 1..=3 {
            let (e, wants) = port.pop().unwrap();
            assert_eq!(e.time, t);
            assert!(!wants, "batched events need no reply");
        }
        assert!(port.pop().is_none());
    }

    #[test]
    fn room_keeps_a_slot_for_the_cut() {
        let port = EventPort::with_capacity(ProcessId(0), Arc::new(Notifier::new()), 3);
        assert!(port.has_room());
        port.post_batched(ev(0, 1));
        assert!(port.has_room());
        port.post_batched(ev(0, 2));
        assert!(!port.has_room(), "the last slot is the blocking post's");
        assert!(port.pop().is_some());
        assert!(port.has_room(), "a pop frees a slot");
        let one = EventPort::with_capacity(ProcessId(0), Arc::new(Notifier::new()), 1);
        assert!(!one.has_room(), "a one-slot ring never batches");
    }

    #[test]
    fn req_port_roundtrip() {
        let port: Arc<ReqPort<String, usize>> = Arc::new(ReqPort::new());
        let p2 = Arc::clone(&port);
        let server = thread::spawn(move || {
            let q = p2.recv();
            p2.respond(q.len());
        });
        let resp = port.call("hello".to_string());
        assert_eq!(resp, 5);
        server.join().unwrap();
    }

    #[test]
    fn req_port_serialises_calls() {
        let port: Arc<ReqPort<u32, u32>> = Arc::new(ReqPort::new());
        let p2 = Arc::clone(&port);
        let server = thread::spawn(move || {
            for _ in 0..100 {
                let q = p2.recv();
                p2.respond(q * 2);
            }
        });
        for i in 0..100 {
            assert_eq!(port.call(i), i * 2);
        }
        server.join().unwrap();
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let port: ReqPort<u32, u32> = ReqPort::new();
        assert_eq!(port.try_recv(), None);
    }
}
