//! The bounded event ring underlying every event port.
//!
//! "When the event port is invoked, it notifies the backend that it has a
//! message, and in the normal case waits for a reply, which prevents the
//! frontend process from proceeding." (§2) The same section distinguishes
//! *blocking* from *non-blocking* message passing primitives: most timed
//! events need no individual reply, so the frontend may publish a basic
//! block's worth of them and rendezvous only on the last.
//!
//! The ring is a single-producer (the frontend or its paired OS thread —
//! never both at once; the OS-port rendezvous serialises the handoff) /
//! single-consumer (the backend) bounded SPSC queue of `(Event, wants_reply)`
//! entries, plus a one-shot reply slot for the single outstanding blocking
//! entry:
//!
//! ```text
//!   producer:  publish(ev, false)*  → publish(ev, true) + wait
//!   consumer:  pop … pop            → reply(r) + wake
//! ```
//!
//! At most one blocking entry is ever outstanding: the producer waits on it,
//! and cross-producer handoff (frontend → OS thread) only happens while the
//! frontend is blocked *outside* the ring, in the OS request port. The
//! reply slot is the one-shot channel of *Rust Atomics and Locks* ch. 5;
//! the ring adds the frontend's batching. Waiting and waking go
//! through [`crate::coro`]: a producer task suspends to the engine that
//! will reply, a producer thread parks.

use crate::coro::{self, Waiter};
use crate::event::{Event, Reply, ReplyData};
use compass_isa::Cycles;
use compass_obs::{CounterBlock, Ctr};
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// The reply a poisoned ring hands to every poster.
const ABORTED: Reply = Reply {
    latency: 0,
    irq_pending: false,
    data: ReplyData::Aborted,
};

/// Reply slot: no blocking entry outstanding.
const IDLE: u32 = 0;
/// Producer has published a blocking entry and waits until REPLIED.
const WAITING: u32 = 1;
/// Consumer has written the reply; producer consumes it and returns to IDLE.
const REPLIED: u32 = 2;

struct Slot {
    ev: UnsafeCell<Event>,
    wants_reply: UnsafeCell<bool>,
}

/// A bounded SPSC ring of timed events with a blocking-reply rendezvous.
///
/// Producer-side methods: [`EventRing::publish`], [`EventRing::post`].
/// Consumer-side methods: [`EventRing::peek_time`], [`EventRing::pop`],
/// [`EventRing::reply`]. The slot cells are data-race free: the Release
/// store of `tail` publishes slot contents to the Acquire load in
/// `pop`/`peek_time`, and the Release store of `head` returns the slot to
/// the producer via the Acquire load in `publish`.
pub struct EventRing {
    cap: usize,
    /// Consumer cursor: next index to pop.
    head: CachePadded<AtomicU64>,
    /// Producer cursor: next index to fill. `head == tail` ⇒ empty.
    tail: CachePadded<AtomicU64>,
    slots: Box<[Slot]>,
    reply_state: CachePadded<AtomicU32>,
    reply: UnsafeCell<Reply>,
    /// Whoever waits in `post`, to be woken on reply.
    poster: Mutex<Option<Waiter>>,
    /// Set by [`EventRing::poison`]: the consumer is gone; posts return
    /// [`ReplyData::Aborted`] instantly and publishes are dropped.
    poisoned: AtomicBool,
    /// Observability counters (`None` = disabled; one branch per hook).
    counters: Option<Arc<CounterBlock>>,
}

// SAFETY: slot cells are gated by the head/tail cursors (see struct docs);
// the reply cell is gated by the reply_state machine exactly as in the old
// single-slot design: written by the consumer while WAITING (producer is
// waiting), read by the producer after observing REPLIED with Acquire.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    /// Creates an empty ring holding at most `cap` events.
    ///
    /// `cap` bounds a frontend batch: the producer must consume a reply
    /// (i.e. cut the batch with a blocking post) at least every `cap`
    /// events, or `publish` panics.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "EventRing capacity must be at least 1");
        // The placeholder contents are never read: cursors gate access.
        let placeholder = Event {
            pid: compass_isa::ProcessId(u32::MAX),
            time: 0,
            body: crate::event::EventBody::Ctl(crate::event::CtlOp::Yield),
        };
        let slots = (0..cap)
            .map(|_| Slot {
                ev: UnsafeCell::new(placeholder),
                wants_reply: UnsafeCell::new(false),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            cap,
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            slots,
            reply_state: CachePadded::new(AtomicU32::new(IDLE)),
            reply: UnsafeCell::new(Reply::latency(0)),
            poster: Mutex::new(None),
            poisoned: AtomicBool::new(false),
            counters: None,
        }
    }

    /// Attaches observability counters (setup-time only, before sharing).
    pub fn set_counters(&mut self, c: Arc<CounterBlock>) {
        self.counters = Some(c);
    }

    /// Ring capacity (the maximum batch length).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Producer: appends `ev` without blocking. Returns `true` if the ring
    /// was observably empty before the append — i.e. the consumer may have
    /// gone idle and needs a wake-up; callers use this to notify at most
    /// once per batch.
    ///
    /// # Panics
    /// Panics on overflow: the producer published `cap` events without a
    /// batch cut (blocking post), which violates the port protocol.
    pub fn publish(&self, ev: Event, wants_reply: bool) -> bool {
        if self.poisoned.load(Ordering::Relaxed) {
            // Consumer is gone: drop silently rather than filling the ring
            // until the overflow assert fires under a straggling producer.
            return false;
        }
        let tail = self.tail.load(Ordering::Relaxed); // producer-owned
        let head = self.head.load(Ordering::Acquire);
        assert!(
            tail - head < self.cap as u64,
            "EventRing overflow: {} events published without a batch cut (cap {})",
            self.cap,
            self.cap,
        );
        let slot = &self.slots[(tail as usize) % self.cap];
        // SAFETY: `tail - head < cap` means the consumer has returned this
        // slot (its head Release / our head Acquire ordered those reads
        // before this write); the consumer will not read it until the tail
        // store below.
        unsafe {
            *slot.ev.get() = ev;
            *slot.wants_reply.get() = wants_reply;
        }
        if !wants_reply {
            if let Some(c) = &self.counters {
                c.inc(Ctr::RingBatched);
            }
        }
        self.tail.store(tail + 1, Ordering::Release);
        // Store-load fence paired with the one in `pop`: either the
        // consumer's post-pop peek sees this tail, or we see its final
        // head — so an empty→non-empty transition is never missed by both
        // sides at once (a lost transition would leave the consumer
        // sleeping on a stale "port empty" cache until the next notify).
        fence(Ordering::SeqCst);
        self.head.load(Ordering::Relaxed) == tail
    }

    /// Producer: publishes a blocking entry and waits until the consumer
    /// replies. Any entries batched before it are consumed first (FIFO),
    /// and the reply conventionally aggregates their latencies.
    pub fn post(&self, ev: Event) -> Reply {
        self.post_with(ev, || {})
    }

    /// Like [`EventRing::post`], but runs `after_publish` once the entry is
    /// visible to the consumer and before waiting — the hook ports use to
    /// notify the backend without racing the publish.
    pub fn post_with(&self, ev: Event, after_publish: impl FnOnce()) -> Reply {
        if self.poisoned.load(Ordering::SeqCst) {
            if let Some(c) = &self.counters {
                c.inc(Ctr::RingAborts);
            }
            return ABORTED;
        }
        if let Some(c) = &self.counters {
            c.inc(Ctr::RingPosts);
        }
        *self.poster.lock() = Some(Waiter::current());
        let prev =
            self.reply_state
                .compare_exchange(IDLE, WAITING, Ordering::Relaxed, Ordering::Relaxed);
        assert!(
            prev.is_ok(),
            "EventRing::post while a blocking entry is outstanding"
        );
        self.publish(ev, true);
        after_publish();
        // Store-buffer pairing with `poison`: our WAITING transition is
        // separated from this load by the SeqCst fence in `publish`;
        // poison stores the flag, fences, then reads the state. At least
        // one side sees the other, so a poster can neither wait forever
        // on a poisoned ring nor miss a concurrent abort reply.
        if self.poisoned.load(Ordering::SeqCst)
            && self
                .reply_state
                .compare_exchange(WAITING, IDLE, Ordering::Relaxed, Ordering::Acquire)
                .is_ok()
        {
            // Cancelled before the poisoner replied; the published entry
            // is left behind for a consumer that will never pop it.
            if let Some(c) = &self.counters {
                c.inc(Ctr::RingAborts);
            }
            return ABORTED;
        }
        while self.reply_state.load(Ordering::Acquire) != REPLIED {
            if let Some(c) = &self.counters {
                c.inc(Ctr::RingStalls);
            }
            coro::wait();
        }
        // SAFETY: REPLIED observed with Acquire; consumer wrote the reply
        // before its Release transition and will not touch it again.
        let r = unsafe { *self.reply.get() };
        self.reply_state.store(IDLE, Ordering::Release);
        r
    }

    /// Consumer: non-destructively reads the head entry's timestamp.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycles> {
        let head = self.head.load(Ordering::Relaxed); // consumer-owned
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: head < tail with Acquire on tail: the producer's slot
        // write happened-before, and it will not reuse the slot until our
        // head store in `pop`.
        Some(unsafe { (*self.slots[(head as usize) % self.cap].ev.get()).time })
    }

    /// Consumer: pops the head entry. The `bool` is its `wants_reply` flag;
    /// a `true` entry's producer waits in [`EventRing::post`] until
    /// [`EventRing::reply`] — possibly much later (deferred replies
    /// implement blocking OS calls, lock waits and descheduling).
    pub fn pop(&self) -> Option<(Event, bool)> {
        let head = self.head.load(Ordering::Relaxed); // consumer-owned
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[(head as usize) % self.cap];
        // SAFETY: as in `peek_time`.
        let ev = unsafe { *slot.ev.get() };
        let wants = unsafe { *slot.wants_reply.get() };
        self.head.store(head + 1, Ordering::Release);
        // Paired with the fence in `publish`; see there.
        fence(Ordering::SeqCst);
        Some((ev, wants))
    }

    /// Consumer: number of unconsumed entries (diagnostic; racy by nature).
    #[inline]
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// True when no entries are pending (diagnostic; racy by nature).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True while a producer waits for a reply — whether its
    /// blocking entry is still in the ring or already popped and held.
    #[inline]
    pub fn has_blocked_poster(&self) -> bool {
        self.reply_state.load(Ordering::Acquire) == WAITING
    }

    /// Consumer: replies to the outstanding blocking entry and wakes its
    /// producer.
    ///
    /// # Panics
    /// Panics if no blocking entry is outstanding.
    pub fn reply(&self, r: Reply) {
        // SAFETY: state is WAITING (asserted by the CAS below): the
        // producer is waiting and not accessing `reply`; we are the only
        // consumer.
        unsafe { *self.reply.get() = r };
        let prev = self.reply_state.compare_exchange(
            WAITING,
            REPLIED,
            Ordering::Release,
            Ordering::Relaxed,
        );
        assert!(prev.is_ok(), "EventRing::reply without a blocked poster");
        if let Some(w) = self.poster.lock().as_ref() {
            w.wake();
        }
    }

    /// True once the ring has been poisoned.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Consumer: poisons the ring during teardown (e.g. after the backend
    /// built a deadlock report and will never pop again). A currently
    /// waiting poster is woken with an [`ReplyData::Aborted`] reply; every
    /// later `post` returns `Aborted` instantly and `publish` drops.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.reply_state.load(Ordering::SeqCst) == WAITING {
            // SAFETY: the poster does not read `reply` until it observes
            // REPLIED, which only the CAS below publishes; we are the only
            // consumer, so nobody else writes the cell.
            unsafe { *self.reply.get() = ABORTED };
            if self
                .reply_state
                .compare_exchange(WAITING, REPLIED, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                if let Some(w) = self.poster.lock().as_ref() {
                    w.wake();
                }
            }
            // A failed CAS means the poster cancelled itself after seeing
            // the flag — it already returned Aborted on its own.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CtlOp, EventBody};
    use compass_isa::ProcessId;
    use std::sync::Arc;
    use std::thread;

    fn ev(time: Cycles) -> Event {
        Event {
            pid: ProcessId(1),
            time,
            body: EventBody::Ctl(CtlOp::Yield),
        }
    }

    #[test]
    fn post_pop_reply_roundtrip() {
        let ring = Arc::new(EventRing::new(4));
        let r2 = Arc::clone(&ring);
        let consumer = thread::spawn(move || loop {
            if let Some(t) = r2.peek_time() {
                assert_eq!(t, 42);
                let (e, wants) = r2.pop().unwrap();
                assert_eq!(e.time, 42);
                assert!(wants);
                r2.reply(Reply::latency(7));
                break;
            }
            std::thread::yield_now();
        });
        let r = ring.post(ev(42));
        assert_eq!(r.latency, 7);
        consumer.join().unwrap();
        assert!(ring.peek_time().is_none());
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let ring = EventRing::new(2);
        assert!(ring.pop().is_none());
        assert!(ring.peek_time().is_none());
        assert!(ring.is_empty());
        assert!(!ring.has_blocked_poster());
    }

    #[test]
    fn batch_preserves_fifo_order_across_wraparound() {
        let ring = Arc::new(EventRing::new(4));
        let r2 = Arc::clone(&ring);
        // Several batches of 3 non-blocking + 1 blocking entry cycle the
        // cursors far past the capacity, exercising index wrap-around.
        let producer = thread::spawn(move || {
            let mut t = 0;
            for _ in 0..10 {
                for _ in 0..3 {
                    r2.publish(ev(t), false);
                    t += 1;
                }
                let r = r2.post(ev(t));
                assert_eq!(r.latency, t);
                t += 1;
            }
        });
        let mut expected = 0u64;
        while expected < 40 {
            if let Some((e, wants)) = ring.pop() {
                assert_eq!(e.time, expected, "FIFO order across wrap-around");
                assert_eq!(wants, expected % 4 == 3, "every 4th entry blocks");
                if wants {
                    ring.reply(Reply::latency(e.time));
                }
                expected += 1;
            } else {
                thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn publish_reports_empty_to_nonempty_transition() {
        let ring = EventRing::new(4);
        assert!(ring.publish(ev(0), false), "first append finds it empty");
        assert!(!ring.publish(ev(1), false), "second append does not");
        assert!(ring.pop().is_some());
        assert!(ring.pop().is_some());
        assert!(ring.publish(ev(2), false), "drained ring reads empty again");
    }

    #[test]
    fn held_reply_can_be_deferred() {
        let ring = Arc::new(EventRing::new(2));
        let r2 = Arc::clone(&ring);
        let poster = thread::spawn(move || r2.post(ev(1)));
        while ring.peek_time().is_none() {
            std::thread::yield_now();
        }
        let (_e, wants) = ring.pop().unwrap();
        assert!(wants);
        assert!(ring.has_blocked_poster(), "poster parked while held");
        assert!(ring.peek_time().is_none(), "popped entry is not re-peeked");
        thread::sleep(std::time::Duration::from_millis(10));
        ring.reply(Reply::latency(99));
        assert_eq!(poster.join().unwrap().latency, 99);
        assert!(!ring.has_blocked_poster());
    }

    #[test]
    fn poison_wakes_a_parked_poster_with_aborted() {
        let ring = Arc::new(EventRing::new(2));
        let r2 = Arc::clone(&ring);
        let poster = thread::spawn(move || r2.post(ev(1)));
        while !ring.has_blocked_poster() {
            std::thread::yield_now();
        }
        ring.poison();
        let r = poster.join().unwrap();
        assert_eq!(r.data, ReplyData::Aborted);
        assert_eq!(r.latency, 0);
        assert!(ring.is_poisoned());
    }

    #[test]
    fn posts_after_poison_return_aborted_instantly() {
        let ring = EventRing::new(2);
        ring.poison();
        let r = ring.post(ev(1));
        assert_eq!(r.data, ReplyData::Aborted);
        // And again — no state machine wedging.
        assert_eq!(ring.post(ev(2)).data, ReplyData::Aborted);
        assert!(ring.is_empty(), "aborted posts publish nothing");
    }

    #[test]
    fn publishes_after_poison_are_dropped_not_overflowed() {
        let ring = EventRing::new(2);
        ring.poison();
        for t in 0..10 {
            assert!(!ring.publish(ev(t), false));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn poison_with_held_blocking_entry_aborts_the_poster() {
        // The consumer popped the blocking entry (deferred reply) and then
        // tears down: the held poster must still wake with Aborted.
        let ring = Arc::new(EventRing::new(2));
        let r2 = Arc::clone(&ring);
        let poster = thread::spawn(move || r2.post(ev(1)));
        while ring.peek_time().is_none() {
            std::thread::yield_now();
        }
        let (_e, wants) = ring.pop().unwrap();
        assert!(wants);
        ring.poison();
        assert_eq!(poster.join().unwrap().data, ReplyData::Aborted);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_without_batch_cut_panics() {
        let ring = EventRing::new(2);
        ring.publish(ev(0), false);
        ring.publish(ev(1), false);
        ring.publish(ev(2), false);
    }

    #[test]
    #[should_panic(expected = "reply without a blocked poster")]
    fn reply_without_poster_panics() {
        let ring = EventRing::new(2);
        ring.reply(Reply::latency(0));
    }
}
