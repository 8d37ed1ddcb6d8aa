//! The bounded event ring underlying every event port.
//!
//! "When the event port is invoked, it notifies the backend that it has a
//! message, and in the normal case waits for a reply, which prevents the
//! frontend process from proceeding." (§2) The same section distinguishes
//! *blocking* from *non-blocking* message passing primitives: most timed
//! events need no individual reply, so the frontend may publish a basic
//! block's worth of them and rendezvous only on the last.
//!
//! The ring is a single-producer (the process's task, in user or kernel
//! code) / single-consumer (the backend) bounded SPSC queue of
//! `(Event, wants_reply)`
//! entries, plus a one-shot reply slot for the single outstanding blocking
//! entry:
//!
//! ```text
//!   producer:  publish(ev, false)*  → publish(ev, true) + serve or wait
//!   consumer:  pop … pop            → reply(r) [+ wake]
//! ```
//!
//! At most one blocking entry is ever outstanding: the producer waits on
//! it. The reply slot is the one-shot channel of *Rust Atomics and Locks* ch. 5;
//! the ring adds the frontend's batching. A blocking post first runs the
//! hook its port passes (the engine serving the post on the poster's own
//! stack, or a notify); only if the reply is still missing after that
//! does the producer register its waiter and wait through
//! [`crate::coro`] (a task suspends, a thread parks). The reply state
//! says whether it did (`PARKED`), so a reply takes the waiter's mutex
//! and wakes only a producer that is really waiting.
//!
//! Neither `publish` nor `pop` fences: only a blocking post tells the
//! consumer that the ring changed (batched events ride behind it), so the
//! tail's Release store and the consumer's Acquire load are all the
//! ordering the entries need. The one `SeqCst` fence left is the blocking
//! post's, paired with [`EventRing::poison`].

use crate::coro::{self, Waiter};
use crate::event::{Event, Reply, ReplyData};
use compass_isa::Cycles;
use compass_obs::{CounterBlock, Ctr};
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

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
/// Like WAITING, with the producer's waiter registered: the reply wakes it.
const PARKED: u32 = 2;
/// Consumer has written the reply; producer consumes it and returns to IDLE.
const REPLIED: u32 = 3;

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
    /// The overflow bound: at most this many entries are outstanding.
    cap: usize,
    /// `slots.len() - 1`; the slot count is `cap` rounded up to a power
    /// of two, so a cursor maps to its slot with a mask, not a division.
    mask: usize,
    /// Consumer cursor: next index to pop.
    head: AtomicU64,
    /// Producer cursor: next index to fill. `head == tail` ⇒ empty.
    tail: AtomicU64,
    slots: Box<[Slot]>,
    reply_state: AtomicU32,
    reply: UnsafeCell<Reply>,
    /// The producer waiting in `post`, to be woken on reply; read only
    /// in the PARKED state.
    poster: Mutex<Option<Waiter>>,
    /// Set by [`EventRing::poison`]: the consumer is gone; posts return
    /// [`ReplyData::Aborted`] instantly and publishes are dropped.
    poisoned: AtomicBool,
    /// Observability counters (`None` = disabled; one branch per hook).
    counters: Option<Arc<CounterBlock>>,
}

// SAFETY: slot cells are gated by the head/tail cursors (see struct docs);
// the reply cell is gated by the reply_state machine: written by the
// consumer while WAITING or PARKED (the producer does not read it then),
// read by the producer after observing REPLIED with Acquire.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    fn poster(&self) -> MutexGuard<'_, Option<Waiter>> {
        self.poster
            .lock()
            .expect("a poster panicked holding the waiter slot")
    }

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
        let slots = (0..cap.next_power_of_two())
            .map(|_| Slot {
                ev: UnsafeCell::new(placeholder),
                wants_reply: UnsafeCell::new(false),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            cap,
            mask: slots.len() - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            slots,
            reply_state: AtomicU32::new(IDLE),
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

    /// Producer: appends `ev` without blocking and without telling the
    /// consumer: the blocking post that cuts the batch does that.
    ///
    /// # Panics
    /// Panics on overflow: the producer published `cap` events without a
    /// batch cut (blocking post), which violates the port protocol.
    pub fn publish(&self, ev: Event, wants_reply: bool) {
        if self.poisoned.load(Ordering::Relaxed) {
            // Consumer is gone: drop silently rather than filling the ring
            // until the overflow assert fires under a straggling producer.
            return;
        }
        let tail = self.tail.load(Ordering::Relaxed); // producer-owned
        let head = self.head.load(Ordering::Acquire);
        assert!(
            tail - head < self.cap as u64,
            "EventRing overflow: {} events published without a batch cut (cap {})",
            self.cap,
            self.cap,
        );
        let slot = &self.slots[tail as usize & self.mask];
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
    }

    /// Producer: publishes a blocking entry and waits until the consumer
    /// replies. Any entries batched before it are consumed first (FIFO),
    /// and the reply conventionally aggregates their latencies.
    pub fn post(&self, ev: Event) -> Reply {
        self.post_with(ev, || {})
    }

    /// Like [`EventRing::post`], but runs `after_publish` once the entry
    /// is visible to the consumer and before waiting — the hook ports use
    /// to serve the post in place or to notify the backend. The producer
    /// waits only if the reply is still missing when the hook returns.
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
        // Only the producer leaves IDLE, so a plain store suffices; the
        // publish below releases it to the consumer's pop.
        assert_eq!(
            self.reply_state.load(Ordering::Relaxed),
            IDLE,
            "EventRing::post while a blocking entry is outstanding"
        );
        self.reply_state.store(WAITING, Ordering::Relaxed);
        self.publish(ev, true);
        after_publish();
        // Store-buffer pairing with `poison`: we stored WAITING, fence,
        // then load the flag; poison stores the flag, fences, then reads
        // the state. At least one side sees the other, so a poster can
        // neither wait forever on a poisoned ring nor miss a concurrent
        // abort reply.
        fence(Ordering::SeqCst);
        if self.poisoned.load(Ordering::Relaxed)
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
        if self.reply_state.load(Ordering::Acquire) != REPLIED {
            self.park();
        }
        // SAFETY: REPLIED observed with Acquire; consumer wrote the reply
        // before its Release transition and will not touch it again.
        let r = unsafe { *self.reply.get() };
        self.reply_state.store(IDLE, Ordering::Release);
        r
    }

    /// Producer: registers the caller as the waiter and waits until the
    /// state reads REPLIED. A reply that lands before the registration
    /// completes fails the WAITING → PARKED exchange, and the producer
    /// takes it without waiting.
    #[cold]
    fn park(&self) {
        *self.poster() = Some(Waiter::current());
        if self
            .reply_state
            .compare_exchange(WAITING, PARKED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        if let Some(c) = &self.counters {
            c.inc(Ctr::RingStalls);
        }
        while self.reply_state.load(Ordering::Acquire) != REPLIED {
            coro::wait();
        }
    }

    /// True once the consumer has replied to the outstanding blocking
    /// entry (the producer has not taken the reply yet).
    #[inline]
    pub fn is_replied(&self) -> bool {
        self.reply_state.load(Ordering::Acquire) == REPLIED
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
        Some(unsafe { (*self.slots[head as usize & self.mask].ev.get()).time })
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
        let slot = &self.slots[head as usize & self.mask];
        // SAFETY: as in `peek_time`.
        let ev = unsafe { *slot.ev.get() };
        let wants = unsafe { *slot.wants_reply.get() };
        self.head.store(head + 1, Ordering::Release);
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
        matches!(self.reply_state.load(Ordering::Acquire), WAITING | PARKED)
    }

    /// Consumer: replies to the outstanding blocking entry, waking its
    /// producer if it waits.
    ///
    /// # Panics
    /// Panics if no blocking entry is outstanding.
    pub fn reply(&self, r: Reply) {
        assert!(
            self.has_blocked_poster(),
            "EventRing::reply without a blocked poster"
        );
        // SAFETY: state is WAITING or PARKED: the producer is not
        // accessing `reply`; we are the only consumer.
        unsafe { *self.reply.get() = r };
        // Release publishes the reply; Acquire pairs with the producer's
        // PARKED exchange, which follows its waiter registration.
        if self.reply_state.swap(REPLIED, Ordering::AcqRel) == PARKED {
            self.wake_poster();
        }
    }

    /// Wakes the registered waiter. It stays registered: a thread poster
    /// may already have taken this reply and registered again for its
    /// next post, and taking the waiter here would leave that post's
    /// reply nobody to wake. The extra wake is a spurious one, which the
    /// waiting loop absorbs.
    #[cold]
    fn wake_poster(&self) {
        if let Some(w) = self.poster().as_ref() {
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
        let mut state = self.reply_state.load(Ordering::SeqCst);
        if !matches!(state, WAITING | PARKED) {
            return;
        }
        // SAFETY: the poster does not read `reply` until it observes
        // REPLIED, which only the exchange below publishes; we are the
        // only consumer, so nobody else writes the cell.
        unsafe { *self.reply.get() = ABORTED };
        // The poster may move WAITING → PARKED (it registers) or
        // WAITING → IDLE (it saw the flag and cancelled) meanwhile.
        while matches!(state, WAITING | PARKED) {
            match self.reply_state.compare_exchange(
                state,
                REPLIED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(PARKED) => return self.wake_poster(),
                Ok(_) => return,
                Err(now) => state = now,
            }
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
    fn a_reply_before_the_wait_is_taken_without_waiting() {
        // A hook that serves the post itself: the reply is in before the
        // poster would register, so it never waits (or counts a stall).
        let mut ring = EventRing::new(2);
        let c = Arc::new(CounterBlock::new());
        ring.set_counters(Arc::clone(&c));
        let r = ring.post_with(ev(5), || {
            let (e, wants) = ring.pop().expect("published before the hook");
            assert!(wants && ring.has_blocked_poster() && !ring.is_replied());
            ring.reply(Reply::latency(e.time + 1));
            assert!(ring.is_replied());
        });
        assert_eq!(r.latency, 6);
        assert!(!ring.has_blocked_poster() && !ring.is_replied());
        assert_eq!((c.get(Ctr::RingPosts), c.get(Ctr::RingStalls)), (1, 0));
    }

    #[test]
    fn a_late_wake_leaves_the_waiter_registered() {
        // A thread poster can take a reply between the consumer's swap
        // to REPLIED and its wake, post again and register for that post.
        // The late wake must leave that registration in place, or the next
        // reply would find nobody to wake.
        let ring = EventRing::new(2);
        *ring.poster() = Some(Waiter::current());
        ring.reply_state.store(PARKED, Ordering::Relaxed);
        ring.reply(Reply::latency(1));
        assert!(ring.is_replied());
        assert!(
            ring.poster().is_some(),
            "a wake must not unregister the waiter"
        );
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
            ring.publish(ev(t), false);
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
    fn odd_capacities_wrap_in_fifo_order_and_overflow_at_cap() {
        // Capacities 3 and 5 get 4 and 8 slots; the overflow bound stays
        // the capacity, not the slot count.
        for cap in [3usize, 5] {
            let ring = EventRing::new(cap);
            let slots = cap.next_power_of_two() as u64;
            let mut t = 0;
            // Batches of `cap` entries, popped between batches, until the
            // cursors have passed the slot count more than ten times.
            while t <= 10 * slots {
                for k in 0..cap as u64 {
                    ring.publish(ev(t + k), false);
                }
                for k in 0..cap as u64 {
                    let (e, wants) = ring.pop().expect("published");
                    assert_eq!(e.time, t + k, "cap {cap}: FIFO across wrap-around");
                    assert!(!wants);
                }
                t += cap as u64;
            }
            for k in 0..cap as u64 {
                ring.publish(ev(k), false);
            }
            let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ring.publish(ev(0), false)
            }));
            assert!(
                overflow.is_err(),
                "cap {cap}: publish {} must overflow",
                cap + 1
            );
        }
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
