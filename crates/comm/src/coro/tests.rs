use super::context::{Coroutine, STACK_SIZE};
use super::*;
use crate::event::{CtlOp, Event, EventBody, Reply};
use crate::port::ReqPort;
use crate::rendezvous::EventRing;
use compass_isa::ProcessId;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::Duration;

fn ev(time: u64) -> Event {
    Event {
        pid: ProcessId(0),
        time,
        body: EventBody::Ctl(CtlOp::Yield),
    }
}

fn executor() -> Executor {
    Executor::new()
}

#[test]
fn resume_and_suspend_round_trip() {
    let steps = Arc::new(AtomicU32::new(0));
    let s = Arc::clone(&steps);
    let mut co = Coroutine::new(Box::new(move || {
        for _ in 0..3 {
            s.fetch_add(1, Ordering::SeqCst);
            assert!(context::in_coroutine());
            context::suspend();
        }
    }))
    .unwrap();
    assert!(!context::in_coroutine());
    for i in 1..=3 {
        assert!(co.resume().is_none(), "suspended, not finished");
        assert_eq!(steps.load(Ordering::SeqCst), i);
    }
    assert!(matches!(co.resume(), Some(Ok(()))));
    assert!(co.is_finished());
}

#[test]
fn a_panic_reaches_the_resumer_as_a_payload() {
    let mut co = Coroutine::new(Box::new(|| panic!("boom in a coroutine"))).unwrap();
    let Some(Err(payload)) = co.resume() else {
        panic!("the panic must come back as an Err outcome");
    };
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in a coroutine"));

    // The executor keeps the first real panic and ignores SimAbort.
    let mut ex = executor();
    ex.spawn(Class::Os, None, || std::panic::panic_any(SimAbort));
    ex.spawn(Class::Frontend, None, || panic!("first"));
    ex.spawn(Class::Frontend, None, || panic!("second"));
    assert!(ex.run_ready());
    assert_eq!(ex.live(), 0);
    let p = ex.take_panic().expect("a real panic is kept");
    assert_eq!(p.downcast_ref::<&str>(), Some(&"first"));
}

#[test]
fn deep_recursion_fits_the_stack_budget() {
    /// Recurses in ~1 KiB frames until `budget` bytes of stack below
    /// `base` are in use; returns the depth reached.
    fn depth(base: usize, budget: usize) -> usize {
        let pad = std::hint::black_box([0u8; 1024]);
        let here = pad.as_ptr() as usize;
        if base - here >= budget {
            return 0;
        }
        depth(base, budget) + 1 + pad[1023] as usize
    }
    let out = Arc::new(AtomicUsize::new(0));
    let o = Arc::clone(&out);
    let mut co = Coroutine::new(Box::new(move || {
        let base = std::hint::black_box(0u8);
        // 1.5 MiB of frames on a 2 MiB stack.
        let n = depth(&base as *const u8 as usize, 3 * STACK_SIZE / 4);
        o.store(n, Ordering::SeqCst);
    }))
    .unwrap();
    assert!(matches!(co.resume(), Some(Ok(()))));
    assert!(out.load(Ordering::SeqCst) > 100, "recursed deep");
}

#[test]
fn event_ring_posts_from_a_task_suspend_to_the_consumer() {
    let ring = Arc::new(EventRing::new(8));
    let got = Arc::new(AtomicU32::new(0));
    let mut ex = executor();
    {
        let (ring, got) = (Arc::clone(&ring), Arc::clone(&got));
        ex.spawn(Class::Frontend, None, move || {
            for t in 0..5u64 {
                ring.publish(ev(10 * t), false);
                let r = ring.post(ev(10 * t + 1));
                got.fetch_add(r.latency as u32, Ordering::SeqCst);
            }
        });
    }
    // The consumer is the test body, acting as the engine: drain, reply,
    // resume whoever became ready.
    let mut replies = 0;
    while ex.live() > 0 {
        assert!(ex.run_ready(), "a task is always ready after a reply");
        while let Some((_, wants)) = ring.pop() {
            if wants {
                assert!(ring.has_blocked_poster());
                ring.reply(Reply::latency(3));
                replies += 1;
            }
        }
    }
    assert_eq!(replies, 5);
    assert_eq!(got.load(Ordering::SeqCst), 15);
}

#[test]
fn req_port_serves_between_tasks_and_with_threads() {
    let port: Arc<ReqPort<u32, u32>> = Arc::new(ReqPort::new());
    let mut ex = executor();
    let sum = Arc::new(AtomicU32::new(0));
    {
        let port = Arc::clone(&port);
        ex.spawn(Class::Os, None, move || loop {
            let q = port.recv();
            port.respond(q * 2);
        });
    }
    {
        let (port, sum) = (Arc::clone(&port), Arc::clone(&sum));
        ex.spawn(Class::Frontend, None, move || {
            for i in 0..10 {
                sum.fetch_add(port.call(i), Ordering::SeqCst);
            }
        });
    }
    while ex.run_ready() {}
    assert_eq!(sum.load(Ordering::SeqCst), 90);
    // The server task is left waiting in `recv`: a plain thread can still
    // call it, as long as someone resumes the task meanwhile.
    let caller = {
        let port = Arc::clone(&port);
        std::thread::spawn(move || port.call(21))
    };
    while !caller.is_finished() {
        ex.run_ready();
        std::thread::yield_now();
    }
    assert_eq!(caller.join().unwrap(), 42);
    // Cancelling unwinds the server out of `recv`.
    ex.cancel_all();
    assert_eq!(ex.live(), 0);
    assert!(ex.take_panic().is_none(), "SimAbort is an orderly teardown");
}

#[test]
fn cancel_unwinds_a_task_blocked_on_a_reply() {
    struct Guard(Arc<AtomicU32>);
    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let ring = Arc::new(EventRing::new(2));
    let dropped = Arc::new(AtomicU32::new(0));
    let mut ex = executor();
    {
        let (ring, dropped) = (Arc::clone(&ring), Arc::clone(&dropped));
        ex.spawn(Class::BottomHalf, None, move || {
            let _g = Guard(dropped);
            ring.post(ev(1)); // never replied
            unreachable!("the post must unwind");
        });
    }
    assert!(ex.run_ready());
    assert_eq!(ex.live(), 1, "suspended on the reply");
    ex.cancel_all();
    assert_eq!(ex.live(), 0);
    assert_eq!(dropped.load(Ordering::SeqCst), 1, "the stack was unwound");
    assert!(ex.take_panic().is_none());
}

#[test]
fn a_foreign_thread_can_wake_a_task() {
    let ring = Arc::new(EventRing::new(2));
    let mut ex = executor();
    let got = Arc::new(AtomicU32::new(0));
    {
        let (ring, got) = (Arc::clone(&ring), Arc::clone(&got));
        ex.spawn(Class::Frontend, None, move || {
            got.store(ring.post(ev(7)).latency as u32, Ordering::SeqCst);
        });
    }
    assert!(ex.run_ready());
    let consumer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            while ring.pop().is_none() {
                std::thread::yield_now();
            }
            ring.reply(Reply::latency(9));
        })
    };
    while ex.live() > 0 {
        if !ex.run_ready() {
            std::thread::yield_now();
        }
    }
    consumer.join().unwrap();
    assert_eq!(got.load(Ordering::SeqCst), 9);
}

#[cfg(feature = "check-invariants")]
#[test]
fn a_schedule_seed_permutes_and_splits_the_ready_batch() {
    // Records which tasks each `run_ready` call resumed.
    let rounds = |seed: Option<u64>| {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut ex = executor();
        if let Some(s) = seed {
            ex.set_schedule_seed(s);
        }
        for i in 0..8 {
            let log = Arc::clone(&log);
            ex.spawn(Class::Frontend, None, move || log.lock().push(i));
        }
        let mut rounds = Vec::new();
        while ex.run_ready() {
            rounds.push(std::mem::take(&mut *log.lock()));
        }
        rounds
    };
    assert_eq!(
        rounds(None),
        [(0..8).collect::<Vec<_>>()],
        "FIFO, one batch"
    );
    let permuted = rounds(Some(5));
    assert_eq!(permuted, rounds(Some(5)), "seeded and repeatable");
    assert_ne!(permuted, rounds(None));
    let mut all: Vec<usize> = permuted.concat();
    all.sort_unstable();
    assert_eq!(all, (0..8).collect::<Vec<_>>(), "every task runs once");
}

#[test]
fn a_class_scope_books_its_share_of_the_running_time() {
    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }
    let c = Arc::new(CounterBlock::new());
    let mut ex = executor();
    ex.spawn(Class::Frontend, Some(Arc::clone(&c)), || {
        spin(Duration::from_millis(2));
        {
            let _os = enter_class(Class::Os);
            spin(Duration::from_millis(2));
            // Suspending inside the scope books the time so far to it.
            context::suspend();
            spin(Duration::from_millis(2));
        }
        spin(Duration::from_millis(2));
    });
    while ex.live() > 0 {
        ex.run_ready();
        // Nothing wakes the suspended task but this test.
        if ex.live() > 0 {
            ex.ready.push(0);
        }
    }
    let (fe, os) = (c.get(Ctr::FrontendGenNs), c.get(Ctr::HostOsNs));
    assert!(
        os >= 4_000_000,
        "the scope's 4 ms book to the OS class: {os}"
    );
    assert!(fe >= 4_000_000, "the rest to the frontend class: {fe}");
    assert_eq!(fe + os, ex.busy_ns(), "every resumed ns is booked once");
}

#[test]
fn a_class_scope_outside_a_task_or_untimed_is_a_no_op() {
    // No task is running: nothing to book, nothing to restore.
    drop(enter_class(Class::Os));
    let mut ex = executor();
    ex.spawn(Class::Frontend, None, || {
        let scope = enter_class(Class::Os);
        assert!(scope.prev.is_none(), "an untimed task switches nothing");
    });
    assert!(ex.run_ready());
    assert_eq!(ex.live(), 0);
}
