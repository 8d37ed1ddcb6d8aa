//! Property-based tests for the Communicator: the rendezvous protocol is
//! lossless and ordered under arbitrary reply latencies (blocking and
//! batched), and the time-filtered postbox drains conserve records.

use compass_comm::{
    CtlOp, DevShared, DiskCompletion, Event, EventBody, EventPort, Notifier, Reply, SyncOp,
};
use compass_isa::{Cycles, DiskId, ProcessId};
use compass_mem::VAddr;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every posted event comes back with exactly its own reply, in
    /// order, regardless of artificial consumer delays.
    #[test]
    fn event_port_is_lossless(latencies in prop::collection::vec(0u64..50, 1..60)) {
        let notifier = Arc::new(Notifier::new());
        let port = Arc::new(EventPort::with_capacity(ProcessId(0), Arc::clone(&notifier), 1));
        let lat2 = latencies.clone();
        let consumer = {
            let port = Arc::clone(&port);
            std::thread::spawn(move || {
                let mut served = 0;
                while served < lat2.len() {
                    if let Some((ev, wants_reply)) = port.pop() {
                        prop_assert_eq!(ev.time, served as u64, "events must stay ordered");
                        prop_assert!(wants_reply, "blocking posts all want replies");
                        port.reply(Reply::latency(lat2[served]));
                        served += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                Ok(())
            })
        };
        for (i, &expect) in latencies.iter().enumerate() {
            let r = port.post(Event {
                pid: ProcessId(0),
                time: i as u64,
                body: EventBody::Ctl(CtlOp::Yield),
            });
            prop_assert_eq!(r.latency, expect, "reply {} mismatched", i);
        }
        consumer.join().unwrap()?;
    }

    /// Batched publishing through a small ring: arbitrary batch shapes
    /// (each batch = some non-blocking events then a flushing blocking
    /// sync event) drain losslessly and in FIFO order across many ring
    /// wrap-arounds, and only the flush event asks for a reply.
    #[test]
    fn batched_ring_wraps_losslessly(batch_sizes in prop::collection::vec(0usize..7, 1..40)) {
        // Capacity 8 ≥ the largest batch (6 non-blocking + 1 flush), but
        // far smaller than the total event count, so the ring wraps.
        let notifier = Arc::new(Notifier::new());
        let port = Arc::new(EventPort::with_capacity(ProcessId(3), Arc::clone(&notifier), 8));
        let total: usize = batch_sizes.iter().map(|n| n + 1).sum();
        let sizes = batch_sizes.clone();
        let consumer = {
            let port = Arc::clone(&port);
            std::thread::spawn(move || {
                let mut seq = 0u64;
                while seq < total as u64 {
                    if let Some((ev, wants_reply)) = port.pop() {
                        prop_assert_eq!(ev.time, seq, "FIFO order across wrap-around");
                        let is_flush = matches!(ev.body, EventBody::Sync { .. });
                        prop_assert_eq!(
                            wants_reply, is_flush,
                            "only the batch-cutting sync event blocks"
                        );
                        if wants_reply {
                            port.reply(Reply::latency(seq));
                        }
                        seq += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                Ok(())
            })
        };
        let mut seq = 0u64;
        for n in sizes {
            for _ in 0..n {
                port.post_batched(Event {
                    pid: ProcessId(3),
                    time: seq,
                    body: EventBody::Ctl(CtlOp::Yield),
                });
                seq += 1;
            }
            // The sync op cuts the batch: it must observe every event
            // published before it, then get its own reply.
            let r = port.post(Event {
                pid: ProcessId(3),
                time: seq,
                body: EventBody::Sync {
                    op: SyncOp::LockAcquire,
                    vaddr: VAddr(0x1000),
                    mode: compass_comm::ExecMode::User,
                },
            });
            prop_assert_eq!(r.latency, seq, "flush reply matches the flush event");
            seq += 1;
        }
        consumer.join().unwrap()?;
    }

    /// Time-filtered drains return exactly the records at or before the
    /// horizon, in order, and leave the rest.
    #[test]
    fn drain_until_partitions_by_time(times in prop::collection::vec(0u64..1000, 0..50),
                                      horizon in 0u64..1000) {
        let d = DevShared::new();
        for (i, &t) in times.iter().enumerate() {
            d.push_disk(DiskCompletion {
                disk: DiskId(0),
                token: i as u32,
                write: false,
                time: t,
            });
        }
        let drained = d.drain_disk_until(horizon);
        let rest = d.drain_disk_until(Cycles::MAX);
        prop_assert_eq!(drained.len() + rest.len(), times.len());
        for c in &drained {
            prop_assert!(c.time <= horizon);
        }
        for c in &rest {
            prop_assert!(c.time > horizon);
        }
        // Relative order within each side is preserved (FIFO).
        let mut last = None;
        for c in &drained {
            if let Some(prev) = last {
                prop_assert!(c.token > prev);
            }
            last = Some(c.token);
        }
    }
}
