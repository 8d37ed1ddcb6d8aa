//! The structured trace recorder.
//!
//! Replaces the old `COMPASS_TRACE` stderr dump with typed records in a
//! bounded ring: when the ring is full the *oldest* record is overwritten
//! and a drop counter ticks, so a long run keeps the most recent window —
//! the part you want when something goes wrong at the end.
//!
//! Records carry simulated time, so exports line up with the simulation
//! timeline, not wall clock. Two exports:
//!
//! * [`TraceBuffer::to_jsonl`] — one JSON object per line, trivially
//!   greppable/parsable.
//! * [`TraceBuffer::to_chrome_trace`] — Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto; one simulated cycle is rendered as
//!   one microsecond, and simulated processes appear as tracks (`tid`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

/// How much the recorder captures. Levels are ordered: `Fine` includes
/// everything `Coarse` does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Nothing (the default).
    #[default]
    Off,
    /// Scheduling edges and rare events: dispatch, preempt, block, wake,
    /// page fault, OS call, deadlock.
    Coarse,
    /// Everything, including each event pickup and reply.
    Fine,
}

impl TraceLevel {
    /// Parses the CLI-edge spelling: `off`/`0`, `coarse`/`1`, `fine`/`2`.
    /// This is the only place the old `COMPASS_TRACE` bool semantics
    /// survive — any other non-empty value means `Coarse`.
    pub fn parse(s: &str) -> TraceLevel {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "none" => TraceLevel::Off,
            "2" | "fine" | "full" => TraceLevel::Fine,
            _ => TraceLevel::Coarse,
        }
    }
}

/// What a record describes. `a`/`b` meanings per kind are documented on
/// the variants; unused operands are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Backend picked an event up (`Fine`); `a` = event discriminant
    /// (0 memref, 1 sync, 2 dev, 3 ctl).
    Pickup,
    /// Backend replied to a blocked poster (`Fine`); `a` = latency.
    Reply,
    /// Scheduler installed a process on a CPU; `a` = cpu.
    Dispatch,
    /// Quantum expiry preempted a process; `a` = cpu.
    Preempt,
    /// Process blocked; `a` = reason discriminant.
    Block,
    /// Process woken.
    Wake,
    /// Page fault; `a` = faulting vaddr, `b` = cost charged.
    PageFault,
    /// A process finished a system call; `a` = clock at entry,
    /// `b` = kernel cycles spent, `tag` = syscall name.
    OsCall,
    /// The run ended in a deadlock report.
    Deadlock,
}

impl TraceKind {
    /// Stable name used in both exports.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Pickup => "pickup",
            TraceKind::Reply => "reply",
            TraceKind::Dispatch => "dispatch",
            TraceKind::Preempt => "preempt",
            TraceKind::Block => "block",
            TraceKind::Wake => "wake",
            TraceKind::PageFault => "page_fault",
            TraceKind::OsCall => "os_call",
            TraceKind::Deadlock => "deadlock",
        }
    }

    /// Minimum level at which this kind is recorded.
    pub fn level(self) -> TraceLevel {
        match self {
            TraceKind::Pickup | TraceKind::Reply => TraceLevel::Fine,
            _ => TraceLevel::Coarse,
        }
    }
}

/// One trace record. `Copy` and allocation-free so recording is cheap.
#[derive(Clone, Copy, Debug)]
pub struct TraceRec {
    /// Simulated time (cycles).
    pub time: u64,
    /// Simulated process the record concerns.
    pub pid: u32,
    /// What happened.
    pub kind: TraceKind,
    /// First operand (see [`TraceKind`]).
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Static tag (syscall name for [`TraceKind::OsCall`], else empty).
    pub tag: &'static str,
}

impl TraceRec {
    /// A record with both operands zero and no tag.
    pub fn new(time: u64, pid: u32, kind: TraceKind) -> Self {
        Self {
            time,
            pid,
            kind,
            a: 0,
            b: 0,
            tag: "",
        }
    }
}

/// The bounded ring. One mutex-protected deque: the backend engine is
/// the dominant writer; OS calls contribute only coarse, rare records,
/// and every writer runs on the thread that runs the simulation, so the
/// lock is never contended.
#[derive(Debug)]
pub struct TraceBuffer {
    cap: usize,
    ring: Mutex<VecDeque<TraceRec>>,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// A ring holding at most `cap` records (min 1).
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        })
    }

    fn ring(&self) -> MutexGuard<'_, VecDeque<TraceRec>> {
        self.ring
            .lock()
            .expect("a writer panicked holding the trace ring")
    }

    /// Appends a record, overwriting the oldest when full.
    pub fn record(&self, rec: TraceRec) {
        let mut ring = self.ring();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRec> {
        self.ring().iter().copied().collect()
    }

    /// JSONL export: one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&format!(
                "{{\"t\":{},\"pid\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}",
                r.time,
                r.pid,
                r.kind.name(),
                r.a,
                r.b
            ));
            if !r.tag.is_empty() {
                out.push_str(&format!(",\"tag\":\"{}\"", r.tag));
            }
            out.push_str("}\n");
        }
        out
    }

    /// Chrome `trace_event` export. Records with a duration operand
    /// (replies, OS calls) become complete (`"X"`) slices; the rest are
    /// instants (`"i"`). `ts` is simulated cycles rendered as µs.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for r in self.records() {
            if !first {
                out.push(',');
            }
            first = false;
            match r.kind {
                TraceKind::Reply => out.push_str(&format!(
                    "{{\"name\":\"reply\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":{}}}",
                    r.time, r.a, r.pid
                )),
                TraceKind::OsCall => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":{}}}",
                    if r.tag.is_empty() { "os_call" } else { r.tag },
                    r.a,
                    r.b,
                    r.pid
                )),
                _ => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\
                     \"tid\":{},\"s\":\"t\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                    r.kind.name(),
                    r.time,
                    r.pid,
                    r.a,
                    r.b
                )),
            }
        }
        out.push_str("]}");
        out
    }
}

/// What instrumented code holds: the level plus the shared ring. Cloning
/// is two words; `wants` is the branch-cheap gate hook sites use.
#[derive(Clone)]
pub struct TraceHandle {
    /// Capture level.
    pub level: TraceLevel,
    /// The shared ring.
    pub buf: Arc<TraceBuffer>,
}

impl TraceHandle {
    /// A handle at `level` over a fresh ring of `cap` records.
    pub fn new(level: TraceLevel, cap: usize) -> Self {
        Self {
            level,
            buf: TraceBuffer::new(cap),
        }
    }

    /// True when records of `kind` should be built at all.
    #[inline]
    pub fn wants(&self, kind: TraceKind) -> bool {
        self.level >= kind.level()
    }

    /// Records `rec` if the level admits its kind.
    #[inline]
    pub fn record(&self, rec: TraceRec) {
        if self.wants(rec.kind) {
            self.buf.record(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(TraceLevel::parse("off"), TraceLevel::Off);
        assert_eq!(TraceLevel::parse("0"), TraceLevel::Off);
        assert_eq!(TraceLevel::parse(""), TraceLevel::Off);
        assert_eq!(TraceLevel::parse("coarse"), TraceLevel::Coarse);
        assert_eq!(TraceLevel::parse("1"), TraceLevel::Coarse);
        assert_eq!(TraceLevel::parse("FINE"), TraceLevel::Fine);
        assert_eq!(TraceLevel::parse("yes"), TraceLevel::Coarse);
        assert!(TraceLevel::Fine > TraceLevel::Coarse);
        assert!(TraceLevel::Coarse > TraceLevel::Off);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let buf = TraceBuffer::new(4);
        for i in 0..10 {
            buf.record(TraceRec::new(i, 0, TraceKind::Dispatch));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 6);
        let times: Vec<u64> = buf.records().iter().map(|r| r.time).collect();
        assert_eq!(times, vec![6, 7, 8, 9], "ring keeps the newest records");
    }

    #[test]
    fn handle_filters_by_level() {
        let h = TraceHandle::new(TraceLevel::Coarse, 16);
        h.record(TraceRec::new(1, 0, TraceKind::Pickup)); // fine: filtered
        h.record(TraceRec::new(2, 0, TraceKind::Dispatch)); // coarse: kept
        assert_eq!(h.buf.len(), 1);
        assert!(!h.wants(TraceKind::Reply));
        assert!(h.wants(TraceKind::OsCall));
    }

    #[test]
    fn exports_have_expected_shape() {
        let buf = TraceBuffer::new(16);
        buf.record(TraceRec {
            time: 5,
            pid: 1,
            kind: TraceKind::OsCall,
            a: 3,
            b: 40,
            tag: "kreadv",
        });
        buf.record(TraceRec {
            a: 12,
            ..TraceRec::new(7, 2, TraceKind::Reply)
        });
        buf.record(TraceRec {
            a: 4,
            ..TraceRec::new(9, 2, TraceKind::Wake)
        });
        // Both exports are fixed templates: pin every one of them (the
        // tagged OS-call slice, the reply slice, an instant) byte for
        // byte, which also pins them as well-formed JSON.
        assert_eq!(
            buf.to_jsonl(),
            "{\"t\":5,\"pid\":1,\"kind\":\"os_call\",\"a\":3,\"b\":40,\"tag\":\"kreadv\"}\n\
             {\"t\":7,\"pid\":2,\"kind\":\"reply\",\"a\":12,\"b\":0}\n\
             {\"t\":9,\"pid\":2,\"kind\":\"wake\",\"a\":4,\"b\":0}\n"
        );
        assert_eq!(
            buf.to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"kreadv\",\"ph\":\"X\",\"ts\":3,\"dur\":40,\"pid\":0,\"tid\":1},\
             {\"name\":\"reply\",\"ph\":\"X\",\"ts\":7,\"dur\":12,\"pid\":0,\"tid\":2},\
             {\"name\":\"wake\",\"ph\":\"i\",\"ts\":9,\"pid\":0,\"tid\":2,\"s\":\"t\",\
             \"args\":{\"a\":4,\"b\":0}}]}"
        );
    }
}
