//! The engine's one port into the architecture models.
//!
//! Every cache/directory access and software-DSM page move the engine
//! simulates goes through [`ArchPort`], which hides one policy: where the
//! outcome comes from.
//!
//! * **Fast-forward.** While the serviced-event ordinal is at most the
//!   fast-forward horizon the models are skipped: an access costs an L1
//!   hit, a page move costs nothing, and no memory statistic changes. Page
//!   tables, locks, the buffer cache and the scheduler still warm up live.
//! * **Replay.** A resumed run takes each outcome from the checkpoint
//!   stream in order, checking that the request matches the recorded one
//!   (the resume-identity oracle, see [`crate::ckpt`]). At the recorded
//!   cut the stream must be used up; the hierarchy snapshot is swapped in
//!   and the port goes live.
//! * **Live.** The [`Hierarchy`] answers, and the call is appended to the
//!   checkpoint recording and to the access trace when those are on.
//!
//! Errors — a replay mismatch, a bad snapshot, a failed cut write — go
//! into the engine's error latch, where the first error wins.

use crate::ckpt::{ArchRecord, CheckpointData};
use crate::error::RunError;
use crate::trace::TraceRecord;
use crate::vm::DsmTransfer;
use compass_arch::{Access, AccessResult, ArchConfig, Hierarchy};
use compass_isa::Cycles;
use compass_mem::PAddr;
use std::path::PathBuf;

/// Where outcomes come from once fast-forward is over.
enum Mode {
    /// The hierarchy answers; `Some` records the checkpoint stream.
    Live(Option<Recording>),
    /// The checkpoint stream answers until its cut.
    Replay(Replay),
}

/// Checkpoint recording state.
struct Recording {
    /// Cut interval in serviced events.
    every: u64,
    /// Destination file, overwritten at each cut (latest cut wins).
    path: PathBuf,
    /// Outcomes recorded since the models went live.
    records: Vec<ArchRecord>,
    /// Serviced-event ordinal of the next cut.
    next_cut: u64,
}

/// Checkpoint replay state: the recorded stream and its one cursor.
struct Replay {
    records: Vec<ArchRecord>,
    /// Next record to consume.
    idx: usize,
    /// Ordinal at which the stream must be used up and the snapshot
    /// swapped in.
    cut_events: u64,
    /// Raw hierarchy snapshot bytes.
    snapshot: Vec<u8>,
}

impl Replay {
    /// Consumes the next record, which must answer `req` (the outcome
    /// fields of `req` are ignored). A mismatch latches
    /// [`RunError::ResumeDiverged`] naming both and returns `None`.
    fn next(
        &mut self,
        req: &ArchRecord,
        event: u64,
        err: &mut Option<RunError>,
    ) -> Option<&ArchRecord> {
        let rec = self.records.get(self.idx);
        self.idx += 1;
        match rec {
            Some(rec) if same_request(rec, req) => Some(rec),
            other => {
                latch(
                    err,
                    RunError::ResumeDiverged {
                        at_event: event,
                        detail: format!("requested {req:?}, recorded {other:?}"),
                    },
                );
                None
            }
        }
    }
}

/// True when `a` and `b` record the same request, whatever the outcomes.
fn same_request(a: &ArchRecord, b: &ArchRecord) -> bool {
    use ArchRecord::{Access as A, Dsm as D};
    match (a, b) {
        (
            A {
                cpu,
                paddr,
                write,
                class,
                home,
                ..
            },
            A {
                cpu: c,
                paddr: p,
                write: w,
                class: k,
                home: h,
                ..
            },
        ) => (cpu, paddr, write, class, home) == (c, p, w, k, h),
        (
            D {
                from, to, bytes, ..
            },
            D {
                from: f,
                to: t,
                bytes: b,
                ..
            },
        ) => (from, to, bytes) == (f, t, b),
        _ => false,
    }
}

/// Stores `e` unless an earlier error is already latched.
fn latch(err: &mut Option<RunError>, e: RunError) {
    if err.is_none() {
        *err = Some(e);
    }
}

/// The architecture-model port (see the module docs).
pub struct ArchPort {
    hierarchy: Hierarchy,
    /// Serviced events that skip the models; 0 = none.
    ff_events: u64,
    mode: Mode,
    /// Every live call, for the simcheck reference oracle.
    trace: Option<Vec<TraceRecord>>,
}

impl ArchPort {
    /// A live port over a fresh hierarchy.
    pub fn new(arch: ArchConfig) -> Self {
        Self {
            hierarchy: Hierarchy::new(arch),
            ff_events: 0,
            mode: Mode::Live(None),
            trace: None,
        }
    }

    /// Records every live call into the access trace, which the engine
    /// returns in [`crate::SimOutcome::access_trace`]. Setup time only.
    pub fn record_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Fast-forwards the first `events` serviced events (see the module
    /// docs). Setup time only.
    pub fn fast_forward(&mut self, events: u64) {
        self.ff_events = events;
        if let Mode::Live(Some(ck)) = &mut self.mode {
            ck.next_cut = events + ck.every;
        }
    }

    /// Writes (overwrites) `path` every `every` serviced events after
    /// fast-forward: the outcome stream plus a hierarchy snapshot.
    /// Setup time only.
    pub fn checkpoint_every(&mut self, every: u64, path: PathBuf) {
        assert!(every > 0, "checkpoint interval must be positive");
        assert!(
            matches!(self.mode, Mode::Live(None)),
            "checkpoint recording and resume are mutually exclusive"
        );
        self.mode = Mode::Live(Some(Recording {
            every,
            path,
            records: Vec::new(),
            next_cut: self.ff_events + every,
        }));
    }

    /// Replays decoded checkpoint data up to its cut (the caller checks
    /// the config hash). Setup time only.
    pub fn resume(&mut self, data: CheckpointData) {
        assert!(
            matches!(self.mode, Mode::Live(None)),
            "checkpoint recording and resume are mutually exclusive"
        );
        self.ff_events = data.ff_events;
        self.mode = Mode::Replay(Replay {
            records: data.records,
            idx: 0,
            cut_events: data.cut_events,
            snapshot: data.snapshot,
        });
    }

    /// The memory hierarchy (statistics, invariants).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Takes the recorded access trace, if recording was on.
    pub fn take_trace(&mut self) -> Option<Vec<TraceRecord>> {
        self.trace.take()
    }

    /// One cache-hierarchy access by `cpu` at `now`, made while serving
    /// event number `event`.
    #[allow(clippy::too_many_arguments)] // the request, its time, and the latch
    pub fn access(
        &mut self,
        cpu: usize,
        paddr: PAddr,
        acc: Access,
        home: usize,
        now: Cycles,
        event: u64,
        err: &mut Option<RunError>,
    ) -> AccessResult {
        let record = |res: AccessResult, victims| ArchRecord::Access {
            cpu: cpu as u32,
            paddr: paddr.0,
            write: acc.write,
            class: acc.class.index() as u8,
            home: home as u32,
            latency: res.latency,
            l1_hit: res.l1_hit,
            remote: res.remote,
            victims,
        };
        let l1 = AccessResult {
            latency: self.hierarchy.config().lat.l1_hit,
            l1_hit: true,
            remote: false,
        };
        if event <= self.ff_events {
            return l1;
        }
        let recording = match &mut self.mode {
            Mode::Replay(rp) => {
                return match rp.next(&record(l1, Vec::new()), event, err) {
                    Some(&ArchRecord::Access {
                        latency,
                        l1_hit,
                        remote,
                        ..
                    }) => AccessResult {
                        latency,
                        l1_hit,
                        remote,
                    },
                    _ => l1,
                };
            }
            Mode::Live(recording) => recording,
        };
        let res = self.hierarchy.access(cpu, paddr, acc, home, now);
        if let Some(ck) = recording {
            let victims = self.hierarchy.epoch_victims().iter();
            ck.records
                .push(record(res, victims.map(|&v| v as u32).collect()));
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord::Access {
                cpu,
                paddr,
                write: acc.write,
                class: acc.class,
                home,
                time: now,
                latency: res.latency,
                l1_hit: res.l1_hit,
                remote: res.remote,
            });
        }
        res
    }

    /// One software-DSM page move at `now`, made while serving event
    /// number `event`: the transfer latency, or 0 when ownership moved
    /// without a copy (still a counted DSM fault, never recorded — the
    /// snapshot carries the count).
    pub fn dsm(
        &mut self,
        d: DsmTransfer,
        now: Cycles,
        event: u64,
        err: &mut Option<RunError>,
    ) -> Cycles {
        if event <= self.ff_events {
            return 0;
        }
        let record = |latency| ArchRecord::Dsm {
            from: d.from as u32,
            to: d.to as u32,
            bytes: d.bytes,
            latency,
        };
        let recording = match &mut self.mode {
            Mode::Replay(_) if d.bytes == 0 => return 0,
            Mode::Replay(rp) => {
                return match rp.next(&record(0), event, err) {
                    Some(&ArchRecord::Dsm { latency, .. }) => latency,
                    _ => 0,
                };
            }
            Mode::Live(recording) => recording,
        };
        if d.bytes == 0 {
            self.hierarchy.count_dsm_fault();
            if let Some(trace) = &mut self.trace {
                trace.push(TraceRecord::DsmNoCopy);
            }
            return 0;
        }
        let latency = self.hierarchy.dsm_page_transfer(d.from, d.to, d.bytes, now);
        if let Some(ck) = recording {
            ck.records.push(record(latency));
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord::Dsm {
                from: d.from,
                to: d.to,
                bytes: d.bytes,
                time: now,
                latency,
            });
        }
        latency
    }

    /// The step-boundary hook, run after every engine step with the
    /// serviced-event count. A recording run writes a cut when it crosses
    /// its interval; a replay at its cut checks that the stream is used
    /// up, swaps the hierarchy snapshot in and goes live. Steps leave
    /// nothing in flight, so every cut is quiesced.
    pub fn end_step(&mut self, events: u64, err: &mut Option<RunError>) {
        match &mut self.mode {
            Mode::Live(Some(ck)) if events >= ck.next_cut => {
                ck.next_cut = events + ck.every;
                let mut w = compass_snap::Writer::new();
                self.hierarchy.encode_snapshot(&mut w);
                let data = CheckpointData {
                    config_hash: Hierarchy::config_hash(self.hierarchy.config()),
                    ff_events: self.ff_events,
                    cut_events: events,
                    records: ck.records.clone(),
                    snapshot: w.into_bytes(),
                };
                // Write to `.tmp` and rename: a torn write never replaces
                // the previous cut.
                let tmp = ck.path.with_extension("tmp");
                let res = std::fs::write(&tmp, data.encode())
                    .and_then(|()| std::fs::rename(&tmp, &ck.path));
                if let Err(e) = res {
                    let msg = format!("writing checkpoint {}: {e}", ck.path.display());
                    latch(err, RunError::Checkpoint { msg });
                }
            }
            Mode::Replay(rp) if events >= rp.cut_events => {
                if rp.idx != rp.records.len() {
                    let detail = format!(
                        "stream not exhausted at cut: {} of {} records consumed",
                        rp.idx,
                        rp.records.len()
                    );
                    latch(
                        err,
                        RunError::ResumeDiverged {
                            at_event: events,
                            detail,
                        },
                    );
                } else {
                    let mut r = compass_snap::Reader::new(&rp.snapshot);
                    let msg = match self.hierarchy.decode_snapshot(&mut r) {
                        Ok(()) if r.is_exhausted() => None,
                        Ok(()) => Some("hierarchy snapshot has trailing bytes".to_string()),
                        Err(e) => Some(format!("hierarchy snapshot: {e}")),
                    };
                    if let Some(msg) = msg {
                        latch(err, RunError::Checkpoint { msg });
                    }
                }
                // From here the run is live, bit-identical to the
                // recording run by the resume-identity oracle.
                self.mode = Mode::Live(None);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_arch::{AccessClass, MemStats};

    fn arch() -> ArchConfig {
        ArchConfig::sw_dsm(2, 1)
    }

    fn read(class: AccessClass) -> Access {
        Access {
            write: false,
            class,
        }
    }

    fn page_move(bytes: u32) -> DsmTransfer {
        DsmTransfer {
            from: 1,
            to: 0,
            bytes,
            invalidations: 0,
        }
    }

    /// Drives a fixed mixed stream (event `n` makes the `n`-th call) and
    /// returns every latency it was charged.
    fn stream(port: &mut ArchPort, err: &mut Option<RunError>) -> Vec<Cycles> {
        let user = read(AccessClass::User);
        vec![
            port.access(0, PAddr(0x1000), user, 0, 10, 1, err).latency,
            port.dsm(page_move(4096), 20, 2, err),
            port.dsm(page_move(0), 30, 3, err),
            port.access(1, PAddr(0x1000), user, 0, 40, 4, err).latency,
            port.access(0, PAddr(0x2040), read(AccessClass::Kernel), 1, 50, 5, err)
                .latency,
        ]
    }

    /// Records `stream` with a cut after event 5 and returns the live
    /// latencies, the final statistics and the decoded cut.
    fn recorded() -> (Vec<Cycles>, MemStats, CheckpointData) {
        let path = std::env::temp_dir().join(format!(
            "compass-arch-port-{}-{:?}.ckpt",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut port = ArchPort::new(arch());
        port.checkpoint_every(5, path.clone());
        let mut err = None;
        let live = stream(&mut port, &mut err);
        port.end_step(5, &mut err);
        assert!(err.is_none(), "recording failed: {err:?}");
        let data = CheckpointData::load(&path).expect("the cut was written");
        let _ = std::fs::remove_file(&path);
        (live, *port.hierarchy().stats(), data)
    }

    #[test]
    fn replay_returns_the_recorded_outcomes_and_leaves_the_hierarchy_alone() {
        let (live, live_stats, data) = recorded();
        assert_eq!(data.records.len(), 4, "the no-copy fault is not recorded");
        assert_eq!(live_stats.dsm_faults, 2, "a no-copy move is still a fault");

        let mut port = ArchPort::new(arch());
        port.resume(data);
        let mut err = None;
        assert_eq!(stream(&mut port, &mut err), live);
        assert!(
            err.is_none(),
            "an identical stream must not diverge: {err:?}"
        );
        assert_eq!(*port.hierarchy().stats(), MemStats::default());
        // At the cut the recorded hierarchy takes over.
        port.end_step(5, &mut err);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(*port.hierarchy().stats(), live_stats);
    }

    #[test]
    fn a_mismatched_request_latches_the_first_divergence() {
        let (_, _, data) = recorded();
        let user = read(AccessClass::User);
        // The recorded first call is cpu 0, paddr 0x1000, user, home 0.
        let wrong: [(usize, u64, AccessClass, usize); 4] = [
            (1, 0x1000, AccessClass::User, 0),
            (0, 0x1040, AccessClass::User, 0),
            (0, 0x1000, AccessClass::Kernel, 0),
            (0, 0x1000, AccessClass::User, 1),
        ];
        for (cpu, paddr, class, home) in wrong {
            let mut port = ArchPort::new(arch());
            port.resume(data.clone());
            let mut err = None;
            let res = port.access(cpu, PAddr(paddr), read(class), home, 10, 1, &mut err);
            assert_eq!(
                res.latency,
                arch().lat.l1_hit,
                "a mismatch charges an L1 hit"
            );
            let Some(RunError::ResumeDiverged { at_event, detail }) = &err else {
                panic!("no divergence latched for {cpu} {paddr:#x} {class:?} {home}: {err:?}");
            };
            assert_eq!(*at_event, 1);
            assert!(detail.contains("paddr: 4096"), "{detail}");
            // Later mismatches leave the first one in place.
            port.access(0, PAddr(0x1000), user, 0, 40, 4, &mut err);
            port.dsm(page_move(512), 50, 5, &mut err);
            assert!(matches!(
                err,
                Some(RunError::ResumeDiverged { at_event: 1, .. })
            ));
        }
    }

    #[test]
    fn a_stream_left_over_at_the_cut_is_a_divergence() {
        let (_, _, data) = recorded();
        let mut port = ArchPort::new(arch());
        port.resume(data);
        let mut err = None;
        port.access(
            0,
            PAddr(0x1000),
            read(AccessClass::User),
            0,
            10,
            1,
            &mut err,
        );
        assert!(err.is_none());
        port.end_step(5, &mut err);
        let Some(RunError::ResumeDiverged { at_event, detail }) = &err else {
            panic!("expected a divergence, got {err:?}");
        };
        assert_eq!(*at_event, 5);
        assert!(detail.contains("1 of 4 records consumed"), "{detail}");
    }

    #[test]
    fn fast_forward_charges_an_l1_hit_and_moves_no_statistics() {
        let mut port = ArchPort::new(arch());
        port.fast_forward(3);
        let mut err = None;
        let l1 = arch().lat.l1_hit;
        for event in 1..=3 {
            let res = port.access(
                0,
                PAddr(0x1000),
                read(AccessClass::User),
                0,
                10,
                event,
                &mut err,
            );
            assert_eq!((res.latency, res.l1_hit), (l1, true));
            assert_eq!(port.dsm(page_move(4096), 10, event, &mut err), 0);
            assert_eq!(port.dsm(page_move(0), 10, event, &mut err), 0);
        }
        assert_eq!(*port.hierarchy().stats(), MemStats::default());
        port.access(
            0,
            PAddr(0x1000),
            read(AccessClass::User),
            0,
            10,
            4,
            &mut err,
        );
        assert_eq!(
            port.hierarchy().stats().total_accesses(),
            1,
            "live after the horizon"
        );
        assert!(err.is_none());
    }
}
