//! Direct engine tests: scripted frontends drive the event ports without
//! the OS server, pinning engine behaviours that the integration suite
//! only exercises indirectly — the wakeup latch, the scheduler/reply
//! interplay, lock grant ordering, device task scheduling, and what a
//! waiting poster gets when the engine panics. Each script is a task on
//! an [`Executor`] that [`Backend::run_with`] drives, as in a full
//! simulation: its blocking posts run the engine on the task's own stack.

use compass_arch::ArchConfig;
use compass_backend::devices::NullTraffic;
use compass_backend::engine::SimOutcome;
use compass_backend::{Backend, BackendConfig, RunError};
use compass_comm::{
    BlockReason, Class, CtlOp, DevCmd, DevShared, Event, EventBody, EventPort, ExecMode, Executor,
    MemRefKind, Notifier, ReplyData, SyncOp,
};
use compass_isa::{Cycles, DiskId, ProcessId};
use compass_mem::VAddr;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

struct Rig {
    ports: Vec<Arc<EventPort>>,
    devshared: Arc<DevShared>,
    exec: Executor,
}

impl Rig {
    fn new(nprocs: usize) -> Self {
        // Thread posters would bump it; these scripts are tasks.
        let notifier = Arc::new(Notifier::new());
        let ports = (0..nprocs)
            .map(|p| {
                let pid = ProcessId(p as u32);
                Arc::new(EventPort::with_capacity(pid, Arc::clone(&notifier), 64))
            })
            .collect();
        Rig {
            ports,
            devshared: Arc::new(DevShared::new()),
            exec: Executor::new(),
        }
    }

    /// Spawns `body` as a task posting on process `pid`'s port; what it
    /// returns arrives on the channel.
    fn script<T: Send + 'static>(
        &mut self,
        pid: usize,
        body: impl FnOnce(Arc<EventPort>) -> T + Send + 'static,
    ) -> Receiver<T> {
        let (tell, done) = mpsc::channel();
        let port = Arc::clone(&self.ports[pid]);
        self.exec.spawn(Class::Frontend, None, move || {
            let _ = tell.send(body(port));
        });
        done
    }

    /// Runs the engine over the scripts on `ncpus` CPUs, then lets the
    /// tasks it woke last run to their end. A script's panic is re-raised.
    fn try_run(mut self, ncpus: usize) -> Result<SimOutcome, RunError> {
        let backend = Backend::new(
            BackendConfig::new(ArchConfig::simple_smp(ncpus)),
            self.ports,
            self.devshared,
            None, // no kernel daemon in these scripts
            Box::new(NullTraffic),
        );
        let outcome = backend.run_with(&mut self.exec);
        while self.exec.run_ready() {}
        if let Some(payload) = self.exec.take_panic() {
            std::panic::resume_unwind(payload);
        }
        outcome
    }

    fn run(self, ncpus: usize) -> SimOutcome {
        self.try_run(ncpus).expect("scripted run must not deadlock")
    }
}

/// What a script sent, once the run is over.
fn result<T>(done: &Receiver<T>) -> T {
    done.try_recv().expect("the script ran to its end")
}

fn ev(pid: u32, time: Cycles, body: EventBody) -> Event {
    Event {
        pid: ProcessId(pid),
        time,
        body,
    }
}

fn memref(va: u32) -> EventBody {
    EventBody::MemRef {
        kind: MemRefKind::Load,
        mode: ExecMode::User,
        vaddr: VAddr(va),
        size: 8,
    }
}

#[test]
fn start_assigns_cpus_in_pid_order_and_queues_the_rest() {
    let mut rig = Rig::new(3);
    let cpus: Vec<_> = (0..3u32)
        .map(|p| {
            rig.script(p as usize, move |port| {
                let r = port.post(ev(p, 0, EventBody::Ctl(CtlOp::Start)));
                let cpu = match r.data {
                    ReplyData::Cpu { cpu } => cpu,
                    other => panic!("{other:?}"),
                };
                // Do a little work, then exit (freeing the CPU for pid 2).
                let mut t = r.latency;
                let r2 = port.post(ev(p, t + 100, memref(0x1000_0000 + p * 64)));
                t += 100 + r2.latency;
                port.post(ev(p, t + 10, EventBody::Ctl(CtlOp::Exit)));
                cpu.0
            })
        })
        .collect();
    let outcome = rig.run(2);
    // Pids 0 and 1 got cpus 0 and 1 (Start events at t=0 processed in pid
    // order); pid 2 waited and then got whichever freed first (cpu 0).
    assert_eq!(result(&cpus[0]), 0);
    assert_eq!(result(&cpus[1]), 1);
    assert_eq!(result(&cpus[2]), 0);
    assert!(outcome.stats.procs[2].ready_wait > 0, "pid 2 queued");
}

#[test]
fn wakeup_latch_absorbs_unblock_before_block() {
    // P1 posts Unblock(P0) *earlier in simulated time* than P0's Block:
    // the engine must latch it so P0 does not sleep forever.
    let mut rig = Rig::new(2);
    let block = rig.script(0, |p0| {
        let r = p0.post(ev(0, 0, EventBody::Ctl(CtlOp::Start)));
        // Block at t=1000 — *after* P1's unblock at t=500.
        let r2 = p0.post(ev(
            0,
            r.latency + 1_000,
            EventBody::Ctl(CtlOp::Block {
                reason: BlockReason::Ipc,
            }),
        ));
        p0.post(ev(0, r.latency + 1_001, EventBody::Ctl(CtlOp::Exit)));
        r2.latency
    });
    rig.script(1, |p1| {
        let r = p1.post(ev(1, 0, EventBody::Ctl(CtlOp::Start)));
        p1.post(ev(
            1,
            r.latency + 500,
            EventBody::Ctl(CtlOp::Unblock { pid: ProcessId(0) }),
        ));
        p1.post(ev(1, r.latency + 501, EventBody::Ctl(CtlOp::Exit)));
    });
    rig.run(2);
    // The latch fires: the block returns immediately (no wait).
    assert_eq!(result(&block), 0, "latched wakeup must not sleep");
}

#[test]
fn contended_lock_grants_fifo_and_charges_wait() {
    let mut rig = Rig::new(2);
    let lock = VAddr(0x1000_0000);
    let sync = move |op| EventBody::Sync {
        op,
        vaddr: lock,
        mode: ExecMode::User,
    };
    rig.script(0, move |p0| {
        let mut t = p0.post(ev(0, 0, EventBody::Ctl(CtlOp::Start))).latency;
        t += p0.post(ev(0, t, sync(SyncOp::LockAcquire))).latency;
        // Hold the lock for 10k cycles.
        t += 10_000;
        t += p0.post(ev(0, t, sync(SyncOp::LockRelease))).latency;
        p0.post(ev(0, t + 1, EventBody::Ctl(CtlOp::Exit)));
    });
    let waited = rig.script(1, move |p1| {
        let mut t = p1.post(ev(1, 0, EventBody::Ctl(CtlOp::Start))).latency;
        // Arrive at t=100: the lock is held until ~10k.
        let r = p1.post(ev(1, t + 100, sync(SyncOp::LockAcquire)));
        t += 100 + r.latency;
        t += p1.post(ev(1, t, sync(SyncOp::LockRelease))).latency;
        p1.post(ev(1, t + 1, EventBody::Ctl(CtlOp::Exit)));
        r.latency
    });
    let outcome = rig.run(2);
    let waited = result(&waited);
    assert!(
        waited > 5_000,
        "contended acquire must wait for the holder (waited {waited})"
    );
    assert_eq!(outcome.stats.sync.contended, 1);
    assert_eq!(outcome.stats.sync.uncontended, 1);
    assert!(outcome.stats.procs[1].sync_wait > 5_000);
}

#[test]
fn disk_command_schedules_a_completion_task() {
    // Without a daemon the completion cannot be serviced by a handler,
    // but the task must still fire, deposit a record and raise the IRQ,
    // which the process's next blocking reply carries and consumes.
    let mut rig = Rig::new(1);
    let devshared = Arc::clone(&rig.devshared);
    let irqs = rig.script(0, |p0| {
        let mut t = p0.post(ev(0, 0, EventBody::Ctl(CtlOp::Start))).latency;
        t += p0
            .post(ev(
                0,
                t,
                EventBody::Dev(DevCmd::DiskRead {
                    disk: DiskId(0),
                    block: 0,
                    nblocks: 8,
                    token: 77,
                }),
            ))
            .latency;
        // Run far past the disk latency so the completion task fires.
        t += 3_000_000;
        let r = p0.post(ev(0, t, memref(0x1000_0000)));
        t += r.latency;
        let carried = r.irq_pending;
        let r = p0.post(ev(0, t, memref(0x1000_0040)));
        t += r.latency;
        let after = r.irq_pending;
        p0.post(ev(0, t + 1, EventBody::Ctl(CtlOp::Exit)));
        (carried, after)
    });
    let outcome = rig.run(1);
    let (carried, after) = result(&irqs);
    assert!(
        carried,
        "the first reply after the completion carries the IRQ"
    );
    assert!(!after, "and consumes it: the request is edge-triggered");
    assert_eq!(outcome.stats.irq_dispatches[0], 1, "disk IRQ dispatched");
    let completions = devshared.drain_disk_until(Cycles::MAX);
    assert_eq!(completions.len(), 1);
    assert_eq!(completions[0].token, 77);
    assert_eq!(outcome.irq_pending(compass_isa::CpuId(0)), 0);
}

#[test]
fn memref_latency_reflects_cache_locality() {
    let mut rig = Rig::new(1);
    let latencies = rig.script(0, |p0| {
        let mut t = p0.post(ev(0, 0, EventBody::Ctl(CtlOp::Start))).latency;
        let first = p0.post(ev(0, t + 10, memref(0x1000_0000)));
        t += 10 + first.latency;
        let second = p0.post(ev(0, t + 10, memref(0x1000_0000)));
        t += 10 + second.latency;
        p0.post(ev(0, t + 1, EventBody::Ctl(CtlOp::Exit)));
        (first.latency, second.latency)
    });
    rig.run(1);
    let (first, second) = result(&latencies);
    assert!(
        second < first,
        "re-reference must hit the cache ({second} !< {first})"
    );
}

#[test]
fn an_engine_panic_aborts_a_waiting_poster_instead_of_hanging_it() {
    let mut rig = Rig::new(1);
    let ports = rig.ports.clone();
    // A memory reference before Start: the process is on no CPU, which
    // the engine treats as a bug and panics on, inside the poster's serve.
    let reply = rig.script(0, |p0| p0.post(ev(0, 0, memref(0x1000_0000))));
    match rig.try_run(1) {
        Err(RunError::BackendPanic { msg }) => {
            assert!(msg.contains("while not on a CPU"), "message: {msg}")
        }
        other => panic!("expected a backend panic, got {other:?}"),
    }
    assert_eq!(
        result(&reply).data,
        ReplyData::Aborted,
        "the poisoned port aborts the poster"
    );
    assert!(ports[0].is_poisoned());
}
