//! Direct engine tests: scripted frontends drive the event ports without
//! the OS server, pinning engine behaviours that the integration suite
//! only exercises indirectly — the wakeup latch, the scheduler/reply
//! interplay, lock grant ordering, and device task scheduling.

use compass_arch::ArchConfig;
use compass_backend::devices::NullTraffic;
use compass_backend::{Backend, BackendConfig};
use compass_comm::{
    BlockReason, CpuStates, CtlOp, DevCmd, DevShared, Event, EventBody, EventPort, ExecMode,
    MemRefKind, Notifier, ReplyData, SyncOp,
};
use compass_isa::{DiskId, ProcessId};
use compass_mem::VAddr;
use std::sync::Arc;

struct Rig {
    ports: Vec<Arc<EventPort>>,
    notifier: Arc<Notifier>,
    cpu_states: Arc<CpuStates>,
    devshared: Arc<DevShared>,
    cfg: BackendConfig,
}

impl Rig {
    fn new(nprocs: usize, ncpus: usize) -> Self {
        let notifier = Arc::new(Notifier::new());
        let mut cfg = BackendConfig::new(ArchConfig::simple_smp(ncpus));
        cfg.deadlock_ms = 3_000;
        let ports = (0..nprocs)
            .map(|p| {
                let pid = ProcessId(p as u32);
                Arc::new(EventPort::with_capacity(
                    pid,
                    Arc::clone(&notifier),
                    cfg.batch_depth,
                ))
            })
            .collect();
        Rig {
            ports,
            notifier: Arc::clone(&notifier),
            cpu_states: Arc::new(CpuStates::new(ncpus)),
            devshared: Arc::new(DevShared::new()),
            cfg,
        }
    }

    fn spawn_backend(&self) -> std::thread::JoinHandle<compass_backend::engine::SimOutcome> {
        let backend = Backend::new(
            self.cfg.clone(),
            self.ports.clone(),
            Arc::clone(&self.notifier),
            Arc::clone(&self.cpu_states),
            Arc::clone(&self.devshared),
            None, // no kernel daemon in these scripts
            Box::new(NullTraffic),
        );
        std::thread::spawn(move || backend.run().expect("scripted run must not deadlock"))
    }
}

fn ev(pid: u32, time: u64, body: EventBody) -> Event {
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
    let rig = Rig::new(3, 2);
    let backend = rig.spawn_backend();
    let ports = rig.ports.clone();
    let handles: Vec<_> = (0..3u32)
        .map(|p| {
            let port = Arc::clone(&ports[p as usize]);
            std::thread::spawn(move || {
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
                (p, cpu)
            })
        })
        .collect();
    let mut got: Vec<(u32, u16)> = handles
        .into_iter()
        .map(|h| {
            let (p, cpu) = h.join().unwrap();
            (p, cpu.0)
        })
        .collect();
    got.sort_unstable();
    // Pids 0 and 1 got cpus 0 and 1 (Start events at t=0 processed in pid
    // order); pid 2 waited and then got whichever freed first (cpu 0).
    assert_eq!(got[0], (0, 0));
    assert_eq!(got[1], (1, 1));
    assert_eq!(got[2].0, 2);
    let outcome = backend.join().unwrap();
    assert!(outcome.stats.procs[2].ready_wait > 0, "pid 2 queued");
}

#[test]
fn wakeup_latch_absorbs_unblock_before_block() {
    // P1 posts Unblock(P0) *earlier in simulated time* than P0's Block:
    // the engine must latch it so P0 does not sleep forever.
    let rig = Rig::new(2, 2);
    let backend = rig.spawn_backend();
    let p0 = Arc::clone(&rig.ports[0]);
    let p1 = Arc::clone(&rig.ports[1]);
    let t0 = std::thread::spawn(move || {
        let r = p0.post(ev(0, 0, EventBody::Ctl(CtlOp::Start)));
        // Block at t=1000 — *after* P1's unblock at t=500.
        let r2 = p0.post(ev(
            0,
            r.latency + 1_000,
            EventBody::Ctl(CtlOp::Block {
                reason: BlockReason::Ipc,
            }),
        ));
        // The latch fires: the block returns immediately (no wait).
        assert_eq!(r2.latency, 0, "latched wakeup must not sleep");
        p0.post(ev(0, r.latency + 1_001, EventBody::Ctl(CtlOp::Exit)));
    });
    let t1 = std::thread::spawn(move || {
        let r = p1.post(ev(1, 0, EventBody::Ctl(CtlOp::Start)));
        p1.post(ev(
            1,
            r.latency + 500,
            EventBody::Ctl(CtlOp::Unblock { pid: ProcessId(0) }),
        ));
        p1.post(ev(1, r.latency + 501, EventBody::Ctl(CtlOp::Exit)));
    });
    t0.join().unwrap();
    t1.join().unwrap();
    backend.join().unwrap();
}

#[test]
fn contended_lock_grants_fifo_and_charges_wait() {
    let rig = Rig::new(2, 2);
    let backend = rig.spawn_backend();
    let lock = VAddr(0x1000_0000);
    let p0 = Arc::clone(&rig.ports[0]);
    let p1 = Arc::clone(&rig.ports[1]);
    let sync = move |op| EventBody::Sync {
        op,
        vaddr: lock,
        mode: ExecMode::User,
    };
    let t0 = std::thread::spawn(move || {
        let mut t = p0.post(ev(0, 0, EventBody::Ctl(CtlOp::Start))).latency;
        t += p0.post(ev(0, t, sync(SyncOp::LockAcquire))).latency;
        // Hold the lock for 10k cycles.
        t += 10_000;
        t += p0.post(ev(0, t, sync(SyncOp::LockRelease))).latency;
        p0.post(ev(0, t + 1, EventBody::Ctl(CtlOp::Exit)));
    });
    let t1 = std::thread::spawn(move || {
        let mut t = p1.post(ev(1, 0, EventBody::Ctl(CtlOp::Start))).latency;
        // Arrive at t=100: the lock is held until ~10k.
        let r = p1.post(ev(1, t + 100, sync(SyncOp::LockAcquire)));
        assert!(
            r.latency > 5_000,
            "contended acquire must wait for the holder (waited {})",
            r.latency
        );
        t += 100 + r.latency;
        t += p1.post(ev(1, t, sync(SyncOp::LockRelease))).latency;
        p1.post(ev(1, t + 1, EventBody::Ctl(CtlOp::Exit)));
    });
    t0.join().unwrap();
    t1.join().unwrap();
    let outcome = backend.join().unwrap();
    assert_eq!(outcome.stats.sync.contended, 1);
    assert_eq!(outcome.stats.sync.uncontended, 1);
    assert!(outcome.stats.procs[1].sync_wait > 5_000);
}

#[test]
fn disk_command_schedules_a_completion_task() {
    // Without a daemon the completion cannot be serviced by a handler,
    // but the task must still fire and deposit a record + raise the IRQ.
    let rig = Rig::new(1, 1);
    let devshared = Arc::clone(&rig.devshared);
    let cpu_states = Arc::clone(&rig.cpu_states);
    let backend = rig.spawn_backend();
    let p0 = Arc::clone(&rig.ports[0]);
    let t0 = std::thread::spawn(move || {
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
        t += p0.post(ev(0, t, memref(0x1000_0000))).latency;
        p0.post(ev(0, t + 1, EventBody::Ctl(CtlOp::Exit)));
    });
    t0.join().unwrap();
    let outcome = backend.join().unwrap();
    assert_eq!(outcome.stats.irq_dispatches[0], 1, "disk IRQ dispatched");
    let completions = devshared.drain_disk();
    assert_eq!(completions.len(), 1);
    assert_eq!(completions[0].token, 77);
    // The IRQ flag is still pending (nobody serviced it).
    assert_ne!(cpu_states.pending(compass_isa::CpuId(0)), 0);
}

#[test]
fn memref_latency_reflects_cache_locality() {
    let rig = Rig::new(1, 1);
    let backend = rig.spawn_backend();
    let p0 = Arc::clone(&rig.ports[0]);
    let t0 = std::thread::spawn(move || {
        let mut t = p0.post(ev(0, 0, EventBody::Ctl(CtlOp::Start))).latency;
        let first = p0.post(ev(0, t + 10, memref(0x1000_0000)));
        t += 10 + first.latency;
        let second = p0.post(ev(0, t + 10, memref(0x1000_0000)));
        assert!(
            second.latency < first.latency,
            "re-reference must hit the cache ({} !< {})",
            second.latency,
            first.latency
        );
        t += 10 + second.latency;
        p0.post(ev(0, t + 1, EventBody::Ctl(CtlOp::Exit)));
    });
    t0.join().unwrap();
    backend.join().unwrap();
}
