//! Physical device models (§3.4): disks, Ethernet, real-time clock.
//!
//! "Currently we have implemented simulation models for three kinds of
//! devices, namely the real time clock, the Ethernet and the hard disk
//! drives."
//!
//! Devices turn commands into *future completions* (tasks in the global
//! event scheduler) plus interrupt requests; the functional side of a
//! completion is deposited in the communicator's device postbox for the
//! kernel's interrupt handlers. The engine's side of that — issuing
//! commands, running due tasks, waking the bottom-half daemon — is the
//! `impl Backend` block at the end of this file.

use crate::cpu_states::IrqSource;
use crate::engine::{Backend, PState};
use crate::error::DeadlockKind;
use crate::tasks::Task;
use compass_arch::bus::BusyResource;
use compass_comm::{DevCmd, DiskCompletion, Event, Frame, Reply, ReplyData, TimerTick};
use compass_isa::{ConnId, CpuId, Cycles, ProcessId};
use compass_obs::Ctr;

/// Cycles a clock-device register read costs.
const CLOCK_READ: Cycles = 20;

/// Disk timing parameters (a late-90s SCSI drive at a 133 MHz clock:
/// ~6 ms average positioning ≈ 800k cycles, ~15 MB/s media rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskParams {
    /// Average seek + rotational positioning, cycles.
    pub positioning: Cycles,
    /// Transfer time per 512-byte block, cycles.
    pub per_block: Cycles,
    /// Controller/driver fixed overhead charged to the issuing kernel
    /// code, cycles.
    pub issue_overhead: Cycles,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            positioning: 800_000,
            per_block: 4_500,
            issue_overhead: 300,
        }
    }
}

/// One disk drive: requests queue at the drive (FIFO) and complete after
/// positioning + transfer.
#[derive(Debug, Clone)]
pub struct Disk {
    params: DiskParams,
    queue: BusyResource,
    /// Completions produced.
    pub ops: u64,
    /// Blocks moved.
    pub blocks: u64,
}

impl Disk {
    /// Creates an idle disk.
    pub fn new(params: DiskParams) -> Self {
        Self {
            params,
            queue: BusyResource::new(),
            ops: 0,
            blocks: 0,
        }
    }

    /// Starts a transfer of `nblocks` at time `now`; returns the absolute
    /// completion time.
    pub fn start(&mut self, now: Cycles, nblocks: u32) -> Cycles {
        let service = self.params.positioning + self.params.per_block * nblocks as u64;
        let delay = self.queue.acquire(now, service);
        self.ops += 1;
        self.blocks += nblocks as u64;
        now + delay
    }

    /// Fixed overhead the issuing kernel path pays.
    pub fn issue_overhead(&self) -> Cycles {
        self.params.issue_overhead
    }

    /// Cycles the drive has been busy.
    pub fn busy_cycles(&self) -> Cycles {
        self.queue.busy_cycles
    }
}

/// Ethernet timing parameters (100 Mbit/s at 133 MHz ≈ 10.6 cycles/byte;
/// we charge ~11 per byte plus per-frame overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetParams {
    /// Fixed cycles per frame on the wire.
    pub per_frame: Cycles,
    /// Wire cycles per byte (×100).
    pub per_byte_x100: Cycles,
    /// Maximum payload per frame.
    pub mtu: u32,
    /// Driver overhead charged to the issuing kernel code.
    pub issue_overhead: Cycles,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            per_frame: 2_000,
            per_byte_x100: 1_100,
            mtu: 1460,
            issue_overhead: 200,
        }
    }
}

/// One NIC: transmissions occupy the wire.
#[derive(Debug, Clone)]
pub struct Nic {
    params: NetParams,
    wire: BusyResource,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Frames transmitted.
    pub tx_frames: u64,
}

impl Nic {
    /// Creates an idle NIC.
    pub fn new(params: NetParams) -> Self {
        Self {
            params,
            wire: BusyResource::new(),
            tx_bytes: 0,
            tx_frames: 0,
        }
    }

    /// Transmits `bytes` starting at `now`; returns the absolute time the
    /// last frame leaves the wire.
    pub fn transmit(&mut self, now: Cycles, bytes: u32) -> Cycles {
        let frames = bytes.div_ceil(self.params.mtu).max(1) as u64;
        let service =
            frames * self.params.per_frame + (bytes as u64 * self.params.per_byte_x100) / 100;
        let delay = self.wire.acquire(now, service);
        self.tx_bytes += bytes as u64;
        self.tx_frames += frames;
        now + delay
    }

    /// Driver overhead the issuing kernel path pays.
    pub fn issue_overhead(&self) -> Cycles {
        self.params.issue_overhead
    }
}

/// A pluggable client-side traffic model. The SPECWeb-style trace player
/// implements this: it injects request frames at trace times and reacts to
/// server transmissions (§4.2: "We then implement a trace player that
/// reads the trace file and feeds the requests to a web server").
pub trait TrafficSource {
    /// Frames to inject when the simulation starts, with absolute times.
    fn initial(&mut self) -> Vec<(Cycles, Frame)>;

    /// Called when the server transmits `bytes` on `conn` at `now`;
    /// returns follow-up frames (e.g. the client's next request) with
    /// absolute delivery times.
    fn on_tx(&mut self, conn: ConnId, bytes: u32, now: Cycles) -> Vec<(Cycles, Frame)>;
}

/// A traffic source that never sends anything (disk-only workloads).
#[derive(Debug, Default)]
pub struct NullTraffic;

impl TrafficSource for NullTraffic {
    fn initial(&mut self) -> Vec<(Cycles, Frame)> {
        Vec::new()
    }

    fn on_tx(&mut self, _conn: ConnId, _bytes: u32, _now: Cycles) -> Vec<(Cycles, Frame)> {
        Vec::new()
    }
}

impl Backend {
    /// Seeds device work before the first step: client traffic and the
    /// interval timers.
    pub(crate) fn seed_devices(&mut self) {
        for (t, mut f) in self.traffic.initial() {
            f.time = t;
            self.note_device_wake();
            self.tasks.schedule(t, Task::NetDeliver(f));
        }
        if let Some(iv) = self.cfg.timer_interval {
            for c in 0..self.cfg.arch.ncpus() {
                self.timer_armed[c] = true;
                let cpu = CpuId::from(c);
                self.tasks.schedule(iv, Task::TimerTick { cpu });
            }
        }
    }

    /// Issues a device command posted by `pid`: the device schedules its
    /// completion and the issuing kernel code pays the driver overhead.
    pub(crate) fn handle_dev(&mut self, pid: ProcessId, ev: Event, cmd: DevCmd, wants: bool) {
        let latency = match cmd {
            DevCmd::DiskRead {
                disk,
                nblocks,
                token,
                ..
            }
            | DevCmd::DiskWrite {
                disk,
                nblocks,
                token,
                ..
            } => {
                let write = matches!(cmd, DevCmd::DiskWrite { .. });
                let d = self
                    .disks
                    .get_mut(disk.index())
                    .unwrap_or_else(|| panic!("unknown {disk}"));
                let time = d.start(ev.time, nblocks);
                let overhead = d.issue_overhead();
                self.note_device_wake();
                let done = DiskCompletion {
                    disk,
                    token,
                    write,
                    time,
                };
                self.tasks.schedule(time, Task::DiskComplete(done));
                overhead
            }
            DevCmd::NetTx { conn, bytes, .. } => {
                let done = self.nic.transmit(ev.time, bytes);
                for (t, mut f) in self.traffic.on_tx(conn, bytes, done) {
                    let at = t.max(done);
                    f.time = at;
                    self.note_device_wake();
                    self.tasks.schedule(at, Task::NetDeliver(f));
                }
                self.nic.issue_overhead()
            }
            DevCmd::ClockRead => {
                let clock = ReplyData::Clock { cycles: ev.time };
                return self.reply_now(pid, ev, Reply::with_data(CLOCK_READ, clock), wants);
            }
        };
        self.reply_now(pid, ev, Reply::latency(latency), wants);
    }

    /// Runs one due device task: a completion or frame is deposited for
    /// the interrupt handlers and the daemon woken; a timer tick may also
    /// flag a pre-emption.
    pub(crate) fn run_task(&mut self, time: Cycles, task: Task) {
        if matches!(task, Task::DiskComplete(_) | Task::NetDeliver(_)) {
            self.obs.inc(Ctr::IrqDispatches);
        }
        let irq_cpu = self.irq_cpu();
        match task {
            Task::DiskComplete(c) => {
                self.devshared.push_disk(c);
                self.cpu_states.raise(irq_cpu, IrqSource::Disk);
                self.irq_dispatches[0] += 1;
                self.wake_daemon(time);
            }
            Task::NetDeliver(f) => {
                self.devshared.push_frame(f);
                self.cpu_states.raise(irq_cpu, IrqSource::Net);
                self.irq_dispatches[1] += 1;
                self.wake_daemon(time);
            }
            Task::TimerTick { cpu } => {
                self.obs.inc(Ctr::TimerTicks);
                // Timer ticks keep the simulation "alive" even when the
                // application has deadlocked on its own synchronisation;
                // catch that here instead of spinning forever: if every
                // live application process waits on a lock or barrier
                // (which only another application process can resolve)
                // and no device completion is in flight, nothing can ever
                // wake anyone.
                if self.sync_deadlocked() {
                    self.latch(|b| b.deadlock_error(DeadlockKind::SyncCycle));
                    return;
                }
                // Event-driven ticks: an idle CPU has no running process
                // to preempt and no kernel entity consuming its ticks, so
                // instead of polling at every interval the tick disarms
                // and `install` re-arms it when work next lands here.
                // (Idleness is simulated state, so this is deterministic
                // and identical across batching knobs.)
                if self.cpu_states.running(cpu).is_none() || self.all_apps_exited() {
                    self.timer_armed[cpu.index()] = false;
                    self.device_polls_eliminated += 1;
                    return;
                }
                self.devshared.push_tick(TimerTick { cpu, time });
                self.cpu_states.raise(cpu, IrqSource::Timer);
                self.irq_dispatches[2] += 1;
                // The tick is the pre-emption quantum (the scheduler never
                // runs the daemon, so the victim is an application process).
                if self.cfg.preempt && self.sched.ready_len() > 0 {
                    if let Some(victim) = self.sched.running_on(cpu) {
                        self.procs[victim.index()].preempt_pending = true;
                    }
                }
                self.wake_daemon(time);
                if let Some(iv) = self.cfg.timer_interval {
                    // The CPU is busy (checked above), so keep ticking.
                    self.tasks.schedule(time + iv, Task::TimerTick { cpu });
                }
            }
        }
    }

    /// Releases the kernel daemon's held Block so it drains device work.
    fn wake_daemon(&mut self, now: Cycles) {
        let Some(d) = self.daemon else { return };
        let p = &mut self.procs[d.index()];
        let Some(held) = p.held.as_ref().filter(|_| p.state == PState::Blocked) else {
            return; // daemon awake: it will see the work before blocking
        };
        p.times.block_wait += now.saturating_sub(held.ev.time);
        self.disk_wake_events += 1;
        let cpu = self.irq_cpu();
        self.resume(d, cpu, now, 0, true, ReplyData::Cpu { cpu });
    }

    /// Counts one scheduled device completion wake event.
    fn note_device_wake(&mut self) {
        self.device_wake_events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_transfers_queue_fifo() {
        let mut d = Disk::new(DiskParams {
            positioning: 100,
            per_block: 10,
            issue_overhead: 5,
        });
        let t1 = d.start(0, 8); // service 180
        assert_eq!(t1, 180);
        let t2 = d.start(0, 8); // queued behind
        assert_eq!(t2, 360);
        let t3 = d.start(1000, 1);
        assert_eq!(t3, 1110);
        assert_eq!(d.ops, 3);
        assert_eq!(d.blocks, 17);
    }

    #[test]
    fn nic_charges_frames_and_bytes() {
        let mut n = Nic::new(NetParams {
            per_frame: 100,
            per_byte_x100: 1000, // 10 cycles/byte
            mtu: 1000,
            issue_overhead: 1,
        });
        let one = n.transmit(0, 500); // 1 frame: 100 + 5000
        assert_eq!(one, 5100);
        let mut n2 = Nic::new(NetParams {
            per_frame: 100,
            per_byte_x100: 1000,
            mtu: 1000,
            issue_overhead: 1,
        });
        let three = n2.transmit(0, 2500); // 3 frames: 300 + 25000
        assert_eq!(three, 25300);
        assert_eq!(n2.tx_frames, 3);
    }

    #[test]
    fn zero_byte_tx_still_costs_a_frame() {
        let mut n = Nic::new(NetParams::default());
        let t = n.transmit(0, 0);
        assert!(t >= NetParams::default().per_frame);
    }

    #[test]
    fn null_traffic_is_silent() {
        let mut t = NullTraffic;
        assert!(t.initial().is_empty());
        assert!(t.on_tx(ConnId(0), 100, 0).is_empty());
    }
}
