//! Shard workers: host threads that run node-private memory accesses.
//!
//! The engine partitions the architecture model by memory node (see
//! `compass-arch`'s `shard` module): each [`NodeSlice`] holds one node's
//! caches, bus, memory controller, and private-directory slice. With
//! `BackendConfig::workers > 1` the engine spawns `workers - 1` shard
//! workers and assigns node `n` to worker `n % (workers - 1)`; a memory
//! reference that the engine classifies as *node-private* (home node ==
//! accessing node, line never globally shared, no DSM, no pending
//! pre-emption) is shipped to the owning worker as a [`Job`] and its
//! [`Done`] record is folded back into the engine's reply stream in
//! dispatch order. The classifier + in-order retire protocol makes
//! `BackendStats` bit-identical to the single-threaded engine for every
//! worker count — see the engine module docs for the proof sketch.
//!
//! Plumbing per worker: one SPSC [`shard_ring`] of [`WorkerMsg`]s
//! (engine → worker; FIFO per node preserves dispatch order within a
//! node, which is what keeps worker-side cache state deterministic), one
//! SPSC ring of [`Done`]s (worker → engine), and a private
//! [`Notifier`] the engine bumps after posting jobs. Workers bump the
//! *engine's* notifier after posting results so a stalled engine wakes.
//! A worker panic aborts the process: a half-updated slice is
//! unrecoverable, and the engine would wait for its result forever.

use compass_arch::{EvictHint, PrivateAccess, SliceArena};
use compass_comm::{shard_ring, Notifier, ShardReceiver, ShardSender};
use compass_isa::Cycles;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One private access in flight to a worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    /// Global dispatch sequence number; retires happen in `seq` order.
    pub seq: u64,
    /// Home node (== accessing CPU's node), selects the slice.
    pub node: usize,
    /// The access itself.
    pub access: PrivateAccess,
}

/// A completed private access on its way back to the engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Done {
    /// Echo of the job's dispatch sequence number.
    pub seq: u64,
    /// Memory-system latency (what `Hierarchy::access` would return).
    pub latency: Cycles,
    /// Mirror-epoch victims as a global-CPU bitmask.
    pub victims: u64,
    /// Eviction of a globally-known line, applied by the engine at
    /// retire (before any global event can observe the directory).
    pub evict: Option<EvictHint>,
}

/// What the engine sends a worker.
#[derive(Debug, Clone, Copy)]
enum WorkerMsg {
    Job(Job),
    Stop,
}

struct WorkerLink {
    jobs: ShardSender<WorkerMsg>,
    dones: ShardReceiver<Done>,
    wake: Arc<Notifier>,
    handle: Option<JoinHandle<()>>,
}

/// The engine's handle on its shard workers.
pub(crate) struct ShardPool {
    links: Vec<WorkerLink>,
}

impl ShardPool {
    /// Spawns `spawned` workers over the hierarchy's slice arena.
    ///
    /// `ring_cap` bounds outstanding jobs per worker (the engine keeps at
    /// most one event in flight per simulated process, so `nprocs + 1`
    /// leaves room for the `Stop` sentinel).
    pub fn new(
        spawned: usize,
        arena: Arc<SliceArena>,
        engine_wake: Arc<Notifier>,
        ring_cap: usize,
    ) -> ShardPool {
        assert!(spawned > 0, "shard pool needs at least one worker");
        let links = (0..spawned)
            .map(|_| {
                let (job_tx, job_rx) = shard_ring::<WorkerMsg>(ring_cap);
                let (done_tx, done_rx) = shard_ring::<Done>(ring_cap);
                let wake = Arc::new(Notifier::new());
                let handle = spawn_worker(
                    Arc::clone(&arena),
                    job_rx,
                    done_tx,
                    Arc::clone(&wake),
                    Arc::clone(&engine_wake),
                );
                WorkerLink {
                    jobs: job_tx,
                    dones: done_rx,
                    wake,
                    handle: Some(handle),
                }
            })
            .collect();
        ShardPool { links }
    }

    /// Which worker owns a node.
    #[inline]
    pub fn worker_of(&self, node: usize) -> usize {
        node % self.links.len()
    }

    /// Ships one job to the owner of its node.
    pub fn submit(&self, job: Job) {
        let link = &self.links[self.worker_of(job.node)];
        link.jobs.send(WorkerMsg::Job(job)).unwrap_or_else(|_| {
            panic!(
                "shard job ring overflow (worker {})",
                self.worker_of(job.node)
            )
        });
        link.wake.notify();
    }

    /// Drains every worker's completion ring into `out` (unordered; the
    /// engine re-sequences by `seq`).
    pub fn drain_dones(&self, out: &mut Vec<Done>) {
        for link in &self.links {
            while let Some(d) = link.dones.recv() {
                out.push(d);
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for link in &mut self.links {
            // The job ring may momentarily be full of unexecuted jobs on
            // an error path; spin until the Stop sentinel fits.
            let mut msg = WorkerMsg::Stop;
            while let Err(m) = link.jobs.send(msg) {
                msg = m;
                std::hint::spin_loop();
            }
            link.wake.notify();
        }
        for link in &mut self.links {
            if let Some(h) = link.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn spawn_worker(
    arena: Arc<SliceArena>,
    jobs: ShardReceiver<WorkerMsg>,
    dones: ShardSender<Done>,
    wake: Arc<Notifier>,
    engine_wake: Arc<Notifier>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("compass-shard".into())
        .spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker_loop(&arena, &jobs, &dones, &wake, &engine_wake)
            }));
            if run.is_err() {
                // A panic mid-access leaves the slice half-updated and the
                // engine waiting forever; treat it like a backend panic.
                eprintln!("compass: shard worker panicked; aborting");
                std::process::abort();
            }
        })
        .expect("spawn shard worker")
}

fn worker_loop(
    arena: &SliceArena,
    jobs: &ShardReceiver<WorkerMsg>,
    dones: &ShardSender<Done>,
    wake: &Notifier,
    engine_wake: &Notifier,
) {
    // How long to spin before parking on the notifier. The engine posts
    // jobs in bursts as it sweeps its candidate index, so a short spin
    // usually catches the next job without a syscall — but only when a
    // spare hardware thread exists; on a saturated host every spin cycle
    // is stolen from the engine, so park immediately instead.
    let spin_budget: u32 = if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        4_096
    } else {
        0
    };
    let mut seen = wake.epoch();
    loop {
        let mut did = false;
        while let Some(msg) = jobs.recv() {
            let job = match msg {
                WorkerMsg::Job(j) => j,
                WorkerMsg::Stop => return,
            };
            // Safety: the engine guarantees exclusive slice ownership —
            // it never touches a slice while any job for that node is in
            // flight, and nodes map to exactly one worker.
            let slice = unsafe { arena.slice_mut(job.node) };
            let out = slice.access_private(job.access);
            dones
                .send(Done {
                    seq: job.seq,
                    latency: out.latency,
                    victims: out.victims,
                    evict: out.evict_hint,
                })
                .unwrap_or_else(|_| panic!("shard done ring overflow"));
            did = true;
        }
        if did {
            engine_wake.notify();
            seen = wake.epoch();
            continue;
        }
        let mut spun = 0;
        while jobs.is_empty() && spun < spin_budget {
            std::hint::spin_loop();
            spun += 1;
        }
        if jobs.is_empty() {
            let (e, _) = wake.wait_past(seen, std::time::Duration::from_millis(50));
            seen = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_arch::{ArchConfig, Hierarchy};
    use compass_mem::PAddr;

    /// Jobs shipped through the pool must mutate the same slice state and
    /// return the same outcomes as calling `access_private` in-line.
    #[test]
    fn pool_round_trip_matches_inline() {
        let cfg = ArchConfig::ccnuma(2, 2);
        let shared = Hierarchy::new(cfg.clone());
        let inline = Hierarchy::new(cfg.clone());
        let engine_wake = Arc::new(Notifier::new());
        let pool = ShardPool::new(2, shared.share_slices(), Arc::clone(&engine_wake), 16);

        let mk = |i: u64| {
            let node = (i % 2) as usize;
            let cpu = node * 2 + ((i / 2) % 2) as usize;
            PrivateAccess {
                cpu,
                // Node-private regions, disjoint per node.
                paddr: PAddr(((node as u64) << 30) | ((i * 64) % 4096)),
                write: i.is_multiple_of(3),
                class: (i % 2) as usize,
                now: i * 10,
            }
        };

        let mut want = Vec::new();
        let mut got = Vec::new();
        let mut seen = 0;
        for i in 0..200u64 {
            let acc = mk(i);
            let node = acc.cpu / 2;
            let out = unsafe { inline.share_slices().slice_mut(node) }.access_private(acc);
            want.push((i, out));
            pool.submit(Job {
                seq: i,
                node,
                access: acc,
            });
            // Keep outstanding jobs under the ring bound, like the engine.
            while (i + 1) as usize - got.len() >= 8 {
                pool.drain_dones(&mut got);
                if (i + 1) as usize - got.len() >= 8 {
                    (seen, _) = engine_wake.wait_past(seen, std::time::Duration::from_secs(5));
                }
            }
        }
        while got.len() < 200 {
            pool.drain_dones(&mut got);
            if got.len() < 200 {
                (seen, _) = engine_wake.wait_past(seen, std::time::Duration::from_secs(5));
            }
        }
        got.sort_by_key(|d| d.seq);
        for (d, (seq, out)) in got.iter().zip(&want) {
            assert_eq!(d.seq, *seq);
            assert_eq!(d.latency, out.latency);
            assert_eq!(d.victims, out.victims);
            assert_eq!(d.evict, out.evict_hint);
        }
        drop(pool);
        assert_eq!(shared.stats_merged(), inline.stats_merged());
    }
}
