//! A SPLASH-style scientific contrast workload.
//!
//! Phase-parallel grid relaxation: each process sweeps a private matrix,
//! publishes a partial sum into a shared array, and meets the others at a
//! barrier every iteration. Almost no OS activity — the paper's §1
//! baseline against which the commercial workloads' 20–85% OS time stands
//! out.

use compass_frontend::CpuCtx;
use compass_isa::InstClass;

/// Parameters for the scientific kernel.
#[derive(Debug, Clone, Copy)]
pub struct SciConfig {
    /// Number of cooperating processes (barrier width).
    pub nprocs: u16,
    /// Matrix rows per process.
    pub rows: u32,
    /// Matrix columns (elements of 8 bytes).
    pub cols: u32,
    /// Relaxation iterations.
    pub iters: u32,
    /// Shared-memory key for the reduction area.
    pub shm_key: u32,
}

impl Default for SciConfig {
    fn default() -> Self {
        SciConfig {
            nprocs: 2,
            rows: 16,
            cols: 64,
            iters: 4,
            shm_key: 0x5C1,
        }
    }
}

/// Builds the process body for worker `rank`.
pub fn worker(cfg: SciConfig, rank: u16) -> impl FnMut(&mut CpuCtx) {
    move |cpu: &mut CpuCtx| {
        // Private matrix.
        let bytes = cfg.rows * cfg.cols * 8;
        let matrix = cpu.malloc_pages(bytes.max(4096));
        // Shared reduction area: one cache line per process + a lock and
        // a barrier word.
        let seg = cpu.shmget(cfg.shm_key, 4096);
        let base = cpu.shmat(seg);
        let lock = base;
        let barrier = base + 64;
        let slot = base + 128 + rank as u32 * 64;

        let mut acc = 0u64;
        for _iter in 0..cfg.iters {
            // Sweep: load neighbours, one FP op per element, store.
            for r in 0..cfg.rows {
                for c in 0..cfg.cols {
                    let addr = matrix + (r * cfg.cols + c) * 8;
                    cpu.load(addr, 8);
                    cpu.inst(InstClass::FpAdd, 2);
                    cpu.inst(InstClass::FpMul, 1);
                    cpu.store(addr, 8);
                    acc = acc.wrapping_add((r + c) as u64);
                }
            }
            // Publish the partial sum and fold into the global one.
            cpu.store(slot, 8);
            cpu.lock(lock);
            cpu.load(base + 192, 8);
            cpu.store(base + 192, 8);
            cpu.unlock(lock);
            cpu.barrier(barrier, cfg.nprocs);
        }
        std::hint::black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::{ArchConfig, SimBuilder};

    #[test]
    fn sci_kernel_runs_and_spends_almost_no_os_time() {
        let cfg = SciConfig {
            nprocs: 2,
            rows: 4,
            cols: 16,
            iters: 2,
            ..Default::default()
        };
        let mut b = SimBuilder::new(ArchConfig::simple_smp(2));
        for rank in 0..cfg.nprocs {
            b = b.add_process(worker(cfg, rank));
        }
        let r = b.run();
        let user: u64 = r.backend.procs.iter().map(|p| p.by_mode[0]).sum();
        let os: u64 = r
            .backend
            .procs
            .iter()
            .map(|p| p.by_mode[1] + p.by_mode[2])
            .sum();
        assert!(user > 0);
        assert!(
            (os as f64) < 0.05 * (user + os) as f64,
            "scientific code must spend <5% in the OS (got {os} of {})",
            user + os
        );
        // Barriers fired once per iteration.
        assert_eq!(r.backend.sync.barriers, cfg.iters as u64);
    }
}
