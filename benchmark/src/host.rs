//! The host side of the method: CPU pinning, the host record every
//! output carries, peak RSS, and the `/proc` scheduler ledger that
//! attributes host CPU time to the simulator's layers from outside.
//!
//! Everything here degrades instead of failing: on a non-Linux host the
//! run is unpinned, the ledger is empty, and the record says so.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first (empty when the
/// host cannot say).
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..CPU_SET_WORDS * 64)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Pins the calling thread (and every thread it later spawns) to `cpu`.
/// Returns whether the kernel accepted the mask.
pub fn pin_to(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu < CPU_SET_WORDS * 64 {
            let mut mask = [0u64; CPU_SET_WORDS];
            mask[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: `mask` is a live buffer of exactly the byte length
            // passed; pid 0 names the calling thread.
            return unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) }
                == 0;
        }
    }
    let _ = cpu;
    false
}

/// Where this process was pinned. Pinning is part of the method (README,
/// "Why pinned"): it must happen before any simulator thread exists.
#[derive(Debug, Clone)]
pub struct Pinning {
    /// CPUs the process was allowed before pinning.
    pub host_cpus: usize,
    /// Whether `sched_setaffinity` succeeded.
    pub pinned: bool,
    /// The CPU the simulator runs on.
    pub cpu: Option<usize>,
    /// A second allowed CPU, for the cross-CPU port probe only.
    pub other_cpu: Option<usize>,
}

/// Pins the process to its first allowed CPU.
pub fn pin_process() -> Pinning {
    let allowed = allowed_cpus();
    let host_cpus = if allowed.is_empty() {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        allowed.len()
    };
    let cpu = allowed.first().copied();
    let pinned = cpu.is_some_and(pin_to);
    Pinning {
        host_cpus,
        pinned,
        cpu,
        other_cpu: allowed.get(1).copied(),
    }
}

/// One named field of `/proc/self/status`, trimmed.
fn status_field(name: &str) -> Option<String> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size of this process so far, in MiB (0 when the host
/// does not report `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The host record: `(key, already-rendered JSON value)` pairs.
pub fn host_record(pin: &Pinning) -> Vec<(&'static str, String)> {
    let quoted = crate::json::quote;
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    vec![
        ("os", quoted(std::env::consts::OS)),
        ("kernel", quoted(&kernel)),
        ("host_cpus", pin.host_cpus.to_string()),
        ("cpus_used", "1".into()),
        ("pinned", pin.pinned.to_string()),
        (
            "pinned_cpu",
            pin.cpu
                .filter(|_| pin.pinned)
                .map_or("null".into(), |c| c.to_string()),
        ),
        (
            "Cpus_allowed_list",
            quoted(&status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())),
        ),
        ("rustc", quoted(&command_line("rustc", &["-V"]))),
        (
            "git_commit",
            quoted(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            quoted(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ]
}

// ---------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------

/// What [`calibration_kernel`] takes on the reference host: the 2-vCPU
/// sandbox the scales were frozen on, in its usual regime. Only a scale
/// factor: it cancels in every comparison between two runs.
pub const NOMINAL_CALIBRATION_S: f64 = 0.020;

/// A fixed piece of work that belongs to the benchmark, not to the
/// simulator: an xorshift walk over a 128 KiB table (ALU + cache), then
/// round trips between two threads through `std::sync::mpsc` (futex
/// park/unpark, the cost that dominates a pinned rendezvous). Returns the
/// seconds it took.
///
/// Why it exists: on a shared sandbox the host's speed moves by 20-40 %
/// for tens of seconds at a time (measured, README "Calibrated seconds"),
/// and it moves this kernel and the simulator alike. Timing the kernel
/// beside every repetition and expressing end-to-end times in units of it
/// takes the host's mood out of the comparison between two runs.
pub fn calibration_kernel() -> f64 {
    const TABLE: usize = 1 << 14;
    const WALK: u64 = 4_000_000;
    const ROUND_TRIPS: u32 = 4_000;
    let t0 = std::time::Instant::now();
    let mut table = vec![0u64; TABLE];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..WALK {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = x as usize & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(i);
    }
    std::hint::black_box(&table);
    let (to_peer, peer_in) = std::sync::mpsc::channel::<u32>();
    let (to_me, me_in) = std::sync::mpsc::channel::<u32>();
    let peer = std::thread::Builder::new()
        .name("bench-calibrate".into())
        .spawn(move || {
            while let Ok(v) = peer_in.recv() {
                if to_me.send(v).is_err() {
                    break;
                }
            }
        })
        .expect("spawn calibration thread");
    for i in 0..ROUND_TRIPS {
        to_peer.send(i).expect("calibration peer is alive");
        me_in.recv().expect("calibration peer answers");
    }
    drop(to_peer);
    peer.join().expect("calibration thread panicked");
    t0.elapsed().as_secs_f64()
}

/// Host speed relative to the reference host over an interval bracketed
/// by two calibration timings: 1.0 is the reference, 0.8 a host running
/// at four fifths of it. A wall time multiplied by this is the time the
/// same work would have taken on the reference host.
pub fn host_speed(cal_before_s: f64, cal_after_s: f64) -> f64 {
    NOMINAL_CALIBRATION_S / ((cal_before_s + cal_after_s) / 2.0).max(1e-9)
}

// ---------------------------------------------------------------------
// The scheduler ledger
// ---------------------------------------------------------------------

/// The three fields of `/proc/<pid>/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable, waiting for a CPU.
    pub wait_ns: u64,
    /// Timeslices run: one per switch onto a CPU.
    pub slices: u64,
}

impl SchedStat {
    fn minus(self, base: SchedStat) -> SchedStat {
        SchedStat {
            run_ns: self.run_ns.saturating_sub(base.run_ns),
            wait_ns: self.wait_ns.saturating_sub(base.wait_ns),
            slices: self.slices.saturating_sub(base.slices),
        }
    }

    fn add(&mut self, o: SchedStat) {
        self.run_ns += o.run_ns;
        self.wait_ns += o.wait_ns;
        self.slices += o.slices;
    }
}

/// Parses one `schedstat` line (`run_ns wait_ns timeslices`).
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_whitespace().map(str::parse::<u64>);
    let stat = SchedStat {
        run_ns: it.next()?.ok()?,
        wait_ns: it.next()?.ok()?,
        slices: it.next()?.ok()?,
    };
    it.next().is_none().then_some(stat)
}

/// The layer a host thread belongs to, from the name the simulator gave
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// `app-process-N`: frontend event generation.
    Frontend,
    /// `compass-backend` and `compass-shard`: engine + architecture models.
    Backend,
    /// `os-thread-N`: the OS server's syscall threads.
    Os,
    /// `kernel-bottom-half`: the interrupt daemon.
    BottomHalf,
    /// The benchmark's own threads (driver, sampler) and anything unnamed.
    Other,
}

/// Groups a thread by its `comm` (the kernel truncates names to 15
/// bytes, so match prefixes).
pub fn group_of(comm: &str) -> Group {
    let comm = comm.trim();
    if comm.starts_with("app-process-") {
        Group::Frontend
    } else if comm.starts_with("compass-backend") || comm.starts_with("compass-shard") {
        Group::Backend
    } else if comm.starts_with("os-thread-") {
        Group::Os
    } else if comm.starts_with("kernel-bottom-h") {
        Group::BottomHalf
    } else {
        Group::Other
    }
}

/// Host CPU per layer over a sampled interval.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Per-group totals.
    pub groups: BTreeMap<Group, SchedStat>,
}

impl Ledger {
    /// Totals for one group (zero if it never ran).
    pub fn of(&self, g: Group) -> SchedStat {
        self.groups.get(&g).copied().unwrap_or_default()
    }

    /// CPU seconds summed over every group, the benchmark's own threads
    /// included: the numerator of `core.ledger_coverage`.
    pub fn total_cpu_s(&self) -> f64 {
        self.groups.values().map(|s| s.run_ns).sum::<u64>() as f64 / 1e9
    }

    /// Switches onto a CPU summed over the simulator's own groups.
    pub fn sim_ctx_switches(&self) -> u64 {
        self.groups
            .iter()
            .filter(|(g, _)| **g != Group::Other)
            .map(|(_, s)| s.slices)
            .sum()
    }
}

/// Last-seen counters per thread; threads that exit keep their final
/// sample, so a ledger loses at most one sampling period per thread.
#[derive(Default)]
struct Tracker {
    seen: BTreeMap<u64, (Group, SchedStat, SchedStat)>, // tid -> (group, first, last)
    samples: u64,
}

impl Tracker {
    /// Folds one sample of `(tid, comm, schedstat)` rows. Threads present
    /// at the first sample are measured from that baseline; threads born
    /// later from zero.
    fn fold(&mut self, rows: impl Iterator<Item = (u64, String, SchedStat)>) {
        let first_sample = self.samples == 0;
        self.samples += 1;
        for (tid, comm, stat) in rows {
            let base = if first_sample {
                stat
            } else {
                SchedStat::default()
            };
            let e = self
                .seen
                .entry(tid)
                .or_insert((group_of(&comm), base, stat));
            e.0 = group_of(&comm); // threads are renamed after spawn
            e.2 = stat;
        }
    }

    fn ledger(&self) -> Ledger {
        let mut l = Ledger::default();
        for (group, first, last) in self.seen.values() {
            l.groups.entry(*group).or_default().add(last.minus(*first));
        }
        l
    }
}

fn read_tasks() -> Vec<(u64, String, SchedStat)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let path = entry.path();
            // A thread can exit between readdir and read: skip it.
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            let stat = parse_schedstat(&std::fs::read_to_string(path.join("schedstat")).ok()?)?;
            Some((tid, comm, stat))
        })
        .collect()
}

/// A running sampler thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Ledger>,
}

/// The sampling period of the ledger.
pub const SAMPLE_PERIOD: Duration = Duration::from_millis(20);

impl Sampler {
    /// Starts sampling every thread of this process.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                let mut tracker = Tracker::default();
                loop {
                    tracker.fold(read_tasks().into_iter());
                    if flag.load(Ordering::SeqCst) {
                        return tracker.ledger();
                    }
                    std::thread::sleep(SAMPLE_PERIOD);
                }
            })
            .expect("spawn sampler thread");
        Sampler { stop, handle }
    }

    /// Takes one last sample and returns the ledger.
    pub fn finish(self) -> Ledger {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("sampler thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parser_accepts_exactly_three_fields() {
        assert_eq!(
            parse_schedstat("1030998 87204 2\n"),
            Some(SchedStat {
                run_ns: 1_030_998,
                wait_ns: 87_204,
                slices: 2
            })
        );
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("1 2 3 4"), None);
        assert_eq!(parse_schedstat("1 x 3"), None);
    }

    #[test]
    fn host_speed_is_relative_to_the_nominal_kernel_time() {
        assert!((host_speed(0.020, 0.020) - 1.0).abs() < 1e-12);
        // Twice as long to do the same work: half the speed.
        assert!((host_speed(0.030, 0.050) - 0.5).abs() < 1e-12);
        assert!(calibration_kernel() > 0.0);
    }

    #[test]
    fn threads_group_by_the_names_the_simulator_sets() {
        assert_eq!(group_of("app-process-3\n"), Group::Frontend);
        assert_eq!(group_of("compass-backend"), Group::Backend);
        assert_eq!(group_of("compass-shard"), Group::Backend);
        assert_eq!(group_of("os-thread-12"), Group::Os);
        // 15-byte truncation of "kernel-bottom-half".
        assert_eq!(group_of("kernel-bottom-h"), Group::BottomHalf);
        assert_eq!(group_of("bench-sampler"), Group::Other);
        assert_eq!(group_of("compass-benchma"), Group::Other);
    }

    fn row(tid: u64, comm: &str, run: u64, wait: u64, slices: u64) -> (u64, String, SchedStat) {
        (
            tid,
            comm.to_string(),
            SchedStat {
                run_ns: run,
                wait_ns: wait,
                slices,
            },
        )
    }

    #[test]
    fn ledger_subtracts_the_baseline_and_keeps_exited_threads() {
        let mut t = Tracker::default();
        // The driver thread exists before sampling starts: baseline.
        t.fold(vec![row(1, "compass-benchma", 5_000, 100, 7)].into_iter());
        // Simulator threads appear later and count from zero.
        t.fold(
            vec![
                row(1, "compass-benchma", 6_000, 100, 8),
                row(2, "app-process-0", 400, 50, 3),
                row(3, "compass-backend", 900, 10, 4),
            ]
            .into_iter(),
        );
        // Thread 2 exited; its last sample must survive.
        t.fold(
            vec![
                row(1, "compass-benchma", 6_500, 120, 9),
                row(3, "compass-backend", 1_900, 30, 6),
                row(4, "os-thread-0", 70, 0, 1),
                row(5, "kernel-bottom-h", 30, 0, 1),
            ]
            .into_iter(),
        );
        let l = t.ledger();
        assert_eq!((t.samples, t.seen.len()), (3, 5));
        assert_eq!(l.of(Group::Other).run_ns, 1_500);
        assert_eq!(l.of(Group::Other).slices, 2);
        assert_eq!(l.of(Group::Frontend).run_ns, 400);
        assert_eq!(l.of(Group::Backend).run_ns, 1_900);
        assert_eq!(l.of(Group::Backend).wait_ns, 30);
        assert_eq!(l.of(Group::Os).run_ns, 70);
        assert_eq!(l.of(Group::BottomHalf).run_ns, 30);
        assert_eq!(l.sim_ctx_switches(), 3 + 6 + 1 + 1);
        assert!((l.total_cpu_s() - 3.9e-6).abs() < 1e-12);
    }
}
