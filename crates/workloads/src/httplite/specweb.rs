//! SPECWeb96-style file set and request trace generation.
//!
//! "SPECWeb96 consists of two parts: a file set generator and a workload
//! generator. Before testing a web server, the file set generator must be
//! run in the server machine to populate a test file set consisting of
//! many files of different sizes." (§4.2)
//!
//! SPECWeb96's file set is organised in directories of 36 files: 9 files
//! in each of 4 size classes (class 0: 0.1–0.9 KB, class 1: 1–9 KB,
//! class 2: 10–90 KB, class 3: 100–900 KB). The access mix across classes
//! is 35% / 50% / 14% / 1%, and within a class the nine files follow a
//! centre-weighted distribution. We reproduce that shape.

use compass_isa::rng::SimRng;
use compass_os::fs::FileData;
use compass_os::KernelShared;

/// File-set shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSetConfig {
    /// Number of directories (SPECWeb scales this with the target load).
    pub dirs: u32,
}

impl Default for FileSetConfig {
    fn default() -> Self {
        FileSetConfig { dirs: 2 }
    }
}

/// Class base sizes in bytes (file `i` of a class is `(i+1) * base`).
const CLASS_BASE: [u32; 4] = [102, 1_024, 10_240, 102_400];
/// Class access mix (percent), SPECWeb96's 35/50/14/1.
const CLASS_MIX: [u32; 4] = [35, 50, 14, 1];
/// In-class file weights (centre-weighted, summing to 100).
const FILE_WEIGHTS: [u32; 9] = [4, 8, 16, 24, 16, 12, 8, 8, 4];

/// The path of file `idx` of `class` in `dir`.
pub fn path_of(dir: u32, class: u32, idx: u32) -> String {
    format!("/spec/dir{dir:05}/class{class}_{idx}")
}

/// Size of file `idx` (0–8) of `class`.
pub fn size_of(class: u32, idx: u32) -> u32 {
    CLASS_BASE[class as usize] * (idx + 1)
}

/// One request of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Requested path.
    pub path: String,
    /// The file's size (the player uses it to recognise response
    /// completion).
    pub size: u32,
}

/// An HTTP request trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Requests in play order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Total bytes the responses will carry.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size as u64).sum()
    }
}

/// Populates the kernel's filesystem with the file set. Content is
/// synthetic (nobody parses it), so large sets cost no host memory.
/// Returns the number of files created.
pub fn generate_fileset(kernel: &KernelShared, cfg: FileSetConfig) -> u32 {
    let mut n = 0;
    for dir in 0..cfg.dirs {
        for class in 0..4u32 {
            for idx in 0..9u32 {
                kernel.create_file(
                    &path_of(dir, class, idx),
                    FileData::Synthetic {
                        len: size_of(class, idx) as u64,
                    },
                );
                n += 1;
            }
        }
    }
    n
}

fn pick_weighted(rng: &mut SimRng, weights: &[u32]) -> u32 {
    let total: u32 = weights.iter().sum();
    let mut x = rng.gen_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i as u32;
        }
        x -= w;
    }
    unreachable!("weights sum covered the range")
}

/// Draws one trace entry: directory, class by the 35/50/14/1 mix, file
/// by the centre-weighted in-class distribution.
fn draw_entry(rng: &mut SimRng, cfg: FileSetConfig) -> TraceEntry {
    let dir = rng.gen_range(0..cfg.dirs);
    let class = pick_weighted(rng, &CLASS_MIX);
    let idx = pick_weighted(rng, &FILE_WEIGHTS);
    TraceEntry {
        path: path_of(dir, class, idx),
        size: size_of(class, idx),
    }
}

/// A streaming trace generator (ISSUE 9): yields exactly the entries
/// [`generate_trace`] would produce for the same `(cfg, requests, seed)`,
/// one at a time, without materialising the trace. Live state is the RNG
/// plus two counters, so a ten-million-request trace costs the same
/// memory as a ten-request one.
#[derive(Debug, Clone)]
pub struct TraceStream {
    rng: SimRng,
    cfg: FileSetConfig,
    total: u32,
    drawn: u32,
}

impl TraceStream {
    /// A stream of `requests` entries over `cfg`'s file set, seeded like
    /// [`generate_trace`].
    pub fn new(cfg: FileSetConfig, requests: u32, seed: u64) -> Self {
        Self {
            rng: SimRng::seed_from_u64(seed),
            cfg,
            total: requests,
            drawn: 0,
        }
    }

    /// Total entries the stream will yield (drawn or not).
    pub fn total(&self) -> u32 {
        self.total
    }
}

impl Iterator for TraceStream {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.drawn == self.total {
            return None;
        }
        self.drawn += 1;
        Some(draw_entry(&mut self.rng, self.cfg))
    }
}

/// Generates a request trace over the file set (the paper's intermediate
/// trace file), deterministically from `seed`.
pub fn generate_trace(cfg: FileSetConfig, requests: u32, seed: u64) -> Trace {
    Trace {
        entries: TraceStream::new(cfg, requests, seed).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_comm::DevShared;
    use compass_os::KernelConfig;
    use std::rc::Rc;

    #[test]
    fn fileset_has_36_files_per_directory() {
        let k = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
        let n = generate_fileset(&k, FileSetConfig { dirs: 3 });
        assert_eq!(n, 3 * 36);
        assert_eq!(k.fs.borrow_mut().len(), 108);
        // Spot-check a size: class 2, file 4 -> 5 * 10240.
        let st = k.fs.borrow_mut().stat(&path_of(0, 2, 4)).unwrap();
        assert_eq!(st.len, 51_200);
    }

    #[test]
    fn trace_is_deterministic_and_class_mix_holds() {
        let cfg = FileSetConfig { dirs: 4 };
        let t1 = generate_trace(cfg, 2_000, 42);
        let t2 = generate_trace(cfg, 2_000, 42);
        assert_eq!(t1, t2);
        assert_ne!(t1, generate_trace(cfg, 2_000, 43));
        // Class shares: count by size range.
        let mut counts = [0u32; 4];
        for e in &t1.entries {
            let class = CLASS_BASE
                .iter()
                .rposition(|&b| e.size >= b)
                .expect("size matches a class");
            counts[class] += 1;
        }
        let pct = |c: u32| 100.0 * c as f64 / 2_000.0;
        assert!((pct(counts[0]) - 35.0).abs() < 5.0, "class0 {counts:?}");
        assert!((pct(counts[1]) - 50.0).abs() < 5.0, "class1 {counts:?}");
        assert!((pct(counts[2]) - 14.0).abs() < 4.0, "class2 {counts:?}");
        assert!(pct(counts[3]) < 3.0, "class3 {counts:?}");
    }

    #[test]
    fn stream_yields_exactly_the_materialised_trace() {
        let cfg = FileSetConfig { dirs: 3 };
        let t = generate_trace(cfg, 1_000, 99);
        let s = TraceStream::new(cfg, 1_000, 99);
        assert_eq!(s.total(), 1_000);
        let streamed: Vec<TraceEntry> = s.collect();
        assert_eq!(streamed, t.entries);
    }

    #[test]
    fn trace_paths_exist_in_the_fileset() {
        let k = KernelShared::new(KernelConfig::default(), Rc::new(DevShared::new()));
        let cfg = FileSetConfig { dirs: 2 };
        generate_fileset(&k, cfg);
        let t = generate_trace(cfg, 500, 7);
        for e in &t.entries {
            let st = k.fs.borrow_mut().stat(&e.path).unwrap();
            assert_eq!(
                st.len, e.size as u64,
                "trace size matches file {:?}",
                e.path
            );
        }
    }
}
