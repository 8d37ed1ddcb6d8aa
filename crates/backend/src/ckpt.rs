//! Deterministic checkpoint/restore: the file format.
//!
//! COMPASS frontends are coroutines running real closures, so their
//! "state" lives on host stacks and cannot be serialized. A checkpoint
//! therefore records the *architecture-model outcomes* instead: every
//! hierarchy access and DSM page-transfer result, in engine service
//! order, plus one snapshot of the memory hierarchy taken at a quiesced
//! cut (between engine steps). [`crate::ArchPort`] records and replays
//! the stream; this module only encodes and decodes it.
//!
//! Resume re-executes everything live — frontend closures, OS-server
//! threads, scheduler, VM, devices — but feeds the architecture models
//! from the recorded stream, *validating* each request (cpu, paddr,
//! write, class, home) against what was recorded. This is the
//! resume-identity oracle: any nondeterminism between the recording run
//! and the resumed run surfaces as [`crate::RunError::ResumeDiverged`]
//! instead of silently skewed statistics. At the cut, the stream must be
//! exactly exhausted; the hierarchy snapshot is swapped in and the run
//! continues fully live, bit-identical to the recording run by
//! construction.
//!
//! The stream order is the engine's deterministic pop order, the same
//! at every batch depth.
//!
//! File format: a `compass-snap` frame (`seal`/`unseal`, FNV-1a
//! checksummed, version-tagged) whose payload is the header
//! (architecture-config hash, fast-forward event count, cut event
//! ordinal), the record stream, and the raw hierarchy snapshot bytes.
//! Any corruption or truncation decodes to a structured error — never a
//! panic. Versioning rule: bump [`CKPT_VERSION`] whenever the payload
//! layout *or the meaning of a recorded field* changes; old files are
//! rejected, never reinterpreted.

use compass_snap::{seal, unseal, Reader, SnapError, Writer};

/// Checkpoint frame version (see the module docs for the bump rule).
/// Version 2 lays the hierarchy snapshot out per cache array instead of
/// per node slice; version-1 files are rejected.
pub const CKPT_VERSION: u32 = 2;

/// One recorded architecture-model outcome, in engine service order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchRecord {
    /// A [`compass_arch::Hierarchy::access`] call and its result.
    Access {
        /// Requesting CPU.
        cpu: u32,
        /// Physical address accessed.
        paddr: u64,
        /// Store or read-modify-write.
        write: bool,
        /// Dense [`compass_arch::AccessClass`] index.
        class: u8,
        /// Home node of the line.
        home: u32,
        /// Resulting latency in cycles.
        latency: u64,
        /// Served by the L1.
        l1_hit: bool,
        /// Involved a remote home directory.
        remote: bool,
        /// CPUs whose private L1 the access changed from outside
        /// ([`compass_arch::Hierarchy::epoch_victims`]). Resume ignores it;
        /// it remains because the benchmark's checkpoint probe fills it.
        victims: Vec<u32>,
    },
    /// A software-DSM page transfer and its charged latency.
    Dsm {
        /// Losing node.
        from: u32,
        /// Gaining node.
        to: u32,
        /// Bytes moved.
        bytes: u32,
        /// Resulting latency in cycles.
        latency: u64,
    },
}

/// A fully decoded checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointData {
    /// FNV-1a hash of the architecture configuration that produced the
    /// file. Resume under a different *architecture* is meaningless
    /// (transport knobs such as batch depths are free).
    pub config_hash: u64,
    /// Events the recording run fast-forwarded before the models went
    /// live; the resumed run re-executes the same warmup.
    pub ff_events: u64,
    /// `events_processed` ordinal of the quiesced cut.
    pub cut_events: u64,
    /// Architecture outcomes between warmup and cut, in service order.
    pub records: Vec<ArchRecord>,
    /// Raw [`compass_arch::Hierarchy`] snapshot taken at the cut.
    pub snapshot: Vec<u8>,
}

impl CheckpointData {
    /// Serializes into a sealed, checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.config_hash);
        w.u64(self.ff_events);
        w.u64(self.cut_events);
        w.u64(self.records.len() as u64);
        for rec in &self.records {
            match rec {
                ArchRecord::Access {
                    cpu,
                    paddr,
                    write,
                    class,
                    home,
                    latency,
                    l1_hit,
                    remote,
                    victims,
                } => {
                    w.u8(0);
                    w.u32(*cpu);
                    w.u64(*paddr);
                    w.bool(*write);
                    w.u8(*class);
                    w.u32(*home);
                    w.u64(*latency);
                    w.bool(*l1_hit);
                    w.bool(*remote);
                    w.u32(victims.len() as u32);
                    for v in victims {
                        w.u32(*v);
                    }
                }
                ArchRecord::Dsm {
                    from,
                    to,
                    bytes,
                    latency,
                } => {
                    w.u8(1);
                    w.u32(*from);
                    w.u32(*to);
                    w.u32(*bytes);
                    w.u64(*latency);
                }
            }
        }
        w.bytes(&self.snapshot);
        seal(CKPT_VERSION, &w.into_bytes())
    }

    /// Decodes a sealed frame; every malformation is an `Err`.
    pub fn decode(frame: &[u8]) -> compass_snap::Result<Self> {
        let (version, payload) = unseal(frame)?;
        if version != CKPT_VERSION {
            return Err(SnapError::BadFrame("unsupported checkpoint version"));
        }
        let mut r = Reader::new(payload);
        let config_hash = r.u64()?;
        let ff_events = r.counter("fast-forwarded events")?;
        let cut_events = r.counter("cut events")?;
        let nrecords = r.seq_len(6)?;
        let mut records = Vec::with_capacity(nrecords);
        for _ in 0..nrecords {
            records.push(match r.u8()? {
                0 => {
                    let cpu = r.u32()?;
                    let paddr = r.u64()?;
                    let write = r.bool()?;
                    let class = r.u8()?;
                    let home = r.u32()?;
                    let latency = r.counter("access latency")?;
                    let l1_hit = r.bool()?;
                    let remote = r.bool()?;
                    let nvict = r.u32()? as usize;
                    let mut victims = Vec::with_capacity(nvict.min(1024));
                    for _ in 0..nvict {
                        victims.push(r.u32()?);
                    }
                    ArchRecord::Access {
                        cpu,
                        paddr,
                        write,
                        class,
                        home,
                        latency,
                        l1_hit,
                        remote,
                        victims,
                    }
                }
                1 => ArchRecord::Dsm {
                    from: r.u32()?,
                    to: r.u32()?,
                    bytes: r.u32()?,
                    latency: r.counter("DSM latency")?,
                },
                _ => return Err(SnapError::Corrupt("unknown record tag")),
            });
        }
        let snapshot = r.bytes()?.to_vec();
        if !r.is_exhausted() {
            return Err(SnapError::Corrupt("trailing payload bytes"));
        }
        Ok(CheckpointData {
            config_hash,
            ff_events,
            cut_events,
            records,
            snapshot,
        })
    }

    /// Loads and decodes a checkpoint file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("reading checkpoint {}: {e}", path.display()))?;
        Self::decode(&bytes).map_err(|e| format!("decoding checkpoint {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        CheckpointData {
            config_hash: 0xDEAD_BEEF_CAFE,
            ff_events: 1_000,
            cut_events: 5_000,
            records: vec![
                ArchRecord::Access {
                    cpu: 3,
                    paddr: 0x1_2340,
                    write: true,
                    class: 1,
                    home: 0,
                    latency: 142,
                    l1_hit: false,
                    remote: true,
                    victims: vec![0, 2],
                },
                ArchRecord::Dsm {
                    from: 1,
                    to: 0,
                    bytes: 4096,
                    latency: 900,
                },
                ArchRecord::Access {
                    cpu: 0,
                    paddr: 0x40,
                    write: false,
                    class: 0,
                    home: 1,
                    latency: 1,
                    l1_hit: true,
                    remote: false,
                    victims: vec![],
                },
            ],
            snapshot: vec![7u8; 333],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = sample();
        let frame = d.encode();
        assert_eq!(CheckpointData::decode(&frame).unwrap(), d);
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let frame = sample().encode();
        for len in 0..frame.len() {
            assert!(
                CheckpointData::decode(&frame[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn every_byte_flip_is_an_error_not_a_panic() {
        let frame = sample().encode();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(
                CheckpointData::decode(&bad).is_err(),
                "flip at byte {i} must fail"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let payload = {
            let mut w = Writer::new();
            w.u64(0);
            w.u64(0);
            w.u64(0);
            w.u64(0);
            w.bytes(&[]);
            w.into_bytes()
        };
        // A newer frame, and a version-1 frame (per-node-slice snapshot
        // layout): both are typed errors, never reinterpreted.
        for version in [CKPT_VERSION + 1, 1] {
            let frame = seal(version, &payload);
            assert!(
                matches!(CheckpointData::decode(&frame), Err(SnapError::BadFrame(_))),
                "version {version} accepted"
            );
        }
    }

    #[test]
    fn load_of_missing_file_is_an_error() {
        let err = CheckpointData::load(std::path::Path::new("/nonexistent/ckpt.bin"));
        assert!(err.is_err());
        assert!(err.unwrap_err().contains("/nonexistent/ckpt.bin"));
    }
}
