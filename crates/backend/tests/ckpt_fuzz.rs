//! Checkpoint decoding under hostile input. A checkpoint file is read
//! back from disk, so every byte of it is untrusted: whatever the frame
//! holds, `CheckpointData::decode` and `Hierarchy::decode_snapshot` must
//! return `Ok` or `Err` — never panic — and whatever they accept must
//! round-trip (`decode(encode(x)) == x`). The payloads here carry a valid
//! `CKPT_VERSION` seal and checksum, so the frame layer lets them through
//! and the payload decoders are what is tested.

use compass_arch::{Access, AccessClass, ArchConfig, CacheConfig, Hierarchy};
use compass_backend::{ArchRecord, CheckpointData, CKPT_VERSION};
use compass_mem::PAddr;
use compass_snap::{seal, unseal, Reader, SnapError, Writer, MAX_COUNTER};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A 2x2 machine with small caches, so a snapshot is a few KiB and
/// random mutations land in every section of it.
fn small(coma: bool) -> ArchConfig {
    let mut cfg = if coma {
        ArchConfig::coma(2, 2)
    } else {
        ArchConfig::ccnuma(2, 2)
    };
    cfg.l1 = CacheConfig {
        size: 1024,
        assoc: 2,
        line: 32,
    };
    cfg.l2 = Some(CacheConfig {
        size: 4096,
        assoc: 4,
        line: 64,
    });
    if let Some(am) = cfg.attraction.as_mut() {
        *am = CacheConfig {
            size: 8192,
            assoc: 4,
            line: 64,
        };
    }
    cfg
}

/// Warms a hierarchy with private streams plus lines every CPU shares,
/// recording each access the way the engine does.
fn warmed(cfg: &ArchConfig) -> (Hierarchy, Vec<ArchRecord>) {
    let mut h = Hierarchy::new(cfg.clone());
    let mut records = Vec::new();
    for i in 0..3_000u64 {
        let cpu = (i % 4) as usize;
        let paddr = if i % 5 == 0 {
            0x10_0000 + (i / 5 % 48) * 64
        } else {
            0x100_0000 * (cpu as u64 + 1) + (i / 4 % 200) * 32
        };
        let write = i % 3 == 0;
        let acc = Access {
            class: AccessClass::User,
            write,
        };
        let home = (paddr >> 12) as usize % 2;
        let r = h.access(cpu, PAddr(paddr), acc, home, i * 40);
        records.push(ArchRecord::Access {
            cpu: cpu as u32,
            paddr,
            write,
            class: acc.class.index() as u8,
            home: home as u32,
            latency: r.latency,
            l1_hit: r.l1_hit,
            remote: r.remote,
            victims: h.epoch_victims().iter().map(|&c| c as u32).collect(),
        });
    }
    (h, records)
}

fn snapshot_of(h: &Hierarchy) -> Vec<u8> {
    let mut w = Writer::new();
    h.encode_snapshot(&mut w);
    w.into_bytes()
}

/// A checkpoint exactly as the engine writes one, built once per shape.
fn real_checkpoint(coma: bool) -> &'static CheckpointData {
    static REAL: OnceLock<[CheckpointData; 2]> = OnceLock::new();
    &REAL.get_or_init(|| {
        [false, true].map(|coma| {
            let cfg = small(coma);
            let (h, records) = warmed(&cfg);
            CheckpointData {
                config_hash: Hierarchy::config_hash(&cfg),
                ff_events: 0,
                cut_events: records.len() as u64,
                records,
                snapshot: snapshot_of(&h),
            }
        })
    })[coma as usize]
}

/// Decodes `frame`; whatever comes back `Ok` must survive a round trip.
fn decode_round_trips(frame: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(data) = CheckpointData::decode(frame) {
        prop_assert_eq!(CheckpointData::decode(&data.encode()), Ok(data));
    }
    Ok(())
}

/// Restores `snapshot` into a fresh hierarchy the way resume does
/// (decode, then require the reader exhausted). An accepted snapshot must
/// re-encode to a fixed point and pass the coherence audit, so the first
/// access after a resume cannot trip the protocol. Counters and clocks
/// are accepted up to `MAX_COUNTER`.
fn restore_round_trips(cfg: &ArchConfig, snapshot: &[u8]) -> Result<(), TestCaseError> {
    let mut h = Hierarchy::new(cfg.clone());
    let mut r = Reader::new(snapshot);
    if h.decode_snapshot(&mut r).is_err() || !r.is_exhausted() {
        return Ok(());
    }
    prop_assert_eq!(h.check_invariants(), Ok(()));
    let once = snapshot_of(&h);
    let mut again = Hierarchy::new(cfg.clone());
    prop_assert!(again.decode_snapshot(&mut Reader::new(&once)).is_ok());
    prop_assert_eq!(snapshot_of(&again), once);
    Ok(())
}

/// A payload that follows the checkpoint layout loosely: plausible
/// header, a handful of records with arbitrary tags and field bytes, a
/// snapshot blob, and optional trailing junk.
fn structured_payload(
    header: (u64, u64, u64),
    records: &[(u8, u64, u64, u8)],
    snapshot: &[u8],
    trailing: &[u8],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(header.0);
    w.u64(header.1);
    w.u64(header.2);
    w.u64(records.len() as u64);
    for &(tag, a, b, c) in records {
        w.u8(tag % 3);
        match tag % 3 {
            0 => {
                w.u32(a as u32);
                w.u64(b);
                w.u8(c % 3);
                w.u8(c);
                w.u32((a >> 32) as u32);
                w.u64(b.rotate_left(7));
                w.u8(c >> 1 & 1);
                w.u8(c >> 2 & 3);
                // Victim count: mostly small, sometimes absurd.
                let n = if c > 250 { u32::MAX } else { u32::from(c % 4) };
                w.u32(n);
                for v in 0..n.min(4) {
                    w.u32(v);
                }
            }
            1 => {
                w.u32(a as u32);
                w.u32((a >> 32) as u32);
                w.u32(b as u32);
                w.u64(b);
            }
            _ => w.u64(a),
        }
    }
    w.bytes(snapshot);
    let mut out = w.into_bytes();
    out.extend_from_slice(trailing);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes sealed under the current version: the payload
    /// decoder sees garbage behind a valid frame.
    #[test]
    fn random_sealed_payloads_never_panic(
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        decode_round_trips(&seal(CKPT_VERSION, &payload))?;
    }

    /// Payloads shaped like checkpoints, with arbitrary record tags,
    /// field values, victim counts and trailing bytes.
    #[test]
    fn structured_sealed_payloads_never_panic(
        header in (any::<u64>(), any::<u64>(), any::<u64>()),
        records in prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()),
            0..6,
        ),
        snapshot in prop::collection::vec(any::<u8>(), 0..64),
        trailing in prop::collection::vec(any::<u8>(), 0..3),
    ) {
        let payload = structured_payload(header, &records, &snapshot, &trailing);
        decode_round_trips(&seal(CKPT_VERSION, &payload))?;
    }

    /// Single-byte mutations of a real frame's payload, re-sealed so the
    /// checksum still matches; an accepted frame's snapshot must also
    /// restore cleanly or be refused.
    #[test]
    fn mutated_real_frames_never_panic(
        coma in any::<bool>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let real = real_checkpoint(coma);
        let frame = real.encode();
        let (_, payload) = unseal(&frame).expect("own frame unseals");
        let mut payload = payload.to_vec();
        let at = at % payload.len();
        payload[at] = if payload[at] == byte { !byte } else { byte };
        let frame = seal(CKPT_VERSION, &payload);
        decode_round_trips(&frame)?;
        if let Ok(data) = CheckpointData::decode(&frame) {
            restore_round_trips(&small(coma), &data.snapshot)?;
        }
    }

    /// Single-byte mutations of a hierarchy snapshot, fed straight to
    /// `Hierarchy::decode_snapshot`.
    #[test]
    fn mutated_snapshots_never_panic(
        coma in any::<bool>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let cfg = small(coma);
        let mut snapshot = real_checkpoint(coma).snapshot.clone();
        let at = at % snapshot.len();
        snapshot[at] = if snapshot[at] == byte { !byte } else { byte };
        restore_round_trips(&cfg, &snapshot)?;
    }
}

#[test]
fn counters_and_clocks_near_2_pow_64_are_refused_at_decode() {
    // A restored value keeps growing in the resumed run; one near 2^64
    // would overflow there (a panic in a debug build), so decode refuses
    // it instead.
    let refused = |snapshot: &[u8], coma| {
        let mut h = Hierarchy::new(small(coma));
        h.decode_snapshot(&mut Reader::new(snapshot))
    };
    for coma in [false, true] {
        let real = &real_checkpoint(coma).snapshot;
        // The first L1's LRU tick follows the L1 count.
        let mut tick = real.clone();
        tick[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(refused(&tick, coma), Err(SnapError::Corrupt("LRU tick")));
        // The memory statistics close the snapshot.
        let mut stat = real.clone();
        let n = stat.len();
        stat[n - 8..].copy_from_slice(&(MAX_COUNTER + 1).to_le_bytes());
        assert_eq!(refused(&stat, coma), Err(SnapError::Corrupt("DSM bytes")));
        stat[n - 8..].copy_from_slice(&MAX_COUNTER.to_le_bytes());
        assert_eq!(refused(&stat, coma), Ok(()), "the bound itself is accepted");
    }
    let mut data = real_checkpoint(false).clone();
    if let Some(ArchRecord::Access { latency, .. }) = data.records.first_mut() {
        *latency = u64::MAX;
    }
    assert_eq!(
        CheckpointData::decode(&data.encode()),
        Err(SnapError::Corrupt("access latency"))
    );
}

#[test]
fn a_real_checkpoint_round_trips_and_restores() {
    for coma in [false, true] {
        let real = real_checkpoint(coma);
        assert_eq!(CheckpointData::decode(&real.encode()).as_ref(), Ok(real));
        let mut h = Hierarchy::new(small(coma));
        let mut r = Reader::new(&real.snapshot);
        h.decode_snapshot(&mut r).expect("own snapshot restores");
        assert!(r.is_exhausted());
        assert_eq!(snapshot_of(&h), real.snapshot);
    }
}
