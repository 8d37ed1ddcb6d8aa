//! Checkpoint-frame decoding under hostile input. Every byte of a frame
//! is untrusted: whatever it holds, `CheckpointData::decode` must return
//! `Ok` or `Err` — never panic — and whatever it accepts must round-trip
//! (`decode(encode(x)) == x`). The payloads here carry a valid
//! `CKPT_VERSION` seal and checksum, so the frame layer lets them through
//! and the payload decoder is what is tested.

use compass_arch::{Access, AccessClass, ArchConfig, CacheConfig, Hierarchy};
use compass_backend::{ArchRecord, CheckpointData, CKPT_VERSION};
use compass_mem::PAddr;
use compass_snap::{seal, unseal, SnapError, Writer, MAX_COUNTER};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A 2x2 machine with small caches, so a frame is a few KiB and random
/// mutations land in every section of it.
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

/// A frame's worth of real outcomes and a real hierarchy snapshot, built
/// once per shape.
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
    /// checksum still matches.
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
    }
}

#[test]
fn counters_near_2_pow_64_are_refused_at_decode() {
    // A counter near 2^64 would overflow once it kept growing, so decode
    // refuses it instead.
    let mut data = real_checkpoint(false).clone();
    data.ff_events = MAX_COUNTER;
    assert_eq!(
        CheckpointData::decode(&data.encode()).as_ref(),
        Ok(&data),
        "the bound itself is accepted"
    );
    data.ff_events = MAX_COUNTER + 1;
    assert_eq!(
        CheckpointData::decode(&data.encode()),
        Err(SnapError::Corrupt("fast-forwarded events"))
    );
    data.ff_events = 0;
    if let Some(ArchRecord::Access { latency, .. }) = data.records.first_mut() {
        *latency = u64::MAX;
    }
    assert_eq!(
        CheckpointData::decode(&data.encode()),
        Err(SnapError::Corrupt("access latency"))
    );
}

#[test]
fn a_real_checkpoint_round_trips() {
    for coma in [false, true] {
        let real = real_checkpoint(coma);
        assert_eq!(CheckpointData::decode(&real.encode()).as_ref(), Ok(real));
    }
}
