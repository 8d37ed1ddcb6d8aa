//! **compass-snap** — a small hand-rolled little-endian byte format.
//!
//! The workspace has no serialization framework; this crate is what it
//! uses instead: a [`Writer`] that appends fixed-width scalars and
//! length-prefixed sequences, and a [`Reader`] that mirrors it and
//! returns a structured [`SnapError`] on any malformed input — short
//! buffers, impossible lengths, bad tags — **never** a panic.
//!
//! The simulator uses [`Writer`] and [`fnv1a64`] for the deterministic
//! configuration hashes (`SimConfig::config_hash`, the fleet's dedupe
//! key; Rust's `DefaultHasher` seeds are unspecified across releases).
//! The frame layer — [`seal`] wraps a payload in a magic, a format
//! version and an FNV-1a checksum, [`unseal`] refuses anything that does
//! not round-trip — served the deleted checkpoints; only the
//! benchmark's checkpoint-codec probes still use it.

use std::fmt;

/// The largest counter or clock [`Reader::counter`] accepts: a decoded
/// value that kept growing could overflow, and below 2^62 no run can
/// reach 2^64.
pub const MAX_COUNTER: u64 = 1 << 62;

/// Why a snapshot buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value it promised.
    Truncated,
    /// A structurally invalid encoding (bad tag, absurd length, trailing
    /// garbage); the message names the field.
    Corrupt(&'static str),
    /// Frame-level failure: wrong magic, unsupported version, or a
    /// checksum mismatch.
    BadFrame(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => f.write_str("snapshot truncated"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::BadFrame(what) => write!(f, "snapshot frame invalid: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Decoding result.
pub type Result<T> = std::result::Result<T, SnapError>;

/// 64-bit FNV-1a over arbitrary bytes: the frame checksum and the
/// deterministic configuration hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-style decoder over an encoded buffer. Every accessor returns
/// [`SnapError::Truncated`] instead of reading out of bounds.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; anything but 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool")),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a counter or clock; a value above [`MAX_COUNTER`] is corrupt
    /// and the message names `what`.
    pub fn counter(&mut self, what: &'static str) -> Result<u64> {
        let v = self.u64()?;
        if v > MAX_COUNTER {
            return Err(SnapError::Corrupt(what));
        }
        Ok(v)
    }

    /// Reads a length-prefixed byte string. The length is validated
    /// against the remaining buffer before any allocation, so a corrupt
    /// prefix cannot trigger an absurd reservation.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapError::Corrupt("byte-string length"));
        }
        self.take(n as usize)
    }

    /// Reads a sequence length and validates it against a per-element
    /// minimum size, bounding `Vec` pre-allocation on corrupt input.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u64()?;
        if n.saturating_mul(min_elem_bytes.max(1) as u64) > self.remaining() as u64 {
            return Err(SnapError::Corrupt("sequence length"));
        }
        Ok(n as usize)
    }
}

const MAGIC: &[u8; 8] = b"CMPSNAP\0";

/// The frame checksum covers the version *and* the payload, so a flipped
/// version byte is caught exactly like flipped payload bytes.
fn frame_sum(version: u32, payload: &[u8]) -> u64 {
    let mut h = fnv1a64(&version.to_le_bytes());
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frames `payload` with magic + `version` + length + FNV-1a checksum.
/// Nothing in the simulator reads or writes it: only the benchmark's
/// checkpoint probes do, and it goes with them (ROADMAP item 1a).
pub fn seal(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u32(version);
    w.bytes(payload);
    w.u64(frame_sum(version, payload));
    w.into_bytes()
}

/// Verifies a [`seal`]ed frame and returns `(version, payload)`.
/// Truncation, a foreign magic, or a checksum mismatch all come back as
/// structured errors, never a panic.
pub fn unseal(frame: &[u8]) -> Result<(u32, &[u8])> {
    let mut r = Reader::new(frame);
    if r.take(8)? != MAGIC {
        return Err(SnapError::BadFrame("magic"));
    }
    let version = r.u32()?;
    let payload = r.bytes()?;
    let sum = r.u64()?;
    if !r.is_exhausted() {
        return Err(SnapError::BadFrame("trailing bytes"));
    }
    if sum != frame_sum(version, payload) {
        return Err(SnapError::BadFrame("checksum"));
    }
    Ok((version, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bytes(b"hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert!(r.is_exhausted());
    }

    #[test]
    fn counters_above_the_bound_are_corrupt() {
        let mut w = Writer::new();
        w.u64(MAX_COUNTER);
        w.u64(MAX_COUNTER + 1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.counter("tick"), Ok(MAX_COUNTER));
        assert_eq!(r.counter("tick"), Err(SnapError::Corrupt("tick")));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert_eq!(r.u64(), Err(SnapError::Truncated));
        }
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // claims a ~2^64-byte string
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.bytes(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn seal_unseal_round_trips() {
        let frame = seal(3, b"payload");
        let (v, p) = unseal(&frame).unwrap();
        assert_eq!(v, 3);
        assert_eq!(p, b"payload");
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let frame = seal(1, b"some checkpoint payload bytes");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(unseal(&bad).is_err(), "flip at {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_of_a_frame_is_caught() {
        let frame = seal(1, b"frame");
        for cut in 0..frame.len() {
            assert!(unseal(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: the configuration hashes built on it must never drift
        // across builds.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"compass"), fnv1a64(b"compass"));
        assert_ne!(fnv1a64(b"compass"), fnv1a64(b"compasS"));
    }
}
