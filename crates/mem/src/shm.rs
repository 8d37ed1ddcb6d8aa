//! System-V-style shared-memory segments.
//!
//! "When a call is made to `shmget`, this function will create a model for
//! a common shared memory descriptor in the backend simulation process.
//! This common shared memory descriptor links the Shared Memory Flag
//! argument in `shmget` to a unique descriptor for that shared memory
//! segment. This descriptor is common to all processes. When a call is made
//! to `shmat`, page table entries are created in the page table model of
//! the calling process." (§3.3.1)
//!
//! The registry lives in the backend. Attach addresses are assigned from
//! the SHM window sequentially and are *the same for every process* so that
//! pointer arithmetic on shared structures is consistent across attachers
//! (the common case for `shmat(…, NULL, …)` on AIX with identical attach
//! order; it keeps workload code simple without weakening the model).

use crate::addr::{VAddr, PAGE_SIZE, SHM_BASE, SHM_END};
use compass_isa::{ProcessId, SegId};
use std::collections::HashMap;

/// One shared segment's descriptor (the paper's "common shared memory
/// descriptor").
#[derive(Debug, Clone)]
pub struct ShmSegment {
    /// The segment id returned by `shmget`.
    pub id: SegId,
    /// The user key passed to `shmget`.
    pub key: u32,
    /// Segment length in bytes (page-aligned up).
    pub len: u32,
    /// Attach base address (common to all processes).
    pub base: VAddr,
    /// Frames backing the segment, one per page, in page order. Filled at
    /// creation for eager placement policies, or lazily under first-touch.
    pub frames: Vec<Option<u64>>,
    /// Processes currently attached.
    pub attached: Vec<ProcessId>,
}

impl ShmSegment {
    /// Number of pages in the segment.
    pub fn pages(&self) -> u32 {
        self.len / PAGE_SIZE
    }
}

/// Errors from the shm registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmError {
    /// The SHM attach window is exhausted.
    WindowFull,
    /// Unknown segment id.
    NoSuchSegment,
    /// Process attempted a second attach of the same segment.
    AlreadyAttached,
    /// Detach by a process that was not attached.
    NotAttached,
    /// Zero-length segment requested.
    BadLength,
    /// No physical frames left to back the segment (ENOMEM).
    OutOfMemory,
    /// The backend's reply had an unexpected shape — a stub/engine
    /// protocol violation (only possible when the run is already being
    /// torn down), surfaced as an error so the workload can unwind
    /// instead of panicking the frontend thread.
    Protocol,
}

impl std::fmt::Display for ShmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ShmError::WindowFull => "shared-memory attach window exhausted",
            ShmError::NoSuchSegment => "no such shared segment",
            ShmError::AlreadyAttached => "segment already attached",
            ShmError::NotAttached => "segment not attached",
            ShmError::BadLength => "bad segment length",
            ShmError::OutOfMemory => "simulated memory exhausted",
            ShmError::Protocol => "unexpected backend reply shape",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ShmError {}

/// The backend's registry of shared segments.
#[derive(Debug, Clone, Default)]
pub struct ShmRegistry {
    by_key: HashMap<u32, SegId>,
    segments: Vec<ShmSegment>,
    next_base: u32,
}

impl ShmRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            by_key: HashMap::new(),
            segments: Vec::new(),
            next_base: SHM_BASE,
        }
    }

    /// The existing segment for `key`, if any.
    pub fn lookup(&self, key: u32) -> Option<SegId> {
        self.by_key.get(&key).copied()
    }

    /// `shmget(key, len)`: returns the existing segment for `key` or
    /// creates a new descriptor. New segments get a fresh attach base.
    pub fn shmget(&mut self, key: u32, len: u32) -> Result<SegId, ShmError> {
        if let Some(&id) = self.by_key.get(&key) {
            return Ok(id);
        }
        if len == 0 {
            return Err(ShmError::BadLength);
        }
        let len = len.checked_add(PAGE_SIZE - 1).ok_or(ShmError::BadLength)? & !(PAGE_SIZE - 1);
        let base = self.next_base;
        let end = base.checked_add(len).ok_or(ShmError::WindowFull)?;
        if end > SHM_END {
            return Err(ShmError::WindowFull);
        }
        self.next_base = end;
        let id = SegId(self.segments.len() as u32);
        self.segments.push(ShmSegment {
            id,
            key,
            len,
            base: VAddr(base),
            frames: vec![None; (len / PAGE_SIZE) as usize],
            attached: Vec::new(),
        });
        self.by_key.insert(key, id);
        Ok(id)
    }

    /// `shmat(id)` bookkeeping: records the attach and returns the common
    /// base address. The caller (backend) is responsible for creating the
    /// page-table entries from [`ShmSegment::frames`].
    pub fn shmat(&mut self, id: SegId, pid: ProcessId) -> Result<VAddr, ShmError> {
        let seg = self
            .segments
            .get_mut(id.index())
            .ok_or(ShmError::NoSuchSegment)?;
        if seg.attached.contains(&pid) {
            return Err(ShmError::AlreadyAttached);
        }
        seg.attached.push(pid);
        Ok(seg.base)
    }

    /// `shmdt(id)` bookkeeping: removes the attach.
    pub fn shmdt(&mut self, id: SegId, pid: ProcessId) -> Result<VAddr, ShmError> {
        let seg = self
            .segments
            .get_mut(id.index())
            .ok_or(ShmError::NoSuchSegment)?;
        let pos = seg
            .attached
            .iter()
            .position(|&p| p == pid)
            .ok_or(ShmError::NotAttached)?;
        seg.attached.swap_remove(pos);
        Ok(seg.base)
    }

    /// Segment by id.
    pub fn segment(&self, id: SegId) -> Option<&ShmSegment> {
        self.segments.get(id.index())
    }

    /// Mutable segment by id (the backend fills frames here).
    pub fn segment_mut(&mut self, id: SegId) -> Option<&mut ShmSegment> {
        self.segments.get_mut(id.index())
    }

    /// Finds the segment containing `va`, if any.
    pub fn segment_containing(&self, va: VAddr) -> Option<&ShmSegment> {
        self.segments
            .iter()
            .find(|s| va.0 >= s.base.0 && va.0 - s.base.0 < s.len)
    }

    /// Number of segments ever created.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if no segment exists.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    #[test]
    fn shmget_is_idempotent_per_key() {
        let mut r = ShmRegistry::new();
        let a = r.shmget(42, 8192).unwrap();
        let b = r.shmget(42, 8192).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn different_keys_get_disjoint_windows() {
        let mut r = ShmRegistry::new();
        let a = r.shmget(1, 8192).unwrap();
        let b = r.shmget(2, 4096).unwrap();
        let sa = r.segment(a).unwrap();
        let sb = r.segment(b).unwrap();
        assert!(sa.base.0 + sa.len <= sb.base.0 || sb.base.0 + sb.len <= sa.base.0);
    }

    #[test]
    fn length_is_page_rounded() {
        let mut r = ShmRegistry::new();
        let id = r.shmget(1, 100).unwrap();
        assert_eq!(r.segment(id).unwrap().len, PAGE_SIZE);
        assert_eq!(r.segment(id).unwrap().pages(), 1);
    }

    #[test]
    fn attach_detach_bookkeeping() {
        let mut r = ShmRegistry::new();
        let id = r.shmget(1, 4096).unwrap();
        let base0 = r.shmat(id, P0).unwrap();
        let base1 = r.shmat(id, P1).unwrap();
        assert_eq!(base0, base1, "attach base must be common to all processes");
        assert_eq!(r.shmat(id, P0), Err(ShmError::AlreadyAttached));
        assert_eq!(r.segment(id).unwrap().attached.len(), 2);
        r.shmdt(id, P0).unwrap();
        assert_eq!(r.shmdt(id, P0), Err(ShmError::NotAttached));
        assert_eq!(r.segment(id).unwrap().attached, vec![P1]);
    }

    #[test]
    fn segment_containing_finds_by_address() {
        let mut r = ShmRegistry::new();
        let a = r.shmget(1, 8192).unwrap();
        let _b = r.shmget(2, 4096).unwrap();
        let base = r.segment(a).unwrap().base;
        assert_eq!(r.segment_containing(base + 5000).unwrap().id, a);
        assert!(r.segment_containing(VAddr(SHM_END - 1)).is_none());
    }

    #[test]
    fn window_exhaustion_errors() {
        let mut r = ShmRegistry::new();
        let window = SHM_END - SHM_BASE;
        assert!(r.shmget(1, window - PAGE_SIZE).is_ok());
        assert_eq!(r.shmget(2, 2 * PAGE_SIZE), Err(ShmError::WindowFull));
        // But a fitting segment still succeeds.
        assert!(r.shmget(3, PAGE_SIZE).is_ok());
    }

    #[test]
    fn zero_length_is_rejected() {
        let mut r = ShmRegistry::new();
        assert_eq!(r.shmget(1, 0), Err(ShmError::BadLength));
    }
}
