//! The reference oracle: an unbatched, single-step replay of a recorded
//! engine trace through a fresh set of architecture models.
//!
//! The engine under test is complicated — incremental scanning, credit
//! accounting, batched event rings shared by user and kernel code. The oracle is
//! not: it walks the recorded calls one at a time, in order, through a
//! [`Hierarchy`] built from the same [`ArchConfig`], and demands exact
//! agreement. Because the bus/network contention models are deterministic
//! functions of the call sequence and the access times, any disagreement
//! means the *engine* presented a different sequence (an ordering bug) or
//! charged something it never asked the models for (an accounting bug).

use compass_arch::{Access, ArchConfig, Hierarchy, MemStats};
use compass_backend::TraceRecord;

/// Replays `trace` and checks it against the engine's answers and the
/// engine's final memory statistics `final_mem`.
///
/// Checks, in order:
/// 1. recorded start times never decrease (the §2 least-execution-time
///    pickup rule's global order);
/// 2. every replayed access reproduces the recorded latency, L1-hit flag
///    and remote flag;
/// 3. the replayed hierarchy's final [`MemStats`] equal the engine's;
/// 4. the replayed hierarchy still satisfies its structural invariants.
pub fn verify_trace(
    arch: &ArchConfig,
    trace: &[TraceRecord],
    final_mem: &MemStats,
) -> Result<(), String> {
    let mut h = Hierarchy::new(arch.clone());
    let mut last = 0;
    for (i, rec) in trace.iter().enumerate() {
        match *rec {
            TraceRecord::Access {
                cpu,
                paddr,
                write,
                class,
                home,
                time,
                latency,
                l1_hit,
                remote,
            } => {
                if time < last {
                    return Err(format!(
                        "record {i}: start time {time} < previous {last}: \
                         least-execution-time order violated"
                    ));
                }
                last = time;
                let res = h.access(cpu, paddr, Access { write, class }, home, time);
                if res.latency != latency || res.l1_hit != l1_hit || res.remote != remote {
                    return Err(format!(
                        "record {i} ({rec:?}): oracle replay disagrees: \
                         latency {} l1_hit {} remote {}",
                        res.latency, res.l1_hit, res.remote
                    ));
                }
            }
            TraceRecord::Dsm {
                from,
                to,
                bytes,
                time,
                latency,
            } => {
                if time < last {
                    return Err(format!(
                        "record {i}: start time {time} < previous {last}: \
                         least-execution-time order violated"
                    ));
                }
                last = time;
                let lat = h.dsm_page_transfer(from, to, bytes, time);
                if lat != latency {
                    return Err(format!(
                        "record {i} ({rec:?}): oracle replay charged latency {lat}"
                    ));
                }
            }
            TraceRecord::DsmNoCopy => h.count_dsm_fault(),
        }
    }
    if h.stats() != final_mem {
        return Err(format!(
            "final memory statistics diverge after {} records:\n  oracle: {:?}\n  engine: {:?}",
            trace.len(),
            h.stats(),
            final_mem
        ));
    }
    h.check_invariants()
        .map_err(|e| format!("oracle hierarchy invariant after replay: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_arch::AccessClass;
    use compass_mem::PAddr;

    /// Records a tiny hand-made trace against one hierarchy and replays it
    /// against another: the oracle must accept its own recording and
    /// reject a tampered copy.
    #[test]
    fn accepts_own_recording_and_rejects_tampering() {
        let arch = ArchConfig::ccnuma(2, 2);
        let mut h = Hierarchy::new(arch.clone());
        let mut trace = Vec::new();
        let mut now = 0;
        for i in 0..200u64 {
            let cpu = (i % 4) as usize;
            let paddr = PAddr((i % 7) * 64 + (i % 3) * 4096);
            let write = i % 5 == 0;
            let home = (i % 2) as usize;
            let acc = Access {
                write,
                class: AccessClass::User,
            };
            let res = h.access(cpu, paddr, acc, home, now);
            trace.push(TraceRecord::Access {
                cpu,
                paddr,
                write,
                class: AccessClass::User,
                home,
                time: now,
                latency: res.latency,
                l1_hit: res.l1_hit,
                remote: res.remote,
            });
            now += res.latency;
        }
        let final_mem = *h.stats();
        verify_trace(&arch, &trace, &final_mem).expect("oracle must accept its own recording");

        // Tamper with one recorded latency: the replay must notice.
        let mut bad = trace.clone();
        if let TraceRecord::Access { latency, .. } = &mut bad[100] {
            *latency += 1;
        }
        assert!(verify_trace(&arch, &bad, &final_mem).is_err());

        // Swap two records out of time order: the order check must fire.
        let mut reordered = trace.clone();
        reordered.swap(10, 150);
        assert!(verify_trace(&arch, &reordered, &final_mem).is_err());
    }
}
