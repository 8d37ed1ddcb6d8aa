//! The committed golden fingerprints: per workload at the default seed,
//! the explicit simulated-machine fields a repetition must reproduce.
//! Compiled in, so a checkout cannot run against a stale file.
//!
//! A change that alters the model on purpose regenerates the file with
//! `run.sh --write-golden benchmark/golden.json` and says so.

use crate::json::{self, Value};
use crate::workloads::{Fingerprint, Workload};

const GOLDEN: &str = include_str!("../golden.json");

/// Reads a fingerprint out of its JSON object (a golden entry, or the
/// `fingerprint` of a run's detail file).
pub fn from_json(v: &Value) -> Option<Fingerprint> {
    let field = |name: &str| -> Option<u64> {
        let n = v.get(name)?.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
    };
    Some(Fingerprint {
        events: field("events")?,
        global_cycles: field("global_cycles")?,
        accesses: [
            field("accesses_user")?,
            field("accesses_kernel")?,
            field("accesses_interrupt")?,
        ],
        disk_ops: field("disk_ops")?,
        disk_blocks: field("disk_blocks")?,
        nic_tx_bytes: field("nic_tx_bytes")?,
        nic_tx_frames: field("nic_tx_frames")?,
        units_done: field("units_done")?,
    })
}

fn lookup_in(text: &str, w: Workload) -> Result<Fingerprint, String> {
    let doc = json::parse(text).map_err(|e| format!("golden.json: {e}"))?;
    doc.get(w.name())
        .and_then(from_json)
        .ok_or_else(|| format!("golden.json has no complete entry for {}", w.name()))
}

/// The committed fingerprint of `w` at the default seed.
pub fn lookup(w: Workload) -> Result<Fingerprint, String> {
    lookup_in(GOLDEN, w)
}

/// One fingerprint as a JSON object.
pub fn render_one(f: &Fingerprint) -> String {
    let fields: Vec<String> = f
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A whole golden file.
pub fn render(entries: &[(Workload, Fingerprint)]) -> String {
    let rows: Vec<String> = entries
        .iter()
        .map(|(w, f)| format!("  \"{}\": {}", w.name(), render_one(f)))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_lookup_round_trip() {
        let f = Fingerprint {
            events: 1_574_034,
            global_cycles: 11_547_736,
            accesses: [10, 20, 30],
            disk_ops: 4,
            disk_blocks: 32,
            nic_tx_bytes: 5,
            nic_tx_frames: 6,
            units_done: 192,
        };
        let text = render(&[(Workload::Sci, f)]);
        assert_eq!(lookup_in(&text, Workload::Sci), Ok(f));
        assert!(lookup_in(&text, Workload::Tpcc).is_err());
        assert!(lookup_in("{\"sci\": {\"events\": 1}}", Workload::Sci).is_err());
        assert!(lookup_in("not json", Workload::Sci).is_err());
    }

    #[test]
    fn the_committed_file_covers_every_workload() {
        for w in Workload::ALL {
            lookup(w).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
