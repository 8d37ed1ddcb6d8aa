//! `--agree A.json B.json`: do two suite summaries agree within the
//! benchmark's own bounds? The tool for the two-sets acceptance check and
//! for later parent-versus-change runs.
//!
//! One row per (metric, workload):
//! * a simulated-machine metric (`Kind::Sim`) must be identical;
//! * an end-to-end metric must not be worse in B than in A by more than
//!   its bound — and when either side's own repetitions spread wider
//!   than the bound, the row is `unresolved`, not `agree`;
//! * host-time layer metrics have no bound: they are printed (`info`)
//!   with B/A so a difference can be localised, never judged.

use crate::catalogue::{self, Better, Kind};
use crate::json::{self, Value};
use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Unresolved,
    Differ,
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
            Verdict::Differ => "differ",
            Verdict::Info => "info",
        }
    }
}

/// One compared row.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

fn summary_of(v: &Value) -> Option<Summary> {
    let f = |k: &str| v.get(k).and_then(Value::as_f64);
    let value = f("value")?;
    Some(Summary {
        median: value,
        min: f("min").unwrap_or(value),
        max: f("max").unwrap_or(value),
        n: f("n").map_or(1, |n| n as usize),
    })
}

/// By how much of A's median B is worse (negative when B is better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

fn judge(m: &catalogue::Metric, a: Summary, b: Summary) -> Verdict {
    match (m.kind, m.bound) {
        (Kind::Sim, _) if a.median == b.median => Verdict::Agree,
        (Kind::Sim, _) => Verdict::Differ,
        (Kind::Host, Some(bound)) => {
            // Same code on both sides: neither may be worse than the
            // other by more than the bound.
            let gap = worsening(m.better, a.median, b.median)
                .max(worsening(m.better, b.median, a.median));
            if gap <= bound {
                Verdict::Agree
            } else if a.spread() > bound || b.spread() > bound {
                Verdict::Unresolved
            } else {
                Verdict::Differ
            }
        }
        _ => Verdict::Info,
    }
}

/// Compares two summaries; `Err` when either is unreadable or they were
/// not produced by comparable runs.
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<Row>, String> {
    let a = json::parse(a_text).map_err(|e| format!("first summary: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("second summary: {e}"))?;
    for key in ["seed", "scales"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the summaries differ in \"{key}\": they do not measure the same inputs"
            ));
        }
    }
    fn member<'a>(doc: &'a Value, key: &str) -> Result<&'a BTreeMap<String, Value>, String> {
        doc.get(key)
            .and_then(Value::as_obj)
            .ok_or(format!("a summary has no \"{key}\" object"))
    }
    let (wa, wb) = (member(&a, "workloads")?, member(&b, "workloads")?);
    let mut rows = Vec::new();
    for (name, ea) in wa {
        let Some(eb) = wb.get(name) else {
            return Err(format!("workload {name:?} is in the first summary only"));
        };
        let (ma, mb) = (member(ea, "metrics")?, member(eb, "metrics")?);
        for (metric, va) in ma {
            let Some(m) = catalogue::find(metric) else {
                return Err(format!("{metric:?} is not a metric of this benchmark"));
            };
            let (Some(sa), Some(sb)) = (summary_of(va), mb.get(metric).and_then(summary_of)) else {
                return Err(format!(
                    "{name}/{metric} is missing or malformed in a summary"
                ));
            };
            rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                a: sa.median,
                b: sb.median,
                verdict: judge(m, sa, sb),
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; returns how many differ.
pub fn report(rows: &[Row]) -> usize {
    println!(
        "{:<10} {:<34} {:>18} {:>18} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for r in rows {
        let rel = if r.a == 0.0 { 0.0 } else { r.b / r.a };
        println!(
            "{:<10} {:<34} {:>18} {:>18} {:>8.3}  {}",
            r.workload,
            r.metric,
            json::num(r.a),
            json::num(r.b),
            rel,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "agree {} unresolved {} differ {} info {}",
        count(Verdict::Agree),
        count(Verdict::Unresolved),
        count(Verdict::Differ),
        count(Verdict::Info)
    );
    count(Verdict::Differ)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(events_per_s: (f64, f64, f64), sim_cycles: u64, cpu_s: f64) -> String {
        let (v, min, max) = events_per_s;
        format!(
            r#"{{"seed": 1998, "scales": {{"sci.iters": 48}}, "workloads": {{"sci": {{"metrics": {{
              "host_events_per_s": {{"value": {v}, "unit": "events/s", "min": {min}, "max": {max}, "n": 5}},
              "backend.sim_cycles": {{"value": {sim_cycles}, "unit": "cycles", "min": {sim_cycles}, "max": {sim_cycles}, "n": 1}},
              "backend.cpu_s": {{"value": {cpu_s}, "unit": "s", "min": {cpu_s}, "max": {cpu_s}, "n": 1}}
            }}}}}}, "claim": null}}"#
        )
    }

    fn verdicts(a: &str, b: &str) -> Vec<(String, Verdict)> {
        compare(a, b)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn bounds_are_applied_row_by_row() {
        let base = summary((1000.0, 990.0, 1010.0), 500, 0.5);
        // 5 % slower, same cycles, very different layer time.
        let close = summary((950.0, 940.0, 960.0), 500, 0.9);
        assert_eq!(
            verdicts(&base, &close),
            [
                ("backend.cpu_s".to_string(), Verdict::Info),
                ("backend.sim_cycles".to_string(), Verdict::Agree),
                ("host_events_per_s".to_string(), Verdict::Agree),
            ]
        );
        // 20 % slower with tight repetitions: a real difference, in
        // either order.
        let slow = summary((800.0, 795.0, 805.0), 500, 0.5);
        assert_eq!(verdicts(&base, &slow)[2].1, Verdict::Differ);
        assert_eq!(verdicts(&slow, &base)[2].1, Verdict::Differ);
        // 20 % slower but its own repetitions spread 30 %: unresolved.
        let noisy = summary((800.0, 700.0, 940.0), 500, 0.5);
        assert_eq!(verdicts(&base, &noisy)[2].1, Verdict::Unresolved);
        // One simulated cycle off is a difference.
        let drift = summary((1000.0, 990.0, 1010.0), 501, 0.5);
        assert_eq!(verdicts(&base, &drift)[1].1, Verdict::Differ);
        assert_eq!(report(&compare(&base, &drift).unwrap()), 1);
    }

    #[test]
    fn incomparable_summaries_are_refused() {
        let base = summary((1000.0, 990.0, 1010.0), 500, 0.5);
        assert!(compare(&base, &base.replace("1998", "7")).is_err());
        assert!(compare(
            &base,
            &base.replace("\"sci.iters\": 48", "\"sci.iters\": 4")
        )
        .is_err());
        assert!(compare(&base, &base.replace("backend.cpu_s", "made.up")).is_err());
        assert!(compare(&base, "{").is_err());
    }
}
