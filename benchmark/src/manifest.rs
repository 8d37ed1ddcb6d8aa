//! `--check-manifest BENCHMARK.json [SUMMARY.json]`: the manifest obeys
//! the driver's contract field by field, declares exactly the catalogue
//! this binary emits, and — given a suite summary — every declared metric
//! was in fact emitted for every workload.

use crate::catalogue::{Metric, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::workloads::Workload;
use std::collections::BTreeSet;
use std::path::Path;

const MAX_FILE_BYTES: usize = 64 * 1024;

/// A name starts with a letter or a digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit is made of 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn valid_path(s: &str) -> bool {
    (1..=200).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
        && stays_inside(s)
}

/// Neither absolute nor leading out of the repository through `..`.
fn stays_inside(s: &str) -> bool {
    !s.starts_with('/') && s.split('/').all(|part| part != "..")
}

fn keys_are(v: &Value, want: &[&str], what: &str, problems: &mut Vec<String>) -> bool {
    let Some(obj) = v.as_obj() else {
        problems.push(format!("{what} is not an object"));
        return false;
    };
    let have: BTreeSet<&str> = obj.keys().map(String::as_str).collect();
    let want: BTreeSet<&str> = want.iter().copied().collect();
    if have != want {
        problems.push(format!(
            "{what} has keys {have:?}, the contract wants exactly {want:?}"
        ));
    }
    have == want
}

fn list<'a>(
    doc: &'a Value,
    key: &str,
    range: std::ops::RangeInclusive<usize>,
    problems: &mut Vec<String>,
) -> &'a [Value] {
    match doc.get(key).and_then(Value::as_arr) {
        Some(a) if range.contains(&a.len()) => a,
        Some(a) => {
            problems.push(format!(
                "\"{key}\" has {} entries, allowed {range:?}",
                a.len()
            ));
            a
        }
        None => {
            problems.push(format!("\"{key}\" is missing or not a list"));
            &[]
        }
    }
}

/// Checks one declared metric list against its catalogue table.
fn check_metrics(
    declared: &[Value],
    table: &'static [Metric],
    section: &str,
    with_bound: bool,
    names: &mut BTreeSet<String>,
    problems: &mut Vec<String>,
) {
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut seen = BTreeSet::new();
    for (i, entry) in declared.iter().enumerate() {
        let what = format!("{section}[{i}]");
        if !keys_are(entry, keys, &what, problems) {
            continue;
        }
        let text = |k: &str| entry.get(k).and_then(Value::as_str).unwrap_or("");
        let (name, unit, better) = (text("name"), text("unit"), text("better"));
        if !valid_name(name) {
            problems.push(format!("{what}: name {name:?} is not a valid name"));
        }
        if !names.insert(name.to_string()) {
            problems.push(format!("{what}: name {name:?} is used more than once"));
        }
        if !valid_unit(unit) {
            problems.push(format!(
                "{what} ({name}): unit {unit:?} is not a valid unit"
            ));
        }
        if better != "higher" && better != "lower" {
            problems.push(format!(
                "{what} ({name}): better is {better:?}, not \"higher\" or \"lower\""
            ));
        }
        let bound = entry.get("bound").and_then(Value::as_f64);
        if with_bound && !bound.is_some_and(|b| (0.0..=0.25).contains(&b)) {
            problems.push(format!(
                "{what} ({name}): bound must be a number from 0 to 0.25"
            ));
        }
        match table.iter().find(|m| m.name == name) {
            None => problems.push(format!(
                "{what}: {name:?} is declared but no run emits it (not in the catalogue)"
            )),
            Some(m) => {
                seen.insert(m.name);
                if m.unit != unit || m.better.as_str() != better || (with_bound && m.bound != bound)
                {
                    problems.push(format!(
                        "{what} ({name}): declared {unit}/{better}/{bound:?}, \
                         the run emits {}/{}/{:?}",
                        m.unit,
                        m.better.as_str(),
                        m.bound
                    ));
                }
            }
        }
    }
    for m in table.iter().filter(|m| !seen.contains(m.name)) {
        problems.push(format!(
            "{section}: a run emits {:?} but the manifest does not declare it",
            m.name
        ));
    }
}

/// Every problem with the manifest text; `root` is the directory its
/// relative paths are resolved against.
pub fn check(text: &str, root: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    if text.len() > MAX_FILE_BYTES {
        problems.push(format!("file is {} bytes, over 64 KiB", text.len()));
    }
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return vec![e],
    };
    const KEYS: [&str; 6] = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if !keys_are(&doc, &KEYS, "the manifest", &mut problems) && doc.as_obj().is_none() {
        return problems;
    }

    let paths: Vec<&str> = list(&doc, "paths", 1..=16, &mut problems)
        .iter()
        .filter_map(Value::as_str)
        .collect();
    for p in &paths {
        if !valid_path(p) {
            problems.push(format!("paths: {p:?} is not an allowed relative path"));
        } else if !root.join(p).is_dir() {
            problems.push(format!("paths: directory {p:?} does not exist"));
        }
    }

    let command = list(&doc, "command", 1..=32, &mut problems);
    for arg in command {
        let Some(arg) = arg.as_str() else {
            problems.push("command: every element must be a string".into());
            continue;
        };
        if arg.len() > 200 {
            problems.push(format!("command: argument {arg:?} is over 200 characters"));
        }
        if !stays_inside(arg) {
            problems.push(format!(
                "command: {arg:?} is absolute or leaves the repository"
            ));
        }
        // An argument that names something in the repository must name
        // it under one of `paths`.
        let inside_paths = paths
            .iter()
            .any(|p| Path::new(arg).starts_with(Path::new(p)));
        if stays_inside(arg) && root.join(arg).exists() && !inside_paths {
            problems.push(format!(
                "command: {arg:?} names a file of the repository outside \"paths\""
            ));
        }
    }

    match doc.get("run_seconds").and_then(Value::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        _ => problems.push("run_seconds must be a whole number from 1 to 60".into()),
    }

    let mut names = BTreeSet::new();
    let workloads = list(&doc, "workloads", 2..=8, &mut problems);
    let mut declared = BTreeSet::new();
    for (i, entry) in workloads.iter().enumerate() {
        let what = format!("workloads[{i}]");
        if !keys_are(entry, &["name", "why"], &what, &mut problems) {
            continue;
        }
        let name = entry.get("name").and_then(Value::as_str).unwrap_or("");
        let why = entry.get("why").and_then(Value::as_str).unwrap_or("");
        if !valid_name(name) {
            problems.push(format!("{what}: name {name:?} is not a valid name"));
        }
        if !names.insert(name.to_string()) {
            problems.push(format!("{what}: name {name:?} is used more than once"));
        }
        if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
            problems.push(format!(
                "{what} ({name}): why must be one line of 1 to 200 characters"
            ));
        }
        if Workload::by_name(name).is_none() {
            problems.push(format!("{what}: the benchmark has no workload {name:?}"));
        }
        declared.insert(name);
    }
    for w in Workload::ALL {
        if !declared.contains(w.name()) {
            problems.push(format!(
                "workloads: {:?} runs but is not declared",
                w.name()
            ));
        }
    }

    let e2e = list(&doc, "end_to_end", 1..=16, &mut problems);
    check_metrics(
        e2e,
        END_TO_END,
        "end_to_end",
        true,
        &mut names,
        &mut problems,
    );
    let setup_ok = e2e.iter().any(|m| {
        m.get("name").and_then(Value::as_str) == Some("setup_s")
            && m.get("unit").and_then(Value::as_str) == Some("s")
            && m.get("better").and_then(Value::as_str) == Some("lower")
    });
    if !setup_ok {
        problems
            .push("end_to_end must hold setup_s with unit \"s\" and \"better\": \"lower\"".into());
    }
    let layers = list(&doc, "per_layer", 1..=128, &mut problems);
    check_metrics(
        layers,
        PER_LAYER,
        "per_layer",
        false,
        &mut names,
        &mut problems,
    );
    problems
}

/// Checks a suite summary against the catalogue: every workload carries
/// every metric with its declared unit and nothing else, and the summary
/// claims no gain.
pub fn check_summary(text: &str) -> Vec<String> {
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    if doc.get("claim") != Some(&Value::Null) || !text.trim_end().ends_with("\"claim\": null\n}") {
        problems.push("the summary must end with \"claim\": null".into());
    }
    for w in Workload::ALL {
        let Some(metrics) = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .and_then(|e| e.get("metrics"))
            .and_then(Value::as_obj)
        else {
            problems.push(format!("summary: workload {:?} is missing", w.name()));
            continue;
        };
        for m in END_TO_END.iter().chain(PER_LAYER) {
            match metrics.get(m.name) {
                None => problems.push(format!(
                    "summary: {} did not emit declared metric {:?}",
                    w.name(),
                    m.name
                )),
                Some(v) if v.get("unit").and_then(Value::as_str) != Some(m.unit) => {
                    problems.push(format!(
                        "summary: {} emitted {:?} with another unit",
                        w.name(),
                        m.name
                    ))
                }
                Some(_) => {}
            }
        }
        for name in metrics.keys() {
            if crate::catalogue::find(name).is_none() {
                problems.push(format!(
                    "summary: {} emitted undeclared metric {name:?}",
                    w.name()
                ));
            }
        }
    }
    problems
}

/// Renders the manifest this binary's catalogue implies (the committed
/// `BENCHMARK.json` is this text).
pub fn render(command: &[&str], paths: &[&str], run_seconds: u32, why: &[(&str, &str)]) -> String {
    let strings = |v: &[&str]| -> String {
        v.iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = why
        .iter()
        .map(|(n, w)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(n),
                json::quote(w)
            )
        })
        .collect();
    let metric = |m: &Metric| -> String {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {}", json::num(b)));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.as_str())
        )
    };
    let rows = |t: &[Metric]| t.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(command),
        strings(paths),
        workloads.join(",\n"),
        rows(END_TO_END),
        rows(PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const WHY: [(&str, &str); 4] = [
        ("sci", "memref path only"),
        ("tpcc", "OLTP"),
        ("tpcd", "scan"),
        ("httplite", "kernel time"),
    ];

    /// A root directory holding `bench/` and a stray `ci.sh`.
    fn root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "compass-benchmark-manifest-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(dir.join("bench")).unwrap();
        std::fs::write(dir.join("bench/run.sh"), "").unwrap();
        std::fs::write(dir.join("ci.sh"), "").unwrap();
        dir
    }

    fn good() -> String {
        render(&["bash", "bench/run.sh"], &["bench"], 10, &WHY)
    }

    #[test]
    fn the_rendered_manifest_passes() {
        let dir = root("good");
        assert_eq!(check(&good(), &dir), Vec::<String>::new());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn broken_manifests_are_rejected_with_the_reason() {
        let dir = root("bad");
        let cases: [(&str, String, &str); 9] = [
            (
                "bad name",
                good().replace("\"host_events_per_s\"", "\"host events!\""),
                "not a valid name",
            ),
            (
                "undeclared metric",
                good().replace(
                    "    {\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}\n",
                    "    {\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25},\n    {\"name\": \"made_up\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1}\n",
                ),
                "no run emits it",
            ),
            (
                "missing metric",
                good().replace(
                    "    {\"name\": \"obs.trace_dropped\", \"unit\": \"count\", \"better\": \"lower\"},\n",
                    "",
                ),
                "does not declare it",
            ),
            (
                "missing path",
                good().replace("\"paths\": [\"bench\"]", "\"paths\": [\"nowhere\"]"),
                "does not exist",
            ),
            (
                "bound too wide",
                good().replace("\"bound\": 0.25", "\"bound\": 0.5"),
                "from 0 to 0.25",
            ),
            (
                "extra key",
                good().replacen("{\n", "{\n  \"notes\": 1,\n", 1),
                "exactly",
            ),
            (
                "command leaves paths",
                good().replace("\"bench/run.sh\"", "\"ci.sh\""),
                "outside",
            ),
            (
                "absolute command",
                good().replace("\"bench/run.sh\"", "\"/bin/true\""),
                "absolute or leaves",
            ),
            (
                "run_seconds",
                good().replace("\"run_seconds\": 10", "\"run_seconds\": 90"),
                "whole number from 1 to 60",
            ),
        ];
        for (what, text, reason) in cases {
            assert_ne!(text, good(), "{what}: the fixture must differ");
            let problems = check(&text, &dir);
            assert!(
                problems.iter().any(|p| p.contains(reason)),
                "{what}: expected a problem mentioning {reason:?}, got {problems:?}"
            );
        }
        assert!(!check("{", &dir).is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn names_and_units() {
        assert!(valid_name("backend.cpu_s") && valid_name("9lives") && valid_name("a-b_c.d"));
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("events/s") && valid_unit("%") && valid_unit("1/kevent"));
        assert!(!valid_unit("") && !valid_unit("events per s") && !valid_unit(&"u".repeat(17)));
        assert!(valid_path("benchmark") && valid_path("a/b-c_d.e"));
        assert!(!valid_path("/abs") && !valid_path("a/../b") && !valid_path("a b"));
    }
}
