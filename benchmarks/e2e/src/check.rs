//! `check`: the benchmark measures the program the repo builds, and
//! declares the metrics it prints.
//!
//! * A nested workspace does not inherit the root `[profile.release]`,
//!   so this package carries a copy; the check fails when the two
//!   tables differ.
//! * `BENCHMARK.json` must name exactly the workloads and metrics of
//!   [`crate::catalog`], with the same units and directions.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::NAMES;
use pema_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// The `key = value` pairs of one table of a Cargo manifest, comments
/// and blank lines dropped.
pub fn manifest_table(manifest: &str, table: &str) -> BTreeMap<String, String> {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn field<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    match obj {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn check_metrics(section: &str, declared: Option<&Value>, defs: &[MetricDef]) -> Vec<String> {
    let Some(declared) = declared.and_then(Value::as_array) else {
        return vec![format!("BENCHMARK.json has no \"{section}\" list")];
    };
    let text = |v: &Value, key: &str| {
        field(v, key)
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let declared: Vec<(String, String, String)> = declared
        .iter()
        .map(|v| (text(v, "name"), text(v, "unit"), text(v, "better")))
        .collect();
    let wanted: Vec<(String, String, String)> = defs
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
        .collect();
    let mut problems = Vec::new();
    for w in &wanted {
        if !declared.contains(w) {
            problems.push(format!(
                "{section}: BENCHMARK.json does not declare {} [{}] better={}",
                w.0, w.1, w.2
            ));
        }
    }
    for d in &declared {
        if !wanted.contains(d) {
            problems.push(format!(
                "{section}: the harness does not print {} [{}] better={}",
                d.0, d.1, d.2
            ));
        }
    }
    problems
}

/// Problems with the declared benchmark, empty when it matches.
pub fn benchmark_json_problems(text: &str) -> Vec<String> {
    let root = match json::parse(text) {
        Ok(root) => root,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut problems = Vec::new();
    let workloads: Vec<&str> = field(&root, "workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| field(w, "name").and_then(Value::as_str))
        .collect();
    if workloads != NAMES {
        problems.push(format!(
            "workloads: BENCHMARK.json lists {workloads:?}, the harness runs {NAMES:?}"
        ));
    }
    problems.extend(check_metrics(
        "end_to_end",
        field(&root, "end_to_end"),
        END_TO_END,
    ));
    problems.extend(check_metrics(
        "per_layer",
        field(&root, "per_layer"),
        PER_LAYER,
    ));
    problems
}

/// Runs both checks against the files around `manifest_dir`; returns
/// the problems found.
pub fn run(manifest_dir: &Path) -> Vec<String> {
    let read = |rel: &str| {
        let path = manifest_dir.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let mut problems = Vec::new();
    match (read("Cargo.toml"), read("../../Cargo.toml")) {
        (Ok(own), Ok(root)) => {
            let own = manifest_table(&own, "profile.release");
            let root = manifest_table(&root, "profile.release");
            if own != root {
                problems.push(format!(
                    "[profile.release] differs: benchmark {own:?}, repository {root:?}"
                ));
            }
        }
        (own, root) => problems.extend(own.err().into_iter().chain(root.err())),
    }
    match read("../../BENCHMARK.json") {
        Ok(text) => problems.extend(benchmark_json_problems(&text)),
        Err(e) => problems.push(e),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_tables_compare_by_content_not_by_comments() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\n# why\ndebug = false\nlto = \"fat\" # slow\n\n[lints]\nworkspace = true\n";
        let b = "[profile.release]\nlto=\"fat\"\ndebug = false\n";
        assert_eq!(
            manifest_table(a, "profile.release"),
            manifest_table(b, "profile.release")
        );
        assert_eq!(manifest_table(a, "profile.release").len(), 2);
        let c = "[profile.release]\nlto = \"thin\"\ndebug = false\n";
        assert_ne!(
            manifest_table(a, "profile.release"),
            manifest_table(c, "profile.release")
        );
        assert!(manifest_table(a, "profile.dev").is_empty());
    }

    #[test]
    fn the_committed_files_pass() {
        let problems = run(Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn a_renamed_metric_is_reported_from_both_sides() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"),
        )
        .unwrap()
        .replace("\"setup_s\"", "\"set_up_s\"");
        let problems = benchmark_json_problems(&text);
        assert_eq!(problems.len(), 2, "{problems:#?}");
    }
}
