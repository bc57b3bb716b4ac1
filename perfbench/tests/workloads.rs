//! Runs every workload at a tiny size and checks the result line against
//! `BENCHMARK.json`: every metric it names is emitted with its unit, the
//! answers are correct, and a corrupted oracle value fails the run.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// Runs the benchmark; returns its exit status and parsed last stdout line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e:?}):\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), result)
}

fn check_metrics(workload: &str, trace: bool) {
    let spec = benchmark_json();
    let table = list(&spec, if trace { "per_layer" } else { "end_to_end" });
    let (ok, result) = run(workload, trace, &[]);
    assert!(ok, "{workload} trace={trace} failed: {result:?}");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(matches!(result.get("attempted"), Some(Value::U64(n)) if *n >= 1));
    assert_eq!(result.get("failed"), Some(&Value::U64(0)));
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        panic!("no metrics map")
    };
    assert_eq!(metrics.len(), table.len(), "{workload}: metric count");
    for entry in table {
        let name = text(entry, "name");
        let got = metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{workload} does not emit {name}"));
        assert_eq!(
            text(&got.1, "unit"),
            text(entry, "unit"),
            "{workload}: unit of {name}"
        );
        assert!(
            matches!(
                got.1.get("value"),
                Some(Value::F64(_) | Value::U64(_) | Value::I64(_))
            ),
            "{workload}: {name} has no numeric value"
        );
    }
}

#[test]
fn benchmark_json_names_the_workloads() {
    let spec = benchmark_json();
    let names: Vec<&str> = list(&spec, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, ["mine", "serve-miss", "serve-hot"]);
}

#[test]
fn mine_emits_every_metric() {
    check_metrics("mine", false);
    check_metrics("mine", true);
}

#[test]
fn serve_miss_emits_every_metric() {
    check_metrics("serve-miss", false);
    check_metrics("serve-miss", true);
}

#[test]
fn serve_hot_emits_every_metric() {
    check_metrics("serve-hot", false);
    check_metrics("serve-hot", true);
}

#[test]
fn a_corrupted_oracle_fails_every_workload() {
    for workload in ["mine", "serve-miss", "serve-hot"] {
        let (ok, result) = run(workload, false, &["--corrupt-oracle"]);
        assert!(!ok, "{workload} passed against a corrupted oracle");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
