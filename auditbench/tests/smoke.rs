//! The benchmark's own test: tiny-scale smoke runs of the built binary,
//! checked against the metric declarations in `BENCHMARK.json`.

use serde_json::Value;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_auditbench");
const WORKLOADS: [&str; 3] = ["paper_cold", "fleet_longitudinal", "batch_preempt"];

struct Ran {
    success: bool,
    code: Option<i32>,
    results: Vec<Value>,
    stderr: String,
}

fn smoke(args: &[&str]) -> Ran {
    let out = Command::new(BIN)
        .args(["--smoke", "--seconds", "0"])
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    Ran {
        success: out.status.success(),
        code: out.status.code(),
        results: stdout
            .lines()
            .map(|line| serde_json::parse_value(line).expect("every stdout line is JSON"))
            .collect(),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(fields) => {
            let mut matches = fields.iter().filter(|(k, _)| k == key);
            let (_, found) = matches.next().unwrap_or_else(|| panic!("no {key:?}"));
            assert!(matches.next().is_none(), "{key:?} appears twice");
            found
        }
        other => panic!("{key:?}: not an object: {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let spec = serde_json::parse_value(&json).expect("BENCHMARK.json parses");
    match field(&spec, section) {
        Value::Array(metrics) => metrics
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{section}: not an array: {other:?}"),
    }
}

fn assert_prints_declared(trace: &str, section: &str) {
    let ran = smoke(&["--workload", "all", "--trace", trace]);
    assert!(ran.success, "smoke run failed:\n{}", ran.stderr);
    assert_eq!(
        ran.results.len(),
        WORKLOADS.len(),
        "one result line per workload"
    );
    let declared = declared(section);
    for result in &ran.results {
        assert_eq!(field(result, "correct"), &Value::Bool(true));
        let Value::Object(metrics) = field(result, "metrics") else {
            panic!("metrics is not an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
        let expected: Vec<&str> = declared.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, expected, "each declared metric, once, in order");
        for (name, unit) in &declared {
            let metric = field(result, "metrics");
            assert_eq!(text(field(field(metric, name), "unit")), unit, "{name}");
        }
    }
    for workload in WORKLOADS {
        let header = format!("[{workload}]");
        assert_eq!(
            ran.stderr.matches(&header).count(),
            1,
            "{workload} reports once"
        );
    }
    for (name, unit) in &declared {
        let printed = ran
            .stderr
            .lines()
            .filter(|line| line.split_whitespace().next() == Some(name.as_str()))
            .collect::<Vec<_>>();
        assert_eq!(
            printed.len(),
            WORKLOADS.len(),
            "{name} prints once per workload"
        );
        for line in printed {
            assert_eq!(
                line.split_whitespace().nth(2),
                Some(unit.as_str()),
                "{line}"
            );
        }
    }
}

#[test]
fn every_end_to_end_metric_prints_once_with_its_unit() {
    assert_prints_declared("0", "end_to_end");
}

#[test]
fn every_per_layer_metric_prints_once_with_its_unit() {
    assert_prints_declared("1", "per_layer");
}

#[test]
fn a_wrong_expected_count_is_an_error_not_a_pass() {
    let ran = smoke(&["--workload", "all", "--trace", "0", "--expect-bots", "7"]);
    assert!(!ran.success, "a wrong expectation must fail the run");
    assert_eq!(ran.results.len(), WORKLOADS.len());
    for result in &ran.results {
        assert_eq!(field(result, "correct"), &Value::Bool(false));
        let Value::Number(failed) = field(result, "failed") else {
            panic!("failed is not a number");
        };
        assert_ne!(
            failed.to_string(),
            "0",
            "the planted mismatch counts as a failure"
        );
    }
    assert!(ran.stderr.contains("expected 7"), "{}", ran.stderr);
}

#[test]
fn unknown_arguments_are_refused() {
    let ran = smoke(&["--workload", "nonesuch"]);
    assert_eq!(ran.code, Some(2));
    assert!(ran.results.is_empty());
}
