//! The catalogue, `BENCHMARK.json` and what the program prints agree.

use manic_benchmark::catalog::{END_TO_END, PER_LAYER};
use manic_benchmark::workloads::Workload;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(v: &Value, section: &str) -> Vec<(String, String)> {
    v.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{section}' list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && name.chars().next().unwrap().is_ascii_alphanumeric(),
            "bad metric name '{name}'"
        );
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit '{unit}' of '{name}'"
        );
        assert!(seen.insert(*name), "metric '{name}' listed twice");
    }
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let v = benchmark_json();
    assert_eq!(names_and_units(&v, "end_to_end"), owned(END_TO_END));
    assert_eq!(names_and_units(&v, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = v
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for m in v.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!((0.0..=0.25).contains(&bound), "bound {bound} out of range");
    }
}

/// Run the built binary; returns the result line's metrics as
/// `(name, unit, value)`.
fn run(workload: &str, trace: &str) -> Vec<(String, String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_manic-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--world", "sim-1k"])
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v = serde_json::from_str(last).expect("the last stdout line is JSON");
    assert_eq!(
        v.get("correct").and_then(Value::as_bool),
        Some(true),
        "{last}"
    );
    assert!(v.get("attempted").and_then(Value::as_i64).unwrap() >= 1);
    assert_eq!(v.get("failed").and_then(Value::as_i64), Some(0), "{last}");
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        panic!("no metrics in {last}")
    };
    // Every metric is also printed by name with its unit.
    for (name, m) in metrics {
        let unit = m.get("unit").and_then(Value::as_str).unwrap();
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} {unit} "))),
            "{name} not printed as 'name unit value'"
        );
    }
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                m.get("value").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect()
}

/// One test, workloads in sequence: a sim-1k smoke run of every workload,
/// untraced and traced, prints exactly the names `BENCHMARK.json` lists.
#[test]
fn smoke_run_prints_exactly_the_listed_metrics() {
    let v = benchmark_json();
    let (e2e, layers) = (
        names_and_units(&v, "end_to_end"),
        names_and_units(&v, "per_layer"),
    );
    let mut moved = BTreeSet::new();
    for w in Workload::ALL {
        let untraced = run(w.name(), "0");
        let printed: Vec<_> = untraced
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(printed, e2e, "{}: untraced names", w.name());
        for (name, _, value) in &untraced {
            assert!(
                *value > 0.0,
                "{}: end-to-end metric {name} is {value}",
                w.name()
            );
        }
        let traced = run(w.name(), "1");
        let printed: Vec<_> = traced
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(printed, layers, "{}: traced names", w.name());
        moved.extend(
            traced
                .into_iter()
                .filter(|(_, _, v)| *v != 0.0)
                .map(|(n, _, _)| n),
        );
    }
    // Every per-layer metric is produced by at least one workload, except
    // the ones that read 0 when all is well or need what a test lacks.
    let may_be_zero = [
        "inference.window_fallbacks",
        "serve.shed",
        "netsim.allocs_per_probe",
        "proc.cpu_sys_s",
        "core.engine_tn_rounds_per_s",
    ];
    for (name, _) in &layers {
        assert!(
            moved.contains(name) || may_be_zero.contains(&name.as_str()),
            "no workload produced {name}"
        );
    }
}
