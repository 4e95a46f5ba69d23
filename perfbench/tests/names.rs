//! The workloads and metrics the command prints are exactly those
//! `BENCHMARK.json` lists, with the same units, in the same order.

mod common;

use serde_json::Value;

/// `BENCHMARK.json` at the root of the repository.
fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric section.
fn listed(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc[section]
        .as_array()
        .expect("metric section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("string field").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric on the result line of one short run.
fn printed(workload: &str, trace: bool) -> Vec<(String, String)> {
    let stdout = common::run(workload, 1, trace);
    let last = stdout.lines().last().expect("output has a result line");
    let result = serde_json::from_str(last).expect("result line is JSON");
    assert_eq!(result["correct"].as_bool(), Some(true), "{stdout}");
    result["metrics"]
        .as_object()
        .expect("metrics is an object")
        .iter()
        .map(|(name, m)| {
            let value = m["value"].as_f64().expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (name.clone(), m["unit"].as_str().expect("unit").to_owned())
        })
        .collect()
}

fn workloads(doc: &Value) -> Vec<String> {
    doc["workloads"]
        .as_array()
        .expect("workloads is a list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_owned())
        .collect()
}

#[test]
fn workload_names_match() {
    let doc = benchmark_json();
    let known: Vec<&str> = ninf_perfbench::workload::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads(&doc), known);
}

#[test]
fn end_to_end_names_match() {
    let doc = benchmark_json();
    let want = listed(&doc, "end_to_end");
    for w in workloads(&doc) {
        assert_eq!(printed(&w, false), want, "{w}");
    }
}

#[test]
fn per_layer_names_match() {
    let doc = benchmark_json();
    let want = listed(&doc, "per_layer");
    for w in workloads(&doc) {
        assert_eq!(printed(&w, true), want, "{w}");
    }
}
