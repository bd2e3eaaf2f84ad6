//! A tiny-size run of every workload in both modes emits every metric
//! `BENCHMARK.json` names, each finite, and the traced run's spans cover
//! every layer the workload reaches.

use std::collections::BTreeSet;
use std::process::Command;

use ccra_benchmark::report::{END_TO_END, PER_LAYER};
use ccra_benchmark::workload::WORKLOADS;
use serde::json::{parse, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn entries(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    let catalogue = |defs: &[ccra_benchmark::report::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(entries(&doc, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(entries(&doc, "per_layer"), catalogue(&PER_LAYER));
    let Some(Value::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

fn run(workload: &str, trace: &str, spans: Option<&str>) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--tiny",
    ])
    .args(["--trace", trace]);
    if let Some(path) = spans {
        cmd.args(["--spans", path]);
    }
    let out = cmd.output().expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn every_workload_emits_every_metric_in_both_modes() {
    let doc = benchmark_json();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let spans_path = dir.join(format!("{workload}.json"));
            let spans = (trace == "1").then(|| spans_path.to_str().expect("utf-8 path"));
            let result = run(workload, trace, spans);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_i64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_i64).unwrap_or(0) >= 1);
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics");
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<(String, String)> = entries(&doc, key);
            assert_eq!(
                got,
                want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
            );
            for ((name, m), (_, unit)) in metrics.iter().zip(&want) {
                let v = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{workload} {name} = {v}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                if trace == "0" {
                    assert!(v > 0.0, "{workload} {name} must never be 0");
                }
            }
            if let Some(path) = spans {
                // Span files run to megabytes; scan for the names rather than
                // building the whole document.
                let text = std::fs::read_to_string(path).expect("spans written");
                assert!(
                    text.starts_with(r#"{"traceEvents":["#),
                    "{workload}: not a Chrome trace"
                );
                let names: BTreeSet<&str> = text
                    .split(r#""name":""#)
                    .skip(1)
                    .filter_map(|rest| rest.split('"').next())
                    .collect();
                let layers: &[&str] = match workload {
                    "spec-suite" | "large-funcs" => {
                        &["liveness", "webs", "build", "color", "rewrite"]
                    }
                    "edit-1000" => &["driver", "cache.key", "cache.get", "cache.insert", "build"],
                    _ => &[
                        "loadgen.submit",
                        "batch.request",
                        "batch.queue",
                        "batch.service",
                    ],
                };
                for layer in layers {
                    assert!(
                        names.contains(layer),
                        "{workload}: no {layer} span in {names:?}"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
