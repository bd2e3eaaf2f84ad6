//! `benchmark compare`: medians, quartiles and verdicts against the bounds
//! in `BENCHMARK.json`, and a non-zero exit when a metric got worse.

use std::process::Command;

use ccra_benchmark::compare::{compare, parse_bounds, parse_runs, Verdict};

const BOUNDS: &str = r#"{"end_to_end": [
  {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
  {"name": "instrs_per_s", "unit": "instr/s", "better": "higher", "bound": 0.1}
]}"#;

fn record(workload: &str, p50: f64, ips: f64) -> String {
    format!(
        r#"{{"workload":"{workload}","seed":1,"traced":false,"metrics":{{"p50_ms":{{"value":{p50},"unit":"ms"}},"instrs_per_s":{{"value":{ips},"unit":"instr/s"}}}}}}"#
    )
}

fn runs(rows: &[(f64, f64)]) -> String {
    rows.iter()
        .map(|&(p, i)| record("spec-suite", p, i))
        .collect::<Vec<_>>()
        .join("\n")
}

fn verdicts(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<Verdict> {
    let bounds = parse_bounds(BOUNDS).expect("bounds parse");
    let (ra, rb) = (
        parse_runs(&runs(a)).expect("runs parse"),
        parse_runs(&runs(b)).expect("runs parse"),
    );
    compare(&bounds, &ra, &rb)
        .iter()
        .map(|r| r.verdict)
        .collect()
}

#[test]
fn verdicts_follow_bounds_polarity_and_spread() {
    let base = [(1.00, 100.0), (1.01, 101.0), (0.99, 99.0)];
    // Same numbers: within bound.
    assert_eq!(verdicts(&base, &base), [Verdict::Within, Verdict::Within]);
    // Latency up 20%, throughput down 20%: both worse.
    let worse = [(1.20, 80.0), (1.21, 81.0), (1.19, 79.0)];
    assert_eq!(verdicts(&base, &worse), [Verdict::Worse, Verdict::Worse]);
    // And the other way round: both better.
    assert_eq!(verdicts(&worse, &base), [Verdict::Better, Verdict::Better]);
    // A spread wider than the bound cannot resolve a 5% move...
    let noisy = [(0.80, 100.0), (1.05, 100.0), (1.30, 100.0)];
    assert_eq!(verdicts(&base, &noisy)[0], Verdict::Unresolved);
    // ...unless every run of one set beats every run of the other.
    let noisy_better = [(0.50, 100.0), (0.70, 100.0), (0.90, 100.0)];
    assert_eq!(verdicts(&base, &noisy_better)[0], Verdict::Better);
}

#[test]
fn traced_records_are_not_compared() {
    let text = format!(
        "{}\n{}",
        record("serve", 1.0, 1.0),
        r#"{"workload":"serve","traced":true,"metrics":{"build.us":{"value":3.0,"unit":"us"}}}"#
    );
    let runs = parse_runs(&text).expect("runs parse");
    assert_eq!(runs.len(), 1);
}

#[test]
fn compare_exits_non_zero_when_a_metric_is_worse() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, text: &str| {
        let p = dir.join(name);
        std::fs::write(&p, text).expect("write");
        p.to_str().expect("utf-8 path").to_string()
    };
    let bounds = write("BENCHMARK.json", BOUNDS);
    let a = write(
        "a.jsonl",
        &runs(&[(1.0, 100.0), (1.0, 100.0), (1.0, 100.0)]),
    );
    let b = write(
        "b.jsonl",
        &runs(&[(1.5, 100.0), (1.5, 100.0), (1.5, 100.0)]),
    );
    let cmp = |x: &str, y: &str| {
        Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(["compare", x, y, "--bounds", &bounds])
            .output()
            .expect("compare runs")
    };
    let same = cmp(&a, &a);
    assert!(same.status.success());
    let text = String::from_utf8_lossy(&same.stdout);
    assert!(text.contains("within bound"), "{text}");
    let worse = cmp(&a, &b);
    assert_eq!(worse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("WORSE"));
    std::fs::remove_dir_all(&dir).ok();
}
