//! `benchmark compare`: two sets of runs, metric by metric, against the
//! bounds in `BENCHMARK.json`.

use serde::json::{parse, Value};

use crate::stats::quartiles;

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The metric.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// The share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A document that is not JSON or lacks a well-formed `end_to_end` list.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Arr(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks `{k}`"))
            };
            let better = field("better")?.as_str().unwrap_or_default();
            if better != "lower" && better != "higher" {
                return Err(format!("`better` must be lower or higher, got {better:?}"));
            }
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: better == "lower",
                bound: field("bound")?.as_f64().ok_or("`bound` must be a number")?,
            })
        })
        .collect()
}

/// One untraced run read back from an `--out` file.
#[derive(Debug, Clone)]
pub struct Run {
    /// The workload.
    pub workload: String,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

/// Reads the untraced runs of an `--out` file (one JSON record per line;
/// traced runs are skipped).
///
/// # Errors
///
/// A line that is not a run record.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if rec.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?
            .to_string();
        let Some(Value::Obj(fields)) = rec.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        let metrics = fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.push(Run { workload, metrics });
    }
    Ok(runs)
}

/// How a metric moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Within,
    /// The second set is worse by more than the bound.
    Worse,
    /// The second set is better by more than the bound (or, with a spread
    /// wider than the bound, every run of it beats every run of the first).
    Better,
    /// The run-to-run spread is wider than the bound, so the difference
    /// cannot be told apart from noise.
    Unresolved,
}

impl Verdict {
    /// A short label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric's rule.
    pub rule: Bound,
    /// First set: runs, then first quartile, median, third quartile.
    pub a: (usize, [f64; 3]),
    /// Second set, likewise.
    pub b: (usize, [f64; 3]),
    /// How much worse the second median is, as a share of the first
    /// (negative when better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads, as a share of median.
    pub spread: f64,
    /// The outcome.
    pub verdict: Verdict,
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

/// Compares every (workload, end-to-end metric) present in both sets.
pub fn compare(bounds: &[Bound], a: &[Run], b: &[Run]) -> Vec<Row> {
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for rule in bounds {
            let (va, vb) = (values(a, w, &rule.name), values(b, w, &rule.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let rel = |q: [f64; 3]| (q[2] - q[0]).abs() / q[1].abs().max(f64::MIN_POSITIVE);
            let spread = rel(qa).max(rel(qb));
            let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
            let worse_by = sign * (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE);
            let better = |x: f64, y: f64| sign * (x - y) < 0.0;
            let all_better = vb.iter().all(|&y| va.iter().all(|&x| better(y, x)));
            let verdict = if spread > rule.bound {
                if all_better {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by > rule.bound {
                Verdict::Worse
            } else if -worse_by > rule.bound {
                Verdict::Better
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: w.to_string(),
                rule: rule.clone(),
                a: (va.len(), qa),
                b: (vb.len(), qb),
                worse_by,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<16} {:>5} {:>12} {:>12} {:>12} {:>5} {:>12} {:>12} {:>12} {:>9} {:>7} {:>6}  verdict\n",
        "workload", "metric", "n_a", "a_q1", "a_median", "a_q3", "n_b", "b_q1", "b_median", "b_q3",
        "worse_by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<16} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>8.2}% {:>6.2}% {:>5.0}%  {}\n",
            r.workload,
            r.rule.name,
            r.a.0,
            r.a.1[0],
            r.a.1[1],
            r.a.1[2],
            r.b.0,
            r.b.1[0],
            r.b.1[1],
            r.b.1[2],
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.rule.bound * 100.0,
            r.verdict.label()
        ));
    }
    out
}
