//! The metric catalogue and one run's report.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the smoke
//! test keeps the two in step.

use std::collections::BTreeMap;

use serde::json::Value;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the allocator sees, reported by every workload on the
/// untraced run. What each means per workload is in the README.
pub const END_TO_END: [MetricDef; 6] = [
    m("setup_s", "s"),
    m("p50_ms", "ms"),
    m("p95_ms", "ms"),
    m("instrs_per_s", "instr/s"),
    m("peak_rss_mb", "MB"),
    m("code_size_ratio", "ratio"),
];

/// Single-layer metrics, reported by every workload on the traced run.
/// Times and counts are per workload operation; a layer a workload never
/// reaches reads 0.
pub const PER_LAYER: [MetricDef; 44] = [
    m("liveness.us", "us"),
    m("liveness.iterations", "count"),
    m("webs.us", "us"),
    m("webs.refs", "count"),
    m("build.us", "us"),
    m("build.self_us", "us"),
    m("build.nodes", "count"),
    m("build.edges", "count"),
    m("build.coalesced", "count"),
    m("color.calls", "count"),
    m("color.us", "us"),
    m("color.spilled", "count"),
    m("spill.us", "us"),
    m("spill.inserted", "count"),
    m("reconstruct.us", "us"),
    m("rewrite.us", "us"),
    m("pipeline.rounds", "count"),
    m("pipeline.degraded", "count"),
    m("cache.key_us", "us"),
    m("cache.get_us", "us"),
    m("cache.insert_us", "us"),
    m("cache.hits", "count"),
    m("cache.misses", "count"),
    m("cache.hit_ratio", "ratio"),
    m("cache.evictions", "count"),
    m("cache.bytes", "bytes"),
    m("driver.us", "us"),
    m("driver.serial_us", "us"),
    m("driver.efficiency", "ratio"),
    m("driver.steals", "count"),
    m("batch.submit_us.p99", "us"),
    m("batch.queue_wait_us.p50", "us"),
    m("batch.queue_wait_us.p99", "us"),
    m("batch.service_us.p50", "us"),
    m("batch.service_us.p99", "us"),
    m("batch.queue_depth.p99", "count"),
    m("batch.blocked_submits", "count"),
    m("loadgen.lag_us.p99", "us"),
    m("check.us", "us"),
    m("replay.us", "us"),
    m("replay.overhead_ops", "count"),
    m("replay.overhead_per_kinstr", "ops/kinstr"),
    m("trace.ops", "count"),
    m("trace_overhead_pct", "%"),
];

/// Verification failures a report keeps verbatim.
pub const MAX_ERRORS: usize = 20;

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// One workload run's outcome.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload's name.
    pub workload: String,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (degraded, not Ok, shed, lost or duplicated).
    pub failed: u64,
    /// Verification failures; the run is correct only when this is empty.
    pub errors: Vec<String>,
    /// Failures past the first [`MAX_ERRORS`], counted but not kept.
    pub more_errors: u64,
    /// The catalogued metrics this run reports.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further numbers printed for people (sample counts, per-phase
    /// splits); not part of the result line.
    pub details: Vec<(String, f64, String)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            more_errors: 0,
            metrics: BTreeMap::new(),
            details: Vec::new(),
        }
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Records a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        self.metrics.insert(name, value);
    }

    /// Records a number for people.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.details.push((name.into(), value, unit.to_string()));
    }

    /// Records a verification failure.
    pub fn error(&mut self, e: impl Into<String>) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(e.into());
        } else {
            self.more_errors += 1;
        }
    }

    /// The catalogue this run must report: end-to-end untraced, per-layer
    /// traced.
    pub fn expected(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Fills any expected metric the workload did not set with 0 (a layer
    /// it never reaches) and checks every value is finite.
    pub fn finish(&mut self) {
        for d in self.expected() {
            self.metrics.entry(d.name).or_insert(0.0);
        }
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(k, v)| format!("metric {k} is not finite: {v}"))
            .collect();
        self.errors.extend(bad);
    }

    /// `workload metric value unit` lines, details included.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .expected()
            .iter()
            .map(|d| {
                format!(
                    "{} {} {} {}",
                    self.workload,
                    d.name,
                    self.metrics.get(d.name).copied().unwrap_or(0.0),
                    d.unit
                )
            })
            .collect();
        for (name, value, unit) in &self.details {
            out.push(format!("{} {} {} {}", self.workload, name, value, unit));
        }
        out.push(format!(
            "{} attempted {} ops, failed {}",
            self.workload, self.attempted, self.failed
        ));
        for e in &self.errors {
            out.push(format!("{} VERIFICATION FAILED: {}", self.workload, e));
        }
        if self.more_errors > 0 {
            out.push(format!(
                "{} ... and {} more verification failures",
                self.workload, self.more_errors
            ));
        }
        out
    }

    fn metrics_value(&self) -> Value {
        Value::Obj(
            self.expected()
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        Value::Obj(vec![
                            (
                                "value".into(),
                                Value::Float(self.metrics.get(d.name).copied().unwrap_or(0.0)),
                            ),
                            ("unit".into(), Value::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), self.metrics_value()),
        ])
        .to_json()
    }

    /// The record `--out` appends: the result plus the workload, seed,
    /// mode and details.
    pub fn record_json(&self) -> String {
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::Int(self.seed as i64)),
            ("traced".into(), Value::Bool(self.traced)),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), self.metrics_value()),
            (
                "details".into(),
                Value::Obj(
                    self.details
                        .iter()
                        .map(|(k, v, u)| {
                            (
                                k.clone(),
                                Value::Obj(vec![
                                    ("value".into(), Value::Float(*v)),
                                    ("unit".into(), Value::Str(u.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "errors".into(),
                Value::Arr(self.errors.iter().map(|e| Value::Str(e.clone())).collect()),
            ),
        ])
        .to_json()
    }
}
