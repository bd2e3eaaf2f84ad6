//! In-memory timing spans and work counters for the traced run.
//!
//! A span is (name, start, end, parent, op id). Spans stay in memory and are
//! written once, at the end, as a Chrome trace. A disabled tracer records
//! nothing and reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::json::Value;

/// One closed span; times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer boundary it times.
    pub name: &'static str,
    /// Start, microseconds.
    pub start_us: f64,
    /// End, microseconds.
    pub end_us: f64,
    /// The index of the span open when this one started.
    pub parent: Option<usize>,
    /// The workload operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// The span's length, microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A handle to an open span (see [`Tracer::start`]).
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<usize>);

/// Collects spans and counters.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// A recording tracer, its epoch now.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the following spans with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Microseconds since the tracer's epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1000.0
    }

    /// Records a span timed elsewhere, on this tracer's clock, under
    /// `parent`. Returns its index (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            op: self.op,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span nested in the innermost open one.
    pub fn start(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::start`] and returns its length in
    /// microseconds (0 when disabled); spans close innermost first.
    pub fn end(&mut self, open: Open) -> f64 {
        let Some(idx) = open.0 else {
            return 0.0;
        };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_us = self.now_us();
        self.spans[idx].dur_us()
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// The counter's total (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total microseconds in spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_us())
    }

    /// Total self time of spans named `name`: each span's length minus the
    /// part its direct children cover.
    pub fn self_us(&self, name: &str) -> f64 {
        self_times(&self.spans).get(name).copied().unwrap_or(0.0)
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, with its id, parent and op in `args`.
    pub fn to_chrome(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_us)),
                    ("dur".into(), Value::Float(s.dur_us())),
                    ("pid".into(), Value::Int(1)),
                    ("tid".into(), Value::Int(1)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("id".into(), Value::Int(id as i64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                            ),
                            ("op".into(), Value::Int(s.op as i64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![("traceEvents".into(), Value::Arr(events))])
    }
}

/// Self time per span name: each span's length minus the time its direct
/// children cover, summed by name.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_us) {
        *out.entry(s.name).or_insert(0.0) += (s.dur_us() - c).max(0.0);
    }
    out
}
