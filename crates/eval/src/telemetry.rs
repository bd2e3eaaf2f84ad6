//! Baseline comparison for allocation-telemetry JSONL streams.
//!
//! The `trace` binary emits the event stream of
//! [`ccra_regalloc::allocate_program_instrumented`] as JSON Lines; this module
//! diffs two such streams. The anchor is the closing `program` event
//! ([`ProgramSummary`]): its weighted-overhead total is deterministic for a
//! given workload and allocator, so any change against a checked-in
//! baseline is a real quality regression (or improvement), while its
//! wall-clock field varies by machine and only ever warrants a warning.
//! That total is only comparable between runs of one workload, config
//! and scale, so a stream starts with a [`TraceHeader`] naming all three.

use std::fmt;

use ccra_regalloc::trace::{AllocEvent, ProgramSummary};
use serde::json::Value;

/// The run a `trace` stream records: the workload, the allocator config
/// (its `--config` name) and the workload scale. The `trace` binary
/// writes it as the stream's first line and strips it before parsing
/// the events, and `--check` compares totals only between streams whose
/// headers are equal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// The workload name (`eqntott`, `ear`, …).
    pub program: String,
    /// The `--config` name (`improved`, `base`, …).
    pub config: String,
    /// The workload scale.
    pub scale: f64,
}

impl TraceHeader {
    /// The key of the header line's single member.
    const TAG: &'static str = "trace_header";

    /// The header as one JSON line, without the newline:
    /// `{"trace_header":{"program":..,"config":..,"scale":..}}`.
    pub fn to_line(&self) -> String {
        Value::Obj(vec![(
            Self::TAG.to_string(),
            Value::Obj(vec![
                ("program".to_string(), Value::Str(self.program.clone())),
                ("config".to_string(), Value::Str(self.config.clone())),
                ("scale".to_string(), Value::Float(self.scale)),
            ]),
        )])
        .to_json()
    }

    /// Splits a stream's text into its header, when the first line is
    /// one, and the text after that line.
    pub fn split(text: &str) -> (Option<TraceHeader>, &str) {
        let (first, rest) = text.split_once('\n').unwrap_or((text, ""));
        let header = serde::json::parse(first).ok().and_then(|doc| {
            let h = doc.get(Self::TAG)?;
            let field = |k| h.get(k).and_then(Value::as_str).map(str::to_string);
            Some(TraceHeader {
                program: field("program")?,
                config: field("config")?,
                scale: h.get("scale").and_then(Value::as_f64)?,
            })
        });
        match header {
            Some(h) => (Some(h), rest),
            None => (None, text),
        }
    }
}

impl fmt::Display for TraceHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] @ scale {}",
            self.program, self.config, self.scale
        )
    }
}

/// The outcome of diffing a current trace against a baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Total weighted overhead of the baseline run.
    pub baseline_total: f64,
    /// Total weighted overhead of the current run.
    pub current_total: f64,
    /// Relative overhead change in percent (positive = regression).
    pub overhead_delta_pct: f64,
    /// Allocation wall-clock of the baseline run (microseconds).
    pub baseline_micros: u64,
    /// Allocation wall-clock of the current run (microseconds).
    pub current_micros: u64,
    /// Relative wall-clock change in percent (positive = slower).
    pub time_delta_pct: f64,
    /// Whether the overhead regression exceeds the threshold.
    pub regressed: bool,
}

impl Comparison {
    /// A human-readable verdict line.
    pub fn verdict(&self, threshold_pct: f64) -> String {
        if self.regressed {
            format!(
                "REGRESSION: total overhead {:.2} vs baseline {:.2} ({:+.2}% > {:.1}% threshold)",
                self.current_total, self.baseline_total, self.overhead_delta_pct, threshold_pct
            )
        } else {
            format!(
                "ok: total overhead {:.2} vs baseline {:.2} ({:+.2}%, threshold {:.1}%)",
                self.current_total, self.baseline_total, self.overhead_delta_pct, threshold_pct
            )
        }
    }
}

/// The closing `program` summary of an event stream, if present.
pub fn program_summary(events: &[AllocEvent]) -> Option<&ProgramSummary> {
    events.iter().rev().find_map(|e| match e {
        AllocEvent::Program(s) => Some(s),
        _ => None,
    })
}

/// Total microseconds per phase name, in first-appearance order.
pub fn phase_totals(events: &[AllocEvent]) -> Vec<(String, u64)> {
    let mut totals: Vec<(String, u64)> = Vec::new();
    for e in events {
        if let AllocEvent::Phase(p) = e {
            match totals.iter_mut().find(|(name, _)| *name == p.phase) {
                Some((_, t)) => *t += p.micros,
                None => totals.push((p.phase.clone(), p.micros)),
            }
        }
    }
    totals
}

/// Counts events by tag, in first-appearance order.
pub fn event_counts(events: &[AllocEvent]) -> Vec<(&'static str, usize)> {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for e in events {
        match counts.iter_mut().find(|(tag, _)| *tag == e.tag()) {
            Some((_, c)) => *c += 1,
            None => counts.push((e.tag(), 1)),
        }
    }
    counts
}

/// Relative change of `current` against `base`, in percent. A zero base
/// with a nonzero current counts as an infinite regression; zero against
/// zero is no change.
fn delta_pct(base: f64, current: f64) -> f64 {
    if base == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - base) / base * 100.0
    }
}

/// Diffs the `program` summaries of two event streams.
///
/// `regressed` is set when the current total overhead exceeds the baseline
/// by more than `threshold_pct` percent. Wall-clock deltas are reported but
/// never set `regressed` — they are machine-dependent.
///
/// # Errors
///
/// Returns an error naming the missing side when either stream lacks a
/// `program` event, or when the two summaries used different allocator
/// configurations (comparing those would be meaningless).
pub fn compare(
    baseline: &[AllocEvent],
    current: &[AllocEvent],
    threshold_pct: f64,
) -> Result<Comparison, String> {
    let base = program_summary(baseline)
        .ok_or_else(|| "baseline stream has no `program` summary event".to_string())?;
    let cur = program_summary(current)
        .ok_or_else(|| "current stream has no `program` summary event".to_string())?;
    if base.config != cur.config {
        return Err(format!(
            "config mismatch: baseline `{}` vs current `{}`",
            base.config, cur.config
        ));
    }
    let overhead_delta_pct = delta_pct(base.total(), cur.total());
    Ok(Comparison {
        baseline_total: base.total(),
        current_total: cur.total(),
        overhead_delta_pct,
        baseline_micros: base.micros,
        current_micros: cur.micros,
        time_delta_pct: delta_pct(base.micros as f64, cur.micros as f64),
        regressed: overhead_delta_pct > threshold_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccra_regalloc::trace::PhaseSpan;

    fn summary(total_each: f64, micros: u64) -> AllocEvent {
        AllocEvent::Program(ProgramSummary {
            config: "SC+BS+PR".into(),
            funcs: 3,
            spill: total_each,
            caller_save: total_each,
            callee_save: 0.0,
            shuffle: 0.0,
            micros,
        })
    }

    #[test]
    fn within_threshold_is_ok() {
        let base = [summary(50.0, 100)];
        let cur = [summary(51.0, 900)];
        let c = compare(&base, &cur, 5.0).unwrap();
        assert!(!c.regressed, "{c:?}");
        assert!((c.overhead_delta_pct - 2.0).abs() < 1e-9);
        // Time regressed 9x but that never fails the comparison.
        assert!(c.time_delta_pct > 100.0);
    }

    #[test]
    fn beyond_threshold_regresses() {
        let base = [summary(50.0, 100)];
        let cur = [summary(53.0, 100)];
        let c = compare(&base, &cur, 5.0).unwrap();
        assert!(c.regressed);
        assert!(c.verdict(5.0).starts_with("REGRESSION"));
    }

    #[test]
    fn improvements_never_regress() {
        let base = [summary(50.0, 100)];
        let cur = [summary(10.0, 100)];
        assert!(!compare(&base, &cur, 5.0).unwrap().regressed);
    }

    #[test]
    fn missing_summary_is_an_error() {
        assert!(compare(&[], &[summary(1.0, 1)], 5.0).is_err());
        assert!(compare(&[summary(1.0, 1)], &[], 5.0).is_err());
    }

    #[test]
    fn config_mismatch_is_an_error() {
        let mut other = ProgramSummary {
            config: "base".into(),
            funcs: 3,
            spill: 2.0,
            caller_save: 0.0,
            callee_save: 0.0,
            shuffle: 0.0,
            micros: 5,
        };
        other.config = "base".into();
        let base = [summary(1.0, 1)];
        let cur = [AllocEvent::Program(other)];
        assert!(compare(&base, &cur, 5.0).is_err());
    }

    #[test]
    fn header_line_round_trips_and_splits_off_the_stream() {
        let header = TraceHeader {
            program: "eqntott".into(),
            config: "improved".into(),
            scale: 0.05,
        };
        let line = header.to_line();
        assert_eq!(
            line,
            r#"{"trace_header":{"program":"eqntott","config":"improved","scale":0.05}}"#
        );
        let text = format!("{line}\n{{\"event\":\"x\"}}\n");
        let (parsed, rest) = TraceHeader::split(&text);
        assert_eq!(parsed, Some(header.clone()));
        assert_eq!(rest, "{\"event\":\"x\"}\n");
        assert_eq!(header.to_string(), "eqntott [improved] @ scale 0.05");
        // A stream without a header comes back whole.
        let bare = "{\"event\":\"x\"}\n";
        assert_eq!(TraceHeader::split(bare), (None, bare));
        assert_eq!(TraceHeader::split(""), (None, ""));
    }

    #[test]
    fn phase_totals_aggregate_by_name() {
        let events = [
            AllocEvent::Phase(PhaseSpan {
                func: "f".into(),
                round: 1,
                phase: "build".into(),
                micros: 10,
            }),
            AllocEvent::Phase(PhaseSpan {
                func: "f".into(),
                round: 2,
                phase: "build".into(),
                micros: 5,
            }),
            AllocEvent::Phase(PhaseSpan {
                func: "f".into(),
                round: 1,
                phase: "select".into(),
                micros: 7,
            }),
        ];
        assert_eq!(
            phase_totals(&events),
            vec![("build".to_string(), 15), ("select".to_string(), 7)]
        );
        assert_eq!(event_counts(&events), vec![("phase", 3)]);
    }
}
