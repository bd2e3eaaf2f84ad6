//! Allocation telemetry: typed events emitted through an [`AllocSink`].
//!
//! The paper's contribution is a sequence of *decisions* — storage-class
//! benefits (SC, Section 4), benefit-driven simplification keys (BS,
//! Section 5), preference votes at call sites (PR, Section 6) — but the
//! pipeline's results only surface end-of-run aggregates. This module makes
//! the decisions observable:
//!
//! * [`PhaseSpan`] — wall-clock time of one pipeline phase (build,
//!   coalesce, simplify, select, spill-insert, reconstruct);
//! * [`RoundStats`] — interference-graph shape at the start of a round;
//! * [`Decision`] — why one live range ended up in its final [`Loc`]:
//!   the SC benefits, the BS key and its value, the PR vote count, and a
//!   spill-vs-promote reason;
//! * [`SpillStats`] — what one round of spill-code insertion did;
//! * [`FuncSummary`] / [`ProgramSummary`] — end-of-run aggregates, the
//!   anchors for baseline comparison.
//!
//! Everything flows through an [`AllocSink`]. The default [`NoopSink`]
//! reports `enabled() == false`, and every instrumentation site gates its
//! event construction (and its `Instant::now()` calls) on that flag, so an
//! untraced allocation does no timing, no formatting, and no allocation for
//! telemetry. [`RecordingSink`] collects events in memory for tests and
//! ad-hoc inspection; [`JsonlSink`] streams them as one JSON object per
//! line, the format the `ccra-eval` `trace` binary emits and diffs.
//!
//! [`Loc`]: crate::Loc
//!
//! The [`chrometrace`] submodule serializes a driver
//! [`crate::driver::Timeline`] into the Chrome Trace Event Format for
//! Perfetto / `chrome://tracing`.

pub mod chrometrace;

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// The instrumented pipeline phases (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Liveness, webs, and web-level interference scanning.
    Build,
    /// Aggressive coalescing and node construction.
    Coalesce,
    /// Color ordering: simplification (and preference decision).
    Simplify,
    /// Color assignment, including storage-class analysis.
    Select,
    /// Spill-code insertion.
    SpillInsert,
    /// Incremental graph reconstruction.
    Reconstruct,
    /// Final rewrite: overhead markers and reference claims.
    Rewrite,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::Build,
        Phase::Coalesce,
        Phase::Simplify,
        Phase::Select,
        Phase::SpillInsert,
        Phase::Reconstruct,
        Phase::Rewrite,
    ];

    /// The snake_case name used in serialized events.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Coalesce => "coalesce",
            Phase::Simplify => "simplify",
            Phase::Select => "select",
            Phase::SpillInsert => "spill_insert",
            Phase::Reconstruct => "reconstruct",
            Phase::Rewrite => "rewrite",
        }
    }

    /// The histogram this phase's wall-clock observations land in (see
    /// [`crate::metrics::MetricsRegistry`]).
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::Build => "phase_build_micros",
            Phase::Coalesce => "phase_coalesce_micros",
            Phase::Simplify => "phase_simplify_micros",
            Phase::Select => "phase_select_micros",
            Phase::SpillInsert => "phase_spill_insert_micros",
            Phase::Reconstruct => "phase_reconstruct_micros",
            Phase::Rewrite => "phase_rewrite_micros",
        }
    }
}

/// Wall-clock time of one pipeline phase within one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// The function being allocated.
    pub func: String,
    /// The spill round (1-based; round 1 is the initial coloring).
    pub round: u32,
    /// The phase name (see [`Phase::name`]).
    pub phase: String,
    /// Elapsed wall-clock microseconds.
    pub micros: u64,
}

/// Interference-graph shape at the start of one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// The function being allocated.
    pub func: String,
    /// The spill round.
    pub round: u32,
    /// Allocation nodes (coalesced live ranges).
    pub nodes: usize,
    /// Interference edges.
    pub edges: usize,
    /// Largest node degree.
    pub max_degree: usize,
}

/// Why one live range ended up where it did (Sections 4–6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// The function being allocated.
    pub func: String,
    /// The spill round the decision was made in.
    pub round: u32,
    /// The node id within that round's context.
    pub node: u32,
    /// The register bank (`"int"` or `"float"`).
    pub class: String,
    /// `benefit_caller(lr)` — spill cost minus caller-save cost.
    pub benefit_caller: f64,
    /// `benefit_callee(lr)` — spill cost minus callee-save cost.
    pub benefit_callee: f64,
    /// The benefit-driven-simplification key in use (`"max_benefit"`,
    /// `"benefit_delta"`, or `"none"`).
    pub bs_key: String,
    /// The node's value under that key (absent when BS is off).
    pub bs_value: Option<f64>,
    /// Call sites voting on this node's preference (the sites it crosses).
    pub pref_votes: u32,
    /// Whether preference decision forced the node to caller-save.
    pub pref_forced: bool,
    /// The final location: a register name or `"spilled"`.
    pub loc: String,
    /// The spill-vs-promote reason (e.g. `"colored"`, `"no_color"`,
    /// `"sc_caller_spill"`, `"sc_shared_spill"`, `"pressure_spill"`).
    pub reason: String,
}

/// What one round of spill-code insertion did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpillStats {
    /// The function being allocated.
    pub func: String,
    /// The spill round.
    pub round: u32,
    /// Live ranges spilled this round.
    pub spilled: usize,
    /// Spill instructions inserted.
    pub inserted: usize,
    /// Spill temporaries created.
    pub temps: usize,
}

/// End-of-run aggregates for one function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncSummary {
    /// The function.
    pub func: String,
    /// Rounds executed (1 = no spilling needed).
    pub rounds: u32,
    /// Live ranges spilled across all rounds.
    pub spilled_ranges: usize,
    /// Distinct callee-save registers used.
    pub callee_regs_used: usize,
    /// Weighted spill overhead.
    pub spill: f64,
    /// Weighted caller-save overhead.
    pub caller_save: f64,
    /// Weighted callee-save overhead.
    pub callee_save: f64,
    /// Weighted shuffle overhead.
    pub shuffle: f64,
}

/// End-of-run aggregates for a whole program — the baseline-comparison
/// anchor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramSummary {
    /// The allocator configuration label (e.g. `"SC+BS+PR"`).
    pub config: String,
    /// Functions allocated.
    pub funcs: usize,
    /// Weighted spill overhead.
    pub spill: f64,
    /// Weighted caller-save overhead.
    pub caller_save: f64,
    /// Weighted callee-save overhead.
    pub callee_save: f64,
    /// Weighted shuffle overhead.
    pub shuffle: f64,
    /// Total allocation wall-clock microseconds.
    pub micros: u64,
}

impl ProgramSummary {
    /// Total weighted overhead operations.
    pub fn total(&self) -> f64 {
        self.spill + self.caller_save + self.callee_save + self.shuffle
    }
}

/// A function whose allocation failed and fell back to the degraded
/// spill-everything allocation (see [`crate::degraded_allocation`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedInfo {
    /// The function.
    pub func: String,
    /// The [`crate::AllocError`] that triggered the fallback, rendered.
    pub reason: String,
}

/// One telemetry event. Serializes as a flat JSON object carrying an
/// `"event"` tag (`"phase"`, `"round"`, `"decision"`, `"spill"`,
/// `"degraded"`, `"func"`, `"program"`) alongside the variant's fields.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocEvent {
    /// A [`PhaseSpan`].
    Phase(PhaseSpan),
    /// A [`RoundStats`].
    Round(RoundStats),
    /// A [`Decision`].
    Decision(Decision),
    /// A [`SpillStats`].
    Spill(SpillStats),
    /// A [`DegradedInfo`].
    Degraded(DegradedInfo),
    /// A [`FuncSummary`].
    Func(FuncSummary),
    /// A [`ProgramSummary`].
    Program(ProgramSummary),
}

impl AllocEvent {
    /// The `"event"` tag of the serialized form.
    pub fn tag(&self) -> &'static str {
        match self {
            AllocEvent::Phase(_) => "phase",
            AllocEvent::Round(_) => "round",
            AllocEvent::Decision(_) => "decision",
            AllocEvent::Spill(_) => "spill",
            AllocEvent::Degraded(_) => "degraded",
            AllocEvent::Func(_) => "func",
            AllocEvent::Program(_) => "program",
        }
    }

    /// This event with wall-clock fields zeroed — everything else the
    /// allocator emits is deterministic, so normalized streams compare
    /// equal across runs.
    pub fn normalized(mut self) -> AllocEvent {
        match &mut self {
            AllocEvent::Phase(e) => e.micros = 0,
            AllocEvent::Program(e) => e.micros = 0,
            _ => {}
        }
        self
    }
}

impl Serialize for AllocEvent {
    fn to_value(&self) -> Value {
        let inner = match self {
            AllocEvent::Phase(e) => e.to_value(),
            AllocEvent::Round(e) => e.to_value(),
            AllocEvent::Decision(e) => e.to_value(),
            AllocEvent::Spill(e) => e.to_value(),
            AllocEvent::Degraded(e) => e.to_value(),
            AllocEvent::Func(e) => e.to_value(),
            AllocEvent::Program(e) => e.to_value(),
        };
        match inner {
            Value::Obj(mut fields) => {
                fields.insert(0, ("event".to_string(), Value::Str(self.tag().to_string())));
                Value::Obj(fields)
            }
            other => other,
        }
    }
}

impl Deserialize for AllocEvent {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let tag = value
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::missing("event"))?;
        match tag {
            "phase" => PhaseSpan::from_value(value).map(AllocEvent::Phase),
            "round" => RoundStats::from_value(value).map(AllocEvent::Round),
            "decision" => Decision::from_value(value).map(AllocEvent::Decision),
            "spill" => SpillStats::from_value(value).map(AllocEvent::Spill),
            "degraded" => DegradedInfo::from_value(value).map(AllocEvent::Degraded),
            "func" => FuncSummary::from_value(value).map(AllocEvent::Func),
            "program" => ProgramSummary::from_value(value).map(AllocEvent::Program),
            other => Err(Error::new(format!("unknown event type `{other}`"))),
        }
    }
}

/// Receives allocation telemetry.
///
/// Instrumentation sites gate all event construction — including
/// `Instant::now()` calls — on [`AllocSink::enabled`], so a disabled sink
/// costs one branch per site and nothing else.
pub trait AllocSink {
    /// Whether instrumentation sites should construct and emit events.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether phases should be timed and emitted as [`PhaseSpan`]
    /// events. Defaults to [`AllocSink::enabled`]; a sink that wants the
    /// phase timings and nothing else (the parallel driver's timeline
    /// tap) answers `true` here and `false` there, so no other event is
    /// built for it.
    fn times_phases(&self) -> bool {
        self.enabled()
    }

    /// Receives one event: a [`PhaseSpan`] when
    /// [`AllocSink::times_phases`] is true, any other event only when
    /// [`AllocSink::enabled`] is.
    fn emit(&mut self, event: AllocEvent);
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl AllocSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: AllocEvent) {}
}

/// Collects events in memory (for tests and ad-hoc inspection).
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The events received, in emission order.
    pub events: Vec<AllocEvent>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// The recorded events with wall-clock fields zeroed (see
    /// [`AllocEvent::normalized`]).
    pub fn normalized(&self) -> Vec<AllocEvent> {
        self.events
            .iter()
            .cloned()
            .map(AllocEvent::normalized)
            .collect()
    }
}

impl AllocSink for RecordingSink {
    fn emit(&mut self, event: AllocEvent) {
        self.events.push(event);
    }
}

/// Streams events as JSON Lines — one compact JSON object per event.
///
/// Telemetry must never abort an allocation, so [`JsonlSink::emit`] does
/// not return write failures; it counts them ([`JsonlSink::write_errors`])
/// and [`JsonlSink::finish`] reports how many events were lost.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    write_errors: usize,
}

impl JsonlSink<BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL file sink.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(std::fs::File::create(path)?),
            write_errors: 0,
        })
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            write_errors: 0,
        }
    }

    /// How many events failed to write so far.
    pub fn write_errors(&self) -> usize {
        self.write_errors
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Fails if the flush fails, or if any earlier [`JsonlSink::emit`]
    /// dropped events on a write error — the error message says how many.
    pub fn finish(mut self) -> io::Result<W> {
        self.writer.flush()?;
        if self.write_errors > 0 {
            return Err(io::Error::other(format!(
                "{} telemetry event(s) were lost to write errors",
                self.write_errors
            )));
        }
        Ok(self.writer)
    }
}

impl<W: Write> AllocSink for JsonlSink<W> {
    fn emit(&mut self, event: AllocEvent) {
        if writeln!(self.writer, "{}", event.to_json()).is_err() {
            self.write_errors += 1;
        }
    }
}

/// Parses a JSONL event stream (ignoring blank lines).
pub fn parse_jsonl(text: &str) -> Result<Vec<AllocEvent>, Error> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(AllocEvent::from_json)
        .collect()
}

/// The tracing context threaded through one round of bank allocation: the
/// sink, an optional [`MetricsRegistry`], and the function/round
/// coordinates every event carries.
///
/// [`MetricsRegistry`]: crate::metrics::MetricsRegistry
pub(crate) struct TraceCtx<'a> {
    sink: &'a mut dyn AllocSink,
    metrics: Option<&'a mut crate::metrics::MetricsRegistry>,
    func: &'a str,
    round: u32,
}

impl<'a> TraceCtx<'a> {
    /// Binds a sink to one function and round, with no metrics.
    pub fn new(sink: &'a mut dyn AllocSink, func: &'a str, round: u32) -> Self {
        TraceCtx {
            sink,
            metrics: None,
            func,
            round,
        }
    }

    /// Binds a sink *and* a metrics registry to one function and round.
    /// Spans then both emit [`PhaseSpan`] events (if the sink is enabled)
    /// and feed the per-phase wall-clock histograms (if the registry is).
    pub fn with_metrics(
        sink: &'a mut dyn AllocSink,
        metrics: &'a mut crate::metrics::MetricsRegistry,
        func: &'a str,
        round: u32,
    ) -> Self {
        TraceCtx {
            sink,
            metrics: Some(metrics),
            func,
            round,
        }
    }

    /// Whether instrumentation sites should construct events.
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Whether metrics are being collected.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.as_ref().is_some_and(|m| m.enabled())
    }

    /// The metrics registry, if one is attached.
    pub fn metrics(&mut self) -> Option<&mut crate::metrics::MetricsRegistry> {
        self.metrics.as_deref_mut()
    }

    /// Adds `n` to a metrics counter (no-op without an enabled registry).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.add(name, n);
        }
    }

    /// Records a metrics histogram observation (no-op without an enabled
    /// registry).
    pub fn observe(&mut self, name: &'static str, value: u64) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.observe(name, value);
        }
    }

    /// The function being allocated.
    pub fn func(&self) -> &str {
        self.func
    }

    /// The current spill round.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Forwards one event to the sink.
    pub fn emit(&mut self, event: AllocEvent) {
        self.sink.emit(event);
    }

    /// Starts a wall-clock span iff the sink times phases or the metrics
    /// registry is enabled.
    pub fn span(&self) -> Option<Instant> {
        (self.sink.times_phases() || self.metrics_enabled()).then(Instant::now)
    }

    /// Ends a span started by [`TraceCtx::span`]: emits a [`PhaseSpan`]
    /// through a sink that times phases and observes the phase's
    /// wall-clock histogram in an enabled registry.
    pub fn span_end(&mut self, start: Option<Instant>, phase: Phase) {
        let Some(t) = start else { return };
        let micros = t.elapsed().as_micros() as u64;
        if self.sink.times_phases() {
            self.sink.emit(AllocEvent::Phase(PhaseSpan {
                func: self.func.to_string(),
                round: self.round,
                phase: phase.name().to_string(),
                micros,
            }));
        }
        if let Some(m) = self.metrics.as_deref_mut() {
            m.observe(phase.metric_name(), micros);
        }
    }
}

/// Starts a wall-clock span iff the sink wants events.
pub fn span_start(sink: &dyn AllocSink) -> Option<Instant> {
    sink.enabled().then(Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_decision() -> Decision {
        Decision {
            func: "main".into(),
            round: 1,
            node: 3,
            class: "int".into(),
            benefit_caller: 12.5,
            benefit_callee: -4.0,
            bs_key: "benefit_delta".into(),
            bs_value: Some(16.5),
            pref_votes: 2,
            pref_forced: false,
            loc: "$t1".into(),
            reason: "colored".into(),
        }
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let events = vec![
            AllocEvent::Phase(PhaseSpan {
                func: "f".into(),
                round: 2,
                phase: Phase::Simplify.name().into(),
                micros: 41,
            }),
            AllocEvent::Round(RoundStats {
                func: "f".into(),
                round: 2,
                nodes: 10,
                edges: 21,
                max_degree: 7,
            }),
            AllocEvent::Decision(sample_decision()),
            AllocEvent::Spill(SpillStats {
                func: "f".into(),
                round: 2,
                spilled: 3,
                inserted: 9,
                temps: 6,
            }),
            AllocEvent::Degraded(DegradedInfo {
                func: "f".into(),
                reason: "allocation of `f` did not converge in 60 rounds".into(),
            }),
            AllocEvent::Func(FuncSummary {
                func: "f".into(),
                rounds: 2,
                spilled_ranges: 3,
                callee_regs_used: 1,
                spill: 18.0,
                caller_save: 4.0,
                callee_save: 2.0,
                shuffle: 0.0,
            }),
            AllocEvent::Program(ProgramSummary {
                config: "SC+BS+PR".into(),
                funcs: 1,
                spill: 18.0,
                caller_save: 4.0,
                callee_save: 2.0,
                shuffle: 0.0,
                micros: 1234,
            }),
        ];
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let parsed = parse_jsonl(&text).expect("events parse back");
        assert_eq!(parsed, events);
    }

    #[test]
    fn serialized_events_carry_the_tag_first() {
        let e = AllocEvent::Decision(sample_decision());
        assert!(e.to_json().starts_with("{\"event\":\"decision\""));
        assert_eq!(e.tag(), "decision");
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(AllocEvent::from_json("{\"event\":\"nope\"}").is_err());
        assert!(AllocEvent::from_json("{\"round\":1}").is_err());
    }

    #[test]
    fn normalization_zeroes_only_wall_clock() {
        let phase = AllocEvent::Phase(PhaseSpan {
            func: "f".into(),
            round: 1,
            phase: "build".into(),
            micros: 99,
        });
        match phase.clone().normalized() {
            AllocEvent::Phase(p) => assert_eq!(p.micros, 0),
            _ => unreachable!(),
        }
        let d = AllocEvent::Decision(sample_decision());
        assert_eq!(d.clone().normalized(), d);
    }

    #[test]
    fn noop_sink_is_disabled() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        assert!(span_start(&sink).is_none());
    }

    #[test]
    fn recording_sink_collects_in_order() {
        let mut sink = RecordingSink::new();
        assert!(sink.enabled());
        let start = span_start(&sink);
        TraceCtx::new(&mut sink, "f", 1).span_end(start, Phase::Build);
        sink.emit(AllocEvent::Decision(sample_decision()));
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].tag(), "phase");
        assert_eq!(sink.events[1].tag(), "decision");
        let normalized = sink.normalized();
        match &normalized[0] {
            AllocEvent::Phase(p) => assert_eq!(p.micros, 0),
            _ => unreachable!(),
        }
    }

    /// A writer that fails after `ok_writes` successful writes.
    #[derive(Debug)]
    struct FlakyWriter {
        ok_writes: usize,
        buf: Vec<u8>,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok_writes -= 1;
            self.buf.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_counts_and_reports_write_errors() {
        // One `emit` is two writes (payload + newline): allow exactly the
        // first event through, then fail.
        let mut sink = JsonlSink::new(FlakyWriter {
            ok_writes: 2,
            buf: Vec::new(),
        });
        sink.emit(AllocEvent::Decision(sample_decision())); // succeeds
        sink.emit(AllocEvent::Decision(sample_decision())); // fails
        sink.emit(AllocEvent::Decision(sample_decision())); // fails
        assert_eq!(sink.write_errors(), 2);
        let err = sink.finish().expect_err("lost events surface at finish");
        assert!(
            err.to_string().contains("2 telemetry event(s)"),
            "error names the loss count: {err}"
        );
    }

    #[test]
    fn jsonl_sink_finish_is_clean_without_errors() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(AllocEvent::Decision(sample_decision()));
        assert_eq!(sink.write_errors(), 0);
        assert!(sink.finish().is_ok());
    }

    #[test]
    fn trace_ctx_spans_feed_metrics_without_a_sink() {
        let mut sink = NoopSink;
        let mut metrics = crate::metrics::MetricsRegistry::new();
        let mut tr = TraceCtx::with_metrics(&mut sink, &mut metrics, "f", 1);
        assert!(!tr.enabled());
        assert!(tr.metrics_enabled());
        let span = tr.span();
        assert!(span.is_some(), "metrics alone keep spans alive");
        tr.span_end(span, Phase::Build);
        tr.count("c", 2);
        tr.observe("h", 5);
        assert_eq!(
            metrics
                .histogram(Phase::Build.metric_name())
                .map(|h| h.count()),
            Some(1)
        );
        assert_eq!(metrics.counter("c"), 2);
    }

    #[test]
    fn trace_ctx_span_is_none_when_both_layers_are_off() {
        let mut sink = NoopSink;
        let mut metrics = crate::metrics::MetricsRegistry::disabled();
        let tr = TraceCtx::with_metrics(&mut sink, &mut metrics, "f", 1);
        assert!(tr.span().is_none());
        let tr2 = TraceCtx::new(&mut sink, "f", 1);
        assert!(tr2.span().is_none());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(AllocEvent::Decision(sample_decision()));
        sink.emit(AllocEvent::Round(RoundStats {
            func: "g".into(),
            round: 1,
            nodes: 2,
            edges: 1,
            max_degree: 1,
        }));
        let bytes = sink.finish().expect("writer flushes");
        let text = String::from_utf8(bytes).expect("output is utf-8");
        assert_eq!(text.lines().count(), 2);
        let parsed = parse_jsonl(&text).expect("lines parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], AllocEvent::Decision(sample_decision()));
    }
}
