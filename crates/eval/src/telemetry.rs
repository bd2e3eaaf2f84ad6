//! Summaries of allocation-telemetry event streams.
//!
//! The `trace` binary emits the event stream of
//! [`ccra_regalloc::allocate_program_instrumented`] as JSON Lines — plain
//! [`AllocEvent`]s, one per line, readable back with
//! [`ccra_regalloc::trace::parse_jsonl`] — and prints the per-phase
//! wall-clock totals from here as a human-readable footer. The stream's
//! closing `program` event carries the deterministic weighted-overhead
//! total, which the tier-1 work-count gate pins exactly.

use ccra_regalloc::trace::AllocEvent;

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

#[cfg(test)]
mod tests {
    use super::*;
    use ccra_regalloc::trace::PhaseSpan;

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
