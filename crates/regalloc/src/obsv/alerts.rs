//! The declarative alert engine: threshold and SLO burn-rate rules with
//! hysteresis and a pending → firing → resolved state machine.
//!
//! Rules are data ([`AlertRule`]), evaluated once per sample tick against
//! the latest points of the [`SeriesStore`](super::series::SeriesStore).
//! The state machine is deliberately boring:
//!
//! * **Inactive → Pending** the first tick the fire condition holds;
//! * **Pending → Firing** once it has held continuously for
//!   [`AlertRule::pending_us`] (zero fires on the same tick);
//! * **Pending → Inactive** the moment the fire condition lapses — a blip
//!   shorter than the pending window never pages;
//! * **Firing → Inactive** once the *clear* condition (a separate,
//!   stricter threshold — the hysteresis gap) has held continuously for
//!   [`AlertRule::resolve_us`]. Between the fire and clear thresholds the
//!   rule simply stays put, which is what suppresses flapping.
//!
//! Burn-rate rules follow the multiwindow SRE recipe: the rule reads a
//! short- and a long-window burn series (computed by the observatory from
//! per-interval over-SLO counts) and fires only when **both** exceed the
//! threshold — the long window proves real budget spend, the short window
//! proves it is still happening. The evaluated value is therefore
//! `min(short, long)`, which also makes clearing symmetric: as soon as
//! either window cools below the clear threshold the rule resolves.
//!
//! Every transition is returned to the caller (who records it into the
//! flight recorder) and kept in a bounded log for `/alerts`.

use std::collections::VecDeque;

use serde::json::Value;

use super::series::SeriesStore;
use super::ALERT_LOG_CAPACITY;

/// The fire/clear condition of a rule. Fire and clear thresholds differ
/// on purpose: the gap between them is the hysteresis band.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertCondition {
    /// Fires while `series`' latest raw value is strictly above `above`;
    /// clears while it is strictly below `clear_below`.
    Above {
        /// The series name to watch.
        series: String,
        /// Fire threshold (exclusive).
        above: f64,
        /// Clear threshold (exclusive, at or below `above`).
        clear_below: f64,
    },
    /// Fires while `series`' latest raw value is strictly below `below`;
    /// clears while it is strictly above `clear_above`.
    Below {
        /// The series name to watch.
        series: String,
        /// Fire threshold (exclusive).
        below: f64,
        /// Clear threshold (exclusive, at or above `below`).
        clear_above: f64,
    },
    /// SLO burn rate over two windows: fires while `min(short, long)` is
    /// strictly above `above` (i.e. both windows burn), clears while it
    /// is strictly below `clear_below`.
    BurnRate {
        /// The short-window burn series.
        short_series: String,
        /// The long-window burn series.
        long_series: String,
        /// Fire threshold on the smaller of the two burns (exclusive).
        above: f64,
        /// Clear threshold (exclusive).
        clear_below: f64,
    },
}

impl AlertCondition {
    /// Evaluates against the store's latest raw points. Returns
    /// `(fire_holds, clear_holds, observed_value)`; a missing series
    /// reads as "neither holds" with value 0 (never-pushed series must
    /// not fire or clear anything).
    fn eval(&self, store: &SeriesStore) -> (bool, bool, f64) {
        match self {
            AlertCondition::Above {
                series,
                above,
                clear_below,
            } => match store.latest(series) {
                Some(p) => (p.value > *above, p.value < *clear_below, p.value),
                None => (false, false, 0.0),
            },
            AlertCondition::Below {
                series,
                below,
                clear_above,
            } => match store.latest(series) {
                Some(p) => (p.value < *below, p.value > *clear_above, p.value),
                None => (false, false, 0.0),
            },
            AlertCondition::BurnRate {
                short_series,
                long_series,
                above,
                clear_below,
            } => match (store.latest(short_series), store.latest(long_series)) {
                (Some(s), Some(l)) => {
                    let v = s.value.min(l.value);
                    (v > *above, v < *clear_below, v)
                }
                _ => (false, false, 0.0),
            },
        }
    }

    /// A short human label for dumps.
    pub fn kind(&self) -> &'static str {
        match self {
            AlertCondition::Above { .. } => "above",
            AlertCondition::Below { .. } => "below",
            AlertCondition::BurnRate { .. } => "burn_rate",
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (appears in `/alerts`, `/healthz`, BENCH).
    pub name: String,
    /// When to fire and when to clear.
    pub condition: AlertCondition,
    /// How long the fire condition must hold continuously before the rule
    /// fires (0 = fire on the first violating tick).
    pub pending_us: u64,
    /// How long the clear condition must hold continuously before a
    /// firing rule resolves (0 = resolve on the first clearing tick).
    pub resolve_us: u64,
    /// Critical rules flip `/healthz` to 503 while firing.
    pub critical: bool,
}

/// Where a rule currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Fire condition not held (or never evaluated).
    Inactive,
    /// Fire condition holding, pending window not yet elapsed.
    Pending,
    /// Fired and not yet resolved.
    Firing,
}

impl AlertState {
    /// The label used in dumps.
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// What happened to a rule on a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Observatory-clock microseconds of the tick.
    pub ts_us: u64,
    /// Index of the rule in the engine's rule list.
    pub rule_index: usize,
    /// The rule's name.
    pub rule: String,
    /// `true` = fired, `false` = resolved.
    pub fired: bool,
    /// The observed value at the transition (for a resolve, the duration
    /// of the fire in microseconds is reported separately in stats).
    pub value: f64,
}

impl AlertTransition {
    /// Renders as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("ts_us".to_string(), Value::Int(self.ts_us as i64)),
            ("rule".to_string(), Value::Str(self.rule.clone())),
            (
                "event".to_string(),
                Value::Str(if self.fired { "fire" } else { "clear" }.to_string()),
            ),
            ("value".to_string(), Value::Float(self.value)),
        ])
    }
}

/// Cumulative per-rule stats, the BENCH `alerts` section's raw material.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRuleStats {
    /// The rule's name.
    pub rule: String,
    /// Current lifecycle state.
    pub state: AlertState,
    /// Whether the rule is critical.
    pub critical: bool,
    /// Most recently evaluated value.
    pub last_value: f64,
    /// Times the rule has fired.
    pub fires: u64,
    /// Worst (largest-magnitude violation) value observed while firing.
    pub worst_value: f64,
    /// Duration of the most recent completed fire→clear cycle, in
    /// microseconds (0 when the rule never resolved).
    pub time_to_clear_us: u64,
}

/// Per-rule mutable state.
#[derive(Debug)]
struct RuleRuntime {
    state: AlertState,
    pending_since_us: Option<u64>,
    clear_since_us: Option<u64>,
    fired_at_us: Option<u64>,
    last_value: f64,
    fires: u64,
    worst_value: f64,
    time_to_clear_us: u64,
}

impl RuleRuntime {
    fn new() -> Self {
        RuleRuntime {
            state: AlertState::Inactive,
            pending_since_us: None,
            clear_since_us: None,
            fired_at_us: None,
            last_value: 0.0,
            fires: 0,
            worst_value: 0.0,
            time_to_clear_us: 0,
        }
    }
}

/// The evaluator: rules, their runtimes, and a transition log bounded
/// at [`ALERT_LOG_CAPACITY`].
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    runtime: Vec<RuleRuntime>,
    log: VecDeque<AlertTransition>,
}

impl AlertEngine {
    /// An engine over a fixed rule list.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let runtime = rules.iter().map(|_| RuleRuntime::new()).collect();
        AlertEngine {
            rules,
            runtime,
            log: VecDeque::new(),
        }
    }

    /// Evaluates every rule against the store's latest points, advancing
    /// state machines. Returns the transitions that occurred this tick
    /// (also appended to the bounded log).
    pub fn tick(&mut self, now_us: u64, store: &SeriesStore) -> Vec<AlertTransition> {
        let mut out = Vec::new();
        for (i, (rule, rt)) in self.rules.iter().zip(self.runtime.iter_mut()).enumerate() {
            let (fire_holds, clear_holds, value) = rule.condition.eval(store);
            rt.last_value = value;
            match rt.state {
                AlertState::Inactive => {
                    if fire_holds {
                        rt.state = AlertState::Pending;
                        rt.pending_since_us = Some(now_us);
                    }
                }
                AlertState::Pending => {
                    if !fire_holds {
                        rt.state = AlertState::Inactive;
                        rt.pending_since_us = None;
                    }
                }
                AlertState::Firing => {
                    if value.abs() > rt.worst_value.abs() {
                        rt.worst_value = value;
                    }
                    if clear_holds {
                        let since = *rt.clear_since_us.get_or_insert(now_us);
                        if now_us.saturating_sub(since) >= rule.resolve_us {
                            rt.state = AlertState::Inactive;
                            rt.clear_since_us = None;
                            rt.time_to_clear_us =
                                now_us.saturating_sub(rt.fired_at_us.take().unwrap_or(now_us));
                            let t = AlertTransition {
                                ts_us: now_us,
                                rule_index: i,
                                rule: rule.name.clone(),
                                fired: false,
                                value,
                            };
                            out.push(t.clone());
                            Self::log_push(&mut self.log, t);
                        }
                    } else {
                        rt.clear_since_us = None;
                    }
                }
            }
            // Pending → Firing in the same tick the window elapses (and on
            // the entry tick itself when pending_us == 0).
            if rt.state == AlertState::Pending {
                let since = rt.pending_since_us.unwrap_or(now_us);
                if now_us.saturating_sub(since) >= rule.pending_us {
                    rt.state = AlertState::Firing;
                    rt.pending_since_us = None;
                    rt.clear_since_us = None;
                    rt.fired_at_us = Some(now_us);
                    rt.fires += 1;
                    if rt.fires == 1 || value.abs() > rt.worst_value.abs() {
                        rt.worst_value = value;
                    }
                    let t = AlertTransition {
                        ts_us: now_us,
                        rule_index: i,
                        rule: rule.name.clone(),
                        fired: true,
                        value,
                    };
                    out.push(t.clone());
                    Self::log_push(&mut self.log, t);
                }
            }
        }
        out
    }

    fn log_push(log: &mut VecDeque<AlertTransition>, t: AlertTransition) {
        while log.len() >= ALERT_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(t);
    }

    /// The name of some critical rule currently firing, if any (the first
    /// in rule order, for a deterministic `/healthz` body).
    pub fn critical_firing(&self) -> Option<&str> {
        self.rules
            .iter()
            .zip(self.runtime.iter())
            .find(|(r, rt)| r.critical && rt.state == AlertState::Firing)
            .map(|(r, _)| r.name.as_str())
    }

    /// A rule's current state by name.
    pub fn state_of(&self, rule: &str) -> Option<AlertState> {
        self.rules
            .iter()
            .zip(self.runtime.iter())
            .find(|(r, _)| r.name == rule)
            .map(|(_, rt)| rt.state)
    }

    /// Cumulative per-rule stats in rule order.
    pub fn stats(&self) -> Vec<AlertRuleStats> {
        self.rules
            .iter()
            .zip(self.runtime.iter())
            .map(|(r, rt)| AlertRuleStats {
                rule: r.name.clone(),
                state: rt.state,
                critical: r.critical,
                last_value: rt.last_value,
                fires: rt.fires,
                worst_value: rt.worst_value,
                time_to_clear_us: rt.time_to_clear_us,
            })
            .collect()
    }

    /// The `/alerts` document: per-rule states plus the recent transition
    /// log, oldest first.
    pub fn to_value(&self) -> Value {
        let rules = self
            .rules
            .iter()
            .zip(self.runtime.iter())
            .map(|(r, rt)| {
                Value::Obj(vec![
                    ("rule".to_string(), Value::Str(r.name.clone())),
                    (
                        "kind".to_string(),
                        Value::Str(r.condition.kind().to_string()),
                    ),
                    ("critical".to_string(), Value::Bool(r.critical)),
                    (
                        "state".to_string(),
                        Value::Str(rt.state.label().to_string()),
                    ),
                    ("value".to_string(), Value::Float(rt.last_value)),
                    ("fires".to_string(), Value::Int(rt.fires as i64)),
                    ("worst_value".to_string(), Value::Float(rt.worst_value)),
                    (
                        "time_to_clear_us".to_string(),
                        Value::Int(rt.time_to_clear_us as i64),
                    ),
                ])
            })
            .collect();
        let transitions = self.log.iter().map(AlertTransition::to_value).collect();
        Value::Obj(vec![
            ("rules".to_string(), Value::Arr(rules)),
            ("transitions".to_string(), Value::Arr(transitions)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: u64 = 2_000_000;

    fn above_rule(pending_us: u64, resolve_us: u64) -> AlertRule {
        AlertRule {
            name: "hot".to_string(),
            condition: AlertCondition::Above {
                series: "x".to_string(),
                above: 10.0,
                clear_below: 5.0,
            },
            pending_us,
            resolve_us,
            critical: true,
        }
    }

    /// Drives one engine tick with `value` as the series' newest point.
    fn drive(
        engine: &mut AlertEngine,
        store: &mut SeriesStore,
        now_us: u64,
        value: f64,
    ) -> Vec<AlertTransition> {
        store.push("x", now_us, value);
        engine.tick(now_us, store)
    }

    #[test]
    fn pending_window_not_yet_elapsed_suppresses_the_fire() {
        let mut store = SeriesStore::new();
        let mut engine = AlertEngine::new(vec![above_rule(5_000_000, 0)]);
        // Violating, but only for two ticks (4s) of a 5s pending window.
        assert!(drive(&mut engine, &mut store, 0, 50.0).is_empty());
        assert_eq!(engine.state_of("hot"), Some(AlertState::Pending));
        assert!(drive(&mut engine, &mut store, TICK, 50.0).is_empty());
        assert_eq!(engine.state_of("hot"), Some(AlertState::Pending));
        // The blip ends before the window elapses: straight back to
        // inactive, no transition ever logged.
        assert!(drive(&mut engine, &mut store, 2 * TICK, 1.0).is_empty());
        assert_eq!(engine.state_of("hot"), Some(AlertState::Inactive));
        assert_eq!(engine.stats()[0].fires, 0);
        assert!(engine.critical_firing().is_none());
        // Held long enough, it fires exactly when the window elapses:
        // pending since t=3 ticks (6s), 5s window → first tick at or past
        // 11s is t=6 ticks (12s).
        for (i, t) in [3u64, 4, 5, 6].iter().enumerate() {
            let out = drive(&mut engine, &mut store, *t * TICK, 50.0);
            if i < 3 {
                assert!(out.is_empty(), "tick {i} still pending");
            } else {
                assert_eq!(out.len(), 1);
                assert!(out[0].fired);
            }
        }
        assert_eq!(engine.state_of("hot"), Some(AlertState::Firing));
        assert_eq!(engine.critical_firing(), Some("hot"));
    }

    #[test]
    fn hysteresis_band_suppresses_flapping() {
        let mut store = SeriesStore::new();
        let mut engine = AlertEngine::new(vec![above_rule(0, 0)]);
        let out = drive(&mut engine, &mut store, 0, 50.0);
        assert_eq!(out.len(), 1, "pending_us=0 fires on the first tick");
        // Oscillating inside the hysteresis band (5.0 .. 10.0): the rule
        // neither clears nor re-fires, no matter how long it bounces.
        for t in 1..20u64 {
            let v = if t % 2 == 0 { 6.0 } else { 9.0 };
            assert!(drive(&mut engine, &mut store, t * TICK, v).is_empty());
            assert_eq!(engine.state_of("hot"), Some(AlertState::Firing));
        }
        assert_eq!(engine.stats()[0].fires, 1, "no flap re-fires");
        // Only dropping below the clear threshold resolves it.
        let out = drive(&mut engine, &mut store, 20 * TICK, 1.0);
        assert_eq!(out.len(), 1);
        assert!(!out[0].fired);
        assert_eq!(engine.state_of("hot"), Some(AlertState::Inactive));
        assert_eq!(engine.stats()[0].time_to_clear_us, 20 * TICK);
    }

    #[test]
    fn resolve_needs_the_clear_window_then_the_rule_can_refire() {
        let mut store = SeriesStore::new();
        // resolve_us = 2 ticks worth.
        let mut engine = AlertEngine::new(vec![above_rule(0, 2 * TICK)]);
        assert_eq!(drive(&mut engine, &mut store, 0, 99.0).len(), 1);
        // Clear condition holds but the resolve window hasn't elapsed.
        assert!(drive(&mut engine, &mut store, TICK, 1.0).is_empty());
        assert_eq!(engine.state_of("hot"), Some(AlertState::Firing));
        // A re-violation resets the clear window.
        assert!(drive(&mut engine, &mut store, 2 * TICK, 50.0).is_empty());
        assert!(drive(&mut engine, &mut store, 3 * TICK, 1.0).is_empty());
        assert!(drive(&mut engine, &mut store, 4 * TICK, 1.0).is_empty());
        // Now the clear has held 2 full ticks (t=3..t=5): resolves.
        let out = drive(&mut engine, &mut store, 5 * TICK, 1.0);
        assert_eq!(out.len(), 1);
        assert!(!out[0].fired);
        // And the rule can fire again from scratch.
        let out = drive(&mut engine, &mut store, 6 * TICK, 77.0);
        assert_eq!(out.len(), 1);
        assert!(out[0].fired);
        let stats = &engine.stats()[0];
        assert_eq!(stats.fires, 2);
        assert!((stats.worst_value - 99.0).abs() < 1e-9);
        assert_eq!(stats.time_to_clear_us, 5 * TICK);
    }

    #[test]
    fn burn_rate_needs_both_windows_hot_and_either_cool_to_clear() {
        let rule = AlertRule {
            name: "burn".to_string(),
            condition: AlertCondition::BurnRate {
                short_series: "s".to_string(),
                long_series: "l".to_string(),
                above: 2.0,
                clear_below: 1.0,
            },
            pending_us: 0,
            resolve_us: 0,
            critical: true,
        };
        let mut store = SeriesStore::new();
        let mut engine = AlertEngine::new(vec![rule]);
        // Only the short window hot: min() stays low, no fire.
        store.push("s", 0, 30.0);
        store.push("l", 0, 0.5);
        assert!(engine.tick(0, &store).is_empty());
        // Both hot: fires.
        store.push("s", TICK, 30.0);
        store.push("l", TICK, 10.0);
        let out = engine.tick(TICK, &store);
        assert_eq!(out.len(), 1);
        assert!(out[0].fired);
        assert!((out[0].value - 10.0).abs() < 1e-9);
        // Short cools below clear while long still hot: resolves.
        store.push("s", 2 * TICK, 0.0);
        store.push("l", 2 * TICK, 8.0);
        let out = engine.tick(2 * TICK, &store);
        assert_eq!(out.len(), 1);
        assert!(!out[0].fired);
    }

    #[test]
    fn missing_series_neither_fires_nor_clears() {
        let mut store = SeriesStore::new();
        let mut engine = AlertEngine::new(vec![above_rule(0, 0)]);
        assert!(engine.tick(0, &store).is_empty());
        assert_eq!(engine.state_of("hot"), Some(AlertState::Inactive));
        // Fire normally, then stop pushing the series: stays firing.
        drive(&mut engine, &mut store, TICK, 50.0);
        assert_eq!(engine.state_of("hot"), Some(AlertState::Firing));
    }

    #[test]
    fn transition_log_is_bounded() {
        let mut store = SeriesStore::new();
        let mut engine = AlertEngine::new(vec![above_rule(0, 0)]);
        let rounds = ALERT_LOG_CAPACITY as u64;
        for t in 0..rounds {
            // Alternate fire / clear every tick: twice the log's capacity.
            drive(&mut engine, &mut store, (2 * t) * TICK, 50.0);
            drive(&mut engine, &mut store, (2 * t + 1) * TICK, 1.0);
        }
        let doc = engine.to_value();
        let transitions = match doc.get("transitions") {
            Some(Value::Arr(a)) => a,
            other => panic!("transitions array expected, got {other:?}"),
        };
        assert_eq!(
            transitions.len(),
            ALERT_LOG_CAPACITY,
            "log keeps only the newest entries"
        );
        assert_eq!(engine.stats()[0].fires, rounds);
    }
}
