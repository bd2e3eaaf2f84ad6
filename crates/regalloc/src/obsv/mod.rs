//! The ops observatory: in-process time-series history and SLO alerting
//! over the serving stack's live metrics.
//!
//! Everything the service exports today is a point-in-time value — a
//! cumulative counter, the current queue depth, a whole-run histogram.
//! The observatory gives those numbers a memory and a judgement:
//!
//! * [`Observatory::tick`] snapshots a [`MetricsRegistry`] and differences
//!   it against the previous snapshot (via the registry's
//!   [`CounterSnapshot`]/[`HistogramSnapshot`] helpers), pushing
//!   per-interval **rates** (`rate:<counter>`), raw **gauges**
//!   (`gauge:<name>`), interval **quantiles** (`p50:<histogram>`,
//!   `p99:<histogram>` — so per-priority e2e p50/p99 come for free), and
//!   **derived** series: queue-delay mean, **queue-delay slope** (a
//!   windowed least-squares regression, the input ROADMAP item 3's
//!   gradient limiter wants), short/long-window SLO burn rates, and the
//!   cache hit rate — into the bounded rings of [`series::SeriesStore`].
//! * The [`alerts::AlertEngine`] then evaluates declarative rules
//!   (threshold and multiwindow burn-rate, with hysteresis and a
//!   pending → firing → resolved state machine) against the freshest
//!   points, keeps each transition in its bounded log (served at
//!   `/alerts`) and returns the tick's transitions.
//!
//! **Ticks come from readers.** No thread samples in the background: the
//! status routes that read the observatory (`/healthz`, `/alerts`,
//! `/history`) and [`BatchHandle::obsv_tick`] each call
//! [`Observatory::tick`], which samples only when [`RAW_INTERVAL_US`] has
//! passed since the last sample, checking and sampling under one lock so
//! concurrent readers at one instant make exactly one tick. A health
//! checker or scraper polling at least every 2 s therefore produces the
//! full 2 s history. Between reads nothing is sampled; the next tick's
//! rates still cover the whole gap, because each rate divides by the
//! measured interval, but the burn windows count ticks, not seconds, so
//! after a long silence they span more wall time.
//!
//! **Determinism quarantine.** The observatory only ever *reads* service
//! state; nothing it computes feeds back into allocation, scheduling, or
//! admission. Sampling and alerting on or off, early or late, can change
//! what `/history` and `/alerts` say — never a single byte of allocator
//! output. (The byte-determinism oracle runs with the observatory
//! ticking from a reader thread to hold that claim to measure.) Time
//! itself is injected through [`Clock`], so tests and the chaos harness
//! drive ticks with a [`ManualClock`] and get bit-identical series and
//! alert timelines.
//!
//! The shape of the history and of the alert windows is fixed by the
//! constants below ([`RAW_INTERVAL_US`] through [`ALERT_LOG_CAPACITY`]);
//! [`ObsvConfig`] only chooses the SLO and the clock. A service without
//! an observatory simply has none
//! ([`BatchConfig::obsv`](crate::BatchConfig::obsv) is `None`).
//!
//! [`BatchHandle::obsv_tick`]: crate::BatchHandle::obsv_tick

pub mod alerts;
pub mod series;

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::json::Value;

use crate::metrics::{CounterSnapshot, HistogramSnapshot, MetricsRegistry};

pub use alerts::{
    AlertCondition, AlertEngine, AlertRule, AlertRuleStats, AlertState, AlertTransition,
};
pub use series::{slope_per_second, SeriesPoint, SeriesStore};

/// The histogram the SLO burn rate classifies (the batch service's
/// end-to-end latency histogram).
pub const E2E_HISTOGRAM: &str = "batch_e2e_micros";
/// The histogram queue-delay series derive from.
pub const QUEUE_WAIT_HISTOGRAM: &str = "batch_queue_wait_micros";

/// Derived series: per-interval mean queue wait, microseconds.
pub const SERIES_QUEUE_DELAY_MEAN: &str = "derived:queue_delay_mean_us";
/// Derived series: regression slope of the queue-delay mean, in
/// microseconds of added delay per second.
pub const SERIES_QUEUE_DELAY_SLOPE: &str = "derived:queue_delay_slope_us_per_s";
/// Derived series: short-window SLO burn rate.
pub const SERIES_BURN_SHORT: &str = "derived:e2e_burn_short";
/// Derived series: long-window SLO burn rate.
pub const SERIES_BURN_LONG: &str = "derived:e2e_burn_long";
/// Derived series: per-interval cache hit rate (1.0 when idle).
pub const SERIES_CACHE_HIT_RATE: &str = "derived:cache_hit_rate";

/// Default rule name: e2e-p99 SLO burn (critical).
pub const RULE_E2E_BURN: &str = "e2e_p99_slo_burn";
/// Default rule name: admission shed rate high.
pub const RULE_SHED_RATE: &str = "shed_rate_high";
/// Default rule name: queue delay trending up.
pub const RULE_QUEUE_DELAY_SLOPE: &str = "queue_delay_rising";
/// Default rule name: memo-cache hit rate collapsed.
pub const RULE_CACHE_COLLAPSE: &str = "cache_hit_collapse";

/// A monotonic microsecond clock the observatory reads instead of
/// `Instant::now()`, so tests and the chaos harness substitute a
/// [`ManualClock`] and make every tick timestamp (and therefore every
/// series point and alert transition) deterministic.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Microseconds since the clock's epoch. Must be monotone
    /// non-decreasing.
    fn now_us(&self) -> u64;
}

/// The production clock: microseconds since construction.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A hand-cranked clock for tests and the chaos harness: time advances
/// only when told to.
#[derive(Debug, Default)]
pub struct ManualClock {
    us: AtomicU64,
}

impl ManualClock {
    /// A clock reading 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// A clock reading `us`.
    pub fn at(us: u64) -> Self {
        ManualClock {
            us: AtomicU64::new(us),
        }
    }

    /// Sets the reading (should not go backwards).
    pub fn set(&self, us: u64) {
        self.us.store(us, Ordering::SeqCst);
    }

    /// Advances the reading by `us` and returns the new value.
    pub fn advance(&self, us: u64) -> u64 {
        self.us.fetch_add(us, Ordering::SeqCst) + us
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::SeqCst)
    }
}

/// Minimum microseconds between samples: a tick sooner than this after
/// the last one samples nothing.
pub const RAW_INTERVAL_US: u64 = 2_000_000;
/// Points retained per series (~5 minutes of 2 s ticks).
pub const RAW_CAPACITY: usize = 150;
/// Points in the queue-delay regression window.
pub const SLOPE_WINDOW: usize = 15;
/// Sample intervals in the short burn window.
pub const BURN_SHORT_WINDOW: usize = 5;
/// Sample intervals in the long burn window.
pub const BURN_LONG_WINDOW: usize = 30;
/// The SLO objective (fraction of requests that must be on time); the
/// error budget is `1 - SLO_OBJECTIVE`.
pub const SLO_OBJECTIVE: f64 = 0.99;
/// Bounded alert transition log size.
pub const ALERT_LOG_CAPACITY: usize = 64;

/// Observatory configuration. `Default` gives the production shape: a
/// 50 ms end-to-end SLO on the wall clock.
#[derive(Debug, Clone)]
pub struct ObsvConfig {
    /// The e2e latency SLO observations are classified against.
    pub e2e_slo_us: u64,
    /// The time source; tests and the chaos harness pass a
    /// [`ManualClock`] to make every tick deterministic.
    pub clock: Arc<dyn Clock>,
}

impl Default for ObsvConfig {
    fn default() -> Self {
        ObsvConfig {
            e2e_slo_us: 50_000,
            clock: Arc::new(WallClock::new()),
        }
    }
}

/// The alert set every observatory evaluates: e2e-p99 SLO burn
/// (critical), shed rate, queue delay slope, and cache hit-rate collapse.
/// [`RAW_INTERVAL_US`] scales the time-based pending/resolve windows;
/// `e2e_slo_us` scales the slope thresholds (delay growing at half the
/// SLO per second exhausts the whole budget within two ticks).
pub fn default_rules(e2e_slo_us: u64) -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: RULE_E2E_BURN.to_string(),
            condition: AlertCondition::BurnRate {
                short_series: SERIES_BURN_SHORT.to_string(),
                long_series: SERIES_BURN_LONG.to_string(),
                above: 2.0,
                clear_below: 1.0,
            },
            pending_us: 0,
            resolve_us: 0,
            critical: true,
        },
        AlertRule {
            name: RULE_SHED_RATE.to_string(),
            condition: AlertCondition::Above {
                series: "rate:batch_jobs_shed_total".to_string(),
                above: 1.0,
                clear_below: 0.1,
            },
            pending_us: 0,
            resolve_us: RAW_INTERVAL_US,
            critical: false,
        },
        AlertRule {
            name: RULE_QUEUE_DELAY_SLOPE.to_string(),
            condition: AlertCondition::Above {
                series: SERIES_QUEUE_DELAY_SLOPE.to_string(),
                above: e2e_slo_us as f64 / 2.0,
                clear_below: e2e_slo_us as f64 / 10.0,
            },
            pending_us: RAW_INTERVAL_US,
            resolve_us: RAW_INTERVAL_US,
            critical: false,
        },
        AlertRule {
            name: RULE_CACHE_COLLAPSE.to_string(),
            condition: AlertCondition::Below {
                series: SERIES_CACHE_HIT_RATE.to_string(),
                below: 0.5,
                clear_above: 0.8,
            },
            pending_us: 2 * RAW_INTERVAL_US,
            resolve_us: RAW_INTERVAL_US,
            critical: false,
        },
    ]
}

/// Everything behind the observatory's lock.
#[derive(Debug)]
struct Inner {
    store: SeriesStore,
    engine: AlertEngine,
    /// The previous registry snapshot; interval deltas difference against it.
    prev: Option<MetricsRegistry>,
    /// Per-interval `(over_slo, total)` e2e observation counts, newest
    /// last, bounded by the long burn window.
    burn: VecDeque<(u64, u64)>,
    last_tick_us: Option<u64>,
    ticks: u64,
}

/// The sampler + alert evaluator. Shared behind an `Arc` between the
/// batch service and its readers (the status server, a manual ticker);
/// every reader may tick it, and the interval gate keeps the history at
/// one point per [`RAW_INTERVAL_US`].
#[derive(Debug)]
pub struct Observatory {
    config: ObsvConfig,
    inner: Mutex<Inner>,
}

impl Observatory {
    /// An observatory evaluating [`default_rules`] for the configured SLO.
    pub fn new(config: ObsvConfig) -> Self {
        let inner = Inner {
            store: SeriesStore::new(),
            engine: AlertEngine::new(default_rules(config.e2e_slo_us)),
            prev: None,
            burn: VecDeque::new(),
            last_tick_us: None,
            ticks: 0,
        };
        Observatory {
            config,
            inner: Mutex::new(inner),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Samples the registry `scrape` returns and evaluates alerts if
    /// [`RAW_INTERVAL_US`] has passed since the last sample (the first
    /// tick always samples); otherwise does nothing and never calls
    /// `scrape`. The clock read, the due check, the scrape and the sample
    /// share one lock acquisition, so callers racing at one instant make
    /// exactly one tick and one scrape. Returns this tick's alert
    /// transitions (empty when it did not sample).
    pub fn tick(&self, scrape: impl FnOnce() -> MetricsRegistry) -> Vec<AlertTransition> {
        let mut inner = self.lock();
        let now = self.config.clock.now_us();
        if inner
            .last_tick_us
            .is_some_and(|t| now.saturating_sub(t) < RAW_INTERVAL_US)
        {
            return Vec::new();
        }
        inner.sample(now, scrape(), self.config.e2e_slo_us)
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.lock().ticks
    }

    /// All series names, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.lock().store.names()
    }

    /// A series' retained points, oldest first; `None` for a series that
    /// has never been sampled.
    pub fn history(&self, series: &str) -> Option<Vec<SeriesPoint>> {
        self.lock().store.history(series)
    }

    /// The `/history` response document for one series, or `None` when
    /// the series is unknown.
    pub fn history_value(&self, series: &str) -> Option<Value> {
        let points = self.history(series)?;
        Some(Value::Obj(vec![
            ("series".to_string(), Value::Str(series.to_string())),
            (
                "points".to_string(),
                Value::Arr(points.iter().map(SeriesPoint::to_value).collect()),
            ),
        ]))
    }

    /// The `/alerts` response document: rule states plus the recent
    /// transition log, with the tick count and series inventory.
    pub fn alerts_value(&self) -> Value {
        let inner = self.lock();
        let mut doc = match inner.engine.to_value() {
            Value::Obj(fields) => fields,
            _ => Vec::new(),
        };
        doc.insert(0, ("ticks".to_string(), Value::Int(inner.ticks as i64)));
        Value::Obj(doc)
    }

    /// The name of a critical rule currently firing, if any.
    pub fn critical_firing(&self) -> Option<String> {
        self.lock().engine.critical_firing().map(str::to_string)
    }

    /// A rule's current state by name.
    pub fn alert_state(&self, rule: &str) -> Option<AlertState> {
        self.lock().engine.state_of(rule)
    }

    /// Cumulative per-rule stats in rule order.
    pub fn alert_stats(&self) -> Vec<AlertRuleStats> {
        self.lock().engine.stats()
    }
}

impl Inner {
    fn sample(
        &mut self,
        now_us: u64,
        scraped: MetricsRegistry,
        e2e_slo_us: u64,
    ) -> Vec<AlertTransition> {
        let metrics = &scraped;
        let empty = MetricsRegistry::new();
        let prev = self.prev.as_ref().unwrap_or(&empty);
        // Interval length for rate math: the measured gap since the last
        // tick (at least the gate's interval, however long nobody read);
        // the first tick uses the nominal interval (its deltas cover
        // "everything so far").
        let interval_us = match self.last_tick_us {
            Some(t) => now_us.saturating_sub(t),
            None => RAW_INTERVAL_US,
        };
        let secs = interval_us as f64 / 1_000_000.0;

        // Counters → per-second rates.
        for (name, _) in metrics.counters() {
            let delta = CounterSnapshot::of(metrics, name).delta(&CounterSnapshot::of(prev, name));
            self.store
                .push(&format!("rate:{name}"), now_us, delta as f64 / secs);
        }
        // Gauges pass through.
        for (name, value) in metrics.gauges() {
            self.store.push(&format!("gauge:{name}"), now_us, value);
        }
        // Histograms → interval p50/p99 (held at the previous value over
        // intervals with no observations, so quiet periods read as flat
        // rather than as zero-latency).
        for (name, _) in metrics.histograms() {
            let delta =
                HistogramSnapshot::of(metrics, name).delta(&HistogramSnapshot::of(prev, name));
            for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
                let series = format!("{label}:{name}");
                let value = if delta.count() > 0 {
                    delta.quantile(q) as f64
                } else {
                    self.store.latest(&series).map(|p| p.value).unwrap_or(0.0)
                };
                self.store.push(&series, now_us, value);
            }
        }

        // Queue-delay mean (exact, from delta sum/count) and its slope.
        let qw = HistogramSnapshot::of(metrics, QUEUE_WAIT_HISTOGRAM)
            .delta(&HistogramSnapshot::of(prev, QUEUE_WAIT_HISTOGRAM));
        let mean = if qw.count() > 0 {
            qw.mean()
        } else {
            self.store
                .latest(SERIES_QUEUE_DELAY_MEAN)
                .map(|p| p.value)
                .unwrap_or(0.0)
        };
        self.store.push(SERIES_QUEUE_DELAY_MEAN, now_us, mean);
        let slope = slope_per_second(&self.store.tail(SERIES_QUEUE_DELAY_MEAN, SLOPE_WINDOW));
        self.store.push(SERIES_QUEUE_DELAY_SLOPE, now_us, slope);

        // SLO burn over short and long windows. `count_over` undercounts
        // by at most the bucket straddling the SLO (a factor of two),
        // which biases burn *down* — the alert never fires on bucket
        // rounding alone.
        let e2e = HistogramSnapshot::of(metrics, E2E_HISTOGRAM)
            .delta(&HistogramSnapshot::of(prev, E2E_HISTOGRAM));
        let bad = e2e.count_over(e2e_slo_us);
        while self.burn.len() >= BURN_LONG_WINDOW {
            self.burn.pop_front();
        }
        self.burn.push_back((bad, e2e.count()));
        let burn_over = |window: usize| -> f64 {
            let (mut bad, mut total) = (0u64, 0u64);
            for &(b, t) in self.burn.iter().rev().take(window) {
                bad += b;
                total += t;
            }
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / (1.0 - SLO_OBJECTIVE)
            }
        };
        self.store
            .push(SERIES_BURN_SHORT, now_us, burn_over(BURN_SHORT_WINDOW));
        self.store
            .push(SERIES_BURN_LONG, now_us, burn_over(BURN_LONG_WINDOW));

        // Cache hit rate over the interval; an idle interval reads as
        // healthy (1.0) so the collapse alert can't fire on silence.
        let hits = CounterSnapshot::of(metrics, "cache_hits_total")
            .delta(&CounterSnapshot::of(prev, "cache_hits_total"));
        let misses = CounterSnapshot::of(metrics, "cache_misses_total")
            .delta(&CounterSnapshot::of(prev, "cache_misses_total"));
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            1.0
        } else {
            hits as f64 / lookups as f64
        };
        self.store.push(SERIES_CACHE_HIT_RATE, now_us, hit_rate);

        self.prev = Some(scraped);
        self.last_tick_us = Some(now_us);
        self.ticks += 1;
        self.engine.tick(now_us, &self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: u64 = RAW_INTERVAL_US;

    /// A manual-clock observatory with a 50 ms SLO.
    fn manual_obsv() -> (Arc<ManualClock>, Observatory) {
        let clock = Arc::new(ManualClock::new());
        let obsv = Observatory::new(ObsvConfig {
            clock: clock.clone() as Arc<dyn Clock>,
            e2e_slo_us: 50_000,
        });
        (clock, obsv)
    }

    #[test]
    fn fresh_observatory_has_no_history() {
        let (_clock, obsv) = manual_obsv();
        assert_eq!(obsv.ticks(), 0);
        assert!(obsv.series_names().is_empty());
        assert!(obsv.history("rate:c").is_none());
        assert!(obsv.critical_firing().is_none());
        assert_eq!(
            obsv.alert_state(RULE_E2E_BURN),
            Some(AlertState::Inactive),
            "the default rules are live from the start"
        );
    }

    #[test]
    fn rates_and_interval_quantiles_come_from_deltas() {
        let (clock, obsv) = manual_obsv();
        let mut m = MetricsRegistry::new();
        m.add("jobs_total", 10);
        m.observe("lat", 100);
        clock.set(TICK);
        obsv.tick(|| m.clone());
        // Second interval: +6 jobs over 2 seconds → rate 3/s; latency
        // observations move to ~1000 so the interval p50 tracks only the
        // new ones, not the cumulative distribution.
        m.add("jobs_total", 6);
        for _ in 0..10 {
            m.observe("lat", 1000);
        }
        clock.set(2 * TICK);
        obsv.tick(|| m.clone());
        let rate = obsv.history("rate:jobs_total").unwrap();
        assert_eq!(rate.len(), 2);
        assert!((rate[1].value - 3.0).abs() < 1e-9);
        assert_eq!(rate[1].ts_us, 2 * TICK);
        let p50 = obsv.history("p50:lat").unwrap();
        assert_eq!(p50[1].value, 1023.0, "interval p50, not cumulative");
        // A silent third interval holds the last quantile and zeroes the rate.
        clock.set(3 * TICK);
        obsv.tick(|| m.clone());
        let rate = obsv.history("rate:jobs_total").unwrap();
        assert_eq!(rate[2].value, 0.0);
        let p50 = obsv.history("p50:lat").unwrap();
        assert_eq!(p50[2].value, 1023.0, "held over the quiet interval");
    }

    #[test]
    fn tick_gates_on_the_sample_interval() {
        let (clock, obsv) = manual_obsv();
        let m = MetricsRegistry::new();
        clock.set(TICK);
        obsv.tick(|| m.clone());
        assert_eq!(obsv.ticks(), 1);
        // The same instant again, then not a full interval later: no tick.
        obsv.tick(|| m.clone());
        assert_eq!(obsv.ticks(), 1);
        clock.set(TICK + TICK / 2);
        obsv.tick(|| m.clone());
        assert_eq!(obsv.ticks(), 1);
        clock.set(2 * TICK);
        obsv.tick(|| m.clone());
        assert_eq!(obsv.ticks(), 2);
    }

    #[test]
    fn ticks_at_one_instant_scrape_once() {
        let (clock, obsv) = manual_obsv();
        clock.set(TICK);
        let scrapes = std::cell::Cell::new(0);
        for _ in 0..1000 {
            obsv.tick(|| {
                scrapes.set(scrapes.get() + 1);
                MetricsRegistry::new()
            });
        }
        assert_eq!(scrapes.get(), 1, "only the due tick scrapes");
        assert_eq!(obsv.ticks(), 1);
    }

    #[test]
    fn rising_queue_delay_pins_the_slope_series() {
        let (clock, obsv) = manual_obsv();
        let mut m = MetricsRegistry::new();
        // Synthetic rising-delay workload: each 2s tick observes one
        // queue wait whose value grows by exactly 10_000us per tick, so
        // the interval means rise 10_000us per 2s → slope 5_000 us/s.
        for i in 1..=20u64 {
            m.observe(QUEUE_WAIT_HISTOGRAM, 10_000 * i);
            clock.set(i * TICK);
            obsv.tick(|| m.clone());
        }
        let means = obsv.history(SERIES_QUEUE_DELAY_MEAN).unwrap();
        assert_eq!(means.last().unwrap().value, 200_000.0, "exact delta mean");
        let slopes = obsv.history(SERIES_QUEUE_DELAY_SLOPE).unwrap();
        assert!(
            (slopes.last().unwrap().value - 5_000.0).abs() < 1e-6,
            "regression recovers the synthetic 5_000 us/s trend, got {}",
            slopes.last().unwrap().value
        );
        // 5_000 us/s < slo/2 = 25_000: the slope rule correctly stays
        // quiet on a trend that cannot exhaust the SLO between ticks.
        assert_eq!(
            obsv.alert_state(RULE_QUEUE_DELAY_SLOPE),
            Some(AlertState::Inactive)
        );
        // Steepen the trend past the threshold: +100_000us per tick
        // (50_000 us/s > 25_000) and hold it past the pending window.
        let mut last = 200_000;
        for i in 21..=30u64 {
            last += 100_000;
            m.observe(QUEUE_WAIT_HISTOGRAM, last);
            clock.set(i * TICK);
            obsv.tick(|| m.clone());
        }
        assert_eq!(
            obsv.alert_state(RULE_QUEUE_DELAY_SLOPE),
            Some(AlertState::Firing),
            "steep rising delay fires the slope rule"
        );
    }

    #[test]
    fn slo_burn_fires_during_overload_and_resolves_after_recovery() {
        let (clock, obsv) = manual_obsv();
        let mut m = MetricsRegistry::new();
        let mut now = 0;
        // Healthy traffic: everything far under the 50ms SLO.
        for _ in 0..3 {
            for _ in 0..20 {
                m.observe(E2E_HISTOGRAM, 1_000);
            }
            now += TICK;
            clock.set(now);
            assert!(
                obsv.tick(|| m.clone()).is_empty(),
                "no alerts while healthy"
            );
        }
        // Overload: a burst of observations far over the SLO. Both burn
        // windows heat immediately and the critical rule fires this tick.
        for _ in 0..50 {
            m.observe(E2E_HISTOGRAM, 1_000_000);
        }
        now += TICK;
        clock.set(now);
        let fired = obsv.tick(|| m.clone());
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        assert_eq!(fired[0].rule, RULE_E2E_BURN);
        assert_eq!(obsv.critical_firing().as_deref(), Some(RULE_E2E_BURN));
        // Recovery: on-time completions. The short window cools once the
        // storm interval ages out of it; the alert then resolves.
        let mut resolved = false;
        for _ in 0..10 {
            for _ in 0..20 {
                m.observe(E2E_HISTOGRAM, 1_000);
            }
            now += TICK;
            clock.set(now);
            for t in obsv.tick(|| m.clone()) {
                if t.rule == RULE_E2E_BURN && !t.fired {
                    resolved = true;
                }
            }
        }
        assert!(resolved, "burn alert resolves after recovery");
        assert!(obsv.critical_firing().is_none());
        let stats = obsv
            .alert_stats()
            .into_iter()
            .find(|s| s.rule == RULE_E2E_BURN)
            .unwrap();
        assert_eq!(stats.fires, 1);
        assert!(stats.worst_value > 2.0);
        assert!(stats.time_to_clear_us > 0);
        // The whole episode is visible in the burn series.
        let short = obsv.history(SERIES_BURN_SHORT).unwrap();
        assert!(short.iter().any(|p| p.value > 2.0));
        assert_eq!(short.last().unwrap().value, 0.0);
    }

    #[test]
    fn alerts_value_and_history_value_render_json_documents() {
        let (clock, obsv) = manual_obsv();
        let mut m = MetricsRegistry::new();
        m.add("c", 1);
        clock.set(TICK);
        obsv.tick(|| m.clone());
        let doc = obsv.alerts_value();
        assert_eq!(doc.get("ticks").and_then(Value::as_i64), Some(1));
        assert!(doc.get("rules").is_some());
        let hist = obsv.history_value("rate:c").expect("known series");
        assert_eq!(hist.get("series").and_then(Value::as_str), Some("rate:c"));
        let parsed = serde::json::parse(&hist.to_json()).expect("valid JSON");
        assert!(parsed.get("points").is_some());
        assert!(obsv.history_value("rate:nope").is_none());
        // The default series inventory includes every derived series.
        let names = obsv.series_names();
        for s in [
            SERIES_QUEUE_DELAY_MEAN,
            SERIES_QUEUE_DELAY_SLOPE,
            SERIES_BURN_SHORT,
            SERIES_BURN_LONG,
            SERIES_CACHE_HIT_RATE,
        ] {
            assert!(names.iter().any(|n| n == s), "missing {s}");
        }
    }
}
