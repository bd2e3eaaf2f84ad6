//! Fixed-size time-series storage for the observatory.
//!
//! Every sample tick pushes one [`SeriesPoint`] per series into that
//! series' ring of [`RAW_CAPACITY`] points (one point per tick, nominally
//! 2 s apart). The ring is bounded — memory is fixed no matter how long
//! the service runs — and eviction is strictly oldest-first, so `history`
//! always returns a contiguous, time-ordered suffix of the series.

use std::collections::{BTreeMap, VecDeque};

use serde::json::Value;

use super::RAW_CAPACITY;

/// One observation: a timestamp (microseconds on the observatory's
/// injected clock) and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Microseconds since the observatory clock's epoch.
    pub ts_us: u64,
    /// The sampled or derived value.
    pub value: f64,
}

impl SeriesPoint {
    /// Renders as `{"ts_us": ..., "value": ...}`.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("ts_us".to_string(), Value::Int(self.ts_us as i64)),
            ("value".to_string(), Value::Float(self.value)),
        ])
    }
}

/// The observatory's series map: one ring of at most [`RAW_CAPACITY`]
/// points per series name, evicted oldest-first.
#[derive(Debug, Default)]
pub struct SeriesStore {
    series: BTreeMap<String, VecDeque<SeriesPoint>>,
}

impl SeriesStore {
    /// An empty store.
    pub fn new() -> Self {
        SeriesStore::default()
    }

    /// Appends one point to a series' ring, evicting the oldest point
    /// when the ring is full.
    pub fn push(&mut self, name: &str, ts_us: u64, value: f64) {
        let ring = self.series.entry(name.to_string()).or_default();
        while ring.len() >= RAW_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(SeriesPoint { ts_us, value });
    }

    /// All series names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// A series' retained points, oldest first. `None` when the series
    /// has never been pushed.
    pub fn history(&self, name: &str) -> Option<Vec<SeriesPoint>> {
        Some(self.series.get(name)?.iter().copied().collect())
    }

    /// The most recent point of a series, if any.
    pub fn latest(&self, name: &str) -> Option<SeriesPoint> {
        self.series.get(name)?.back().copied()
    }

    /// The last `window` points of a series (fewer when the ring holds
    /// fewer), oldest first.
    pub fn tail(&self, name: &str, window: usize) -> Vec<SeriesPoint> {
        match self.series.get(name) {
            Some(ring) => {
                let skip = ring.len().saturating_sub(window);
                ring.iter().skip(skip).copied().collect()
            }
            None => Vec::new(),
        }
    }
}

/// Least-squares slope of `value` against time, in value units per
/// *second* (timestamps are microseconds). Returns 0.0 for fewer than two
/// points or a degenerate (zero time spread) window — "no trend" is the
/// safe reading for an alert threshold in both cases.
pub fn slope_per_second(points: &[SeriesPoint]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    // Center timestamps on the window's first point to keep the sums
    // well-conditioned even with large microsecond epochs.
    let t0 = points[0].ts_us;
    let xs = points
        .iter()
        .map(|p| (p.ts_us - t0) as f64 / 1_000_000.0)
        .collect::<Vec<_>>();
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.value).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var = 0.0;
    for (x, p) in xs.iter().zip(points.iter()) {
        cov += (x - mean_x) * (p.value - mean_y);
        var += (x - mean_x) * (x - mean_x);
    }
    if var == 0.0 {
        0.0
    } else {
        cov / var
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(ts_us: u64, value: f64) -> SeriesPoint {
        SeriesPoint { ts_us, value }
    }

    #[test]
    fn raw_ring_retains_exactly_its_capacity() {
        let mut s = SeriesStore::new();
        let total = RAW_CAPACITY as u64 + 10;
        for i in 0..total {
            s.push("x", i * 1_000, i as f64);
        }
        let h = s.history("x").expect("series exists");
        assert_eq!(h.len(), RAW_CAPACITY, "the ring holds exactly RAW_CAPACITY");
        // Oldest-first contiguous suffix: the first ten ticks are gone.
        assert_eq!(
            h.iter().map(|p| p.value).collect::<Vec<_>>(),
            (10..total).map(|i| i as f64).collect::<Vec<_>>()
        );
        assert_eq!(h[0].ts_us, 10_000);
        let last = total - 1;
        assert_eq!(s.latest("x"), Some(pt(last * 1_000, last as f64)));
    }

    #[test]
    fn unknown_series_has_no_history() {
        let s = SeriesStore::new();
        assert!(s.history("nope").is_none());
        assert!(s.latest("nope").is_none());
        assert!(s.tail("nope", 5).is_empty());
        assert!(s.names().is_empty());
    }

    #[test]
    fn tail_returns_the_last_window_points_oldest_first() {
        let mut s = SeriesStore::new();
        for i in 0..6u64 {
            s.push("x", i, i as f64);
        }
        let t = s.tail("x", 3);
        assert_eq!(
            t.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![3.0, 4.0, 5.0]
        );
        assert_eq!(s.tail("x", 100).len(), 6);
    }

    #[test]
    fn slope_recovers_a_linear_trend_in_units_per_second() {
        // value rises 5 units per 1_000_000 us → slope 5.0 / s.
        let pts: Vec<SeriesPoint> = (0..10)
            .map(|i| pt(7_000_000 + i * 1_000_000, 100.0 + 5.0 * i as f64))
            .collect();
        assert!((slope_per_second(&pts) - 5.0).abs() < 1e-9);
        // Falling trend is negative.
        let pts: Vec<SeriesPoint> = (0..10)
            .map(|i| pt(i * 2_000_000, 100.0 - 3.0 * i as f64))
            .collect();
        assert!((slope_per_second(&pts) + 1.5).abs() < 1e-9);
        // Degenerate windows read as flat.
        assert_eq!(slope_per_second(&[]), 0.0);
        assert_eq!(slope_per_second(&[pt(0, 1.0)]), 0.0);
        assert_eq!(slope_per_second(&[pt(5, 1.0), pt(5, 9.0)]), 0.0);
        let flat: Vec<SeriesPoint> = (0..5).map(|i| pt(i * 1_000_000, 42.0)).collect();
        assert_eq!(slope_per_second(&flat), 0.0);
    }
}
