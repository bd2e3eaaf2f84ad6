//! Fixed-size two-tier time-series storage for the observatory.
//!
//! Every sample tick pushes one [`SeriesPoint`] per series into a raw-tier
//! ring (nominal ~2s resolution); every [`DS_FACTOR`] raw pushes, their
//! mean lands in a downsampled ring (nominal ~30s resolution) stamped
//! with the last contributing raw timestamp. Both
//! rings are bounded — memory is fixed no matter how long the service
//! runs — and eviction is strictly oldest-first, so `history` always
//! returns a contiguous, time-ordered suffix of the series.
//!
//! The downsample accumulator is per-series but advances in lockstep
//! because the sampler pushes every series exactly once per tick; the
//! tiers therefore stay aligned across series without any global clock in
//! this module.

use std::collections::{BTreeMap, VecDeque};

use serde::json::Value;

use super::{DS_CAPACITY, DS_FACTOR, RAW_CAPACITY};

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

/// Which resolution tier of a series to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The full-resolution ring (one point per sample tick).
    Raw,
    /// The downsampled ring (one point per [`DS_FACTOR`] ticks).
    Downsampled,
}

impl Tier {
    /// Parses the `tier=` query value: `raw` or `ds`.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "raw" => Some(Tier::Raw),
            "ds" => Some(Tier::Downsampled),
            _ => None,
        }
    }

    /// The label used in URLs and dumps.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Raw => "raw",
            Tier::Downsampled => "ds",
        }
    }
}

/// A bounded ring of points, evicted oldest-first.
#[derive(Debug, Default)]
struct Ring {
    points: VecDeque<SeriesPoint>,
}

impl Ring {
    fn push(&mut self, capacity: usize, point: SeriesPoint) {
        while self.points.len() >= capacity {
            self.points.pop_front();
        }
        self.points.push_back(point);
    }
}

/// One series' storage: both tier rings plus the pending downsample
/// accumulator (values since the last downsampled point).
#[derive(Debug, Default)]
struct PerSeries {
    raw: Ring,
    ds: Ring,
    pending: Vec<f64>,
}

/// The observatory's series map: two bounded rings per series name,
/// [`RAW_CAPACITY`] raw and [`DS_CAPACITY`] downsampled points each.
#[derive(Debug, Default)]
pub struct SeriesStore {
    series: BTreeMap<String, PerSeries>,
}

impl SeriesStore {
    /// An empty store.
    pub fn new() -> Self {
        SeriesStore::default()
    }

    /// Appends one point to a series' raw ring, rolling the downsample
    /// accumulator into the downsampled ring when it fills.
    pub fn push(&mut self, name: &str, ts_us: u64, value: f64) {
        let per = self.series.entry(name.to_string()).or_default();
        per.raw.push(RAW_CAPACITY, SeriesPoint { ts_us, value });
        per.pending.push(value);
        if per.pending.len() >= DS_FACTOR {
            let mean = per.pending.iter().sum::<f64>() / per.pending.len() as f64;
            per.pending.clear();
            per.ds.push(DS_CAPACITY, SeriesPoint { ts_us, value: mean });
        }
    }

    /// All series names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// A series' retained points at a tier, oldest first. `None` when the
    /// series has never been pushed.
    pub fn history(&self, name: &str, tier: Tier) -> Option<Vec<SeriesPoint>> {
        let per = self.series.get(name)?;
        let ring = match tier {
            Tier::Raw => &per.raw,
            Tier::Downsampled => &per.ds,
        };
        Some(ring.points.iter().copied().collect())
    }

    /// The most recent raw point of a series, if any.
    pub fn latest(&self, name: &str) -> Option<SeriesPoint> {
        self.series.get(name)?.raw.points.back().copied()
    }

    /// The last `window` raw points of a series (fewer when the ring holds
    /// fewer), oldest first.
    pub fn tail(&self, name: &str, window: usize) -> Vec<SeriesPoint> {
        match self.series.get(name) {
            Some(per) => {
                let pts = &per.raw.points;
                let skip = pts.len().saturating_sub(window);
                pts.iter().skip(skip).copied().collect()
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
        let h = s.history("x", Tier::Raw).expect("series exists");
        assert_eq!(h.len(), RAW_CAPACITY, "raw tier holds exactly RAW_CAPACITY");
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
    fn downsampled_ring_retains_exactly_its_capacity() {
        // Three more groups than the ring holds: the first three means go.
        let groups = DS_CAPACITY as u64 + 3;
        let mut s = SeriesStore::new();
        for i in 0..groups * DS_FACTOR as u64 {
            s.push("x", i, i as f64);
        }
        let h = s.history("x", Tier::Downsampled).expect("series exists");
        assert_eq!(h.len(), DS_CAPACITY, "ds tier holds exactly DS_CAPACITY");
        // Group g holds g*F .. g*F+F-1, whose mean is g*F + (F-1)/2.
        let f = DS_FACTOR as f64;
        let mean = |g: u64| g as f64 * f + (f - 1.0) / 2.0;
        assert_eq!(h[0].value, mean(3));
        assert_eq!(h.last().expect("non-empty").value, mean(groups - 1));
    }

    #[test]
    fn downsample_points_align_to_the_last_contributing_raw_tick() {
        let f = DS_FACTOR as u64;
        let mut s = SeriesStore::new();
        for i in 1..=2 * f + 1 {
            s.push("x", 2_000_000 * i, i as f64);
        }
        let ds = s.history("x", Tier::Downsampled).expect("series exists");
        // Two full groups (ticks 1..=F and F+1..=2F); tick 2F+1 pending.
        let mid = |lo: u64| (lo + lo + f - 1) as f64 / 2.0;
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0], pt(2_000_000 * f, mid(1)));
        assert_eq!(ds[1], pt(2_000_000 * 2 * f, mid(f + 1)));
        // The pending value joins the next group, not a partial one.
        for i in 2 * f + 2..=3 * f {
            s.push("x", 2_000_000 * i, i as f64);
        }
        let ds = s.history("x", Tier::Downsampled).expect("series exists");
        assert_eq!(ds[2], pt(2_000_000 * 3 * f, mid(2 * f + 1)));
    }

    #[test]
    fn unknown_series_has_no_history() {
        let s = SeriesStore::new();
        assert!(s.history("nope", Tier::Raw).is_none());
        assert!(s.history("nope", Tier::Downsampled).is_none());
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
