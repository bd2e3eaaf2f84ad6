//! Exact statistics over raw samples, and the open-loop dispatch clock.
//!
//! Every percentile here is a nearest-rank percentile of the raw samples —
//! never a histogram bucket bound — so a 10% shift in a tail is visible as
//! a 10% shift in the number.

use std::time::{Duration, Instant};

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted`: the sample at 1-based rank `ceil(p/100 * n)`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products such as 0.95 * 200 from rounding up
    // to the next rank through floating-point error.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// The percentiles a tail is reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_CANDIDATES`] that has at least ten
/// samples beyond it among `n`, or `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// A sample set with its ordered view.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// The number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The nearest-rank percentile (0 when empty).
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.values, p)
    }
}

/// The median (the mean of the two middle values for an even count), 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quartiles(values)[1]
    }
}

/// One block of a run: its latency samples and the work it completed in
/// how much busy time.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Latency samples.
    pub lat: Samples,
    /// Work completed (instructions allocated).
    pub work: f64,
    /// Time spent completing it, seconds.
    pub busy_s: f64,
}

/// Samples in consecutive blocks. A workload closes a block at a natural
/// boundary — a few passes over its inputs, a second of arrivals, a flood
/// round — and reports medians over blocks of each block's exact
/// statistic, so a burst of interference from outside the program moves a
/// few blocks rather than the result.
#[derive(Debug, Clone, Default)]
pub struct Blocks {
    done: Vec<Block>,
    cur: Block,
}

impl Blocks {
    /// No blocks yet.
    pub fn new() -> Self {
        Blocks::default()
    }

    /// Adds one operation to the open block.
    pub fn push(&mut self, lat: f64, work: f64, busy_s: f64) {
        self.cur.lat.push(lat);
        self.cur.work += work;
        self.cur.busy_s += busy_s;
    }

    /// Closes the open block, if it holds anything.
    pub fn close(&mut self) {
        if !self.cur.lat.is_empty() {
            self.done.push(std::mem::take(&mut self.cur));
        }
    }

    /// Closed blocks.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no block was closed.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// The median over blocks of each block's nearest-rank `p`-th
    /// percentile latency.
    pub fn percentile(&mut self, p: f64) -> f64 {
        let per: Vec<f64> = self.done.iter_mut().map(|b| b.lat.percentile(p)).collect();
        median(&per)
    }

    /// The median over blocks of each block's work per busy second.
    pub fn rate(&self) -> f64 {
        let per: Vec<f64> = self
            .done
            .iter()
            .map(|b| b.work / b.busy_s.max(f64::MIN_POSITIVE))
            .collect();
        median(&per)
    }

    /// Every latency sample of every closed block.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::new();
        for b in &self.done {
            for &v in &b.lat.values {
                all.push(v);
            }
        }
        all
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method): the first quartile, the median and the third quartile.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// A clock the open-loop generator reads and sleeps on. Tests substitute a
/// synthetic one, so due-time accounting is checked without real time.
pub trait Clock {
    /// Microseconds since the clock's epoch.
    fn now_us(&mut self) -> u64;
    /// Blocks until `t_us`; returns at once when `t_us` has passed.
    fn sleep_until_us(&mut self, t_us: u64);
}

/// The wall clock, its epoch at construction.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_us(&mut self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn sleep_until_us(&mut self, t_us: u64) {
        let now = self.now_us();
        if t_us > now {
            std::thread::sleep(Duration::from_micros(t_us - now));
        }
    }
}

/// When one open-loop request was due and when its submission ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// When the schedule said to send it.
    pub due_us: u64,
    /// When the submit call started.
    pub start_us: u64,
    /// When the submit call returned.
    pub end_us: u64,
}

impl Dispatch {
    /// How late the generator sent this request.
    pub fn lag_us(&self) -> u64 {
        self.start_us.saturating_sub(self.due_us)
    }

    /// How long the submit call blocked.
    pub fn submit_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// The request's latency measured from when it was due: the
    /// generator's lateness plus the service's own submit-to-reply time.
    /// A stall that delays later submissions is charged to every request
    /// it delayed, not hidden by timing each from its actual send.
    pub fn latency_from_due_us(&self, service_e2e_us: u64) -> u64 {
        self.lag_us() + service_e2e_us
    }
}

/// Sends request `i` at `due_us[i]` (microseconds on `clock`) whether or
/// not earlier requests have finished, calling `submit(i)` for each.
/// A submission that blocks makes the following ones late; the lateness is
/// recorded, not skipped.
pub fn drive_open_loop<C: Clock>(
    clock: &mut C,
    due_us: &[u64],
    mut submit: impl FnMut(usize, &mut C),
) -> Vec<Dispatch> {
    let mut out = Vec::with_capacity(due_us.len());
    for (i, &due) in due_us.iter().enumerate() {
        clock.sleep_until_us(due);
        let start_us = clock.now_us();
        submit(i, clock);
        let end_us = clock.now_us();
        out.push(Dispatch {
            due_us: due,
            start_us,
            end_us,
        });
    }
    out
}

/// Cumulative due times (microseconds from the phase start) from
/// inter-arrival gaps, truncated at `horizon_us`.
pub fn due_times(gaps_us: &[u64], horizon_us: u64) -> Vec<u64> {
    let mut t = 0u64;
    let mut out = Vec::new();
    for &g in gaps_us {
        t += g;
        if t >= horizon_us {
            break;
        }
        out.push(t);
    }
    out
}
