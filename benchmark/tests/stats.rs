//! Exact percentiles, the tail rule, Python-compatible quartiles, due-time
//! lateness accounting on a synthetic clock, and span self time.

use ccra_benchmark::stats::{
    drive_open_loop, due_times, percentile, quartiles, rank, tail_percentile, Clock, Samples,
};

#[test]
fn percentiles_are_nearest_rank_over_raw_samples() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 95.0), 95.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.5), 1.0, "the lowest rank is 1");
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 50.0), 5.0);
    assert_eq!(percentile(&ten, 95.0), 10.0);
    // Exact products do not round up a rank.
    assert_eq!(rank(200, 95.0), 190);
    assert_eq!(rank(1000, 99.9), 999);
    // A sample is reported as measured, not as a bucket bound.
    let mut s = Samples::new();
    for x in [4.2, 0.3, 9.7, 1.1] {
        s.push(x);
    }
    assert_eq!(s.percentile(50.0), 1.1);
    assert_eq!(s.percentile(75.0), 4.2);
    assert_eq!(s.len(), 4);
}

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(999), Some(95.0), "p99 would leave 9 beyond");
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(39), None);
    assert_eq!(tail_percentile(0), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    assert_eq!(
        quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]),
        [20.0, 40.0, 60.0]
    );
    assert_eq!(quartiles(&[7.0]), [7.0; 3]);
}

/// A clock that only moves when told to.
struct SimClock {
    now: u64,
}

impl Clock for SimClock {
    fn now_us(&mut self) -> u64 {
        self.now
    }

    fn sleep_until_us(&mut self, t_us: u64) {
        self.now = self.now.max(t_us);
    }
}

#[test]
fn a_stall_is_charged_to_every_request_it_delays() {
    let due = [0, 1000, 2000, 3000, 10_000];
    let mut clock = SimClock { now: 0 };
    // Every submit takes 10 µs except request 1, which blocks 5 ms on a
    // full queue.
    let d = drive_open_loop(&mut clock, &due, |i, c| {
        c.now += if i == 1 { 5000 } else { 10 };
    });
    let starts: Vec<u64> = d.iter().map(|x| x.start_us).collect();
    assert_eq!(starts, [0, 1000, 6000, 6010, 10_000]);
    let lags: Vec<u64> = d.iter().map(|x| x.lag_us()).collect();
    assert_eq!(lags, [0, 0, 4000, 3010, 0]);
    assert_eq!(d[1].submit_us(), 5000);
    // With a 500 µs service time, request 2 took 4.5 ms from when it was
    // due — timing it from its actual send would report 0.5 ms.
    assert_eq!(d[2].latency_from_due_us(500), 4500);
    assert_eq!(d[4].latency_from_due_us(500), 500);
}

#[test]
fn due_times_accumulate_gaps_up_to_the_horizon() {
    assert_eq!(due_times(&[5, 10, 0, 20, 100], 40), vec![5, 15, 15, 35]);
    assert!(due_times(&[50], 40).is_empty());
}

#[test]
fn self_time_subtracts_what_direct_children_cover() {
    use ccra_benchmark::spans::Tracer;
    let mut tr = Tracer::enabled();
    let parent = tr.record("request", 0.0, 100.0, None);
    let child = tr.record("queue", 10.0, 40.0, parent);
    tr.record("service", 50.0, 60.0, parent);
    // A grandchild counts against its own parent only.
    tr.record("probe", 15.0, 20.0, child);
    assert_eq!(tr.total_us("request"), 100.0);
    assert_eq!(tr.self_us("request"), 60.0);
    assert_eq!(tr.self_us("queue"), 25.0);
    assert_eq!(tr.self_us("service"), 10.0);
    let mut off = Tracer::disabled();
    assert_eq!(off.record("request", 0.0, 1.0, None), None);
    let s = off.start("build");
    assert_eq!(off.end(s), 0.0);
    assert!(off.spans().is_empty());
}
