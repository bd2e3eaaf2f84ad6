//! A dependency-free scoped thread pool with per-worker deques and work
//! stealing.
//!
//! The pool exists for one job shape: a fixed batch of independent items,
//! each producing one result, with wildly varying per-item cost — exactly
//! what per-function register allocation looks like (the spill-everywhere
//! complexity results remind us that per-function worst cases differ by
//! orders of magnitude). Items are dealt round-robin onto per-worker
//! deques; a worker pops its own deque LIFO (newest first, for cache
//! warmth) and, when empty, steals FIFO from its neighbours (oldest first,
//! so the largest unstarted chunks migrate).
//!
//! Two properties the drivers build on:
//!
//! * **Deterministic results.** [`run_jobs`] returns outcomes indexed by
//!   item position, independent of which worker ran what and in which
//!   order. Scheduling nondeterminism is confined to [`PoolStats`] (and,
//!   when observing, to [`WorkerScratch`]).
//! * **Panic isolation.** A panicking job is caught ([`std::panic::catch_unwind`])
//!   and surfaces as [`JobOutcome::Panicked`] with the panic message; the
//!   worker and every sibling job keep running.
//!
//! With one worker (or one item) the pool runs inline on the calling
//! thread — no threads are spawned, so `workers = 1` costs only the
//! per-job `catch_unwind`.
//!
//! # Observation
//!
//! [`run_jobs_observed`] is the same scheduler with a telemetry tap: each
//! worker owns a [`WorkerScratch`] holding its timeline [`Lane`], written
//! with zero cross-thread contention and merged by the caller after the
//! pool joins; job, steal and steal-miss events also land in the flight
//! recorder. Those two records are the pool's only ones — the steal
//! count itself comes back on [`PoolStats`]. [`run_jobs`] delegates with a
//! disabled collector and recorder, so the unobserved path stays one
//! branch per event site. The pool never parks:
//! a worker that runs out of local work sweeps the other deques and exits
//! when the sweep comes up empty, so "idle" spans measure work-search
//! (steal-sweep and final-drain) time, not blocking.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::flightrec::{FlightKind, FlightRecorder, FlightView};
use super::timeline::{InstantKind, Lane, SpanKind, TimelineCollector};

/// What one job produced.
#[derive(Debug)]
pub enum JobOutcome<R> {
    /// The job ran to completion.
    Completed(R),
    /// The job panicked; the payload is the panic message (or a
    /// placeholder for non-string payloads).
    Panicked(String),
}

impl<R> JobOutcome<R> {
    /// The completed result, if the job did not panic.
    pub fn completed(self) -> Option<R> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            JobOutcome::Panicked(_) => None,
        }
    }
}

/// Scheduling statistics of one [`run_jobs`] batch.
///
/// Everything here is scheduling-dependent and therefore nondeterministic
/// across runs — it must never feed into allocation results or merged
/// metrics, only into diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads actually used (clamped to the item count).
    pub workers: usize,
    /// Jobs each worker executed (sums to the item count).
    pub jobs_per_worker: Vec<u64>,
    /// Jobs a worker took from another worker's deque.
    pub steals: u64,
}

/// One worker's private telemetry buffer, handed to the job closure and
/// returned (in worker-id order) by [`run_jobs_observed`].
///
/// It follows the lane discipline: exactly one worker writes a scratch,
/// so recording never contends, and everything gates on the collector's
/// enabled flag, so the disabled path performs no timing, no formatting,
/// and no allocation.
#[derive(Debug)]
pub struct WorkerScratch {
    /// The worker's timeline lane.
    pub lane: Lane,
    /// A label the job closure may set while running; the pool names the
    /// job's timeline span with it (falling back to `"job <index>"`) and
    /// clears it between jobs.
    pub job_label: Option<String>,
}

impl WorkerScratch {
    fn new(collector: &TimelineCollector, tid: u32) -> Self {
        WorkerScratch {
            lane: collector.lane(tid),
            job_label: None,
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job under `catch_unwind`, recording its span (named by
/// whatever label the closure left in the scratch) and its start/end
/// flight-recorder events.
fn run_one<T, R>(
    job: &(impl Fn(usize, &T, &mut WorkerScratch) -> R + Sync),
    index: usize,
    item: &T,
    scratch: &mut WorkerScratch,
    flight: FlightView<'_>,
) -> JobOutcome<R> {
    scratch.job_label = None;
    let tid = scratch.lane.tid();
    flight.record(tid, FlightKind::JobStart, index as u64, 0);
    let span = scratch.lane.start();
    let outcome = match catch_unwind(AssertUnwindSafe(|| job(index, item, &mut *scratch))) {
        Ok(r) => JobOutcome::Completed(r),
        Err(payload) => JobOutcome::Panicked(panic_message(payload)),
    };
    let label = scratch.job_label.take();
    let panicked = matches!(outcome, JobOutcome::Panicked(_));
    scratch.lane.end_span_detailed(
        span,
        SpanKind::Job,
        || label.unwrap_or_else(|| format!("job {index}")),
        || panicked.then(|| "panicked".to_string()),
    );
    let kind = if panicked {
        FlightKind::JobPanicked
    } else {
        FlightKind::JobOk
    };
    flight.record(tid, kind, index as u64, 0);
    outcome
}

/// Pops the worker's own deque (LIFO), reporting the depth left behind so
/// the caller can sample it as a counter series.
fn pop_own(deques: &[Mutex<VecDeque<usize>>], w: usize) -> (Option<usize>, usize) {
    let mut d = deques[w].lock().expect("pool deque lock");
    let popped = d.pop_back();
    (popped, d.len())
}

/// Sweeps the other workers' deques FIFO. Returns the stolen index and its
/// victim, or `None` when every deque is empty — jobs never enqueue new
/// jobs, so an empty sweep means the batch is drained.
fn steal_sweep(
    deques: &[Mutex<VecDeque<usize>>],
    w: usize,
    steals: &AtomicU64,
) -> Option<(usize, usize)> {
    let n = deques.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(i) = deques[victim].lock().expect("pool deque lock").pop_front() {
            steals.fetch_add(1, Ordering::Relaxed);
            return Some((i, victim));
        }
    }
    None
}

/// One worker's drain loop: pop own work, steal when dry, record the
/// scheduling facts on the worker's lane and in the flight recorder.
fn drain_worker<T, R>(
    deques: &[Mutex<VecDeque<usize>>],
    w: usize,
    steals: &AtomicU64,
    items: &[T],
    job: &(impl Fn(usize, &T, &mut WorkerScratch) -> R + Sync),
    scratch: &mut WorkerScratch,
    flight: FlightView<'_>,
) -> Vec<(usize, JobOutcome<R>)> {
    let worker_span = scratch.lane.start();
    let mut done = Vec::new();
    loop {
        let (own, depth) = pop_own(deques, w);
        scratch
            .lane
            .counter(|| format!("queue depth w{w}"), depth as u64);
        let index = match own {
            Some(i) => i,
            None => {
                // Own deque dry: the time from here until we find (or fail
                // to find) work elsewhere is the worker's idle span.
                let idle = scratch.lane.start();
                let stolen = steal_sweep(deques, w, steals);
                scratch
                    .lane
                    .end_span(idle, SpanKind::Idle, || "find work".to_string());
                match stolen {
                    Some((i, victim)) => {
                        flight.record(w as u32, FlightKind::Steal, i as u64, victim as u64);
                        scratch
                            .lane
                            .instant(InstantKind::Steal, || format!("steal <- w{victim}"));
                        i
                    }
                    None => {
                        flight.record(w as u32, FlightKind::StealMiss, w as u64, 0);
                        scratch
                            .lane
                            .instant(InstantKind::StealMiss, || "batch drained".to_string());
                        break;
                    }
                }
            }
        };
        done.push((index, run_one(job, index, &items[index], scratch, flight)));
    }
    scratch
        .lane
        .end_span(worker_span, SpanKind::Worker, || format!("worker {w}"));
    done
}

/// Runs `job` over every item on up to `workers` threads, returning one
/// [`JobOutcome`] per item **in item order** plus the batch's
/// [`PoolStats`].
///
/// The worker count is clamped to `[1, items.len()]`; at one worker the
/// batch runs inline on the calling thread. The outcome vector is
/// byte-for-byte independent of the worker count whenever `job` is a pure
/// function of `(index, item)`.
pub fn run_jobs<T, R, F>(workers: usize, items: &[T], job: F) -> (Vec<JobOutcome<R>>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let collector = TimelineCollector::disabled();
    let flight = FlightRecorder::disabled();
    let (outcomes, stats, _) = run_jobs_observed(
        workers,
        items,
        &collector,
        flight.view(0),
        |i, item, _scratch| job(i, item),
    );
    (outcomes, stats)
}

/// [`run_jobs`] with a telemetry tap: every worker records its scheduling
/// events into a private [`WorkerScratch`] created from `collector`, and
/// the scratches come back in worker-id order for the caller to merge.
///
/// The job closure receives its worker's scratch — to set
/// [`WorkerScratch::job_label`] or to record nested timeline spans on the
/// worker's lane. With a
/// [`TimelineCollector::disabled`] collector every recording site reduces
/// to one branch, which is how [`run_jobs`] keeps the unobserved path
/// inside the workers=1 overhead gate.
///
/// `flight` is the batch's always-on flight-recorder window: worker `w`
/// records job start/end, panic, and steal events on view lane `w`
/// (compact events, no allocation — see [`crate::driver::flightrec`]).
/// Pass a view of a [`FlightRecorder::disabled`] recorder to opt out at
/// one branch per event.
pub fn run_jobs_observed<T, R, F>(
    workers: usize,
    items: &[T],
    collector: &TimelineCollector,
    flight: FlightView<'_>,
    job: F,
) -> (Vec<JobOutcome<R>>, PoolStats, Vec<WorkerScratch>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut WorkerScratch) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        let mut scratch = WorkerScratch::new(collector, 0);
        let worker_span = scratch.lane.start();
        let outcomes = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                scratch.lane.counter(
                    || "queue depth w0".to_string(),
                    (items.len() - 1 - i) as u64,
                );
                run_one(&job, i, item, &mut scratch, flight)
            })
            .collect();
        scratch
            .lane
            .end_span(worker_span, SpanKind::Worker, || "worker 0".to_string());
        return (
            outcomes,
            PoolStats {
                workers: 1,
                jobs_per_worker: vec![items.len() as u64],
                steals: 0,
            },
            vec![scratch],
        );
    }

    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..items.len() {
        deques[i % workers]
            .lock()
            .expect("pool deque lock")
            .push_back(i);
    }
    let steals = AtomicU64::new(0);

    type WorkerDone<R> = (Vec<(usize, JobOutcome<R>)>, WorkerScratch);
    let per_worker: Vec<WorkerDone<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let steals = &steals;
                let job = &job;
                let mut scratch = WorkerScratch::new(collector, w as u32);
                scope.spawn(move || {
                    let done = drain_worker(deques, w, steals, items, job, &mut scratch, flight);
                    (done, scratch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool workers catch job panics"))
            .collect()
    });

    let jobs_per_worker = per_worker.iter().map(|(v, _)| v.len() as u64).collect();
    let mut scratches = Vec::with_capacity(workers);
    let mut outcomes: Vec<Option<JobOutcome<R>>> = (0..items.len()).map(|_| None).collect();
    for (done, scratch) in per_worker {
        scratches.push(scratch);
        for (i, outcome) in done {
            debug_assert!(outcomes[i].is_none(), "job {i} ran twice");
            outcomes[i] = Some(outcome);
        }
    }
    let outcomes = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| unreachable!("job {i} never ran")))
        .collect();
    (
        outcomes,
        PoolStats {
            workers,
            jobs_per_worker,
            steals: steals.into_inner(),
        },
        scratches,
    )
}

#[cfg(test)]
mod tests {
    use super::super::timeline::{Timeline, TimelineEvent};
    use super::*;

    #[test]
    fn results_arrive_in_item_order_at_every_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        for workers in [1, 2, 4, 8, 200] {
            let (outcomes, stats) = run_jobs(workers, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let got: Vec<u64> = outcomes
                .into_iter()
                .map(|o| o.completed().expect("no panic"))
                .collect();
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(stats.jobs_per_worker.iter().sum::<u64>(), 97);
            assert!(stats.workers <= 97);
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let items: Vec<u32> = Vec::new();
        let (outcomes, stats) = run_jobs(4, &items, |_, &x| x);
        assert!(outcomes.is_empty());
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn panics_are_isolated_per_job() {
        let items: Vec<u32> = (0..10).collect();
        let (outcomes, _) = run_jobs(4, &items, |_, &x| {
            if x == 3 {
                panic!("boom on {x}");
            }
            x + 1
        });
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                JobOutcome::Panicked(msg) => {
                    assert_eq!(i, 3);
                    assert!(msg.contains("boom on 3"), "{msg}");
                }
                JobOutcome::Completed(r) => assert_eq!(r, i as u32 + 1),
            }
        }
    }

    #[test]
    fn uneven_jobs_all_complete() {
        // One item is ~1000x the work of the rest; stealing (or not) must
        // never change the result vector.
        let items: Vec<u64> = (0..33).collect();
        let work = |_, &x: &u64| -> u64 {
            let spins = if x == 0 { 200_000 } else { 200 };
            (0..spins).fold(x, |acc, v| acc.wrapping_mul(31).wrapping_add(v))
        };
        let (serial, _) = run_jobs(1, &items, work);
        let (parallel, stats) = run_jobs(8, &items, work);
        let serial: Vec<u64> = serial.into_iter().map(|o| o.completed().unwrap()).collect();
        let parallel: Vec<u64> = parallel
            .into_iter()
            .map(|o| o.completed().unwrap())
            .collect();
        assert_eq!(serial, parallel);
        assert_eq!(stats.workers, 8);
        assert_eq!(stats.jobs_per_worker.iter().sum::<u64>(), 33);
    }

    #[test]
    fn disabled_collector_leaves_no_events_and_no_metrics() {
        let items: Vec<u32> = (0..16).collect();
        let collector = TimelineCollector::disabled();
        let flight = FlightRecorder::disabled();
        let (_, _, scratches) =
            run_jobs_observed(4, &items, &collector, flight.view(0), |_, &x, scratch| {
                assert!(!scratch.lane.enabled());
                x
            });
        assert_eq!(scratches.len(), 4);
        for s in scratches {
            assert!(s.lane.is_empty());
        }
        assert_eq!(flight.total_events(), 0);
    }

    #[test]
    fn observed_batches_record_job_spans_per_worker() {
        let items: Vec<u32> = (0..24).collect();
        let collector = TimelineCollector::enabled();
        let flight = FlightRecorder::new(4);
        let (outcomes, stats, scratches) =
            run_jobs_observed(4, &items, &collector, flight.view(0), |i, &x, scratch| {
                scratch.job_label = Some(format!("item {x}"));
                (0..500u64).fold(i as u64, |a, v| a.wrapping_add(v))
            });
        // Every job start/end landed in the flight recorder (plus however
        // many steal/miss events scheduling produced).
        assert!(flight.total_events() >= 48);
        assert_eq!(outcomes.len(), 24);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.jobs_per_worker.iter().sum::<u64>(), 24);
        assert_eq!(scratches.len(), 4);

        let timeline = Timeline::merge(
            4,
            scratches
                .into_iter()
                .map(|s| s.lane.into_events())
                .collect(),
        );
        assert_eq!(timeline.lane_ids(), vec![0, 1, 2, 3]);
        let job_spans = timeline
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TimelineEvent::Span {
                        kind: SpanKind::Job,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(job_spans, 24);
        let labelled = timeline
            .events
            .iter()
            .any(|e| matches!(e, TimelineEvent::Span { name, .. } if name.starts_with("item ")));
        assert!(labelled, "job_label names the job span");
        let summary = timeline.summary();
        assert_eq!(summary.lanes.iter().map(|l| l.jobs).sum::<u64>(), 24);
        assert!(summary.slowest_job.is_some());
    }

    #[test]
    fn workers1_observed_records_a_single_lane() {
        let items: Vec<u32> = (0..5).collect();
        let collector = TimelineCollector::enabled();
        let flight = FlightRecorder::new(1);
        let (_, stats, scratches) =
            run_jobs_observed(1, &items, &collector, flight.view(0), |_, &x, _scratch| x);
        // The inline path records the same start/ok pairs as the pool.
        assert_eq!(flight.total_events(), 10);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.jobs_per_worker, vec![5]);
        assert_eq!(stats.steals, 0);
        assert_eq!(scratches.len(), 1);
        let timeline = Timeline::merge(
            1,
            scratches
                .into_iter()
                .map(|s| s.lane.into_events())
                .collect(),
        );
        assert_eq!(timeline.lane_ids(), vec![0]);
        assert_eq!(timeline.summary().lanes[0].jobs, 5);
    }

    #[test]
    fn steals_show_up_as_instants_and_metrics() {
        // Deal everything heavy to worker 0's deque position by making one
        // item dominate: with 8 workers and 9 items, workers finishing
        // early must steal or miss, so some instant event appears.
        let items: Vec<u64> = (0..64).collect();
        let collector = TimelineCollector::enabled();
        let flight = FlightRecorder::new(8);
        let (_, stats, scratches) =
            run_jobs_observed(8, &items, &collector, flight.view(0), |_, &x, _s| {
                let spins = if x % 8 == 0 { 50_000 } else { 50 };
                (0..spins).fold(x, |a, v| a.wrapping_mul(31).wrapping_add(v))
            });
        let lanes = scratches
            .into_iter()
            .map(|s| s.lane.into_events())
            .collect();
        let timeline = Timeline::merge(8, lanes);
        let instants = |want: InstantKind| {
            timeline
                .events
                .iter()
                .filter(|e| matches!(e, TimelineEvent::Instant { kind, .. } if *kind == want))
                .count() as u64
        };
        // The timeline and the flight recorder agree with the pool's own
        // steal count.
        assert_eq!(instants(InstantKind::Steal), stats.steals);
        let flight_steals = flight.dump_json().matches("\"kind\":\"steal\"").count() as u64;
        assert_eq!(flight_steals, stats.steals);
        // Every worker that drained records a miss when the batch empties.
        assert!(instants(InstantKind::StealMiss) >= 1);
    }
}
