//! The batch service's overload machinery, end to end:
//!
//! * **shed** — with the AIMD window full, `submit` returns a typed
//!   rejection carrying the job back and a retry-after hint, and the
//!   shed is counted in metrics and the admission snapshot;
//! * **deadlines** — a queued job whose deadline passes resolves as
//!   `DeadlineExpired` without running, its backdated queue wait
//!   recorded;
//! * **cancellation** — the `Queued → Running → Resolved` state machine
//!   gives exactly one outcome per request: queued jobs cancel, running
//!   jobs report `InFlight` and run to completion, resolved jobs no-op;
//! * **scheduling** — a single worker serves strictly by priority and
//!   earliest-deadline-first within a class;
//! * **timeout** — the per-job watchdog degrades overlong jobs with
//!   cause `Timeout` instead of losing them;
//! * **determinism** — with admission *and* chaos compiled in, every
//!   accepted job's allocation is identical at workers {1, 2, 4, 8}.

use std::time::{Duration, Instant};

use ccra_machine::RegisterFile;
use ccra_regalloc::driver::batch::{
    METRIC_CANCELLED, METRIC_EXPIRED, METRIC_SHED, METRIC_TIMEOUTS,
};
use ccra_regalloc::{
    AdmissionConfig, AllocatorConfig, BatchConfig, BatchJob, BatchService, BatchStatus,
    CancelOutcome, ChaosConfig, DegradeCause, Priority, RejectCause, SubmitError,
};
use ccra_workloads::{random_program, FuzzConfig};

fn fuzz_job(name: &str, seed: u64, functions: usize, stmts_per_fn: usize) -> BatchJob {
    BatchJob::new(
        name,
        random_program(
            seed,
            &FuzzConfig {
                functions,
                stmts_per_fn,
                max_loop_depth: 2,
                max_trips: 5,
            },
        ),
        RegisterFile::new(8, 6, 2, 2),
        AllocatorConfig::improved(),
    )
}

/// Long enough to keep its worker busy for the whole orchestration
/// window of every test below.
fn heavy_job(name: &str, seed: u64) -> BatchJob {
    fuzz_job(name, seed, 48, 18)
}

/// Big enough that its service time dominates clock granularity, so
/// queue-wait comparisons between jobs served back-to-back are strict.
fn medium_job(name: &str, seed: u64) -> BatchJob {
    fuzz_job(name, seed, 10, 12)
}

fn light_job(name: &str, seed: u64) -> BatchJob {
    fuzz_job(name, seed, 3, 8)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A service whose window fills sheds instead of blocking: the error
/// carries the job back with a retry hint, the shed shows up in the
/// metrics, the admission snapshot, and the `/status` document, and
/// every late completion drags the AIMD limit down while releasing its
/// window slot.
#[test]
fn full_window_sheds_with_a_retry_hint_and_late_completions_shrink_the_limit() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 8,
        admission: Some(AdmissionConfig {
            slo_us: 1, // everything is late: the limiter must only shrink
            max_limit: 4,
        }),
        ..BatchConfig::default()
    });
    let handle = service.handle();

    service.submit(heavy_job("blocker", 7)).expect("admitted");
    wait_until("the worker to pick up the blocker", || {
        handle.in_flight() == 1
    });
    for i in 0..3u64 {
        service
            .submit(light_job(&format!("fill-{i}"), 20 + i))
            .expect("window has room");
    }

    // The window (limit 4) is full: this submission sheds.
    let err = match service.submit(light_job("shed-me", 30)) {
        Err(e) => e,
        Ok(id) => panic!("submission {id} admitted past a full window"),
    };
    assert_eq!(err.job.name, "shed-me", "the job rides the rejection back");
    let SubmitError {
        cause: RejectCause::Shed { retry_after_us },
        ..
    } = err
    else {
        panic!("expected a shed rejection, got {err:?}");
    };
    assert!(retry_after_us > 0, "retry hint present: {retry_after_us}");

    assert_eq!(handle.metrics_snapshot().counter(METRIC_SHED), 1);
    let status = handle.status_value();
    let admission = status.get("admission").expect("admission section");
    assert!(
        matches!(
            admission.get("enabled"),
            Some(serde::json::Value::Bool(true))
        ),
        "admission reports enabled"
    );
    assert_eq!(
        admission.get("shed").and_then(serde::json::Value::as_i64),
        Some(1)
    );

    let results = service.shutdown();
    assert_eq!(results.len(), 4, "the shed job never entered the service");
    let snap = handle.admission_snapshot().expect("limiter configured");
    assert_eq!(snap.admitted, 0, "every completion released its slot");
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.late, 4, "a 1us SLO makes every completion late");
    assert_eq!(snap.on_time, 0);
    assert!(
        snap.limit <= 2.0,
        "late completions shrank the limit: {}",
        snap.limit
    );
}

/// `try_submit` against a full queue (no limiter) hands the job back as
/// `QueueFull` instead of blocking.
#[test]
fn try_submit_returns_queue_full_with_the_job() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 1,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    service.submit(heavy_job("blocker", 7)).expect("queue open");
    wait_until("the worker to pick up the blocker", || {
        handle.in_flight() == 1
    });
    service.submit(light_job("parked", 21)).expect("queue open");
    assert_eq!(handle.queue_depth(), 1);

    let err = service
        .try_submit(light_job("bounced", 22))
        .expect_err("the queue's only slot is taken");
    assert_eq!(err.cause, RejectCause::QueueFull);
    assert_eq!(err.job.name, "bounced");
    let results = service.shutdown();
    assert_eq!(results.len(), 2, "the bounced job never entered");
}

/// A queued job whose deadline passes before a worker reaches it
/// resolves as `DeadlineExpired`: it never runs, carries no allocation,
/// and is counted.
#[test]
fn queued_jobs_past_their_deadline_expire_without_running() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 4,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    let blocker = service.submit(heavy_job("blocker", 7)).expect("queue open");
    wait_until("the worker to pick up the blocker", || {
        handle.in_flight() == 1
    });
    let doomed = service
        .submit(light_job("doomed", 33).with_deadline(Duration::from_millis(1)))
        .expect("queue open");
    let results = service.shutdown();
    assert_eq!(results.len(), 2);
    assert_eq!(results[blocker as usize].status, BatchStatus::Ok);
    let r = &results[doomed as usize];
    assert_eq!(r.status, BatchStatus::DeadlineExpired);
    assert!(r.allocation.is_none(), "an expired job never ran");
    assert_eq!(r.micros, 0);
    assert_eq!(handle.metrics_snapshot().counter(METRIC_EXPIRED), 1);
}

/// The cancellation state machine end to end: queued → `Cancelled`
/// (idempotently), running → `InFlight` and the job still completes,
/// resolved → `Done`, never-seen ids → `Unknown`.
#[test]
fn cancel_resolves_queued_jobs_and_leaves_running_and_done_jobs_alone() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 4,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    let running = service.submit(heavy_job("running", 7)).expect("queue open");
    wait_until("the worker to pick up the job", || handle.in_flight() == 1);
    let queued = service.submit(light_job("queued", 44)).expect("queue open");

    assert_eq!(handle.cancel(running), CancelOutcome::InFlight);
    assert_eq!(handle.cancel(queued), CancelOutcome::Cancelled);
    assert_eq!(
        handle.cancel(queued),
        CancelOutcome::Cancelled,
        "cancelling twice is idempotent"
    );
    assert_eq!(handle.cancel(999), CancelOutcome::Unknown);

    let results = service.shutdown();
    assert_eq!(results.len(), 2);
    let r = &results[running as usize];
    assert_eq!(r.status, BatchStatus::Ok, "in-flight ran to completion");
    assert!(r.allocation.is_some());
    let c = &results[queued as usize];
    assert_eq!(c.status, BatchStatus::Cancelled);
    assert!(c.allocation.is_none(), "a cancelled job never ran");
    assert_eq!(
        handle.cancel(running),
        CancelOutcome::Done,
        "resolved: no-op"
    );
    assert_eq!(handle.metrics_snapshot().counter(METRIC_CANCELLED), 1);
}

/// Shutdown with a mix of queued, cancelled, and expired jobs still
/// reports every accepted id exactly once with its own outcome.
#[test]
fn shutdown_with_mixed_outcomes_drains_every_id_exactly_once() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 8,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    service.submit(heavy_job("blocker", 7)).expect("queue open");
    wait_until("the worker to pick up the blocker", || {
        handle.in_flight() == 1
    });
    for i in 0..3u64 {
        service
            .submit(light_job(&format!("normal-{i}"), 50 + i))
            .expect("queue open");
    }
    let expired = service
        .submit(light_job("expired", 60).with_deadline(Duration::from_millis(1)))
        .expect("queue open");
    let cancelled = service
        .submit(light_job("cancelled", 61))
        .expect("queue open");
    assert_eq!(handle.cancel(cancelled), CancelOutcome::Cancelled);

    let results = service.shutdown();
    assert_eq!(results.len(), 6, "every accepted id reported");
    let ids: Vec<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..6).collect::<Vec<u64>>(), "each id exactly once");
    for r in &results {
        let expect = if r.id == expired {
            BatchStatus::DeadlineExpired
        } else if r.id == cancelled {
            BatchStatus::Cancelled
        } else {
            BatchStatus::Ok
        };
        assert_eq!(r.status, expect, "job {} ({})", r.id, r.name);
    }
}

/// Queue wait as each request's trace measures it: end-to-end minus
/// service time.
fn queue_wait_us(r: &ccra_regalloc::BatchResult) -> u64 {
    let t = r.trace.as_ref().expect("tracing on by default");
    t.e2e_us - t.service_us
}

/// With one worker and a backlog, pops follow priority strictly:
/// submitted in the order background, batch, interactive, the jobs are
/// *served* interactive first and background last.
#[test]
fn a_single_worker_serves_strictly_by_priority() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 8,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    service.submit(heavy_job("blocker", 7)).expect("queue open");
    wait_until("the worker to pick up the blocker", || {
        handle.in_flight() == 1
    });
    let bg = service
        .submit(medium_job("bg", 70).with_priority(Priority::Background))
        .expect("queue open");
    let mid = service
        .submit(medium_job("mid", 71).with_priority(Priority::Batch))
        .expect("queue open");
    let fg = service
        .submit(medium_job("fg", 72).with_priority(Priority::Interactive))
        .expect("queue open");

    let results = service.shutdown();
    assert_eq!(results.len(), 4);
    for r in &results {
        assert_eq!(r.status, BatchStatus::Ok, "job {}", r.name);
    }
    let (w_fg, w_mid, w_bg) = (
        queue_wait_us(&results[fg as usize]),
        queue_wait_us(&results[mid as usize]),
        queue_wait_us(&results[bg as usize]),
    );
    assert!(
        w_fg < w_mid && w_mid < w_bg,
        "served interactive → batch → background: {w_fg} / {w_mid} / {w_bg}"
    );
}

/// Within one priority class the worker serves earliest deadline first,
/// and deadline-less jobs wait behind every deadlined one.
#[test]
fn within_a_class_the_worker_serves_earliest_deadline_first() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 8,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    service.submit(heavy_job("blocker", 7)).expect("queue open");
    wait_until("the worker to pick up the blocker", || {
        handle.in_flight() == 1
    });
    // Submitted in scrambled order; every deadline is far beyond the
    // test's runtime, so none expires — they only order the queue.
    let none = service.submit(medium_job("none", 80)).expect("queue open");
    let d30 = service
        .submit(medium_job("d30", 81).with_deadline(Duration::from_secs(30)))
        .expect("queue open");
    let d10 = service
        .submit(medium_job("d10", 82).with_deadline(Duration::from_secs(10)))
        .expect("queue open");
    let d20 = service
        .submit(medium_job("d20", 83).with_deadline(Duration::from_secs(20)))
        .expect("queue open");

    let results = service.shutdown();
    assert_eq!(results.len(), 5);
    for r in &results {
        assert_eq!(r.status, BatchStatus::Ok, "job {}", r.name);
    }
    let waits: Vec<u64> = [d10, d20, d30, none]
        .iter()
        .map(|&id| queue_wait_us(&results[id as usize]))
        .collect();
    assert!(
        waits.windows(2).all(|w| w[0] < w[1]),
        "served d10 → d20 → d30 → no-deadline: {waits:?}"
    );
}

/// The per-job watchdog: an overlong job comes back `Degraded` with
/// cause `Timeout` — a real (spill-heavy) allocation, never a lost id.
#[test]
fn overlong_jobs_degrade_with_cause_timeout() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 4,
        job_timeout: Some(Duration::from_micros(100)),
        ..BatchConfig::default()
    });
    let handle = service.handle();
    let id = service
        .submit(heavy_job("overlong", 7))
        .expect("queue open");
    let results = service.shutdown();
    assert_eq!(results.len(), 1);
    let r = &results[id as usize];
    let BatchStatus::Degraded { funcs, cause } = &r.status else {
        panic!("expected a timeout degrade, got {:?}", r.status);
    };
    assert!(*funcs >= 1, "at least one function hit the watchdog");
    assert_eq!(*cause, DegradeCause::Timeout);
    assert!(
        r.allocation.is_some(),
        "the degraded fallback still allocates"
    );
    assert_eq!(handle.metrics_snapshot().counter(METRIC_TIMEOUTS), 1);
}

/// The determinism quarantine with everything switched on: admission
/// limiting and chaos faults compiled in, every accepted job's status
/// and allocation are identical at workers {1, 2, 4, 8}. Chaos faults
/// are a pure function of (seed, id), so even the injected panics and
/// errors land on the same submissions in every run.
#[test]
fn allocations_are_identical_across_worker_counts_with_admission_and_chaos() {
    let run = |workers: usize| -> Vec<(u64, String, BatchStatus, _)> {
        let service = BatchService::start(BatchConfig {
            workers,
            queue_capacity: 32,
            shard_workers: 2,
            admission: Some(AdmissionConfig {
                slo_us: 10_000_000, // generous: nothing sheds, nothing is late
                ..AdmissionConfig::default()
            }),
            chaos: Some(ChaosConfig {
                seed: 42,
                panic_per_mille: 120,
                error_per_mille: 120,
                spike_per_mille: 60,
                spike_us: 100,
            }),
            ..BatchConfig::default()
        });
        for i in 0..16u64 {
            service
                .submit(fuzz_job(&format!("det-{i}"), i, 4, 10))
                .expect("a generous window admits everything");
        }
        service
            .shutdown()
            .into_iter()
            .map(|r| (r.id, r.name, r.status, r.allocation))
            .collect()
    };

    let reference = run(1);
    assert_eq!(reference.len(), 16);
    assert!(
        reference
            .iter()
            .any(|(_, _, s, _)| matches!(s, BatchStatus::Degraded { .. })),
        "the chaos rates actually injected faults into the run"
    );
    for workers in [2usize, 4, 8] {
        let got = run(workers);
        assert_eq!(got.len(), reference.len());
        for (r, g) in reference.iter().zip(&got) {
            assert_eq!(r.0, g.0, "workers={workers}: ids align");
            assert_eq!(r.1, g.1, "workers={workers}: names align");
            assert_eq!(r.2, g.2, "workers={workers}: status of {} differs", r.1);
            assert_eq!(r.3, g.3, "workers={workers}: allocation of {} differs", r.1);
        }
    }
}
