//! The batch service under contention:
//!
//! * **backpressure** — submitters beyond the queue capacity stall (the
//!   stall observable in the service metrics and the queue's
//!   blocked-push counter) and are released once a worker drains the
//!   queue, losing no job;
//! * **concurrent submitters** — many threads hammering a small bounded
//!   queue all get unique ids, and every accepted job comes back exactly
//!   once, sorted;
//! * **shutdown with pending jobs** — closing the service drains the
//!   queue first: every submitted job is reported exactly once, failed
//!   jobs included.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ccra_ir::Program;
use ccra_machine::RegisterFile;
use ccra_regalloc::driver::batch::{
    METRIC_COMPLETED, METRIC_FAILED, METRIC_QUEUE_WAIT, METRIC_STALLS, METRIC_SUBMITTED,
};
use ccra_regalloc::{
    AllocatorConfig, BatchConfig, BatchHandle, BatchJob, BatchService, BatchStatus,
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

/// A job big enough that it keeps its service worker busy for the whole
/// orchestration window of the backpressure test.
fn heavy_job(name: &str, seed: u64) -> BatchJob {
    fuzz_job(name, seed, 48, 18)
}

fn light_job(name: &str, seed: u64) -> BatchJob {
    fuzz_job(name, seed, 3, 8)
}

/// Spins until `cond` holds, panicking with `what` after a generous
/// timeout so a broken service fails the test instead of hanging it.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn backpressure_engages_and_releases_without_losing_jobs() {
    // One worker, one queue slot: the third submission must find the
    // queue full while the worker chews on the heavy first job.
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 1,
        shard_workers: 1,
        ..BatchConfig::default()
    });
    let handle = service.handle();

    let id0 = service.submit(heavy_job("heavy-0", 7)).expect("queue open");
    wait_until("the worker to pick up the heavy job", || {
        handle.in_flight() == 1
    });
    // The worker is busy; this job parks in the queue's only slot.
    let id1 = service
        .submit(heavy_job("heavy-1", 11))
        .expect("queue open");
    assert_eq!(handle.queue_depth(), 1, "second job queued behind the slot");

    // A third submission stalls: the fast path fails (counted), then the
    // blocking path parks (counted) until the worker frees the slot.
    let id2 = std::thread::scope(|s| {
        let blocked = s.spawn(|| {
            service
                .submit(light_job("light-2", 13))
                .expect("queue open")
        });
        wait_until("the stall metric", || {
            handle.metrics_snapshot().counter(METRIC_STALLS) >= 1
        });
        wait_until("the blocked-push counter", || {
            handle.queue_stats().blocked_pushes >= 1
        });
        blocked.join().expect("blocked submitter released")
    });
    assert_eq!((id0, id1, id2), (0, 1, 2), "ids are sequential");

    let results = service.shutdown();
    assert_eq!(results.len(), 3, "backpressure lost no job");
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.id, i as u64);
        assert_eq!(r.status, BatchStatus::Ok, "job {} allocates", r.name);
        assert!(r.allocation.is_some());
    }
    let m = handle.metrics_snapshot();
    assert_eq!(m.counter(METRIC_SUBMITTED), 3);
    assert_eq!(m.counter(METRIC_COMPLETED), 3);
    assert_eq!(
        m.histogram(METRIC_QUEUE_WAIT).map(|h| h.count()),
        Some(3),
        "every job's queue wait observed"
    );
}

#[test]
fn concurrent_submitters_against_a_tiny_queue_each_land_exactly_once() {
    const SUBMITTERS: usize = 4;
    const JOBS_EACH: usize = 4;
    let service = BatchService::start(BatchConfig {
        workers: 2,
        queue_capacity: 2,
        shard_workers: 1,
        ..BatchConfig::default()
    });
    let handle = service.handle();

    let ids: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..SUBMITTERS {
            let (service, ids) = (&service, &ids);
            s.spawn(move || {
                for j in 0..JOBS_EACH {
                    let seed = (t * JOBS_EACH + j) as u64;
                    let id = service
                        .submit(light_job(&format!("t{t}-j{j}"), seed))
                        .expect("queue open while submitters run");
                    ids.lock().unwrap().push(id);
                }
            });
        }
    });

    let submitted = ids.into_inner().unwrap();
    let total = SUBMITTERS * JOBS_EACH;
    assert_eq!(submitted.len(), total);
    let unique: BTreeSet<u64> = submitted.iter().copied().collect();
    assert_eq!(unique.len(), total, "no id handed out twice");
    assert_eq!(*unique.iter().next_back().unwrap(), total as u64 - 1);

    let results = service.shutdown();
    assert_eq!(results.len(), total, "every accepted job reported");
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.id, i as u64, "results sorted by submission id");
        assert_eq!(r.status, BatchStatus::Ok);
    }
    let stats = handle.queue_stats();
    assert_eq!(stats.pushes, total as u64);
    assert_eq!(stats.pops, total as u64);
    assert_eq!(stats.depth, 0);
    assert!(
        stats.high_water >= 1 && stats.high_water <= 2,
        "high water within capacity: {}",
        stats.high_water
    );
    assert_eq!(
        handle.metrics_snapshot().counter(METRIC_SUBMITTED),
        total as u64
    );
}

#[test]
fn shutdown_with_pending_jobs_drains_and_reports_each_exactly_once() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 16,
        shard_workers: 1,
        ..BatchConfig::default()
    });
    let handle = service.handle();

    // Mostly healthy jobs plus one that cannot even be profiled; shut
    // down immediately, with most of them still queued.
    let mut expect_ok = Vec::new();
    for i in 0..5u64 {
        let id = service
            .submit(light_job(&format!("pending-{i}"), 100 + i))
            .expect("queue open");
        expect_ok.push(id);
    }
    let failing_id = service
        .submit(BatchJob::new(
            "no-main",
            Program::new(),
            RegisterFile::new(8, 6, 2, 2),
            AllocatorConfig::base(),
        ))
        .expect("queue open");

    let results = service.shutdown();
    assert_eq!(results.len(), 6, "shutdown drained every pending job");
    let ids: Vec<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..6).collect::<Vec<u64>>(), "each id exactly once");
    for r in &results {
        if r.id == failing_id {
            assert!(
                matches!(&r.status, BatchStatus::Failed { error } if error.contains("profiling")),
                "the unprofilable job fails honestly"
            );
            assert!(r.allocation.is_none());
        } else {
            assert_eq!(
                r.status,
                BatchStatus::Ok,
                "job {} survives shutdown",
                r.name
            );
        }
    }

    // The handle outlives the shutdown: live state drains to zero and the
    // completion metrics stay readable (results themselves were handed to
    // shutdown's caller, so the per-job view is empty).
    assert_eq!(handle.queue_depth(), 0);
    assert_eq!(handle.in_flight(), 0);
    assert!(handle.statuses().is_empty());
    let m = handle.metrics_snapshot();
    assert_eq!(m.counter(METRIC_SUBMITTED), 6);
    assert_eq!(m.counter(METRIC_COMPLETED), 5);
    assert_eq!(m.counter(METRIC_FAILED), 1);
}

/// The statuses a [`BatchHandle`] reports while the service is live agree
/// with what shutdown later returns.
#[test]
fn live_statuses_converge_to_the_shutdown_report() {
    let service = BatchService::start(BatchConfig {
        workers: 2,
        queue_capacity: 4,
        shard_workers: 1,
        ..BatchConfig::default()
    });
    let handle: BatchHandle = service.handle();
    for i in 0..4u64 {
        service
            .submit(light_job(&format!("job-{i}"), 40 + i))
            .expect("queue open");
    }
    wait_until("all four jobs to complete", || handle.statuses().len() == 4);
    let live = handle.statuses();
    let results = service.shutdown();
    assert_eq!(live.len(), results.len());
    for ((id, name, status), r) in live.iter().zip(&results) {
        assert_eq!(*id, r.id);
        assert_eq!(name, &r.name);
        assert_eq!(status, &r.status);
    }
}

/// Every traced submission carries a [`ccra_regalloc::RequestTrace`]
/// whose Chrome rendering is valid JSON with the request's identity, and
/// the handle serves it even after shutdown (from the recent-trace
/// buffer).
#[test]
fn request_traces_ride_results_and_render_chrome_json() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 4,
        shard_workers: 2,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    for i in 0..3u64 {
        service
            .submit(light_job(&format!("traced-{i}"), 60 + i))
            .expect("queue open");
    }
    let results = service.shutdown();
    assert_eq!(results.len(), 3);
    for r in &results {
        let trace = r.trace.as_ref().expect("tracing is on by default");
        assert_eq!(trace.id, r.id);
        assert_eq!(trace.name, r.name);
        assert_eq!(trace.trace_id(), format!("req-{}", r.id));
        assert!(trace.e2e_us >= trace.service_us, "{trace:?}");
        assert!(!trace.timeline.events.is_empty(), "timeline recorded");
    }

    // Served after shutdown, from the bounded recent-trace buffer.
    let json = handle.trace_chrome_json(1).expect("trace 1 retained");
    let parsed = serde::json::parse(&json).expect("chrome trace is valid JSON");
    assert_eq!(
        parsed.get("requestId").and_then(serde::json::Value::as_str),
        Some("req-1")
    );
    let Some(serde::json::Value::Arr(events)) = parsed.get("traceEvents") else {
        panic!("chrome trace has a traceEvents array");
    };
    assert!(!events.is_empty());
    // The request-scoped lanes: a queue span, a service span, and a reply
    // instant all render by category name.
    for cat in ["queue", "service", "reply", "job"] {
        assert!(
            events
                .iter()
                .any(|e| { e.get("cat").and_then(serde::json::Value::as_str) == Some(cat) }),
            "a {cat} event renders"
        );
    }
    assert!(handle.trace(99).is_none(), "unknown ids stay unknown");
}

/// A failing job automatically snapshots the flight recorder; the dump is
/// valid JSON carrying the failure event and the submission path.
#[test]
fn failed_jobs_auto_dump_the_flight_recorder() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 4,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    service
        .submit(light_job("healthy", 88))
        .expect("queue open");
    service
        .submit(BatchJob::new(
            "no-main",
            Program::new(),
            RegisterFile::new(8, 6, 2, 2),
            AllocatorConfig::base(),
        ))
        .expect("queue open");
    let results = service.shutdown();
    assert_eq!(results.len(), 2);
    assert!(matches!(results[1].status, BatchStatus::Failed { .. }));

    let doc = handle.flightrec_value();
    let text = doc.to_json();
    let parsed = serde::json::parse(&text).expect("flightrec doc is valid JSON");
    let Some(serde::json::Value::Arr(dumps)) = parsed.get("dumps") else {
        panic!("flightrec doc has a dumps array");
    };
    assert_eq!(dumps.len(), 1, "exactly the failed job dumped");
    assert_eq!(
        dumps[0].get("id").and_then(serde::json::Value::as_i64),
        Some(1)
    );
    let dump = dumps[0].get("dump").expect("dump payload");
    let Some(serde::json::Value::Arr(events)) = dump.get("events") else {
        panic!("dump has an events array");
    };
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(serde::json::Value::as_str))
        .collect();
    assert!(kinds.contains(&"submit"), "{kinds:?}");
    assert!(kinds.contains(&"job_failed"), "{kinds:?}");
    assert!(kinds.contains(&"job_start"), "{kinds:?}");
    // The live recorder keeps recording after the dump.
    let live = parsed.get("live").expect("live section");
    assert!(
        live.get("recorded")
            .and_then(serde::json::Value::as_i64)
            .expect("recorded count")
            >= 4,
        "submit + start + end events recorded"
    );
}

#[test]
fn per_priority_latency_quantiles_are_boundary_exact() {
    use ccra_regalloc::driver::batch::per_priority_latency;
    use ccra_regalloc::driver::Priority;
    use ccra_regalloc::MetricsRegistry;
    use serde::json::Value;

    // Feed the interactive class a known sequence: 50 jobs at 1 us
    // (bucket bound 1), 49 at 1000 us (bucket bound 1023), one 100000 us
    // outlier (bucket bound 131071). With rank = ceil(q * count):
    // p50 hits rank 50 — the LAST observation of the 1-us bucket — and
    // p99 hits rank 99 — the last of the 1023-bucket, excluding the
    // outlier exactly.
    let mut m = MetricsRegistry::new();
    for _ in 0..50 {
        m.observe(Priority::Interactive.e2e_metric(), 1);
    }
    for _ in 0..49 {
        m.observe(Priority::Interactive.e2e_metric(), 1000);
    }
    m.observe(Priority::Interactive.e2e_metric(), 100_000);

    let v = per_priority_latency(&m);
    let class = |name: &str, field: &str| -> i64 {
        v.get(name)
            .and_then(|c| c.get(field))
            .and_then(Value::as_i64)
            .unwrap_or_else(|| panic!("per_priority has {name}.{field}"))
    };
    assert_eq!(class("interactive", "jobs"), 100);
    assert_eq!(class("interactive", "p50"), 1);
    assert_eq!(class("interactive", "p99"), 1023);

    // One more 1-us observation shifts rank 50 off the bucket edge:
    // p50 stays 1 (rank 51 of 101 still lands in the 1-us bucket), but
    // p99 (rank 100 of 101) now includes the outlier's bucket? No —
    // cum(1) = 51, cum(1023) = 100 >= 100, so p99 is still 1023. The
    // outlier only surfaces at rank 101.
    m.observe(Priority::Interactive.e2e_metric(), 1);
    let v = per_priority_latency(&m);
    let p = |field: &str| {
        v.get("interactive")
            .and_then(|c| c.get(field))
            .and_then(Value::as_i64)
            .unwrap()
    };
    assert_eq!(p("p50"), 1);
    assert_eq!(p("p99"), 1023);

    // Tipping the majority tips the median to the next bucket bound.
    let mut m2 = MetricsRegistry::new();
    for _ in 0..49 {
        m2.observe(Priority::Batch.e2e_metric(), 1);
    }
    for _ in 0..51 {
        m2.observe(Priority::Batch.e2e_metric(), 1000);
    }
    let v2 = per_priority_latency(&m2);
    assert_eq!(
        v2.get("batch")
            .and_then(|c| c.get("p50"))
            .and_then(Value::as_i64),
        Some(1023)
    );
}

#[test]
fn empty_priority_classes_report_zeros_not_absence() {
    use ccra_regalloc::driver::batch::per_priority_latency;
    use ccra_regalloc::driver::Priority;
    use ccra_regalloc::MetricsRegistry;
    use serde::json::Value;

    // Only the background class has completed anything; the other two
    // classes' histograms were never created. All three must still be
    // present, the silent ones as explicit zeros.
    let mut m = MetricsRegistry::new();
    m.observe(Priority::Background.e2e_metric(), 4096);
    let v = per_priority_latency(&m);
    for name in ["interactive", "batch", "background"] {
        let class = v.get(name).unwrap_or_else(|| panic!("{name} present"));
        let field = |f: &str| class.get(f).and_then(Value::as_i64).unwrap();
        if name == "background" {
            assert_eq!(field("jobs"), 1);
            assert_eq!(field("p50"), 8191, "4096 rounds up to its bucket bound");
            assert_eq!(field("p99"), 8191);
        } else {
            assert_eq!((field("jobs"), field("p50"), field("p99")), (0, 0, 0));
        }
    }

    // A completely silent registry reports all-zero classes too.
    let empty = per_priority_latency(&MetricsRegistry::new());
    for name in ["interactive", "batch", "background"] {
        let class = empty.get(name).expect("class present");
        assert_eq!(class.get("jobs").and_then(Value::as_i64), Some(0));
        assert_eq!(class.get("p50").and_then(Value::as_i64), Some(0));
        assert_eq!(class.get("p99").and_then(Value::as_i64), Some(0));
    }
}
