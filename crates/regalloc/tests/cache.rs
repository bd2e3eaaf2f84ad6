//! The memo cache's end-to-end contract:
//!
//! * **byte identity** — re-allocating an edited program through a warm
//!   [`AllocCache`] produces a [`ProgramAllocation`] equal to an uncached
//!   cold run, at worker counts {1, 2, 4, 8}, with the hit/miss split
//!   exactly matching the edit;
//! * **serving path** — a [`BatchService`] given a shared cache reports
//!   it on `/status` and in the Prometheus export, and byte-identical
//!   re-submissions actually hit.

use std::sync::Arc;

use ccra_analysis::FrequencyInfo;
use ccra_ir::{Inst, Program, RegClass};
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::driver::DefaultJob;
use ccra_regalloc::{
    AllocCache, AllocRequest, AllocatorConfig, BatchConfig, BatchJob, BatchService, BatchStatus,
    DriverReport, FlightRecorder, MetricsRegistry, NoopSink, ParallelDriver, ProgramAllocation,
    TimelineCollector,
};
use ccra_workloads::{random_program, FuzzConfig};
use serde::json::Value;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn fuzz_program(seed: u64, functions: usize) -> Program {
    random_program(
        seed,
        &FuzzConfig {
            functions,
            stmts_per_fn: 10,
            max_loop_depth: 1,
            max_trips: 4,
        },
    )
}

/// Edits every `stride`-th function: a dead `iconst` prepended to the
/// entry block — semantically inert, but a different content hash.
fn edit_every(base: &Program, stride: usize) -> (Program, u64) {
    let mut edited = base.clone();
    let mut touched = 0u64;
    for (index, id) in base.func_ids().enumerate() {
        if index % stride == 0 {
            let f = edited.function_mut(id);
            let v = f.new_vreg(RegClass::Int);
            let entry = f.entry();
            f.block_mut(entry)
                .insts
                .insert(0, Inst::IConst { dst: v, value: 42 });
            touched += 1;
        }
    }
    (edited, touched)
}

fn run_driver(
    workers: usize,
    program: &Program,
    freq: &FrequencyInfo,
    cache: Option<&AllocCache>,
) -> (ProgramAllocation, DriverReport) {
    let driver = ParallelDriver::new(workers);
    let flight = FlightRecorder::new(workers + 1);
    let collector = TimelineCollector::disabled();
    let req = AllocRequest {
        program,
        freq,
        file: RegisterFile::mips_full(),
        config: &AllocatorConfig::improved(),
        cost: &CostModel::paper(),
    };
    let (alloc, report, _timeline) = driver
        .allocate_program_cached(
            &req,
            &mut NoopSink,
            &mut MetricsRegistry::disabled(),
            &DefaultJob,
            &collector,
            flight.view(0),
            cache,
        )
        .expect("fuzz programs allocate");
    (alloc, report)
}

#[test]
fn warm_reallocation_is_byte_identical_to_cold_at_every_worker_count() {
    let base = fuzz_program(977, 40);
    let (edited, touched) = edit_every(&base, 8);
    assert_eq!(touched, 5);
    let base_freq = FrequencyInfo::estimate(&base);
    let edited_freq = FrequencyInfo::estimate(&edited);

    let mut warms: Vec<ProgramAllocation> = Vec::new();
    for workers in WORKER_COUNTS {
        let (cold, _) = run_driver(workers, &edited, &edited_freq, None);

        let cache = AllocCache::default();
        run_driver(workers, &base, &base_freq, Some(&cache));
        let before = cache.stats();
        let (warm, report) = run_driver(workers, &edited, &edited_freq, Some(&cache));
        let after = cache.stats();

        assert_eq!(
            warm, cold,
            "warm result differs from cold at {workers} worker(s)"
        );
        assert_eq!(after.hits - before.hits, 35);
        assert_eq!(after.misses - before.misses, 5);
        // Every job reports Ok whether replayed or freshly allocated.
        assert_eq!(report.statuses.len(), 40);
        warms.push(warm);
    }
    for w in &warms[1..] {
        assert_eq!(w, &warms[0], "warm results agree across worker counts");
    }
}

#[test]
fn a_fully_warm_cache_replays_the_entire_program() {
    let program = fuzz_program(411, 24);
    let freq = FrequencyInfo::estimate(&program);
    let cache = AllocCache::default();
    let (first, _) = run_driver(4, &program, &freq, Some(&cache));
    let before = cache.stats();
    let (second, _) = run_driver(4, &program, &freq, Some(&cache));
    let after = cache.stats();
    assert_eq!(second, first);
    assert_eq!(after.hits - before.hits, 24);
    assert_eq!(after.misses - before.misses, 0);
}

fn cache_field(status: &Value, key: &str) -> i64 {
    status
        .get("cache")
        .and_then(|c| c.get(key))
        .and_then(Value::as_i64)
        .unwrap_or_else(|| panic!("cache.{key} present in /status"))
}

#[test]
fn batch_status_and_metrics_report_the_shared_cache() {
    let cache = Arc::new(AllocCache::default());
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 8,
        cache: Some(cache.clone()),
        ..BatchConfig::default()
    });
    let handle = service.handle();
    let job = || {
        BatchJob::new(
            "resubmitted",
            fuzz_program(2024, 6),
            RegisterFile::mips_full(),
            AllocatorConfig::improved(),
        )
    };
    service.submit(job()).expect("queue open");
    service.submit(job()).expect("queue open");
    let results = service.shutdown();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.status == BatchStatus::Ok));
    // Identical bodies under an identical config: the second submission
    // replays all six functions.
    assert_eq!(cache.stats().hits, 6);
    assert_eq!(cache.stats().misses, 6);

    let status = handle.status_value();
    assert_eq!(
        status.get("cache").and_then(|c| c.get("enabled")),
        Some(&Value::Bool(true))
    );
    assert_eq!(cache_field(&status, "hits"), 6);
    assert_eq!(cache_field(&status, "misses"), 6);
    assert_eq!(cache_field(&status, "entries"), 6);
    assert!(cache_field(&status, "bytes") > 0);
    assert!(cache_field(&status, "budget_bytes") > 0);

    let metrics = handle.metrics_snapshot();
    assert_eq!(metrics.counter("cache_hits_total"), 6);
    assert_eq!(metrics.counter("cache_misses_total"), 6);
    let prom = metrics.to_prometheus_text();
    assert!(prom.contains("cache_hits_total 6"), "{prom}");
    assert!(prom.contains("cache_bytes"), "{prom}");
}

#[test]
fn batch_status_reports_cache_disabled_without_one() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 4,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    service
        .submit(BatchJob::new(
            "uncached",
            fuzz_program(5, 3),
            RegisterFile::mips_full(),
            AllocatorConfig::improved(),
        ))
        .expect("queue open");
    service.shutdown();
    let status = handle.status_value();
    assert_eq!(
        status.get("cache").and_then(|c| c.get("enabled")),
        Some(&Value::Bool(false))
    );
    assert!(
        status.get("cache").and_then(|c| c.get("hits")).is_none(),
        "no counters without a cache"
    );
    let metrics = handle.metrics_snapshot();
    assert_eq!(metrics.counter("cache_hits_total"), 0);
}
