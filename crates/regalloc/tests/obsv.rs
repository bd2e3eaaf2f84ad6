//! The ops observatory's crate-level contract:
//!
//! * **determinism quarantine** — a batch service with sampling AND
//!   alerting enabled (background sampler ticking fast, default rules
//!   live) produces allocations byte-identical to the serial pipeline at
//!   workers {1, 2, 4, 8};
//! * **queue-delay slope** — a synthetic rising-delay workload driven
//!   through the injected [`ManualClock`] pins the regression slope in
//!   the exact `/history` document shape;
//! * **flight visibility** — alert fire/clear transitions land in the
//!   flight recorder dump alongside the scheduling events.

use std::sync::Arc;

use ccra_analysis::FrequencyInfo;
use ccra_ir::{display_function, Program};
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::obsv::{
    Tier, BURN_SHORT_WINDOW, E2E_HISTOGRAM, QUEUE_WAIT_HISTOGRAM, RAW_INTERVAL_US, RULE_E2E_BURN,
    SERIES_QUEUE_DELAY_SLOPE,
};
use ccra_regalloc::trace::NoopSink;
use ccra_regalloc::{
    allocate_program_instrumented, AlertState, AllocRequest, AllocatorConfig, BatchConfig,
    BatchJob, BatchService, BatchStatus, Clock, ManualClock, MetricsRegistry, Observatory,
    ObsvConfig, ProgramAllocation,
};
use ccra_workloads::{random_program, FuzzConfig};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn fuzz_program(seed: u64, functions: usize) -> Program {
    random_program(
        seed,
        &FuzzConfig {
            functions,
            stmts_per_fn: 12,
            max_loop_depth: 2,
            max_trips: 5,
        },
    )
}

fn serial_reference(program: &Program) -> ProgramAllocation {
    let freq = FrequencyInfo::profile(program).expect("profile runs");
    let req = AllocRequest {
        program,
        freq: &freq,
        file: RegisterFile::mips_full(),
        config: &AllocatorConfig::improved(),
        cost: &CostModel::paper(),
    };
    allocate_program_instrumented(&req, &mut NoopSink, &mut MetricsRegistry::disabled())
        .expect("serial allocation succeeds")
}

/// Sampling + alerting on never changes a single allocation byte, at any
/// worker count. The observatory runs in its production shape — a
/// background sampler thread on the wall clock, whose first poll always
/// ticks — with the default alert rules evaluated live.
#[test]
fn sampling_and_alerting_never_change_allocation_bytes() {
    let programs: Vec<(u64, Program)> = (0..4)
        .map(|i| (2000 + i, fuzz_program(2000 + i, 6)))
        .collect();
    let references: Vec<ProgramAllocation> =
        programs.iter().map(|(_, p)| serial_reference(p)).collect();

    for workers in WORKER_COUNTS {
        let service = BatchService::start(BatchConfig {
            workers,
            shard_workers: 2,
            queue_capacity: 8,
            obsv: Some(ObsvConfig::default()),
            ..BatchConfig::default()
        });
        for (seed, program) in &programs {
            service
                .submit(BatchJob::new(
                    format!("fuzz-{seed}"),
                    program.clone(),
                    RegisterFile::mips_full(),
                    AllocatorConfig::improved(),
                ))
                .expect("submit accepted");
        }
        let handle = service.handle();
        let results = service.shutdown();
        assert_eq!(results.len(), programs.len());
        for (result, (seed, program)) in results.iter().zip(programs.iter()) {
            assert_eq!(
                result.status,
                BatchStatus::Ok,
                "workers={workers} seed={seed}"
            );
            let alloc = result
                .allocation
                .as_ref()
                .expect("ok result has allocation");
            let reference = &references[programs
                .iter()
                .position(|(s, _)| s == seed)
                .expect("seed known")];
            assert_eq!(
                alloc, reference,
                "workers={workers} seed={seed}: observatory changed the allocation"
            );
            for id in program.func_ids() {
                assert_eq!(
                    display_function(alloc.program.function(id)),
                    display_function(reference.program.function(id)),
                    "workers={workers} seed={seed}: body of {id:?} differs"
                );
            }
        }
        // The observatory genuinely ran: the sampler's first poll always
        // ticks, before shutdown joins it (0 ticks would make this a
        // vacuous test).
        let obsv = handle.observatory().expect("observatory configured");
        assert!(
            obsv.ticks() >= 1,
            "workers={workers}: sampler never ticked ({} ticks)",
            obsv.ticks()
        );
    }
}

/// The acceptance pin: a synthetic rising-delay workload, clocked by the
/// injected [`ManualClock`], yields an exactly predictable queue-delay
/// slope in the `/history` document. Interval means rise 10_000us per 2s
/// tick → 5_000 us/s, recovered exactly because interval means are exact
/// (delta sum / delta count) and the regression is least-squares over an
/// exactly linear window.
#[test]
fn synthetic_rising_delay_pins_the_history_slope() {
    let clock = Arc::new(ManualClock::new());
    let obsv = Observatory::new(ObsvConfig {
        clock: clock.clone() as Arc<dyn Clock>,
        sampler_thread: false,
        ..ObsvConfig::default()
    });
    let mut m = MetricsRegistry::new();
    for i in 1..=20u64 {
        m.observe(QUEUE_WAIT_HISTOGRAM, 10_000 * i);
        clock.set(i * 2_000_000);
        obsv.tick(&m);
    }
    let doc = obsv
        .history_value(SERIES_QUEUE_DELAY_SLOPE, Tier::Raw)
        .expect("slope series exists");
    assert_eq!(
        doc.get("series").and_then(serde::json::Value::as_str),
        Some(SERIES_QUEUE_DELAY_SLOPE)
    );
    let points = match doc.get("points") {
        Some(serde::json::Value::Arr(a)) => a,
        other => panic!("points array expected, got {other:?}"),
    };
    assert_eq!(points.len(), 20, "one slope point per tick");
    let last = points.last().expect("non-empty");
    assert_eq!(
        last.get("ts_us").and_then(serde::json::Value::as_i64),
        Some(40_000_000)
    );
    let slope = last
        .get("value")
        .and_then(serde::json::Value::as_f64)
        .expect("slope value");
    assert!(
        (slope - 5_000.0).abs() < 1e-6,
        "pinned synthetic slope 5_000 us/s, got {slope}"
    );
    // The downsampled tier aggregated the first 15 ticks into one point.
    let ds = obsv
        .history(SERIES_QUEUE_DELAY_SLOPE, Tier::Downsampled)
        .expect("series exists");
    assert_eq!(ds.len(), 1);
}

/// Alert transitions are visible in the flight recorder: fire and clear
/// events, on the observatory's dedicated lane, in the same dump as the
/// scheduling events.
#[test]
fn alert_transitions_land_in_the_flight_recorder() {
    let clock = Arc::new(ManualClock::new());
    // An SLO-burn setup the test can steer: the default critical burn
    // rule under a tiny SLO, so any real e2e observation violates it.
    // Rules are evaluated against series derived from the service's own
    // metrics, so the steering is real traffic: submit jobs, then tick.
    let service = BatchService::start(BatchConfig {
        workers: 1,
        obsv: Some(ObsvConfig {
            clock: clock.clone() as Arc<dyn Clock>,
            sampler_thread: false,
            // Tiny SLO: every real completion (micros-scale at least)
            // counts as over-budget, so one batch of traffic fires the
            // burn rule deterministically.
            e2e_slo_us: 1,
        }),
        ..BatchConfig::default()
    });
    let program = fuzz_program(77, 3);
    for i in 0..4 {
        service
            .submit(BatchJob::new(
                format!("job-{i}"),
                program.clone(),
                RegisterFile::mips_full(),
                AllocatorConfig::improved(),
            ))
            .expect("submit accepted");
    }
    let handle = service.handle();
    // Wait for the queue to drain so the tick's e2e delta is non-empty.
    while handle.queue_depth() > 0 || handle.in_flight() > 0 {
        std::thread::yield_now();
    }
    clock.set(RAW_INTERVAL_US);
    let fired = handle.obsv_tick();
    assert!(
        fired.iter().any(|t| t.fired && t.rule == RULE_E2E_BURN),
        "burn rule fires after over-SLO traffic: {fired:?}"
    );
    assert_eq!(
        handle.observatory().unwrap().alert_state(RULE_E2E_BURN),
        Some(AlertState::Firing)
    );
    // Idle recovery: ticks with no completions read burn 0 → resolve
    // once the storm interval leaves the short window.
    for _ in 0..=BURN_SHORT_WINDOW {
        clock.advance(RAW_INTERVAL_US);
        handle.obsv_tick();
    }
    assert_eq!(
        handle.observatory().unwrap().alert_state(RULE_E2E_BURN),
        Some(AlertState::Inactive),
        "burn rule resolves once the storm interval ages out"
    );
    let dump = handle.flightrec_value().to_json();
    assert!(dump.contains("\"alert_fire\""), "fire event in flightrec");
    assert!(dump.contains("\"alert_clear\""), "clear event in flightrec");
    drop(service.shutdown());
    // Unused import silencer with semantic value: the burn series derives
    // from this histogram.
    assert_eq!(E2E_HISTOGRAM, "batch_e2e_micros");
}
