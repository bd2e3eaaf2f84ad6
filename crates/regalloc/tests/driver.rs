//! The parallel driver's contract, end to end:
//!
//! * **determinism** — at worker counts {1, 2, 4, 8} the driver produces a
//!   [`ProgramAllocation`] equal to the serial pipeline's, byte-identical
//!   rewritten function bodies, the same normalized trace stream, and the
//!   same merged metrics — on the paper's fig. 7 workloads and on fuzzed
//!   many-function programs;
//! * **fault isolation** — a job whose allocator returns an [`AllocError`]
//!   and a job that panics inside a worker both yield a degraded, flagged
//!   result for that function only; every sibling completes strictly and
//!   checker-clean;
//! * **batch service** — submissions drain under backpressure and come
//!   back sorted by id with honest per-job statuses, a failed job never
//!   poisoning its siblings.

use ccra_analysis::FrequencyInfo;
use ccra_ir::{display_function, BinOp, Callee, CmpOp, FunctionBuilder, Program, RegClass};
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::driver::timeline::SpanKind;
use ccra_regalloc::driver::{AllocJob, DefaultJob, JobCtx};
use ccra_regalloc::trace::AllocSink;
use ccra_regalloc::{
    allocate_program_instrumented, check_allocation, AllocError, AllocEvent, AllocRequest,
    AllocatorConfig, BatchConfig, BatchJob, BatchService, BatchStatus, FlightRecorder,
    MetricsRegistry, ParallelDriver, ProgramAllocation, RecordingSink, TimelineCollector,
    TimelineEvent,
};
use ccra_workloads::{random_program, spec_program_scaled, FuzzConfig, Scale, SpecProgram};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A serial reference run: allocation, recorded events, populated metrics.
fn serial_reference(
    program: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
) -> (ProgramAllocation, Vec<AllocEvent>, MetricsRegistry) {
    let mut sink = RecordingSink::new();
    let mut metrics = MetricsRegistry::new();
    let req = AllocRequest {
        program,
        freq,
        file,
        config,
        cost: &CostModel::paper(),
    };
    let alloc = allocate_program_instrumented(&req, &mut sink, &mut metrics)
        .expect("serial allocation succeeds");
    (alloc, sink.events, metrics)
}

/// Asserts one parallel run reproduces the serial reference exactly.
fn assert_matches_serial(
    label: &str,
    workers: usize,
    program: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
    serial: &(ProgramAllocation, Vec<AllocEvent>, MetricsRegistry),
) {
    let (serial_alloc, serial_events, serial_metrics) = serial;
    let driver = ParallelDriver::new(workers);
    let req = AllocRequest {
        program,
        freq,
        file,
        config: &config.clone(),
        cost: &CostModel::paper(),
    };
    let mut sink = RecordingSink::new();
    let mut metrics = MetricsRegistry::new();
    let (alloc, report, _) = driver
        .allocate_program_cached(
            &req,
            &mut sink,
            &mut metrics,
            &DefaultJob,
            &TimelineCollector::disabled(),
            FlightRecorder::disabled().view(0),
            None,
        )
        .expect("parallel allocation succeeds");

    // The allocation itself is equal, field for field.
    assert_eq!(
        &alloc, serial_alloc,
        "{label}: workers={workers} allocation differs from serial"
    );
    // Rewritten bodies are byte-identical.
    for id in program.func_ids() {
        assert_eq!(
            display_function(alloc.program.function(id)),
            display_function(serial_alloc.program.function(id)),
            "{label}: workers={workers} body of function {id:?} differs"
        );
    }
    // The merged trace stream equals the serial one once wall-clock
    // fields are normalized away.
    let par_norm: Vec<AllocEvent> = sink.events.iter().map(|e| e.clone().normalized()).collect();
    let ser_norm: Vec<AllocEvent> = serial_events
        .iter()
        .map(|e| e.clone().normalized())
        .collect();
    assert_eq!(
        par_norm, ser_norm,
        "{label}: workers={workers} normalized event stream differs"
    );
    // Every merged counter equals the serial registry's.
    for (name, value) in serial_metrics.counters() {
        assert_eq!(
            metrics.counter(name),
            value,
            "{label}: workers={workers} counter {name} differs"
        );
    }
    for (name, _) in metrics.counters() {
        assert!(
            serial_metrics.counters().any(|(n, _)| n == name),
            "{label}: workers={workers} invents counter {name}"
        );
    }
    // Deterministic histograms merge bucket-for-bucket; timing ones agree
    // on observation counts.
    for (name, h) in serial_metrics.histograms() {
        let m = metrics
            .histogram(name)
            .unwrap_or_else(|| panic!("{label}: histogram {name} present"));
        assert_eq!(m.count(), h.count(), "{label}: histogram {name} count");
        if !name.ends_with("_micros") {
            assert_eq!(m.sum(), h.sum(), "{label}: histogram {name} sum");
            assert_eq!(
                m.buckets(),
                h.buckets(),
                "{label}: histogram {name} buckets"
            );
        }
    }
    // Scheduling facts stay in the report and account for every job.
    assert_eq!(report.statuses.len(), program.num_functions());
    assert_eq!(report.degraded_funcs(), 0, "{label}: nothing degrades");
    let executed: u64 = report.jobs_per_worker.iter().sum();
    assert_eq!(executed, program.num_functions() as u64);
}

fn fig7_workloads() -> Vec<(&'static str, Program)> {
    vec![
        (
            "eqntott",
            spec_program_scaled(SpecProgram::Eqntott, Scale(1.0)),
        ),
        ("ear", spec_program_scaled(SpecProgram::Ear, Scale(1.0))),
        ("li", spec_program_scaled(SpecProgram::Li, Scale(1.0))),
    ]
}

fn many_function_fuzz(seed: u64, functions: usize) -> Program {
    random_program(
        seed,
        &FuzzConfig {
            functions,
            stmts_per_fn: 14,
            max_loop_depth: 2,
            max_trips: 5,
        },
    )
}

#[test]
fn fig7_workloads_are_deterministic_at_every_worker_count() {
    for (name, program) in fig7_workloads() {
        let freq = FrequencyInfo::profile(&program).expect("profile runs");
        for (config_label, config) in [
            ("improved", AllocatorConfig::improved()),
            ("base", AllocatorConfig::base()),
        ] {
            for file in [RegisterFile::new(8, 6, 2, 2), RegisterFile::new(6, 4, 0, 0)] {
                let serial = serial_reference(&program, &freq, file, &config);
                for workers in WORKER_COUNTS {
                    assert_matches_serial(
                        &format!("{name}/{config_label}"),
                        workers,
                        &program,
                        &freq,
                        file,
                        &config,
                        &serial,
                    );
                }
            }
        }
    }
}

#[test]
fn fuzzed_many_function_programs_are_deterministic_at_every_worker_count() {
    for seed in [7, 1997] {
        let program = many_function_fuzz(seed, 17);
        let freq = FrequencyInfo::profile(&program).expect("profile runs");
        let config = AllocatorConfig::improved();
        let file = RegisterFile::new(6, 4, 1, 1); // tight: spill rounds happen
        let serial = serial_reference(&program, &freq, file, &config);
        for workers in WORKER_COUNTS {
            assert_matches_serial(
                &format!("fuzz-{seed}"),
                workers,
                &program,
                &freq,
                file,
                &config,
                &serial,
            );
        }
    }
}

/// Four functions with enough shape that allocation is non-trivial.
fn four_func_program() -> Program {
    let mut p = Program::new();
    for (i, name) in ["main", "beta", "gamma", "delta"].iter().enumerate() {
        let mut b = FunctionBuilder::new(*name);
        let vs: Vec<_> = (0..6).map(|_| b.new_vreg(RegClass::Int)).collect();
        for (j, &v) in vs.iter().enumerate() {
            b.iconst(v, (i + j) as i64 + 1);
        }
        let iv = b.new_vreg(RegClass::Int);
        let n = b.new_vreg(RegClass::Int);
        let one = b.new_vreg(RegClass::Int);
        let acc = b.new_vreg(RegClass::Int);
        b.iconst(iv, 0);
        b.iconst(n, 4);
        b.iconst(one, 1);
        b.iconst(acc, 0);
        let head = b.reserve_block();
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.jump(head);
        b.switch_to(head);
        let c = b.new_vreg(RegClass::Int);
        b.cmp(CmpOp::Lt, c, iv, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.call(Callee::External("g"), vec![], None);
        for &v in &vs {
            b.binary(BinOp::Add, acc, acc, v);
        }
        b.binary(BinOp::Add, iv, iv, one);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(acc));
        let id = p.add_function(b.finish());
        if *name == "main" {
            p.set_main(id);
        }
    }
    p
}

/// A job that fails (or panics) on one function by name, delegating the
/// rest to the real allocator.
struct FaultyOn {
    victim: &'static str,
    panic: bool,
}

impl AllocJob for FaultyOn {
    fn run(
        &self,
        ctx: &JobCtx<'_>,
        sink: &mut dyn AllocSink,
        metrics: &mut MetricsRegistry,
    ) -> Result<(ccra_ir::Function, ccra_regalloc::FuncAllocation), AllocError> {
        if ctx.func.name() == self.victim {
            if self.panic {
                panic!("injected fault in {}", self.victim);
            }
            return Err(AllocError::SpillRoundsExceeded {
                func: self.victim.to_string(),
                rounds: 1,
                remaining_uncolored: 7,
            });
        }
        DefaultJob.run(ctx, sink, metrics)
    }
}

fn run_faulty(victim: &'static str, panic: bool, workers: usize) {
    let program = four_func_program();
    let freq = FrequencyInfo::profile(&program).expect("profile runs");
    let file = RegisterFile::new(8, 6, 2, 2);
    let config = AllocatorConfig::improved();
    let req = AllocRequest {
        program: &program,
        freq: &freq,
        file,
        config: &config,
        cost: &CostModel::paper(),
    };
    let driver = ParallelDriver::new(workers);
    let mut sink = RecordingSink::new();
    let mut metrics = MetricsRegistry::new();
    let (alloc, report, _) = driver
        .allocate_program_cached(
            &req,
            &mut sink,
            &mut metrics,
            &FaultyOn { victim, panic },
            &TimelineCollector::disabled(),
            FlightRecorder::disabled().view(0),
            None,
        )
        .expect("one faulty job must not sink the program");

    let victim_id = program.find(victim).expect("victim exists");
    assert_eq!(report.degraded_funcs(), 1, "exactly the victim degrades");
    assert!(report.statuses[victim_id.index()].is_degraded());
    assert!(alloc.per_func[victim_id.index()].degraded, "result flagged");
    let degraded_events: Vec<&AllocEvent> = sink
        .events
        .iter()
        .filter(|e| matches!(e, AllocEvent::Degraded(_)))
        .collect();
    assert_eq!(degraded_events.len(), 1, "one degraded event");
    if panic {
        match degraded_events[0] {
            AllocEvent::Degraded(info) => {
                assert_eq!(info.func, victim);
                assert!(
                    info.reason.contains("worker panicked")
                        && info.reason.contains("injected fault"),
                    "reason names the panic: {}",
                    info.reason
                );
            }
            _ => unreachable!(),
        }
    }
    assert_eq!(metrics.counter("alloc_degraded_total"), 1);

    // Every sibling completed strictly, and every function — the degraded
    // one included — passes the independent checker.
    for (id, f) in program.functions() {
        if id != victim_id {
            assert_eq!(
                report.statuses[id.index()],
                ccra_regalloc::JobStatus::Ok,
                "sibling {} unaffected",
                f.name()
            );
            assert!(!alloc.per_func[id.index()].degraded);
        }
        check_allocation(
            f,
            alloc.program.function(id),
            freq.func(id),
            &alloc.per_func[id.index()],
        )
        .unwrap_or_else(|v| panic!("function {} checker-clean: {v:?}", f.name()));
    }
}

/// Tracing a batch never changes its result: the allocation still equals
/// the serial reference, no scheduler counter leaks into the program
/// metrics, the timeline accounts for every job, and the report's summary
/// is deterministic in everything but the steal count.
#[test]
fn traced_batches_match_serial_and_summarize() {
    let program = four_func_program();
    let freq = FrequencyInfo::profile(&program).expect("profile runs");
    let file = RegisterFile::new(8, 6, 2, 2);
    let config = AllocatorConfig::improved();
    let serial = serial_reference(&program, &freq, file, &config);

    for workers in [1, 4] {
        let driver = ParallelDriver::new(workers);
        let req = AllocRequest {
            program: &program,
            freq: &freq,
            file,
            config: &config,
            cost: &CostModel::paper(),
        };
        let collector = TimelineCollector::enabled();
        let mut sink = RecordingSink::new();
        let mut metrics = MetricsRegistry::new();
        let (alloc, report, timeline) = driver
            .allocate_program_cached(
                &req,
                &mut sink,
                &mut metrics,
                &DefaultJob,
                &collector,
                FlightRecorder::disabled().view(0),
                None,
            )
            .expect("traced allocation succeeds");

        assert_eq!(&alloc, &serial.0, "tracing never changes the result");
        for (name, value) in serial.2.counters() {
            assert_eq!(
                metrics.counter(name),
                value,
                "workers={workers}: counter {name} differs under tracing"
            );
        }
        for (name, _) in metrics.counters() {
            assert!(
                serial.2.counters().any(|(n, _)| n == name),
                "workers={workers}: tracing leaks counter {name} into program metrics"
            );
        }

        assert_eq!(timeline.workers, workers);
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
        assert_eq!(job_spans, 4, "one job span per function");
        assert!(
            timeline.events.iter().any(|e| matches!(
                e,
                TimelineEvent::Span {
                    kind: SpanKind::Phase,
                    ..
                }
            )),
            "phase spans nest inside the job spans"
        );
        for tid in timeline.lane_ids() {
            assert!(
                (tid as usize) <= workers,
                "lane {tid} beyond the driver lane"
            );
        }

        let summary = report.summary();
        assert_eq!(summary.workers, workers);
        assert_eq!(summary.total_jobs, 4);
        assert_eq!(summary.degraded, 0);
        assert_eq!(summary.panics, 0);
        assert_eq!(summary.steals, report.steals);
        assert!(summary.to_string().contains("4 job(s)"), "{summary}");

        // The timeline's per-lane facts agree with the report's counts.
        assert_eq!(report.jobs_per_worker.iter().sum::<u64>(), 4);
        let lanes = timeline.summary().lanes;
        assert_eq!(lanes.iter().map(|l| l.jobs).sum::<u64>(), 4);
        assert_eq!(lanes.iter().map(|l| l.steals).sum::<u64>(), report.steals);
    }

    // A disabled collector is free: no events, and the report still
    // counts the jobs.
    let driver = ParallelDriver::new(4);
    let req = AllocRequest {
        program: &program,
        freq: &freq,
        file,
        config: &config,
        cost: &CostModel::paper(),
    };
    let (_, report, timeline) = driver
        .allocate_program_cached(
            &req,
            &mut RecordingSink::new(),
            &mut MetricsRegistry::new(),
            &DefaultJob,
            &TimelineCollector::disabled(),
            FlightRecorder::disabled().view(0),
            None,
        )
        .expect("untraced allocation succeeds");
    assert!(timeline.is_empty(), "disabled collector records nothing");
    assert_eq!(report.jobs_per_worker.iter().sum::<u64>(), 4);
}

#[test]
fn an_alloc_error_degrades_only_its_function() {
    for workers in [1, 4] {
        run_faulty("gamma", false, workers);
    }
}

#[test]
fn a_worker_panic_degrades_only_its_function() {
    for workers in [1, 4] {
        run_faulty("beta", true, workers);
    }
}

#[test]
fn batch_service_round_trips_jobs_and_isolates_failures() {
    let file = RegisterFile::new(8, 6, 2, 2);
    let service = BatchService::start(BatchConfig {
        workers: 2,
        queue_capacity: 4,
        shard_workers: 2,
        ..BatchConfig::default()
    });
    let mut expected = Vec::new();
    for (i, seed) in [3u64, 11, 42].iter().enumerate() {
        let name = format!("fuzz-{seed}");
        let id = service
            .submit(BatchJob::new(
                &name,
                many_function_fuzz(*seed, 5),
                file,
                AllocatorConfig::improved(),
            ))
            .expect("queue open");
        assert_eq!(id, i as u64, "ids are sequential");
        expected.push((id, name, true));
    }
    // A program with no main cannot be profiled: the job fails, honestly
    // and alone.
    let id = service
        .submit(BatchJob::new(
            "no-main",
            Program::new(),
            file,
            AllocatorConfig::base(),
        ))
        .expect("queue open");
    expected.push((id, "no-main".to_string(), false));

    let results = service.shutdown();
    assert_eq!(results.len(), expected.len());
    for (result, (id, name, ok)) in results.iter().zip(&expected) {
        assert_eq!(result.id, *id, "results sorted by submission id");
        assert_eq!(&result.name, name);
        if *ok {
            assert_eq!(result.status, BatchStatus::Ok);
            let alloc = result.allocation.as_ref().expect("allocation present");
            assert!(alloc.overhead.total() >= 0.0);
        } else {
            match &result.status {
                BatchStatus::Failed { error } => {
                    assert!(error.contains("profiling failed"), "honest error: {error}");
                }
                other => panic!("no-main job must fail, got {other:?}"),
            }
            assert!(result.allocation.is_none());
        }
    }
}

#[test]
fn batch_service_shutdown_with_nothing_submitted_is_clean() {
    let service = BatchService::start(BatchConfig::default());
    assert_eq!(service.pending(), 0);
    assert!(service.shutdown().is_empty());
}

/// Full observability on — timeline collector AND flight recorder — never
/// changes the allocation: at every worker count the observed run equals
/// the serial reference byte for byte, and the flight record holds no
/// degrade event.
#[test]
fn observed_runs_are_deterministic_at_every_worker_count() {
    let program = many_function_fuzz(1997, 17);
    let freq = FrequencyInfo::profile(&program).expect("profile runs");
    let config = AllocatorConfig::improved();
    let file = RegisterFile::new(6, 4, 1, 1);
    let serial = serial_reference(&program, &freq, file, &config);

    for workers in WORKER_COUNTS {
        let driver = ParallelDriver::new(workers);
        let req = AllocRequest {
            program: &program,
            freq: &freq,
            file,
            config: &config,
            cost: &CostModel::paper(),
        };
        let collector = TimelineCollector::enabled();
        let flight = FlightRecorder::new(workers + 1);
        let mut sink = RecordingSink::new();
        let mut metrics = MetricsRegistry::new();
        let (alloc, report, timeline) = driver
            .allocate_program_cached(
                &req,
                &mut sink,
                &mut metrics,
                &DefaultJob,
                &collector,
                flight.view(0),
                None,
            )
            .expect("observed allocation succeeds");

        assert_eq!(
            &alloc, &serial.0,
            "workers={workers}: observation changes the allocation"
        );
        for id in program.func_ids() {
            assert_eq!(
                display_function(alloc.program.function(id)),
                display_function(serial.0.program.function(id)),
                "workers={workers}: body of {id:?} differs under observation"
            );
        }
        let par_norm: Vec<AllocEvent> =
            sink.events.iter().map(|e| e.clone().normalized()).collect();
        let ser_norm: Vec<AllocEvent> = serial.1.iter().map(|e| e.clone().normalized()).collect();
        assert_eq!(
            par_norm, ser_norm,
            "workers={workers}: event stream differs under observation"
        );
        for (name, value) in serial.2.counters() {
            assert_eq!(
                metrics.counter(name),
                value,
                "workers={workers}: counter {name} differs under observation"
            );
        }
        assert!(!timeline.is_empty(), "the collector recorded");
        assert!(
            flight.total_events() >= program.num_functions() as u64 * 2,
            "a start and an end event per job at least"
        );
        assert_eq!(report.degraded_funcs(), 0);
        assert!(
            !flight.dump_json().contains("job_degraded"),
            "workers={workers}: clean runs record no degrade"
        );
    }
}

/// A degrading job leaves its failure event in the flight recorder, whose
/// dump is valid JSON.
#[test]
fn degraded_jobs_dump_the_flight_recorder_as_valid_json() {
    for (victim, panic, kind) in [
        ("gamma", false, "job_degraded"),
        ("beta", true, "job_panicked"),
    ] {
        let program = four_func_program();
        let freq = FrequencyInfo::profile(&program).expect("profile runs");
        let req = AllocRequest {
            program: &program,
            freq: &freq,
            file: RegisterFile::new(8, 6, 2, 2),
            config: &AllocatorConfig::improved(),
            cost: &CostModel::paper(),
        };
        let driver = ParallelDriver::new(2);
        let flight = FlightRecorder::new(3);
        let (_, report, _) = driver
            .allocate_program_cached(
                &req,
                &mut RecordingSink::new(),
                &mut MetricsRegistry::new(),
                &FaultyOn { victim, panic },
                &TimelineCollector::disabled(),
                flight.view(0),
                None,
            )
            .expect("the faulty job degrades, the batch survives");
        assert_eq!(report.degraded_funcs(), 1);

        let dump = flight.dump_json();
        let parsed = serde::json::parse(&dump).expect("dump is valid JSON");
        let Some(serde::json::Value::Arr(events)) = parsed.get("events") else {
            panic!("dump has an events array");
        };
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("kind").and_then(serde::json::Value::as_str))
            .collect();
        assert!(kinds.contains(&"job_start"), "victim={victim}: {kinds:?}");
        assert!(kinds.contains(&kind), "victim={victim}: {kinds:?}");
    }
}

/// A timeline wants phase timings, not the decision stream: under a live
/// collector and a [`NoopSink`](ccra_regalloc::NoopSink) the sink a job
/// runs against times phases but wants no events, so the pipeline builds
/// no decision, round, spill or function records — and the timeline still
/// carries every phase span.
#[test]
fn timeline_jobs_time_phases_without_building_events() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Probe {
        runs: AtomicUsize,
        wanting_events: AtomicUsize,
        timing_phases: AtomicUsize,
    }
    impl AllocJob for Probe {
        fn run(
            &self,
            ctx: &JobCtx<'_>,
            sink: &mut dyn AllocSink,
            metrics: &mut MetricsRegistry,
        ) -> Result<(ccra_ir::Function, ccra_regalloc::FuncAllocation), AllocError> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            if sink.enabled() {
                self.wanting_events.fetch_add(1, Ordering::Relaxed);
            }
            if sink.times_phases() {
                self.timing_phases.fetch_add(1, Ordering::Relaxed);
            }
            DefaultJob.run(ctx, sink, metrics)
        }
    }

    let program = four_func_program();
    let freq = FrequencyInfo::profile(&program).expect("profile runs");
    let config = AllocatorConfig::improved();
    let req = AllocRequest {
        program: &program,
        freq: &freq,
        file: RegisterFile::mips_full(),
        config: &config,
        cost: &CostModel::paper(),
    };
    let probe = Probe {
        runs: AtomicUsize::new(0),
        wanting_events: AtomicUsize::new(0),
        timing_phases: AtomicUsize::new(0),
    };
    let (alloc, _, timeline) = ParallelDriver::new(2)
        .allocate_program_cached(
            &req,
            &mut ccra_regalloc::NoopSink,
            &mut MetricsRegistry::disabled(),
            &probe,
            &TimelineCollector::enabled(),
            FlightRecorder::disabled().view(0),
            None,
        )
        .expect("allocation succeeds");
    let serial = serial_reference(&program, &freq, RegisterFile::mips_full(), &config);
    assert_eq!(alloc, serial.0, "the timeline never changes the result");
    assert_eq!(probe.runs.load(Ordering::Relaxed), 4);
    assert_eq!(probe.wanting_events.load(Ordering::Relaxed), 0);
    assert_eq!(probe.timing_phases.load(Ordering::Relaxed), 4);
    let phases: Vec<&str> = timeline
        .events
        .iter()
        .filter_map(|e| match e {
            TimelineEvent::Span {
                kind: SpanKind::Phase,
                name,
                ..
            } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for phase in ["build", "simplify", "select", "rewrite"] {
        assert!(phases.contains(&phase), "no {phase} span in {phases:?}");
    }
}

/// With an enabled recorder but a *disabled* view lane check: the
/// disabled recorder records nothing and dumps nothing, so the untraced
/// entry points stay zero-cost.
#[test]
fn disabled_recorders_stay_silent() {
    use ccra_regalloc::FlightKind;

    let rec = FlightRecorder::disabled();
    let view = rec.view(0);
    assert!(!rec.is_enabled());
    view.record(0, FlightKind::JobStart, 1, 0);
    assert_eq!(rec.total_events(), 0);
}

/// The tentpole determinism criterion of the quality observatory: scoring
/// is a pure post-pass on the deterministically merged allocation, so the
/// quality report's JSON is byte-identical at workers {1, 2, 4, 8} and
/// equal to scoring the serial allocation.
#[test]
fn quality_reports_are_byte_identical_at_any_worker_count() {
    use ccra_machine::CycleModel;
    use ccra_regalloc::score_program;

    let program = spec_program_scaled(SpecProgram::Eqntott, Scale(0.1));
    let freq = FrequencyInfo::estimate(&program);
    let file = RegisterFile::mips_full();
    let config = AllocatorConfig::improved();
    let cycles = CycleModel::decstation();

    let serial = ccra_regalloc::allocate_program(&program, &freq, file, &config)
        .expect("serial allocation succeeds");
    let serial_json = score_program(&serial, &freq, &config.label(), &cycles)
        .to_json_value()
        .to_json();
    assert!(!serial_json.is_empty());

    for workers in WORKER_COUNTS {
        let driver = ParallelDriver::new(workers);
        let req = AllocRequest {
            program: &program,
            freq: &freq,
            file,
            config: &config,
            cost: &CostModel::paper(),
        };
        let (alloc, _, _) = driver
            .allocate_program_cached(
                &req,
                &mut RecordingSink::new(),
                &mut MetricsRegistry::disabled(),
                &DefaultJob,
                &TimelineCollector::disabled(),
                FlightRecorder::disabled().view(0),
                None,
            )
            .expect("parallel allocation succeeds");
        let report = score_program(&alloc, &freq, &config.label(), &cycles);
        assert_eq!(
            report.to_json_value().to_json(),
            serial_json,
            "workers={workers}: quality report diverged from serial"
        );
    }
}
