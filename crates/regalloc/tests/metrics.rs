//! The metrics layer's pipeline contract:
//!
//! * an instrumented run populates the counters, gauges, and per-phase
//!   histograms the work-count gate depends on, and its aggregates agree with
//!   the per-event trace stream;
//! * a disabled registry records nothing and does not perturb the
//!   allocation (same results as the plain entry point);
//! * per-function registries merged equal the program-level registry on
//!   every deterministic metric.

use ccra_analysis::FrequencyInfo;
use ccra_ir::{BinOp, Callee, CmpOp, FunctionBuilder, Program, RegClass};
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::trace::Phase;
use ccra_regalloc::{
    allocate_function_instrumented, allocate_program, allocate_program_instrumented, AllocEvent,
    AllocRequest, AllocatorConfig, JobCtx, MetricsRegistry, NoopSink, RecordingSink,
};

/// Two functions with a call-carrying loop each: enough shape for spills,
/// coalescing, and multi-function aggregation.
fn two_func_program(k: usize, trips: i64) -> Program {
    let mut p = Program::new();
    for name in ["main", "aux"] {
        let mut b = FunctionBuilder::new(name);
        let vs: Vec<_> = (0..k).map(|_| b.new_vreg(RegClass::Int)).collect();
        for (j, &v) in vs.iter().enumerate() {
            b.iconst(v, j as i64 + 1);
        }
        let i = b.new_vreg(RegClass::Int);
        let n = b.new_vreg(RegClass::Int);
        let one = b.new_vreg(RegClass::Int);
        let acc = b.new_vreg(RegClass::Int);
        b.iconst(i, 0);
        b.iconst(n, trips);
        b.iconst(one, 1);
        b.iconst(acc, 0);
        let head = b.reserve_block();
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.jump(head);
        b.switch_to(head);
        let c = b.new_vreg(RegClass::Int);
        b.cmp(CmpOp::Lt, c, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.call(Callee::External("g"), vec![], None);
        for &v in &vs {
            b.binary(BinOp::Add, acc, acc, v);
        }
        b.binary(BinOp::Add, i, i, one);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(acc));
        let id = p.add_function(b.finish());
        if name == "main" {
            p.set_main(id);
        }
    }
    p
}

#[test]
fn instrumented_run_populates_counters_gauges_and_histograms() {
    let p = two_func_program(9, 13);
    let freq = FrequencyInfo::profile(&p).expect("profile runs");
    let file = RegisterFile::new(6, 4, 1, 0); // tight: forces spill rounds
    let mut metrics = MetricsRegistry::new();
    let req = AllocRequest {
        program: &p,
        freq: &freq,
        file,
        config: &AllocatorConfig::improved(),
        cost: &CostModel::paper(),
    };
    let out = allocate_program_instrumented(&req, &mut NoopSink, &mut metrics)
        .expect("allocation succeeds");

    assert_eq!(metrics.counter("alloc_programs_total"), 1);
    assert_eq!(metrics.counter("alloc_functions_total"), 2);
    assert_eq!(metrics.counter("alloc_degraded_total"), 0);
    let rounds: u64 = out.per_func.iter().map(|fa| u64::from(fa.rounds)).sum();
    assert_eq!(metrics.counter("alloc_rounds_total"), rounds);
    assert!(rounds > 2, "the tight file must force extra rounds");
    let spilled: u64 = out.per_func.iter().map(|fa| fa.spilled_ranges as u64).sum();
    assert_eq!(metrics.counter("spill_ranges_total"), spilled);
    assert!(metrics.counter("chaitin_banks_total") >= rounds);
    assert!(metrics.counter("select_colored_total") > 0);
    assert!(metrics.counter("analysis_web_refs_total") > 0);

    // Per-phase wall-clock histograms: one build per (re)build round, one
    // program-level observation, per-round shapes.
    for phase in [Phase::Build, Phase::Simplify, Phase::Select] {
        let h = metrics
            .histogram(phase.metric_name())
            .unwrap_or_else(|| panic!("{} observed", phase.metric_name()));
        assert!(h.count() > 0);
    }
    assert_eq!(
        metrics.histogram("program_alloc_micros").map(|h| h.count()),
        Some(1)
    );
    assert_eq!(
        metrics.histogram("func_alloc_micros").map(|h| h.count()),
        Some(2)
    );
    assert_eq!(
        metrics.histogram("func_rounds").map(|h| h.sum()),
        Some(rounds)
    );
    assert_eq!(
        metrics.histogram("graph_nodes").map(|h| h.count()),
        Some(rounds)
    );
    assert_eq!(
        metrics
            .histogram("analysis_liveness_iterations")
            .map(|h| h.count() > 0),
        Some(true)
    );
    assert!(metrics.gauge("graph_nodes_peak").unwrap_or(0.0) > 0.0);
    assert!(metrics.gauge("graph_max_degree_peak").unwrap_or(0.0) > 0.0);

    // Exporters render the real contents.
    let prom = metrics.to_prometheus_text();
    assert!(prom.contains("alloc_functions_total 2"));
    assert!(prom.contains("# TYPE phase_build_micros histogram"));
    let json = metrics.to_json();
    assert!(json.contains("\"alloc_functions_total\":2"));
}

#[test]
fn metrics_agree_with_the_trace_event_stream() {
    let p = two_func_program(10, 7);
    let freq = FrequencyInfo::profile(&p).expect("profile runs");
    let file = RegisterFile::new(6, 4, 0, 0);
    let mut metrics = MetricsRegistry::new();
    let mut sink = RecordingSink::new();
    let req = AllocRequest {
        program: &p,
        freq: &freq,
        file,
        config: &AllocatorConfig::base(),
        cost: &CostModel::paper(),
    };
    allocate_program_instrumented(&req, &mut sink, &mut metrics).expect("allocation succeeds");

    let traced_spills: u64 = sink
        .events
        .iter()
        .filter_map(|e| match e {
            AllocEvent::Spill(s) => Some(s.spilled as u64),
            _ => None,
        })
        .sum();
    assert_eq!(metrics.counter("spill_ranges_total"), traced_spills);
    let traced_rounds = sink
        .events
        .iter()
        .filter(|e| matches!(e, AllocEvent::Round(_)))
        .count() as u64;
    assert_eq!(metrics.counter("alloc_rounds_total"), traced_rounds);
    // Every phase span in the stream has a histogram observation.
    let traced_phases = sink
        .events
        .iter()
        .filter(|e| matches!(e, AllocEvent::Phase(_)))
        .count() as u64;
    let histogram_phases: u64 = Phase::ALL
        .iter()
        .filter_map(|ph| metrics.histogram(ph.metric_name()))
        .map(|h| h.count())
        .sum();
    assert_eq!(histogram_phases, traced_phases);
}

#[test]
fn disabled_metrics_add_no_events_and_do_not_perturb_the_allocation() {
    let p = two_func_program(8, 11);
    let freq = FrequencyInfo::profile(&p).expect("profile runs");
    let file = RegisterFile::new(8, 6, 2, 2);
    let config = AllocatorConfig::improved();
    let plain = allocate_program(&p, &freq, file, &config).expect("plain allocation");
    let mut metrics = MetricsRegistry::disabled();
    let req = AllocRequest {
        program: &p,
        freq: &freq,
        file,
        config: &config,
        cost: &CostModel::paper(),
    };
    let instrumented = allocate_program_instrumented(&req, &mut NoopSink, &mut metrics)
        .expect("instrumented allocation");
    assert!(metrics.is_empty(), "a disabled registry records nothing");
    assert_eq!(metrics.counter("alloc_programs_total"), 0);
    assert!(metrics.histogram("program_alloc_micros").is_none());
    assert_eq!(plain.overhead.total(), instrumented.overhead.total());
    for (a, b) in plain.per_func.iter().zip(instrumented.per_func.iter()) {
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.spilled_ranges, b.spilled_ranges);
        assert_eq!(a.assignment, b.assignment);
    }
}

#[test]
fn per_function_registries_merge_to_the_program_registry() {
    let p = two_func_program(9, 5);
    let freq = FrequencyInfo::profile(&p).expect("profile runs");
    let file = RegisterFile::new(6, 4, 1, 1);
    let config = AllocatorConfig::improved();
    let cost = CostModel::paper();

    let mut program_metrics = MetricsRegistry::new();
    let req = AllocRequest {
        program: &p,
        freq: &freq,
        file,
        config: &config,
        cost: &cost,
    };
    allocate_program_instrumented(&req, &mut NoopSink, &mut program_metrics)
        .expect("program allocation");

    let mut merged = MetricsRegistry::new();
    for (id, f) in p.functions() {
        let mut per_func = MetricsRegistry::new();
        let job = JobCtx {
            func: f,
            freq: freq.func(id),
            file: &file,
            config: &config,
            cost: &cost,
        };
        allocate_function_instrumented(&job, &mut NoopSink, &mut per_func)
            .expect("function allocation");
        merged.merge(&per_func);
    }

    // Every counter is deterministic; the program registry adds only the
    // program-level counter on top of the merged per-function ones.
    for (name, value) in program_metrics.counters() {
        let expected = if name == "alloc_programs_total" {
            0
        } else {
            value
        };
        assert_eq!(
            merged.counter(name),
            expected,
            "counter {name} must merge exactly"
        );
    }
    // Deterministic (non-timing) histograms merge bucket-for-bucket;
    // timing histograms agree on observation counts.
    for (name, h) in program_metrics.histograms() {
        if name == "program_alloc_micros" {
            continue;
        }
        let m = merged
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram {name} present after merge"));
        assert_eq!(m.count(), h.count(), "histogram {name} count");
        if !name.ends_with("_micros") {
            assert_eq!(m.sum(), h.sum(), "histogram {name} sum");
            assert_eq!(m.buckets(), h.buckets(), "histogram {name} buckets");
        }
    }
}

/// Drift guard: `Phase::ALL` and the per-phase names stay in lockstep
/// with the enum. The `match` below is deliberately exhaustive with no
/// wildcard — adding a `Phase` variant fails to compile right here,
/// forcing `EXPECTED_PHASES`, `Phase::ALL`, and the name tables to be
/// extended together.
#[test]
fn every_phase_is_in_all_with_a_unique_metric_name() {
    const EXPECTED_PHASES: usize = 7;
    fn witness(p: Phase) {
        match p {
            Phase::Build
            | Phase::Coalesce
            | Phase::Simplify
            | Phase::Select
            | Phase::SpillInsert
            | Phase::Reconstruct
            | Phase::Rewrite => {}
        }
    }
    assert_eq!(
        Phase::ALL.len(),
        EXPECTED_PHASES,
        "a Phase variant was added without extending Phase::ALL"
    );
    for p in Phase::ALL {
        witness(p);
    }
    let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    let mut metric_names: Vec<&str> = Phase::ALL.iter().map(|p| p.metric_name()).collect();
    names.sort_unstable();
    metric_names.sort_unstable();
    names.dedup();
    metric_names.dedup();
    assert_eq!(names.len(), EXPECTED_PHASES, "phase names are unique");
    assert_eq!(
        metric_names.len(),
        EXPECTED_PHASES,
        "phase metric names are unique"
    );
    for (p, m) in Phase::ALL
        .iter()
        .zip(Phase::ALL.iter().map(|p| p.metric_name()))
    {
        assert!(
            m.starts_with("phase_") && m.ends_with("_micros"),
            "{:?} metric name {m} follows the phase_*_micros convention",
            p
        );
    }
}
