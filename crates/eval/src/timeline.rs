//! The driver-timeline capture behind the `timeline` binary: run one
//! program through [`ParallelDriver`] with a [`TimelineCollector`]
//! enabled, export the merged timeline as Chrome Trace Event JSON, and
//! validate the export the way CI does.
//!
//! Workload selection mirrors the other binaries — any SPEC92-like
//! program by name — plus `fuzzN` (e.g. `fuzz64`) for a deterministic
//! N-function program when the point is worker occupancy rather than
//! realism. The default is [`DEFAULT_WORKLOAD`] (`li`): with 4 functions
//! it is the widest member of the fig-7 workload family, so a 4-worker
//! capture gets one job per worker. The spec programs have 1–5 functions
//! each; the driver clamps its worker count to the function count, so
//! asking for more workers than functions records fewer lanes — the
//! binary validates against the *actual* worker count the report states.

use ccra_analysis::FrequencyInfo;
use ccra_ir::Program;
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::driver::DefaultJob;
use ccra_regalloc::trace::chrometrace;
use ccra_regalloc::{
    AllocRequest, AllocatorConfig, DriverReport, FlightRecorder, MetricsRegistry, NoopSink,
    ParallelDriver, Timeline, TimelineCollector,
};
use ccra_workloads::{random_program, spec_program_scaled, FuzzConfig, Scale, SpecProgram};
use serde::json::Value;

/// The workload the `timeline` binary captures when none is named.
pub const DEFAULT_WORKLOAD: &str = "li";

/// Resolves a workload name: a SPEC92-like program (scaled), or `fuzzN`
/// for a deterministic N-function fuzz program (scale-independent, same
/// seed and shape as the `par` sweep's). `None` for unknown names.
pub fn build_workload(name: &str, scale: Scale) -> Option<Program> {
    if let Some(n) = name.strip_prefix("fuzz") {
        let functions: usize = n.parse().ok().filter(|&f| f > 0 && f <= 4096)?;
        return Some(random_program(
            1997,
            &FuzzConfig {
                functions,
                stmts_per_fn: 12,
                max_loop_depth: 1,
                max_trips: 4,
            },
        ));
    }
    SpecProgram::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .map(|p| spec_program_scaled(p, scale))
}

/// Runs one traced allocation: the improved allocator on the full MIPS
/// file, `workers` driver threads, timeline collection on.
///
/// # Errors
///
/// Reports profiling or allocation failures as rendered strings.
pub fn run_traced(
    program: &Program,
    workers: usize,
    config: &AllocatorConfig,
) -> Result<(Timeline, DriverReport), String> {
    let freq = FrequencyInfo::profile(program).map_err(|e| format!("failed to profile: {e}"))?;
    let cost = CostModel::paper();
    let req = AllocRequest {
        program,
        freq: &freq,
        file: RegisterFile::mips_full(),
        config,
        cost: &cost,
    };
    let driver = ParallelDriver::new(workers);
    let collector = TimelineCollector::enabled();
    let (_, report, timeline) = driver
        .allocate_program_cached(
            &req,
            &mut NoopSink,
            &mut MetricsRegistry::disabled(),
            &DefaultJob,
            &collector,
            FlightRecorder::disabled().view(0),
            None,
        )
        .map_err(|e| format!("allocation failed: {e}"))?;
    Ok((timeline, report))
}

/// Validates an exported Chrome trace the way CI's smoke step does: the
/// JSON parses, declares exactly `workers` worker lanes plus the driver
/// lane, and contains at least one job span, one nested phase span, and a
/// queue-depth counter sample.
///
/// # Errors
///
/// Returns a message naming the first failed check.
pub fn validate_chrome_trace(json: &str, workers: usize) -> Result<(), String> {
    let trace = serde::json::parse(json).map_err(|e| format!("trace does not parse: {e:?}"))?;
    let lanes = chrometrace::lane_count(&trace);
    if lanes != workers + 1 {
        return Err(format!(
            "expected {} lanes ({workers} worker(s) + driver), found {lanes}",
            workers + 1
        ));
    }
    let Some(Value::Arr(events)) = trace.get("traceEvents") else {
        return Err("no traceEvents array".to_string());
    };
    let has_cat = |cat: &str| {
        events
            .iter()
            .any(|e| matches!(e.get("cat"), Some(Value::Str(c)) if c == cat))
    };
    if !has_cat("job") {
        return Err("no job span in trace".to_string());
    }
    if !has_cat("phase") {
        return Err("no nested phase span in trace".to_string());
    }
    let has_counter = events.iter().any(|e| {
        matches!(e.get("ph"), Some(Value::Str(p)) if p == "C")
            && matches!(e.get("name"), Some(Value::Str(n)) if n.starts_with("queue depth"))
    });
    if !has_counter {
        return Err("no queue-depth counter track in trace".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccra_regalloc::trace::chrometrace::to_chrome_trace_json;

    #[test]
    fn default_workload_fills_four_workers() {
        let program = build_workload(DEFAULT_WORKLOAD, Scale(0.05)).expect("li exists");
        let (timeline, report) =
            run_traced(&program, 4, &AllocatorConfig::improved()).expect("li allocates");
        assert_eq!(report.workers, 4, "li has 4 functions — one per worker");
        let json = to_chrome_trace_json(&timeline);
        validate_chrome_trace(&json, report.workers).expect("export validates");
        let summary = timeline.summary();
        assert_eq!(summary.lanes.iter().map(|l| l.jobs).sum::<u64>(), 4);
        assert_eq!(report.jobs_per_worker.iter().sum::<u64>(), 4);
    }

    #[test]
    fn fuzz_workloads_parse_and_spec_names_resolve() {
        assert!(build_workload("fuzz8", Scale(1.0)).is_some());
        assert!(build_workload("eqntott", Scale(0.05)).is_some());
        assert!(build_workload("fuzz0", Scale(1.0)).is_none());
        assert!(build_workload("fuzzily", Scale(1.0)).is_none());
        assert!(build_workload("nonesuch", Scale(1.0)).is_none());
    }

    #[test]
    fn validation_rejects_wrong_lane_counts() {
        let program = build_workload("eqntott", Scale(0.05)).expect("eqntott exists");
        let (timeline, report) =
            run_traced(&program, 1, &AllocatorConfig::improved()).expect("allocates");
        assert_eq!(report.workers, 1);
        let json = to_chrome_trace_json(&timeline);
        validate_chrome_trace(&json, 1).expect("1 worker + driver lane");
        validate_chrome_trace(&json, 4).expect_err("wrong worker count fails");
        validate_chrome_trace("not json", 1).expect_err("garbage fails");
    }
}
