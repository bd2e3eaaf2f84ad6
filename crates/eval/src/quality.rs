//! Allocation-quality scores: the fixed workload × allocator ×
//! register-file matrix the `quality` binary scores, the plain
//! [`QualityFile`] it writes and checks, and the comparison behind its
//! `--check` regression gate.
//!
//! Where the repository benchmark asks "how fast does the allocator run",
//! this matrix asks "how good is the code it produces" — and whether
//! the cost model the allocator optimizes against still predicts what
//! the code actually does. Every cell allocates one
//! workload, scores the result with [`ccra_regalloc::score_program`]
//! (frequency-weighted estimate priced by the DECstation
//! [`CycleModel`], plus an interpreter replay measuring the overhead ops
//! the program really executes), and records both views side by side so
//! estimate-vs-measured drift is a first-class, regression-gated number.
//!
//! The matrix deliberately scores under **static** frequency estimates
//! ([`FrequencyInfo::estimate`]): a dynamic profile would make the
//! estimate tautologically equal to the measurement. The drift column is
//! only informative when the estimate can be wrong.
//!
//! Memory accounting rides along: each cell allocates into an enabled
//! [`MetricsRegistry`] and reads back the pipeline's working-set records
//! ([`ccra_regalloc::METRIC_MEM_PEAK`] and
//! [`ccra_regalloc::METRIC_MEM_RECORDS`]), so the scores also answer
//! "what did the allocation cost in working-set bytes".
//!
//! The `--degrade <workload>` escape hatch replaces the configured
//! allocator with the spill-everything fallback on one workload — an
//! intentional quality regression used to prove the `--check` gate
//! actually fires (see the CI `quality` job).

use ccra_analysis::FrequencyInfo;
use ccra_ir::Program;
use ccra_machine::{CostModel, CycleModel, RegisterFile};
use ccra_regalloc::driver::{ChaosJob, DefaultJob, Fault};
use ccra_regalloc::{
    allocate_program_instrumented, score_program, AllocError, AllocRequest, AllocatorConfig,
    FlightRecorder, MetricsRegistry, NoopSink, ParallelDriver, ProgramAllocation, QualityReport,
    TimelineCollector, METRIC_MEM_PEAK, METRIC_MEM_RECORDS,
};
use ccra_workloads::{spec_program_scaled, Scale, SpecProgram};
use serde::{Deserialize, Serialize};

/// The workloads of the fixed quality matrix: the paper's two running
/// examples (eqntott, ear) plus the deep call tree of li — all
/// call-heavy, so the call-cost decisions under test dominate the score.
/// Few workloads on purpose: every cell pays an interpreter replay, which
/// is far slower than the allocation itself.
pub const QUALITY_WORKLOADS: [SpecProgram; 3] =
    [SpecProgram::Eqntott, SpecProgram::Ear, SpecProgram::Li];

/// The register files of the fixed quality matrix, with stable labels.
pub fn matrix_files() -> Vec<(String, RegisterFile)> {
    vec![
        ("mips".to_string(), RegisterFile::mips_full()),
        ("tight".to_string(), RegisterFile::new(8, 6, 2, 2)),
    ]
}

/// One cell of the quality matrix: a workload under one allocator on one
/// register file, scored by the allocation-quality observatory
/// ([`ccra_regalloc::quality`]). The estimated numbers are deterministic
/// — a pure function of workload, allocator, and register file — so any
/// change between runs is an allocation-quality change, which is exactly
/// what the `quality --check` gate trips on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityEntry {
    /// The workload name.
    pub workload: String,
    /// The allocator configuration label (e.g. `"SC+BS+PR"`).
    pub config: String,
    /// The register-file label (see [`matrix_files`]).
    pub regs: String,
    /// Estimated execution cycles (weighted useful instructions plus the
    /// estimated overhead, priced by the DECstation cycle model).
    pub estimated_cycles: f64,
    /// Estimated spill overhead ops (frequency-weighted).
    pub est_spill_ops: f64,
    /// Estimated caller-save overhead ops.
    pub est_caller_save_ops: f64,
    /// Estimated callee-save overhead ops.
    pub est_callee_save_ops: f64,
    /// Estimated shuffle-move ops.
    pub est_shuffle_ops: f64,
    /// Overhead operations the interpreter actually executed replaying
    /// the allocated program (0 when the replay failed).
    pub measured_overhead_ops: f64,
    /// Measured execution cycles (0 when the replay failed).
    pub measured_cycles: f64,
    /// Estimate-vs-measured drift of total overhead ops, percent of the
    /// measured value (0 when the replay failed or measured nothing).
    pub drift_pct: f64,
    /// Whether the interpreter replay succeeded.
    pub replay_ok: bool,
    /// Live ranges spilled across the program.
    pub spilled_ranges: u64,
    /// Functions that took the degraded spill-everything fallback.
    pub degraded_funcs: u64,
    /// Peak working-set estimate, bytes
    /// ([`ccra_regalloc::METRIC_MEM_PEAK`]).
    pub mem_peak_bytes: u64,
    /// Working-set estimates recorded
    /// ([`ccra_regalloc::METRIC_MEM_RECORDS`]).
    pub mem_allocs: u64,
}

/// What `quality --out` writes and `quality --check` reads: the scale the
/// matrix ran at and its cells, as plain JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityFile {
    /// The workload scale the matrix ran at.
    pub scale: f64,
    /// One entry per matrix cell, in matrix order.
    pub quality: Vec<QualityEntry>,
}

/// The allocator configurations of the fixed quality matrix: the paper's
/// base allocator, the full improvement set, and the callee-save-aware
/// CBH variant — the three points the paper's quality claims compare.
pub fn quality_configs() -> Vec<AllocatorConfig> {
    vec![
        AllocatorConfig::base(),
        AllocatorConfig::improved(),
        AllocatorConfig::cbh(),
    ]
}

/// Allocates every function of `program` through the spill-everything
/// fallback, bypassing the configured allocator — the injected quality
/// regression behind `--degrade`. An injected error on every function
/// sends each one down the driver's degraded path, which records into
/// `metrics` like any allocation.
///
/// # Errors
///
/// Propagates [`AllocError`] from the fallback itself (a register file
/// below the ABI minimum).
pub fn degraded_program_allocation(
    program: &Program,
    freq: &FrequencyInfo,
    file: &RegisterFile,
    cost: &CostModel,
    metrics: &mut MetricsRegistry,
) -> Result<ProgramAllocation, AllocError> {
    let req = AllocRequest {
        program,
        freq,
        file: *file,
        // The fallback never consults the configuration.
        config: &AllocatorConfig::base(),
        cost,
    };
    let refuse_all = ChaosJob::new(&DefaultJob, Fault::Error, 0);
    let (alloc, _, _) = ParallelDriver::new(1).allocate_program_cached(
        &req,
        &mut NoopSink,
        metrics,
        &refuse_all,
        &TimelineCollector::disabled(),
        FlightRecorder::disabled().view(0),
        None,
    )?;
    Ok(alloc)
}

fn entry_of(
    workload: &str,
    config_label: &str,
    regs: &str,
    report: &QualityReport,
    metrics: &MetricsRegistry,
) -> QualityEntry {
    QualityEntry {
        workload: workload.to_string(),
        config: config_label.to_string(),
        regs: regs.to_string(),
        estimated_cycles: report.estimated_cycles,
        est_spill_ops: report.estimated.spill,
        est_caller_save_ops: report.estimated.caller_save,
        est_callee_save_ops: report.estimated.callee_save,
        est_shuffle_ops: report.estimated.shuffle,
        measured_overhead_ops: report.measured.map_or(0.0, |m| m.total()),
        measured_cycles: report.measured_cycles.unwrap_or(0.0),
        drift_pct: report.drift_pct().unwrap_or(0.0),
        replay_ok: report.replay_error.is_none(),
        spilled_ranges: report.funcs.iter().map(|f| f.spilled_ranges as u64).sum(),
        degraded_funcs: report.degraded_funcs() as u64,
        mem_peak_bytes: metrics.gauge(METRIC_MEM_PEAK).unwrap_or(0.0) as u64,
        mem_allocs: metrics.counter(METRIC_MEM_RECORDS),
    }
}

/// Runs the fixed quality matrix at `scale`, invoking `progress` after
/// each cell. `degrade` names a workload whose cells take the
/// spill-everything fallback instead of the configured allocator (the
/// gate-proving regression; `None` scores everything honestly).
///
/// Frequency info is always the static estimate (see the module docs),
/// the cost model is the paper's, and cycles are priced by
/// [`CycleModel::decstation`]. Deterministic: cells are scored serially
/// in matrix order by a pure post-pass over deterministic allocations.
///
/// # Errors
///
/// Returns the first [`AllocError`] hit (only the degraded fallback can
/// fail, and only on register files below the ABI minimum — not the
/// matrix files).
pub fn run_quality_matrix(
    scale: Scale,
    degrade: Option<&str>,
    mut progress: impl FnMut(&QualityEntry),
) -> Result<Vec<QualityEntry>, AllocError> {
    let cost = CostModel::paper();
    let cycles = CycleModel::decstation();
    let mut entries = Vec::new();
    for workload in QUALITY_WORKLOADS {
        let program = spec_program_scaled(workload, scale);
        let freq = FrequencyInfo::estimate(&program);
        for config in quality_configs() {
            for (regs_label, file) in matrix_files() {
                let mut metrics = MetricsRegistry::new();
                let alloc = if degrade == Some(workload.name()) {
                    degraded_program_allocation(&program, &freq, &file, &cost, &mut metrics)?
                } else {
                    let req = AllocRequest {
                        program: &program,
                        freq: &freq,
                        file,
                        config: &config,
                        cost: &cost,
                    };
                    allocate_program_instrumented(&req, &mut NoopSink, &mut metrics)?
                };
                let report = score_program(&alloc, &freq, &config.label(), &cycles);
                let entry = entry_of(
                    workload.name(),
                    &config.label(),
                    &regs_label,
                    &report,
                    &metrics,
                );
                progress(&entry);
                entries.push(entry);
            }
        }
    }
    Ok(entries)
}

/// One cell's estimated-cycle delta between two quality sections.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityDelta {
    /// `workload [config] regs`.
    pub key: String,
    /// Baseline estimated execution cycles.
    pub baseline_cycles: f64,
    /// Current estimated execution cycles.
    pub current_cycles: f64,
    /// Percent change (positive = current costs more).
    pub delta_pct: f64,
    /// Whether this cell alone exceeds the regression threshold.
    pub exceeded: bool,
}

/// The verdict of comparing two quality sections.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityComparison {
    /// Per-cell deltas, in baseline order.
    pub per_entry: Vec<QualityDelta>,
    /// Baseline cells absent from the current run.
    pub missing: Vec<String>,
    /// Sum of baseline estimated cycles.
    pub baseline_cycles: f64,
    /// Sum of current estimated cycles (over cells present in both).
    pub current_cycles: f64,
    /// Aggregate percent change.
    pub delta_pct: f64,
    /// True when any cell (or the aggregate) got more than `threshold`
    /// percent costlier, or a baseline cell went missing.
    pub regressed: bool,
}

fn cell_key(e: &QualityEntry) -> String {
    format!("{} [{}] {}", e.workload, e.config, e.regs)
}

/// Compares two runs' quality cells: exceeding `threshold` percent more
/// estimated cycles — per cell or in aggregate — is a regression, as is
/// a baseline cell missing from the current run. Cheaper is never a
/// regression (the gate is one-sided).
///
/// # Errors
///
/// Returns an error when the baseline has no quality cells to compare
/// against (regenerate it with the `quality` binary).
pub fn compare_quality(
    baseline: &[QualityEntry],
    current: &[QualityEntry],
    threshold: f64,
) -> Result<QualityComparison, String> {
    if baseline.is_empty() {
        return Err(
            "baseline has no quality cells; regenerate it with the quality binary".to_string(),
        );
    }
    let mut per_entry = Vec::new();
    let mut missing = Vec::new();
    let mut baseline_cycles = 0.0;
    let mut current_cycles = 0.0;
    let mut any_exceeded = false;
    for b in baseline {
        let key = cell_key(b);
        match current.iter().find(|c| cell_key(c) == key) {
            Some(c) => {
                let delta_pct = if b.estimated_cycles == 0.0 {
                    if c.estimated_cycles == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    100.0 * (c.estimated_cycles - b.estimated_cycles) / b.estimated_cycles
                };
                let exceeded = delta_pct > threshold;
                any_exceeded |= exceeded;
                baseline_cycles += b.estimated_cycles;
                current_cycles += c.estimated_cycles;
                per_entry.push(QualityDelta {
                    key,
                    baseline_cycles: b.estimated_cycles,
                    current_cycles: c.estimated_cycles,
                    delta_pct,
                    exceeded,
                });
            }
            None => missing.push(key),
        }
    }
    let delta_pct = if baseline_cycles == 0.0 {
        0.0
    } else {
        100.0 * (current_cycles - baseline_cycles) / baseline_cycles
    };
    let regressed = any_exceeded || delta_pct > threshold || !missing.is_empty();
    Ok(QualityComparison {
        per_entry,
        missing,
        baseline_cycles,
        current_cycles,
        delta_pct,
        regressed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, config: &str, cycles: f64) -> QualityEntry {
        QualityEntry {
            workload: workload.to_string(),
            config: config.to_string(),
            regs: "mips".to_string(),
            estimated_cycles: cycles,
            est_spill_ops: 0.0,
            est_caller_save_ops: 0.0,
            est_callee_save_ops: 0.0,
            est_shuffle_ops: 0.0,
            measured_overhead_ops: 0.0,
            measured_cycles: 0.0,
            drift_pct: 0.0,
            replay_ok: true,
            spilled_ranges: 0,
            degraded_funcs: 0,
            mem_peak_bytes: 0,
            mem_allocs: 0,
        }
    }

    #[test]
    fn matrix_scores_every_cell_and_degrade_inflates_one_workload() {
        let scale = Scale(0.05);
        let honest = run_quality_matrix(scale, None, |_| {}).unwrap();
        let cells = QUALITY_WORKLOADS.len() * quality_configs().len() * matrix_files().len();
        assert_eq!(honest.len(), cells);
        // Replay succeeds on every honest cell, and the static estimate
        // drifts from the measurement somewhere (that is the point of
        // scoring under estimates).
        assert!(honest.iter().all(|e| e.replay_ok));
        assert!(honest.iter().any(|e| e.drift_pct != 0.0));
        // Every allocation recorded its working set.
        assert!(honest
            .iter()
            .all(|e| e.mem_peak_bytes > 0 && e.mem_allocs > 0));

        let degraded =
            run_quality_matrix(scale, Some(SpecProgram::Eqntott.name()), |_| {}).unwrap();
        // The degraded workload's cells cost strictly more than their
        // honest counterparts; other workloads are untouched.
        for (h, d) in honest.iter().zip(&degraded) {
            assert_eq!(cell_key(h), cell_key(d));
            if h.workload == SpecProgram::Eqntott.name() {
                assert!(d.estimated_cycles > h.estimated_cycles, "{}", cell_key(h));
                assert!(d.spilled_ranges > h.spilled_ranges);
            } else {
                assert_eq!(h, d, "{}", cell_key(h));
            }
        }
    }

    #[test]
    fn compare_flags_per_cell_and_aggregate_regressions() {
        let baseline = vec![cell("a", "base", 1000.0), cell("b", "base", 1000.0)];

        // Within threshold: not a regression.
        let ok = vec![cell("a", "base", 1040.0), cell("b", "base", 990.0)];
        let cmp = compare_quality(&baseline, &ok, 10.0).unwrap();
        assert!(!cmp.regressed);
        assert_eq!(cmp.per_entry.len(), 2);

        // One cell over threshold regresses even when the aggregate is
        // within bounds.
        let one_bad = vec![cell("a", "base", 1200.0), cell("b", "base", 900.0)];
        let cmp = compare_quality(&baseline, &one_bad, 10.0).unwrap();
        assert!(cmp.regressed);
        assert!(cmp.per_entry.iter().any(|d| d.exceeded));
        assert!(cmp.delta_pct < 10.0);

        // Cheaper is never a regression.
        let better = vec![cell("a", "base", 500.0), cell("b", "base", 500.0)];
        assert!(!compare_quality(&baseline, &better, 10.0).unwrap().regressed);

        // A missing cell is a regression; an empty baseline is an error.
        let cmp = compare_quality(&baseline, &[cell("a", "base", 1000.0)], 10.0).unwrap();
        assert!(cmp.regressed);
        assert_eq!(cmp.missing, vec!["b [base] mips".to_string()]);
        assert!(compare_quality(&[], &ok, 10.0).is_err());
    }
}
