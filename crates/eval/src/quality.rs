//! Allocation-quality scores: the fixed workload × allocator ×
//! register-file matrix the `quality` binary scores and the plain
//! [`QualityFile`] it writes. The tier-1 test
//! `crates/eval/tests/work_counts.rs` pins the scale-1.0 file exactly
//! against `crates/eval/baselines/quality_scale_1.json`.
//!
//! Where the repository benchmark asks "how fast does the allocator run",
//! this matrix asks "how good is the code it produces" — and whether
//! the cost model the allocator optimizes against still predicts what
//! the code actually does. Every cell allocates one
//! workload, scores the result with [`ccra_regalloc::score_program`]
//! (frequency-weighted estimate priced by the DECstation
//! [`CycleModel`], plus an interpreter replay measuring the overhead ops
//! the program really executes), and records both views side by side so
//! estimate-vs-measured drift is a first-class, exactly pinned number.
//!
//! The matrix deliberately scores under **static** frequency estimates
//! ([`FrequencyInfo::estimate`]): a dynamic profile would make the
//! estimate tautologically equal to the measurement. The drift column is
//! only informative when the estimate can be wrong.

use ccra_analysis::FrequencyInfo;
use ccra_ir::Program;
use ccra_machine::{CostModel, CycleModel, RegisterFile};
use ccra_regalloc::driver::{ChaosJob, DefaultJob, Fault};
use ccra_regalloc::{
    allocate_program, score_program, AllocError, AllocRequest, AllocatorConfig, FlightRecorder,
    MetricsRegistry, NoopSink, ParallelDriver, ProgramAllocation, QualityReport, TimelineCollector,
};
use ccra_workloads::{spec_program_scaled, Scale, SpecProgram};
use serde::Serialize;

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
/// what the tier-1 pin trips on.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
}

/// What `quality --out` writes: the scale the matrix ran at and its
/// cells, as plain JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
/// fallback, bypassing the configured allocator — the degraded path
/// `fuzzcheck` checks on every case. An injected error on every function
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
    }
}

/// Runs the fixed quality matrix at `scale`, invoking `progress` after
/// each cell.
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
    mut progress: impl FnMut(&QualityEntry),
) -> Result<Vec<QualityEntry>, AllocError> {
    let cycles = CycleModel::decstation();
    let mut entries = Vec::new();
    for workload in QUALITY_WORKLOADS {
        let program = spec_program_scaled(workload, scale);
        let freq = FrequencyInfo::estimate(&program);
        for config in quality_configs() {
            for (regs_label, file) in matrix_files() {
                let alloc = allocate_program(&program, &freq, file, &config)?;
                let report = score_program(&alloc, &freq, &config.label(), &cycles);
                let entry = entry_of(workload.name(), &config.label(), &regs_label, &report);
                progress(&entry);
                entries.push(entry);
            }
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_scores_every_cell() {
        let entries = run_quality_matrix(Scale(0.05), |_| {}).unwrap();
        let cells = QUALITY_WORKLOADS.len() * quality_configs().len() * matrix_files().len();
        assert_eq!(entries.len(), cells);
        // Replay succeeds on every cell, and the static estimate drifts
        // from the measurement somewhere (that is the point of scoring
        // under estimates).
        assert!(entries.iter().all(|e| e.replay_ok));
        assert!(entries.iter().any(|e| e.drift_pct != 0.0));
    }
}
