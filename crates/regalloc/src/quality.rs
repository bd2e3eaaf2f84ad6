//! The allocation-quality observatory: scores a finished
//! [`ProgramAllocation`] on *how good the allocation is*, not how fast it
//! was produced.
//!
//! Two independent views of the same program are combined:
//!
//! * **Estimated** cost — the frequency-weighted overhead the allocator
//!   itself believes it inserted: a walk of the rewritten instruction
//!   streams weighting every `SpillLoad`/`SpillStore`/`Overhead` marker
//!   by its block's execution frequency
//!   ([`crate::accounting::weighted_overhead`]), converted to cycles by a
//!   [`CycleModel`].
//! * **Measured** cost — the overhead operations the deterministic
//!   interpreter actually executes when the allocated program is replayed
//!   ([`ccra_analysis::run`]): whole-program overhead counters plus
//!   per-function attribution via the replay's block counts (block ids
//!   are stable across the rewrite — spill insertion adds instructions,
//!   never blocks).
//!
//! Under a *dynamic* frequency profile the two agree exactly (the
//! estimate is the measurement, a property the pipeline tests pin); under
//! *static* loop-depth estimates they drift, and that drift —
//! [`QualityReport::drift_pct`] — is itself the observable: it says how
//! far the allocator's cost model is from the truth on this workload.
//!
//! Everything here is a **pure post-pass** over the merged
//! [`ProgramAllocation`]. The parallel driver's ordering invariant
//! (per-function results indexed by function id, byte-identical merge at
//! any worker count) therefore extends to quality reports for free:
//! scoring the merge of N workers produces the same bytes as scoring the
//! serial allocation — a property the driver tests pin at workers
//! 1/2/4/8.

use ccra_analysis::{FrequencyInfo, InterpConfig, RunStats};
use ccra_ir::{FuncId, Function, Inst, OverheadKind};
use ccra_machine::CycleModel;
use serde::json::Value;

use crate::accounting::{measured_overhead, weighted_overhead};
use crate::pipeline::ProgramAllocation;
use crate::types::Overhead;

/// One function's quality scores within a [`QualityReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FuncQuality {
    /// The function name.
    pub func: String,
    /// Estimated (frequency-weighted) overhead of the rewritten body.
    pub estimated: Overhead,
    /// Replay-measured overhead attributed to this function via block
    /// counts; `None` when the replay failed or never ran.
    pub measured: Option<Overhead>,
    /// Live ranges spilled across all rounds.
    pub spilled_ranges: usize,
    /// Distinct callee-save registers used.
    pub callee_regs_used: usize,
    /// Whether this function took the degraded spill-everything fallback.
    pub degraded: bool,
    /// How many times the replay entered this function (`None` without a
    /// replay).
    pub entry_count: Option<u64>,
}

/// The quality score of one allocated program (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// The allocator configuration label (e.g. `SC+BS+PR`).
    pub config: String,
    /// Per-function scores, in function-id order.
    pub funcs: Vec<FuncQuality>,
    /// Whole-program estimated overhead (sum of the per-function
    /// estimates).
    pub estimated: Overhead,
    /// Estimated execution cycles: weighted useful instructions plus the
    /// estimated overhead, priced by the [`CycleModel`].
    pub estimated_cycles: f64,
    /// Whole-program overhead the interpreter actually executed; `None`
    /// when the replay failed.
    pub measured: Option<Overhead>,
    /// Measured execution cycles (replayed steps + measured overhead,
    /// same [`CycleModel`]); `None` when the replay failed.
    pub measured_cycles: Option<f64>,
    /// Why the replay failed, when it did (a program without `main`, a
    /// step-limit abort). Scoring never aborts on a replay failure — the
    /// estimate is still a score.
    pub replay_error: Option<String>,
}

impl QualityReport {
    /// Estimate-vs-measured drift of total overhead ops, percent of the
    /// measured value: `100 × (estimated − measured) / measured`. `None`
    /// without a replay; `0` when both are zero.
    pub fn drift_pct(&self) -> Option<f64> {
        let measured = self.measured?.total();
        let estimated = self.estimated.total();
        if measured == 0.0 {
            return Some(if estimated == 0.0 { 0.0 } else { f64::INFINITY });
        }
        Some(100.0 * (estimated - measured) / measured)
    }

    /// Functions that took the degraded fallback.
    pub fn degraded_funcs(&self) -> usize {
        self.funcs.iter().filter(|f| f.degraded).count()
    }

    /// The report as a deterministic JSON object (functions in id order)
    /// — the `quality` payload of `/status` and the explain/eval
    /// snapshots.
    pub fn to_json_value(&self) -> Value {
        let overhead_value = |o: &Overhead| {
            Value::Obj(vec![
                ("spill".to_string(), Value::Float(o.spill)),
                ("caller_save".to_string(), Value::Float(o.caller_save)),
                ("callee_save".to_string(), Value::Float(o.callee_save)),
                ("shuffle".to_string(), Value::Float(o.shuffle)),
                ("total".to_string(), Value::Float(o.total())),
            ])
        };
        let funcs = self
            .funcs
            .iter()
            .map(|f| {
                let mut fields = vec![
                    ("func".to_string(), Value::Str(f.func.clone())),
                    ("estimated".to_string(), overhead_value(&f.estimated)),
                    (
                        "spilled_ranges".to_string(),
                        Value::Int(f.spilled_ranges as i64),
                    ),
                    (
                        "callee_regs_used".to_string(),
                        Value::Int(f.callee_regs_used as i64),
                    ),
                    ("degraded".to_string(), Value::Bool(f.degraded)),
                ];
                if let Some(measured) = &f.measured {
                    fields.push(("measured".to_string(), overhead_value(measured)));
                }
                if let Some(entries) = f.entry_count {
                    fields.push(("entry_count".to_string(), Value::Int(entries as i64)));
                }
                Value::Obj(fields)
            })
            .collect();
        let mut fields = vec![
            ("config".to_string(), Value::Str(self.config.clone())),
            ("estimated".to_string(), overhead_value(&self.estimated)),
            (
                "estimated_cycles".to_string(),
                Value::Float(self.estimated_cycles),
            ),
        ];
        if let Some(measured) = &self.measured {
            fields.push(("measured".to_string(), overhead_value(measured)));
        }
        if let Some(cycles) = self.measured_cycles {
            fields.push(("measured_cycles".to_string(), Value::Float(cycles)));
        }
        if let Some(drift) = self.drift_pct() {
            fields.push(("drift_pct".to_string(), Value::Float(drift)));
        }
        if let Some(err) = &self.replay_error {
            fields.push(("replay_error".to_string(), Value::Str(err.clone())));
        }
        fields.push(("funcs".to_string(), Value::Arr(funcs)));
        Value::Obj(fields)
    }
}

/// The overhead operations one rewritten function executes per replay,
/// attributed by block counts: every `SpillLoad`/`SpillStore` costs one
/// op per block execution, every `Overhead` marker its `ops`.
fn replayed_overhead(f: &Function, id: FuncId, stats: &RunStats) -> Overhead {
    let mut overhead = Overhead::zero();
    let counts = &stats.block_counts[id];
    for (bb, block) in f.blocks() {
        let executed = counts[bb] as f64;
        if executed == 0.0 {
            continue;
        }
        for inst in &block.insts {
            match inst {
                Inst::SpillLoad { .. } | Inst::SpillStore { .. } => overhead.spill += executed,
                Inst::Overhead { kind, ops } => {
                    let ops = executed * f64::from(*ops);
                    match kind {
                        OverheadKind::Spill => overhead.spill += ops,
                        OverheadKind::CallerSave => overhead.caller_save += ops,
                        OverheadKind::CalleeSave => overhead.callee_save += ops,
                        OverheadKind::Shuffle => overhead.shuffle += ops,
                    }
                }
                _ => {}
            }
        }
    }
    overhead
}

/// Frequency-weighted useful (non-overhead) instructions of one
/// rewritten function, terminators included — the `insts` argument the
/// [`CycleModel`] prices estimated cycles with.
fn weighted_useful_insts(f: &Function, freq: &ccra_analysis::FuncFreq) -> f64 {
    let mut useful = 0.0;
    for (bb, block) in f.blocks() {
        let w = freq.block(bb);
        let insts = block
            .insts
            .iter()
            .filter(|i| {
                !matches!(
                    i,
                    Inst::SpillLoad { .. } | Inst::SpillStore { .. } | Inst::Overhead { .. }
                )
            })
            .count();
        useful += w * (insts as f64 + 1.0); // +1: the terminator.
    }
    useful
}

fn cycles_of(cycles: &CycleModel, insts: f64, overhead: &Overhead) -> f64 {
    cycles.cycles(
        insts,
        overhead.spill + overhead.caller_save + overhead.callee_save,
        overhead.shuffle,
    )
}

/// Scores an allocated program: estimated cost from `freq`-weighted
/// walks of the rewritten bodies, measured cost from one interpreter
/// replay under the default [`InterpConfig`]. A replay failure (no
/// `main`, step-limit abort) degrades the report — the measured side
/// comes back `None` with [`QualityReport::replay_error`] set — rather
/// than failing the scoring: the estimate is always available.
///
/// Deterministic: a pure function of the (already deterministic) merged
/// allocation and frequency info, so the report is byte-identical no
/// matter how many workers produced the allocation.
pub fn score_program(
    alloc: &ProgramAllocation,
    freq: &FrequencyInfo,
    config_label: &str,
    cycles: &CycleModel,
) -> QualityReport {
    let (stats, replay_error) = match ccra_analysis::run(&alloc.program, &InterpConfig::default()) {
        Ok(stats) => (Some(stats), None),
        Err(e) => (None, Some(e.to_string())),
    };
    let mut funcs = Vec::with_capacity(alloc.per_func.len());
    let mut estimated = Overhead::zero();
    let mut useful = 0.0;
    for (id, f) in alloc.program.functions() {
        let func_alloc = alloc.func(id);
        let func_freq = freq.func(id);
        let est = weighted_overhead(f, func_freq);
        estimated += est;
        useful += weighted_useful_insts(f, func_freq);
        funcs.push(FuncQuality {
            func: f.name().to_string(),
            estimated: est,
            measured: stats.as_ref().map(|s| replayed_overhead(f, id, s)),
            spilled_ranges: func_alloc.spilled_ranges,
            callee_regs_used: func_alloc.callee_regs_used,
            degraded: func_alloc.degraded,
            entry_count: stats.as_ref().map(|s| s.entry_counts[id]),
        });
    }
    let measured = stats.as_ref().map(measured_overhead);
    let measured_cycles = stats
        .as_ref()
        .zip(measured.as_ref())
        .map(|(s, m)| cycles_of(cycles, s.steps as f64, m));
    QualityReport {
        config: config_label.to_string(),
        funcs,
        estimated,
        estimated_cycles: cycles_of(cycles, useful, &estimated),
        measured,
        measured_cycles,
        replay_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::pipeline::{
        allocate_program, allocate_program_instrumented, AllocRequest, METRIC_MEM_PEAK,
        METRIC_MEM_RECORDS,
    };
    use crate::types::AllocatorConfig;
    use ccra_machine::RegisterFile;
    use ccra_workloads::{spec_program, SpecProgram};

    fn scored(config: &AllocatorConfig) -> QualityReport {
        let p = spec_program(SpecProgram::Compress);
        let freq = FrequencyInfo::estimate(&p);
        let file = RegisterFile::new(6, 4, 2, 0);
        let alloc = allocate_program(&p, &freq, file, config).expect("allocates");
        score_program(&alloc, &freq, &config.label(), &CycleModel::decstation())
    }

    #[test]
    fn static_estimates_drift_but_attribution_sums_to_the_measurement() {
        let report = scored(&AllocatorConfig::improved());
        let measured = report.measured.expect("replay succeeds");
        assert!(report.replay_error.is_none());
        // Per-function attribution via block counts must sum exactly to
        // the interpreter's whole-program overhead counters.
        let per_func: Overhead = report
            .funcs
            .iter()
            .filter_map(|f| f.measured)
            .fold(Overhead::zero(), |a, b| a + b);
        for (got, want) in [
            (per_func.spill, measured.spill),
            (per_func.caller_save, measured.caller_save),
            (per_func.callee_save, measured.callee_save),
            (per_func.shuffle, measured.shuffle),
        ] {
            assert!((got - want).abs() < 1e-6, "{got} != {want}");
        }
        // Both cost views are priced.
        assert!(report.estimated_cycles > 0.0);
        assert!(report.measured_cycles.expect("measured cycles") > 0.0);
        assert!(report.drift_pct().is_some());
    }

    #[test]
    fn dynamic_profile_has_zero_drift() {
        let p = spec_program(SpecProgram::Compress);
        let freq = FrequencyInfo::profile(&p).expect("profiles");
        let file = RegisterFile::new(6, 4, 2, 0);
        let config = AllocatorConfig::improved();
        let alloc = allocate_program(&p, &freq, file, &config).expect("allocates");
        let report = score_program(&alloc, &freq, &config.label(), &CycleModel::decstation());
        let drift = report.drift_pct().expect("replay succeeds");
        assert!(
            drift.abs() < 1e-6,
            "dynamic-profile estimate must equal the measurement, drift {drift}%"
        );
    }

    #[test]
    fn replay_failure_degrades_to_estimate_only() {
        // A program with no main cannot be replayed.
        let mut b = ccra_ir::FunctionBuilder::new("not_main");
        let x = b.new_vreg(ccra_ir::RegClass::Int);
        b.iconst(x, 1);
        b.ret(Some(x));
        let mut p = ccra_ir::Program::new();
        p.add_function(b.finish());
        let freq = FrequencyInfo::estimate(&p);
        let config = AllocatorConfig::base();
        let alloc =
            allocate_program(&p, &freq, RegisterFile::new(6, 4, 2, 0), &config).expect("allocates");
        let report = score_program(&alloc, &freq, &config.label(), &CycleModel::decstation());
        assert!(report.measured.is_none());
        assert!(report.measured_cycles.is_none());
        assert!(report.replay_error.is_some());
        assert!(report.drift_pct().is_none());
        // The estimate side still scored (an uncalled function estimates
        // at zero frequency, so just finite), and JSON still renders.
        assert!(report.estimated_cycles.is_finite());
        assert_eq!(report.funcs.len(), 1);
        assert!(report.to_json_value().get("replay_error").is_some());
    }

    #[test]
    fn report_json_is_deterministic() {
        let a = scored(&AllocatorConfig::base());
        let b = scored(&AllocatorConfig::base());
        assert_eq!(a.to_json_value().to_json(), b.to_json_value().to_json());
    }

    /// The working-set records land in the registry the pipeline is
    /// given, and only an enabled one: a disabled registry stays empty,
    /// and merging per-function registries keeps the peak a peak while
    /// the record counts sum.
    #[test]
    fn memprof_tally_is_off_until_armed_and_merges() {
        let p = spec_program(SpecProgram::Compress);
        let freq = FrequencyInfo::estimate(&p);
        let file = RegisterFile::new(6, 4, 2, 0);
        let config = AllocatorConfig::improved();
        let run = |metrics: &mut MetricsRegistry| {
            let req = AllocRequest {
                program: &p,
                freq: &freq,
                file,
                config: &config,
                cost: &ccra_machine::CostModel::paper(),
            };
            allocate_program_instrumented(&req, &mut crate::trace::NoopSink, metrics)
                .expect("allocates");
        };
        let mut off = MetricsRegistry::disabled();
        run(&mut off);
        assert!(off.gauge(METRIC_MEM_PEAK).is_none(), "disabled is off");
        assert_eq!(off.counter(METRIC_MEM_RECORDS), 0);

        let mut on = MetricsRegistry::new();
        run(&mut on);
        let peak = on.gauge(METRIC_MEM_PEAK).expect("armed registry records");
        let records = on.counter(METRIC_MEM_RECORDS);
        let mut merged = on.clone();
        merged.merge(&on);
        assert_eq!(merged.gauge(METRIC_MEM_PEAK), Some(peak), "peaks max");
        assert_eq!(
            merged.counter(METRIC_MEM_RECORDS),
            2 * records,
            "counts sum"
        );
    }

    #[test]
    fn pipeline_records_memprof_when_armed() {
        // One record per context built and per body rewritten: at least
        // the first build and the final rewrite of every function.
        let p = spec_program(SpecProgram::Compress);
        let freq = FrequencyInfo::estimate(&p);
        let mut metrics = MetricsRegistry::new();
        let req = AllocRequest {
            program: &p,
            freq: &freq,
            file: RegisterFile::new(6, 4, 2, 0),
            config: &AllocatorConfig::improved(),
            cost: &ccra_machine::CostModel::paper(),
        };
        allocate_program_instrumented(&req, &mut crate::trace::NoopSink, &mut metrics)
            .expect("allocates");
        let funcs = p.num_functions() as u64;
        assert!(metrics.counter(METRIC_MEM_RECORDS) >= 2 * funcs);
        assert!(metrics.gauge(METRIC_MEM_PEAK).is_some_and(|b| b > 0.0));
    }
}
