//! The end-to-end allocation pipeline of Figure 1: build → coalesce →
//! order → assign → (reconstruct ∘ spill)* → shuffle/save-restore code.
//!
//! Each layer has one plain and one instrumented entry point:
//! [`allocate_function`] / [`allocate_function_instrumented`] (taking a
//! [`JobCtx`]) and [`allocate_program`] / [`allocate_program_instrumented`]
//! (taking an [`AllocRequest`]). The instrumented forms emit events through
//! an [`AllocSink`] and aggregate into a [`MetricsRegistry`]; either layer
//! can be off independently.
//!
//! Every entry point returns `Result<_, `[`AllocError`]`>`. The
//! per-function allocators are *strict*: any internal inconsistency or a
//! spill loop that fails to converge within
//! [`AllocatorConfig::max_spill_rounds`] surfaces as a typed error. The
//! program-level drivers are *resilient*: a function whose allocation fails
//! falls back to [`degraded_allocation`] — spill everything, then color the
//! tiny residue — which is always constructible on any sane register file,
//! and the failure is reported through the telemetry sink as a `degraded`
//! event instead of aborting the build.

use std::collections::HashMap;
use std::time::Instant;

use ccra_analysis::{FrequencyInfo, FuncFreq};
use ccra_ir::{BlockId, FuncId, Function, Program, RegClass, VReg};
use ccra_machine::{CostModel, PhysReg, RegisterFile, SaveKind};

use crate::build::{build_context_traced, FuncContext};
use crate::cbh::allocate_bank_cbh_traced;
use crate::chaitin::{allocate_bank_chaitin_traced, BankResult};
use crate::error::AllocError;
use crate::metrics::MetricsRegistry;
use crate::priority::allocate_bank_priority_traced;
use crate::rewrite::{insert_overhead_markers, FinalAssignment, MarkerRewrite};
use crate::trace::{
    span_start, AllocEvent, AllocSink, DegradedInfo, FuncSummary, NoopSink, Phase, ProgramSummary,
    RoundStats, TraceCtx,
};
use crate::types::{AllocatorConfig, AllocatorKind, Loc, Overhead};

/// Everything one per-function allocation needs: the input of
/// [`allocate_function_instrumented`] and of every driver
/// [`crate::driver::AllocJob`].
pub struct JobCtx<'a> {
    /// The function to allocate.
    pub func: &'a Function,
    /// Its execution frequencies.
    pub freq: &'a FuncFreq,
    /// The register file.
    pub file: &'a RegisterFile,
    /// The allocator configuration.
    pub config: &'a AllocatorConfig,
    /// The cost model.
    pub cost: &'a CostModel,
}

/// One whole-program allocation request: the input of
/// [`allocate_program_instrumented`] and
/// [`crate::driver::ParallelDriver::allocate_program_cached`].
pub struct AllocRequest<'a> {
    /// The program to allocate.
    pub program: &'a Program,
    /// Whole-program execution frequencies.
    pub freq: &'a FrequencyInfo,
    /// The register file.
    pub file: RegisterFile,
    /// The allocator configuration.
    pub config: &'a AllocatorConfig,
    /// The cost model.
    pub cost: &'a CostModel,
}

impl AllocRequest<'_> {
    /// The per-function context of function `id`.
    pub(crate) fn job(&self, id: FuncId) -> JobCtx<'_> {
        JobCtx {
            func: self.program.function(id),
            freq: self.freq.func(id),
            file: &self.file,
            config: self.config,
            cost: self.cost,
        }
    }
}

/// Per-reference register claims of one allocation: the physical register
/// holding each def and use of every colored live range, keyed by its
/// `(block, instruction index, vreg, is_def)` site in the **final rewritten
/// body** (spill code and overhead markers included; terminator references
/// carry `idx == insts.len()`). The `is_def` flag disambiguates an
/// instruction that defs and uses the same vreg — those references belong
/// to two different webs, which may be in different registers. The
/// independent checker ([`crate::check`]) joins these claims by webs it
/// recomputes itself.
pub type RefAssignment = HashMap<(BlockId, u32, VReg, bool), PhysReg>;

/// A summary of one colored live range, for inspection and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeSummary {
    /// The register bank.
    pub class: RegClass,
    /// Weighted spill cost at the final round.
    pub spill_cost: f64,
    /// Weighted caller-save cost.
    pub caller_cost: f64,
    /// Weighted callee-save cost.
    pub callee_cost: f64,
    /// Whether the range crosses any call.
    pub crosses_calls: bool,
    /// Where it ended up.
    pub loc: Loc,
}

/// The result of allocating one function. The rewritten function itself is
/// returned alongside (by [`allocate_function`]) or moved into the
/// rewritten [`Program`] (by [`allocate_program`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FuncAllocation {
    /// The weighted overhead (Section 3 cost) of this function.
    pub overhead: Overhead,
    /// Build→color→spill rounds executed (1 = no spilling needed).
    pub rounds: u32,
    /// Live ranges spilled across all rounds.
    pub spilled_ranges: usize,
    /// Distinct callee-save registers used.
    pub callee_regs_used: usize,
    /// Final-round live ranges with their locations (spill temporaries from
    /// earlier rounds included).
    pub ranges: Vec<RangeSummary>,
    /// The final per-reference register claims (see [`RefAssignment`]).
    pub assignment: RefAssignment,
    /// Whether this allocation came from the [`degraded_allocation`]
    /// fallback rather than the configured allocator.
    pub degraded: bool,
}

/// The result of allocating a whole program.
///
/// # Ordering invariant
///
/// Function ordering is explicit and stable: [`Program`] assigns dense,
/// insertion-ordered [`FuncId`]s, the rewritten program reuses the input
/// program's ids unchanged, and `per_func[id.index()]` is the result for
/// the function `id` names in **both** programs. Every program-level
/// driver — serial ([`allocate_program`]) and parallel
/// ([`crate::driver::ParallelDriver`]) — upholds this, which is what makes
/// the parallel merge's byte-identical-to-serial guarantee testable.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramAllocation {
    /// The rewritten program (every function allocated, ids preserved).
    pub program: Program,
    /// Per-function results, indexed by function id.
    pub per_func: Vec<FuncAllocation>,
    /// Whole-program weighted overhead.
    pub overhead: Overhead,
}

impl ProgramAllocation {
    /// The result for one function.
    pub fn func(&self, id: FuncId) -> &FuncAllocation {
        &self.per_func[id.index()]
    }
}

fn allocate_banks_traced(
    ctx: &FuncContext,
    file: &RegisterFile,
    config: &AllocatorConfig,
    tr: &mut TraceCtx<'_>,
) -> Result<BankResult, AllocError> {
    let mut merged = BankResult::default();
    for class in RegClass::ALL {
        let res = match config.kind {
            AllocatorKind::Chaitin | AllocatorKind::Optimistic => {
                allocate_bank_chaitin_traced(ctx, class, file, config, tr)?
            }
            AllocatorKind::Priority(ordering) => {
                allocate_bank_priority_traced(ctx, class, file, ordering, tr)?
            }
            AllocatorKind::Cbh => allocate_bank_cbh_traced(ctx, class, file, tr)?,
        };
        merged.colors.extend(res.colors);
        merged.spilled.extend(res.spilled);
    }
    Ok(merged)
}

/// Collects the per-reference register claims of the final coloring,
/// remapped through the marker rewrite onto the final instruction stream.
fn claim_refs(
    body: &Function,
    ctx: &FuncContext,
    colors: &HashMap<u32, PhysReg>,
    rw: &MarkerRewrite,
) -> RefAssignment {
    let mut refs = RefAssignment::new();
    for (n, node) in ctx.nodes.iter().enumerate() {
        let Some(&reg) = colors.get(&(n as u32)) else {
            continue;
        };
        for (refs_of_kind, is_def) in [(&node.defs, true), (&node.uses, false)] {
            for &(bb, idx, v) in refs_of_kind {
                let term_idx = body.block(bb).insts.len() as u32;
                refs.insert((bb, rw.remap(bb, idx, term_idx), v, is_def), reg);
            }
        }
    }
    refs
}

/// Allocates registers for one function, iterating spill rounds until no
/// live range needs to be spilled, then inserting overhead markers.
///
/// Returns the rewritten function (spill code plus overhead markers) and
/// the allocation summary.
///
/// # Errors
///
/// Returns [`AllocError::SpillRoundsExceeded`] if the allocation does not
/// converge within [`AllocatorConfig::max_spill_rounds`] rounds (a register
/// file too small for the instruction shapes — impossible at the MIPS
/// calling-convention minimum), and propagates any internal-consistency
/// error from the phases. The program-level [`allocate_program`] recovers
/// from all of these via [`degraded_allocation`].
pub fn allocate_function(
    f: &Function,
    freq: &FuncFreq,
    file: &RegisterFile,
    config: &AllocatorConfig,
    cost: &CostModel,
) -> Result<(Function, FuncAllocation), AllocError> {
    let job = JobCtx {
        func: f,
        freq,
        file,
        config,
        cost,
    };
    allocate_function_instrumented(&job, &mut NoopSink, &mut MetricsRegistry::disabled())
}

/// Like [`allocate_function`], emitting telemetry through `sink` — phase
/// spans and round stats per spill round, one decision record per live
/// range, spill-insertion stats, and a final [`FuncSummary`] — and
/// aggregating counters, sizes, and per-phase wall-clock histograms into
/// `metrics` (see [`crate::metrics`]). Either layer can be off
/// independently: a [`NoopSink`] with an enabled registry profiles without
/// the event stream's serialization cost.
pub fn allocate_function_instrumented(
    job: &JobCtx<'_>,
    sink: &mut dyn AllocSink,
    metrics: &mut MetricsRegistry,
) -> Result<(Function, FuncAllocation), AllocError> {
    let timer = metrics.timer();
    let result = allocate_function_impl(job, sink, metrics);
    if let Ok((_, alloc)) = &result {
        metrics.inc("alloc_functions_total");
        metrics.observe_elapsed("func_alloc_micros", timer);
        metrics.observe("func_rounds", alloc.rounds as u64);
        metrics.observe("func_spilled_ranges", alloc.spilled_ranges as u64);
        metrics.observe("func_callee_regs_used", alloc.callee_regs_used as u64);
    }
    result
}

/// Gauge: the largest working-set estimate, in bytes, an allocation
/// recorded — a built context's nodes and adjacency lists, or a rewritten
/// body's instructions.
pub const METRIC_MEM_PEAK: &str = "alloc_mem_peak_bytes";
/// Counter: working-set estimates recorded (one per context built or
/// body rewritten).
pub const METRIC_MEM_RECORDS: &str = "alloc_mem_records_total";

/// Records one working-set estimate into the metrics registry: the peak
/// as a gauge, the record count as a counter. The crate forbids `unsafe`,
/// so there is no allocator shim; the estimates are explicit byte counts
/// of the dominant structures — a built context's node array plus both
/// directions of its adjacency lists ([`context_bytes`]), or a rewritten
/// body's instruction stream ([`body_bytes`]). No-op without an enabled
/// registry.
fn record_mem(tr: &mut TraceCtx<'_>, bytes: usize) {
    if let Some(m) = tr.metrics() {
        m.gauge_max(METRIC_MEM_PEAK, bytes as f64);
        m.inc(METRIC_MEM_RECORDS);
    }
}

fn context_bytes(ctx: &FuncContext) -> usize {
    ctx.nodes.len() * std::mem::size_of::<crate::node::NodeInfo>()
        + ctx.graph.num_edges() * 2 * std::mem::size_of::<u32>()
}

fn body_bytes(body: &Function) -> usize {
    body.num_insts() * std::mem::size_of::<ccra_ir::Inst>()
}

fn allocate_function_impl(
    job: &JobCtx<'_>,
    sink: &mut dyn AllocSink,
    metrics: &mut MetricsRegistry,
) -> Result<(Function, FuncAllocation), AllocError> {
    let JobCtx {
        func: f,
        freq,
        file,
        config,
        cost,
    } = *job;
    let name = f.name().to_string();
    let mut body = f.clone();
    let mut spilled_ranges = 0usize;
    let mut rounds = 0u32;
    let mut ctx = {
        let mut tr = TraceCtx::with_metrics(sink, metrics, &name, 1);
        let ctx = build_context_traced(&body, freq, cost, &mut tr)?;
        record_mem(&mut tr, context_bytes(&ctx));
        ctx
    };
    loop {
        rounds += 1;
        metrics.inc("alloc_rounds_total");
        let mut tr = TraceCtx::with_metrics(sink, metrics, &name, rounds);
        if tr.enabled() || tr.metrics_enabled() {
            let max_degree = (0..ctx.nodes.len() as u32)
                .map(|n| ctx.graph.degree(n))
                .max()
                .unwrap_or(0);
            tr.observe("graph_nodes", ctx.nodes.len() as u64);
            tr.observe("graph_edges", ctx.graph.num_edges() as u64);
            tr.observe("graph_max_degree", max_degree as u64);
            if let Some(m) = tr.metrics() {
                m.gauge_max("graph_nodes_peak", ctx.nodes.len() as f64);
                m.gauge_max("graph_max_degree_peak", max_degree as f64);
            }
            if tr.enabled() {
                tr.emit(AllocEvent::Round(RoundStats {
                    func: name.clone(),
                    round: rounds,
                    nodes: ctx.nodes.len(),
                    edges: ctx.graph.num_edges(),
                    max_degree,
                }));
            }
        }
        let result = allocate_banks_traced(&ctx, file, config, &mut tr)?;
        if result.spilled.is_empty() {
            return Ok(finish_function(
                body,
                &ctx,
                result.colors,
                freq,
                spilled_ranges,
                false,
                &mut tr,
            ));
        }
        if rounds >= config.max_spill_rounds {
            return Err(AllocError::SpillRoundsExceeded {
                func: name,
                rounds,
                remaining_uncolored: result.spilled.len(),
            });
        }
        spilled_ranges += result.spilled.len();
        let rewrite = crate::spill::insert_spill_code_instrumented(
            &mut body,
            &ctx,
            &result.spilled,
            &mut tr,
        )?;
        record_mem(&mut tr, body_bytes(&body));
        ctx = if config.incremental_reconstruction {
            let next = crate::reconstruct::reconstruct_context_traced(
                &ctx,
                &rewrite,
                &result.spilled,
                &body,
                &mut tr,
            );
            record_mem(&mut tr, context_bytes(&next));
            next
        } else {
            let mut tr = TraceCtx::with_metrics(sink, metrics, &name, rounds + 1);
            let next = build_context_traced(&body, freq, cost, &mut tr)?;
            record_mem(&mut tr, context_bytes(&next));
            next
        };
    }
}

/// The spill-everything fallback: always constructible, always
/// checker-clean, never cost-directed.
///
/// Round one spills **every** live range; round two colors the residue —
/// parameter webs and single-instruction spill temporaries — with the base
/// allocator, which colors tiny ranges on any register file meeting the
/// calling-convention minimum. Used by [`allocate_program`] when the
/// configured allocator returns an error.
///
/// # Errors
///
/// Returns [`AllocError::DegradedAllocationFailed`] if even the residue
/// cannot be colored (a register file below the ABI minimum for the
/// instruction shapes), and propagates context-construction errors.
pub fn degraded_allocation(
    f: &Function,
    freq: &FuncFreq,
    file: &RegisterFile,
    cost: &CostModel,
    sink: &mut dyn AllocSink,
) -> Result<(Function, FuncAllocation), AllocError> {
    degraded_allocation_instrumented(f, freq, file, cost, sink, &mut MetricsRegistry::disabled())
}

/// Recovers from a failed strict allocation of `job.func`: emits a
/// `degraded` event naming `reason`, then runs the spill-everything
/// fallback against the same telemetry layers. The serial program loop and
/// the parallel driver (job errors and job panics alike) all recover
/// through here.
pub(crate) fn fall_back(
    job: &JobCtx<'_>,
    reason: &str,
    sink: &mut dyn AllocSink,
    metrics: &mut MetricsRegistry,
) -> Result<(Function, FuncAllocation), AllocError> {
    if sink.enabled() {
        sink.emit(AllocEvent::Degraded(DegradedInfo {
            func: job.func.name().to_string(),
            reason: reason.to_string(),
        }));
    }
    degraded_allocation_instrumented(job.func, job.freq, job.file, job.cost, sink, metrics)
}

/// Like [`degraded_allocation`], aggregating into `metrics` (counted under
/// `alloc_degraded_total` rather than `alloc_functions_total`).
fn degraded_allocation_instrumented(
    f: &Function,
    freq: &FuncFreq,
    file: &RegisterFile,
    cost: &CostModel,
    sink: &mut dyn AllocSink,
    metrics: &mut MetricsRegistry,
) -> Result<(Function, FuncAllocation), AllocError> {
    let name = f.name().to_string();
    let mut body = f.clone();

    // Round 1: spill every live range.
    let spilled_ranges;
    {
        let mut tr = TraceCtx::with_metrics(sink, metrics, &name, 1);
        let ctx = build_context_traced(&body, freq, cost, &mut tr)?;
        record_mem(&mut tr, context_bytes(&ctx));
        let all: Vec<u32> = (0..ctx.nodes.len() as u32).collect();
        spilled_ranges = all.len();
        crate::spill::insert_spill_code_instrumented(&mut body, &ctx, &all, &mut tr)?;
        record_mem(&mut tr, body_bytes(&body));
    }

    // Round 2: color the residue (parameter webs and spill temporaries,
    // all spanning a single instruction) with the base allocator, which
    // never spills a range that fits a register.
    let config = AllocatorConfig::base();
    let mut tr = TraceCtx::with_metrics(sink, metrics, &name, 2);
    let ctx = build_context_traced(&body, freq, cost, &mut tr)?;
    let result = allocate_banks_traced(&ctx, file, &config, &mut tr)?;
    if !result.spilled.is_empty() {
        return Err(AllocError::DegradedAllocationFailed {
            func: name,
            remaining_uncolored: result.spilled.len(),
        });
    }

    let (body, alloc) = finish_function(
        body,
        &ctx,
        result.colors,
        freq,
        spilled_ranges,
        true,
        &mut tr,
    );
    metrics.inc("alloc_degraded_total");
    metrics.observe("func_rounds", 2);
    metrics.observe("func_spilled_ranges", spilled_ranges as u64);
    Ok((body, alloc))
}

/// The shared tail of a finished allocation (strict or degraded) whose
/// final round colored every range: overhead markers and reference claims
/// for the coloring, the weighted overhead, the range summaries, and the
/// closing [`FuncSummary`] event. The round count is the trace context's.
fn finish_function(
    mut body: Function,
    ctx: &FuncContext,
    colors: HashMap<u32, PhysReg>,
    freq: &FuncFreq,
    spilled_ranges: usize,
    degraded: bool,
    tr: &mut TraceCtx<'_>,
) -> (Function, FuncAllocation) {
    let rounds = tr.round();
    let assignment = FinalAssignment { colors };
    let callee_regs_used = assignment.callee_regs_used().len();
    let span = tr.span();
    let marker_rw = insert_overhead_markers(&mut body, ctx, &assignment);
    let refs = claim_refs(&body, ctx, &assignment.colors, &marker_rw);
    tr.span_end(span, Phase::Rewrite);
    record_mem(tr, body_bytes(&body));
    let overhead = crate::accounting::weighted_overhead(&body, freq);
    let ranges = summarize(ctx, &assignment.colors);
    if tr.enabled() {
        tr.emit(AllocEvent::Func(FuncSummary {
            func: tr.func().to_string(),
            rounds,
            spilled_ranges,
            callee_regs_used,
            spill: overhead.spill,
            caller_save: overhead.caller_save,
            callee_save: overhead.callee_save,
            shuffle: overhead.shuffle,
        }));
    }
    let alloc = FuncAllocation {
        overhead,
        rounds,
        spilled_ranges,
        callee_regs_used,
        ranges,
        assignment: refs,
        degraded,
    };
    (body, alloc)
}

fn summarize(ctx: &FuncContext, colors: &HashMap<u32, PhysReg>) -> Vec<RangeSummary> {
    ctx.nodes
        .iter()
        .enumerate()
        .map(|(n, node)| RangeSummary {
            class: node.class,
            spill_cost: node.spill_cost,
            caller_cost: node.caller_cost,
            callee_cost: node.callee_cost,
            crosses_calls: node.crosses_calls(),
            loc: match colors.get(&(n as u32)) {
                Some(&r) => Loc::Reg(r),
                None => Loc::Spilled,
            },
        })
        .collect()
}

/// Allocates registers for every function of a program under the paper's
/// cost model.
///
/// Register allocation is intra-procedural, exactly as in the paper: each
/// function is colored independently; the frequencies supply the
/// inter-procedural weights (invocation counts drive callee-save cost).
///
/// Functions are processed and reported **in function-id order** — see the
/// ordering invariant on [`ProgramAllocation`].
///
/// # Errors
///
/// A function whose allocation fails falls back to
/// [`degraded_allocation`]; only a failure of the fallback itself (a
/// register file below the ABI minimum) surfaces as an error.
pub fn allocate_program(
    program: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
) -> Result<ProgramAllocation, AllocError> {
    let req = AllocRequest {
        program,
        freq,
        file,
        config,
        cost: &CostModel::paper(),
    };
    allocate_program_instrumented(&req, &mut NoopSink, &mut MetricsRegistry::disabled())
}

/// Like [`allocate_program`] with the request's cost model, emitting
/// telemetry through `sink` and aggregating into `metrics`: the full
/// per-function event stream and counters of
/// [`allocate_function_instrumented`], a `degraded` event naming the error
/// for each function that falls back to [`degraded_allocation`], and a
/// closing [`ProgramSummary`] with the whole-program overhead and wall
/// clock, counted under `alloc_programs_total` and the
/// `program_alloc_micros` histogram.
///
/// This serial loop is the reference the parallel driver's determinism
/// oracle compares against.
///
/// # Errors
///
/// See [`allocate_program`].
pub fn allocate_program_instrumented(
    req: &AllocRequest<'_>,
    sink: &mut dyn AllocSink,
    metrics: &mut MetricsRegistry,
) -> Result<ProgramAllocation, AllocError> {
    let start = span_start(sink);
    let timer = metrics.timer();
    let mut funcs = Vec::with_capacity(req.program.num_functions());
    for id in req.program.func_ids() {
        let job = req.job(id);
        let done = match allocate_function_instrumented(&job, sink, metrics) {
            Ok(done) => done,
            Err(err) => fall_back(&job, &err.to_string(), sink, metrics)?,
        };
        funcs.push(done);
    }
    Ok(finish_program(req, funcs, start, timer, sink, metrics))
}

/// The shared tail of a program allocation: reassembles the rewritten
/// program from per-function results given in function-id order, counts
/// the run under `alloc_programs_total` and `program_alloc_micros`
/// (`timer`), and emits the closing [`ProgramSummary`] (`start`).
pub(crate) fn finish_program(
    req: &AllocRequest<'_>,
    funcs: Vec<(Function, FuncAllocation)>,
    start: Option<Instant>,
    timer: Option<Instant>,
    sink: &mut dyn AllocSink,
    metrics: &mut MetricsRegistry,
) -> ProgramAllocation {
    let mut program = Program::new();
    let mut per_func = Vec::with_capacity(funcs.len());
    let mut overhead = Overhead::zero();
    for (body, alloc) in funcs {
        overhead += alloc.overhead;
        program.add_function(body);
        per_func.push(alloc);
    }
    if let Some(main) = req.program.main() {
        program.set_main(main);
    }
    metrics.inc("alloc_programs_total");
    metrics.observe_elapsed("program_alloc_micros", timer);
    if let Some(t) = start {
        sink.emit(AllocEvent::Program(ProgramSummary {
            config: req.config.label(),
            funcs: per_func.len(),
            spill: overhead.spill,
            caller_save: overhead.caller_save,
            callee_save: overhead.callee_save,
            shuffle: overhead.shuffle,
            micros: t.elapsed().as_micros() as u64,
        }));
    }
    ProgramAllocation {
        program,
        per_func,
        overhead,
    }
}

/// Counts how many caller-save registers of each bank the final coloring
/// uses (for diagnostics).
pub fn count_kinds(alloc: &FuncAllocation) -> (usize, usize) {
    let mut caller = std::collections::HashSet::new();
    let mut callee = std::collections::HashSet::new();
    for r in alloc.ranges.iter().filter_map(|s| s.loc.reg()) {
        match r.kind {
            SaveKind::CallerSave => caller.insert(r),
            SaveKind::CalleeSave => callee.insert(r),
        };
    }
    (caller.len(), callee.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RecordingSink;
    use ccra_analysis::{InterpConfig, Value};
    use ccra_ir::{BinOp, Callee, CmpOp, FunctionBuilder, RegClass};

    /// A loop summing k live values, with a call inside.
    fn workload(k: usize, trips: i64) -> Program {
        let mut b = FunctionBuilder::new("main");
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
        let mut p = Program::new();
        let id = p.add_function(b.finish());
        p.set_main(id);
        p
    }

    #[test]
    fn allocation_preserves_semantics_under_all_allocators() {
        let p = workload(9, 13);
        let expect = ccra_analysis::run(&p, &InterpConfig::default())
            .expect("program runs")
            .result;
        assert_eq!(expect, Some(Value::Int(9 * 10 / 2 * 13)));
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let file = RegisterFile::new(6, 4, 1, 0); // tight: forces spills
        for config in [
            AllocatorConfig::base(),
            AllocatorConfig::improved(),
            AllocatorConfig::optimistic(),
            AllocatorConfig::improved_optimistic(),
            AllocatorConfig::priority(crate::PriorityOrdering::Sorting),
            AllocatorConfig::cbh(),
        ] {
            let out = allocate_program(&p, &freq, file, &config).expect("allocation succeeds");
            out.program.verify().expect("rewritten program verifies");
            let stats =
                ccra_analysis::run(&out.program, &InterpConfig::default()).expect("program runs");
            assert_eq!(stats.result, expect, "{config:?} changed semantics");
        }
    }

    #[test]
    fn measured_overhead_matches_weighted_overhead() {
        let p = workload(10, 17);
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let file = RegisterFile::new(6, 4, 2, 0);
        for config in [AllocatorConfig::base(), AllocatorConfig::improved()] {
            let out = allocate_program(&p, &freq, file, &config).expect("allocation succeeds");
            let stats =
                ccra_analysis::run(&out.program, &InterpConfig::default()).expect("program runs");
            let measured = crate::accounting::measured_overhead(&stats);
            let analytic = out.overhead;
            for (m, a) in [
                (measured.spill, analytic.spill),
                (measured.caller_save, analytic.caller_save),
                (measured.callee_save, analytic.callee_save),
                (measured.shuffle, analytic.shuffle),
            ] {
                assert!(
                    (m - a).abs() < 1e-6,
                    "{config:?}: measured {measured:?} != analytic {analytic:?}"
                );
            }
        }
    }

    #[test]
    fn improved_beats_base_on_call_heavy_code() {
        // Values with low reference counts crossing a hot call: the base
        // allocator parks them in callee-save registers of a function
        // invoked once — harmless here — but given MANY registers it puts
        // cold call-crossing values into registers whose caller-save cost
        // exceeds their spill cost. Construct the classic case: cold values
        // crossing a hot call.
        let mut b = FunctionBuilder::new("main");
        let cold: Vec<_> = (0..4).map(|_| b.new_vreg(RegClass::Int)).collect();
        for (j, &v) in cold.iter().enumerate() {
            b.iconst(v, j as i64);
        }
        let i = b.new_vreg(RegClass::Int);
        let n = b.new_vreg(RegClass::Int);
        let one = b.new_vreg(RegClass::Int);
        b.iconst(i, 0);
        b.iconst(n, 100);
        b.iconst(one, 1);
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
        b.binary(BinOp::Add, i, i, one);
        b.jump(head);
        b.switch_to(exit);
        // The cold values are used once, after the loop.
        let mut acc = i;
        for &v in &cold {
            let t = b.new_vreg(RegClass::Int);
            b.binary(BinOp::Add, t, acc, v);
            acc = t;
        }
        b.ret(Some(acc));
        let mut p = Program::new();
        let id = p.add_function(b.finish());
        p.set_main(id);
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        // Caller-save registers only: the base allocator must keep the cold
        // values (which cross 100 call executions) in caller-save registers
        // at 200 ops each; improved spills them at 2 ops each.
        let file = RegisterFile::new(12, 4, 0, 0);
        let base =
            allocate_program(&p, &freq, file, &AllocatorConfig::base()).expect("base allocates");
        let improved = allocate_program(&p, &freq, file, &AllocatorConfig::improved())
            .expect("improved allocates");
        assert!(
            improved.overhead.total() * 1.5 < base.overhead.total(),
            "improved {} vs base {}",
            improved.overhead.total(),
            base.overhead.total()
        );
        // The improvement comes from trading caller-save cost for spills.
        assert!(improved.overhead.caller_save < base.overhead.caller_save);
    }

    #[test]
    fn count_kinds_reports_distinct_registers() {
        let p = workload(6, 5);
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let out = allocate_program(
            &p,
            &freq,
            RegisterFile::new(8, 6, 3, 2),
            &AllocatorConfig::base(),
        )
        .expect("allocation succeeds");
        let fa = out.func(p.main().expect("main set"));
        let (caller, callee) = count_kinds(fa);
        assert!(caller + callee > 0, "something must be in registers");
        assert_eq!(callee, fa.callee_regs_used);
        assert!(caller <= 8 + 6 && callee <= 3 + 2);
    }

    #[test]
    fn rounds_and_spills_reported() {
        let p = workload(12, 5);
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let file = RegisterFile::new(6, 4, 0, 0);
        let out =
            allocate_program(&p, &freq, file, &AllocatorConfig::base()).expect("base allocates");
        let fa = out.func(p.main().expect("main set"));
        assert!(fa.rounds >= 2, "spilling requires another round");
        assert!(fa.spilled_ranges > 0);
        assert!(fa.overhead.spill > 0.0);
        assert!(!fa.degraded);
    }

    #[test]
    fn incremental_reconstruction_preserves_semantics_and_quality() {
        let p = workload(12, 9);
        let expect = ccra_analysis::run(&p, &InterpConfig::default())
            .expect("program runs")
            .result;
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        for file in [RegisterFile::new(6, 4, 0, 0), RegisterFile::new(8, 6, 2, 2)] {
            for base_config in [AllocatorConfig::base(), AllocatorConfig::improved()] {
                let rebuilt =
                    allocate_program(&p, &freq, file, &base_config).expect("rebuild allocates");
                let recon = allocate_program(&p, &freq, file, &base_config.with_reconstruction())
                    .expect("reconstruction allocates");
                recon.program.verify().expect("rewritten program verifies");
                let got = ccra_analysis::run(&recon.program, &InterpConfig::default())
                    .expect("program runs")
                    .result;
                assert_eq!(got, expect, "reconstruction changed semantics");
                // The conservative graph may cost somewhat more, never an
                // order of magnitude.
                assert!(
                    recon.overhead.total() <= rebuilt.overhead.total() * 2.0 + 8.0,
                    "reconstruction {} vs rebuild {}",
                    recon.overhead.total(),
                    rebuilt.overhead.total()
                );
            }
        }
    }

    #[test]
    fn ample_registers_mean_zero_spill_cost_for_base() {
        // The *base* allocator colors everything when registers abound.
        // The improved allocator may still choose to spill (storage-class
        // analysis spills when memory is cheaper than any register) but
        // must never end up with a higher total.
        let p = workload(8, 10);
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let base = allocate_program(
            &p,
            &freq,
            RegisterFile::mips_full(),
            &AllocatorConfig::base(),
        )
        .expect("base allocates");
        assert_eq!(base.overhead.spill, 0.0);
        assert_eq!(base.func(p.main().expect("main set")).rounds, 1);
        let improved = allocate_program(
            &p,
            &freq,
            RegisterFile::mips_full(),
            &AllocatorConfig::improved(),
        )
        .expect("improved allocates");
        assert!(improved.overhead.total() <= base.overhead.total());
    }

    #[test]
    fn spill_round_cap_returns_typed_error() {
        let p = workload(12, 5);
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let file = RegisterFile::new(6, 4, 0, 0); // tight: round 1 spills
        let config = AllocatorConfig::base().with_max_spill_rounds(1);
        let id = p.main().expect("main set");
        let err = allocate_function(
            p.function(id),
            freq.func(id),
            &file,
            &config,
            &ccra_machine::CostModel::paper(),
        )
        .expect_err("one round cannot converge");
        match err {
            AllocError::SpillRoundsExceeded {
                func,
                rounds,
                remaining_uncolored,
            } => {
                assert_eq!(func, "main");
                assert_eq!(rounds, 1);
                assert!(remaining_uncolored > 0);
            }
            other => unreachable!("expected SpillRoundsExceeded, got {other:?}"),
        }
    }

    #[test]
    fn program_allocation_degrades_instead_of_failing() {
        let p = workload(12, 5);
        let expect = ccra_analysis::run(&p, &InterpConfig::default())
            .expect("program runs")
            .result;
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let file = RegisterFile::new(6, 4, 0, 0);
        let config = AllocatorConfig::base().with_max_spill_rounds(1);
        let mut sink = RecordingSink::new();
        let req = AllocRequest {
            program: &p,
            freq: &freq,
            file,
            config: &config,
            cost: &CostModel::paper(),
        };
        let out = allocate_program_instrumented(&req, &mut sink, &mut MetricsRegistry::disabled())
            .expect("the degraded fallback absorbs the round-cap failure");
        let fa = out.func(p.main().expect("main set"));
        assert!(fa.degraded, "the fallback must report itself");
        assert!(
            sink.events
                .iter()
                .any(|e| matches!(e, AllocEvent::Degraded(d) if d.func == "main")),
            "a degraded event names the function"
        );
        out.program.verify().expect("rewritten program verifies");
        let got = ccra_analysis::run(&out.program, &InterpConfig::default())
            .expect("program runs")
            .result;
        assert_eq!(got, expect, "the degraded allocation changed semantics");
    }

    #[test]
    fn function_ordering_is_a_stable_invariant() {
        // The documented invariant the parallel merge tests against: the
        // rewritten program carries the same functions under the same ids
        // in the same order, and per_func is indexed by id.
        let mut p = Program::new();
        let mut ids = Vec::new();
        for name in ["zeta", "alpha", "mid"] {
            let mut b = FunctionBuilder::new(name);
            let x = b.new_vreg(RegClass::Int);
            b.iconst(x, 1);
            b.ret(Some(x));
            ids.push(p.add_function(b.finish()));
        }
        p.set_main(ids[2]);
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let out = allocate_program(
            &p,
            &freq,
            RegisterFile::mips_full(),
            &AllocatorConfig::improved(),
        )
        .expect("allocation succeeds");
        assert_eq!(out.per_func.len(), 3);
        assert_eq!(out.program.main(), p.main());
        let names: Vec<&str> = out.program.functions().map(|(_, f)| f.name()).collect();
        assert_eq!(
            names,
            ["zeta", "alpha", "mid"],
            "insertion order, not name order"
        );
        for &id in &ids {
            assert_eq!(out.program.function(id).name(), p.function(id).name());
            // per_func is reachable by the same id.
            let _ = &out.per_func[id.index()];
        }
    }

    #[test]
    fn assignment_claims_cover_register_references() {
        let p = workload(5, 7);
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let out = allocate_program(
            &p,
            &freq,
            RegisterFile::mips_full(),
            &AllocatorConfig::improved(),
        )
        .expect("allocation succeeds");
        let id = p.main().expect("main set");
        let fa = out.func(id);
        assert!(!fa.assignment.is_empty());
        // Every claim addresses a real reference in the rewritten body.
        let f = out.program.function(id);
        for &(bb, idx, v, is_def) in fa.assignment.keys() {
            let insts = &f.block(bb).insts;
            if (idx as usize) < insts.len() {
                let inst = &insts[idx as usize];
                let mut uses = Vec::new();
                inst.collect_uses(&mut uses);
                assert!(
                    if is_def {
                        inst.def() == Some(v)
                    } else {
                        uses.contains(&v)
                    },
                    "claim ({bb:?},{idx},{v:?},{is_def}) does not match {inst:?}"
                );
            } else {
                assert_eq!(idx as usize, insts.len(), "terminator claims use len()");
                assert_eq!(f.block(bb).term.use_reg(), Some(v));
                assert!(!is_def, "terminator references are uses");
            }
        }
    }
}
