//! The traced run's mirrors of the allocator's entry points.
//!
//! The benchmark may only time public functions from outside, so the
//! traced run re-drives the pipeline itself: [`allocate_program`] calls the
//! same public phase functions `allocate_program` does, in the same order —
//! `build_context`, one `allocate_bank_*` per register class, spill
//! insertion, `reconstruct_context` or another `build_context`, and
//! `insert_overhead_markers` — with a span around each call. [`cached`] does
//! the same for the memo cache with `AllocCache::key`/`get`/`insert`.
//! The mirrors must return exactly what the library entry points return;
//! the benchmark asserts it on every traced operation, and the `mirror`
//! test pins it on the whole SPEC suite and on fuzzed programs.
//!
//! Liveness and webs run inside `build_context`, out of reach of a span.
//! The mirror runs them a second time on the same input just before each
//! build, as probes: their spans give the analysis cost, and
//! `build.self_us` subtracts them from the build span.

use std::collections::HashMap;

use ccra_analysis::{FuncFreq, Liveness, Webs};
use ccra_ir::RegClass;
use ccra_machine::{CostModel, PhysReg};
use ccra_regalloc::{
    allocate_bank_cbh, allocate_bank_chaitin, allocate_bank_priority, build_context,
    config_fingerprint, degraded_allocation, file_fingerprint, insert_overhead_markers,
    insert_spill_code_traced, reconstruct_context, weighted_overhead, AllocError, AllocatorKind,
    FinalAssignment, FuncContext, Loc, MarkerRewrite, NoopSink, Overhead, RangeSummary,
    RefAssignment,
};

use super::{AllocCache, AllocatorConfig, FrequencyInfo, FuncAllocation, Function, Program};
use super::{ProgramAllocation, RegisterFile};
use crate::spans::Tracer;

/// The counter of microseconds spent in the liveness and webs probes, which
/// the untraced pipeline never runs; trace overhead excludes it.
pub const PROBE_US: &str = "probe.us";

/// `build_context` with the liveness and webs probes in front of it.
fn build(
    f: &Function,
    freq: &FuncFreq,
    cost: &CostModel,
    tr: &mut Tracer,
) -> Result<FuncContext, AllocError> {
    if tr.is_enabled() {
        let s = tr.start("liveness");
        let live = Liveness::compute(f);
        let mut probe_us = tr.end(s);
        tr.count("liveness.iterations", f64::from(live.iterations()));
        let s = tr.start("webs");
        let webs = Webs::compute(f);
        probe_us += tr.end(s);
        tr.count("webs.refs", webs.total_refs() as f64);
        tr.count(PROBE_US, probe_us);
    }
    let s = tr.start("build");
    let ctx = build_context(f, freq, cost);
    tr.end(s);
    let ctx = ctx?;
    tr.count("build.nodes", ctx.nodes.len() as f64);
    tr.count("build.edges", ctx.graph.num_edges() as f64);
    tr.count("build.coalesced", (ctx.webs.len() - ctx.nodes.len()) as f64);
    Ok(ctx)
}

/// The per-reference register claims of the final coloring, remapped
/// through the marker rewrite (the pipeline's own bookkeeping, restated).
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
            loc: colors
                .get(&(n as u32))
                .map_or(Loc::Spilled, |&r| Loc::Reg(r)),
        })
        .collect()
}

/// One function through the pipeline's phases, strict: a spill loop that
/// does not converge is an error, as in `allocate_function`.
pub fn allocate_function(
    f: &Function,
    freq: &FuncFreq,
    file: &RegisterFile,
    config: &AllocatorConfig,
    cost: &CostModel,
    tr: &mut Tracer,
) -> Result<(Function, FuncAllocation), AllocError> {
    let mut body = f.clone();
    let mut spilled_ranges = 0usize;
    let mut rounds = 0u32;
    let mut ctx = build(&body, freq, cost, tr)?;
    loop {
        rounds += 1;
        tr.count("pipeline.rounds", 1.0);
        let mut colors = HashMap::new();
        let mut spilled = Vec::new();
        for class in RegClass::ALL {
            let s = tr.start("color");
            let res = match config.kind {
                AllocatorKind::Chaitin | AllocatorKind::Optimistic => {
                    allocate_bank_chaitin(&ctx, class, file, config)
                }
                AllocatorKind::Priority(ordering) => {
                    allocate_bank_priority(&ctx, class, file, ordering)
                }
                AllocatorKind::Cbh => allocate_bank_cbh(&ctx, class, file),
            };
            tr.end(s);
            let res = res?;
            tr.count("color.calls", 1.0);
            tr.count("color.spilled", res.spilled.len() as f64);
            colors.extend(res.colors);
            spilled.extend(res.spilled);
        }
        if spilled.is_empty() {
            let s = tr.start("rewrite");
            let assignment = FinalAssignment {
                colors: colors.clone(),
            };
            let callee_regs_used = assignment.callee_regs_used().len();
            let rw = insert_overhead_markers(&mut body, &ctx, &assignment);
            let assignment = claim_refs(&body, &ctx, &colors, &rw);
            tr.end(s);
            let alloc = FuncAllocation {
                overhead: weighted_overhead(&body, freq),
                rounds,
                spilled_ranges,
                callee_regs_used,
                ranges: summarize(&ctx, &colors),
                assignment,
                degraded: false,
            };
            return Ok((body, alloc));
        }
        if rounds >= config.max_spill_rounds {
            return Err(AllocError::SpillRoundsExceeded {
                func: f.name().to_string(),
                rounds,
                remaining_uncolored: spilled.len(),
            });
        }
        spilled_ranges += spilled.len();
        let s = tr.start("spill");
        let rewrite = insert_spill_code_traced(&mut body, &ctx, &spilled);
        tr.end(s);
        let rewrite = rewrite?;
        tr.count("spill.inserted", rewrite.inserted as f64);
        ctx = if config.incremental_reconstruction {
            let s = tr.start("reconstruct");
            let next = reconstruct_context(&ctx, &rewrite, &spilled, &body);
            tr.end(s);
            next
        } else {
            build(&body, freq, cost, tr)?
        };
    }
}

/// The spill-everything fallback `allocate_program` takes when a function
/// fails, under its own span.
fn degraded(
    f: &Function,
    freq: &FuncFreq,
    file: &RegisterFile,
    cost: &CostModel,
    tr: &mut Tracer,
) -> Result<(Function, FuncAllocation), String> {
    tr.count("pipeline.degraded", 1.0);
    let s = tr.start("degraded");
    let out = degraded_allocation(f, freq, file, cost, &mut NoopSink);
    tr.end(s);
    out.map_err(|e| e.to_string())
}

/// The traced twin of `allocate_function` on every function of a program
/// (paper cost model), strict.
pub fn allocate_functions(
    p: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
    tr: &mut Tracer,
) -> Vec<Result<(Function, FuncAllocation), String>> {
    let cost = CostModel::paper();
    p.functions()
        .map(|(id, f)| {
            allocate_function(f, freq.func(id), &file, config, &cost, tr).map_err(|e| e.to_string())
        })
        .collect()
}

/// The traced twin of `allocate_program` (paper cost model).
pub fn allocate_program(
    p: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
    tr: &mut Tracer,
) -> Result<ProgramAllocation, String> {
    let cost = CostModel::paper();
    assemble(
        p,
        |id, f, tr| match allocate_function(f, freq.func(id), &file, config, &cost, tr) {
            Ok(done) => Ok(done),
            Err(_) => degraded(f, freq.func(id), &file, &cost, tr),
        },
        tr,
    )
}

/// The traced twin of a cached `ParallelDriver` run: every function's key
/// is derived and looked up; a miss is allocated through the pipeline
/// mirror and its strict result inserted.
pub fn cached(
    p: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
    cache: &AllocCache,
    tr: &mut Tracer,
) -> Result<ProgramAllocation, String> {
    let cost = CostModel::paper();
    let cfg_fp = config_fingerprint(config, &cost);
    let file_fp = file_fingerprint(&file);
    assemble(
        p,
        |id, f, tr| {
            let s = tr.start("cache.key");
            let key = cache.key(f, freq.mode(), freq.func(id), cfg_fp, file_fp);
            tr.end(s);
            let s = tr.start("cache.get");
            let hit = cache.get(&key);
            tr.end(s);
            if let Some(entry) = hit {
                tr.count("cache.hits", 1.0);
                return Ok(entry);
            }
            tr.count("cache.misses", 1.0);
            match allocate_function(f, freq.func(id), &file, config, &cost, tr) {
                Ok((body, alloc)) => {
                    let s = tr.start("cache.insert");
                    let ins = cache.insert(key, &body, &alloc);
                    tr.end(s);
                    tr.count("cache.evictions", ins.evicted as f64);
                    Ok((body, alloc))
                }
                Err(_) => degraded(f, freq.func(id), &file, &cost, tr),
            }
        },
        tr,
    )
}

/// Allocates every function with `one`, in function-id order, into a
/// rewritten program.
fn assemble(
    p: &Program,
    mut one: impl FnMut(
        ccra_ir::FuncId,
        &Function,
        &mut Tracer,
    ) -> Result<(Function, FuncAllocation), String>,
    tr: &mut Tracer,
) -> Result<ProgramAllocation, String> {
    let mut program = Program::new();
    let mut per_func = Vec::with_capacity(p.num_functions());
    let mut overhead = Overhead::zero();
    for (id, f) in p.functions() {
        let (body, alloc) = one(id, f, tr)?;
        overhead += alloc.overhead;
        program.add_function(body);
        per_func.push(alloc);
    }
    if let Some(main) = p.main() {
        program.set_main(main);
    }
    Ok(ProgramAllocation {
        program,
        per_func,
        overhead,
    })
}
