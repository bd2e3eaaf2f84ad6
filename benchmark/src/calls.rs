//! Every call the benchmark makes into the allocator's crates.
//!
//! The benchmark measures from outside: it generates inputs, hands them to
//! public entry points, times the calls, and checks what comes back. All of
//! that crosses into the library here and only here (the traced pipeline
//! and cache mirrors live in the [`mirror`] submodule), so a later change to
//! the library's API edits this module and nothing else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ccra_analysis::InterpConfig;
use ccra_ir::{FuncId, Inst, RegClass, StableHasher};
use ccra_machine::CostModel;
use ccra_regalloc::driver::{AllocJob, DefaultJob, JobCtx};
use ccra_regalloc::{
    AllocRequest, AllocSink, BatchConfig, BatchStatus, CacheConfig, FlightRecorder,
    MetricsRegistry, NoopSink, ParallelDriver, PriorityOrdering, TimelineCollector,
};
use ccra_workloads::{random_program as fuzz_program, spec_program_scaled, FuzzConfig, Scale};

pub use ccra_analysis::{FrequencyInfo, Value};
pub use ccra_ir::{Function, Program};
pub use ccra_machine::RegisterFile;
pub use ccra_regalloc::{
    AllocCache, AllocatorConfig, BatchJob, BatchResult, BatchService, CacheStats, FuncAllocation,
    ProgramAllocation,
};

pub mod mirror;

/// The allocator configurations of the spec suite, labelled as the paper
/// labels them.
pub fn spec_configs() -> Vec<(&'static str, AllocatorConfig)> {
    vec![
        ("base", AllocatorConfig::base()),
        ("SC+BS+PR", AllocatorConfig::improved()),
        ("OPT+SC+BS+PR", AllocatorConfig::improved_optimistic()),
        ("PRIO", AllocatorConfig::priority(PriorityOrdering::Sorting)),
        ("CBH", AllocatorConfig::cbh()),
    ]
}

/// The two register files of the spec suite: the full MIPS file and the
/// tight `(8,6,2,2)` file that forces spilling.
pub fn spec_files() -> Vec<(&'static str, RegisterFile)> {
    vec![
        ("mips_full", RegisterFile::mips_full()),
        ("8,6,2,2", RegisterFile::new(8, 6, 2, 2)),
    ]
}

/// The fourteen SPEC92-shaped programs at `scale`, with their names.
pub fn spec_programs(scale: f64) -> Vec<(&'static str, Program)> {
    ccra_workloads::SpecProgram::ALL
        .iter()
        .map(|&p| (p.name(), spec_program_scaled(p, Scale(scale))))
        .collect()
}

/// The improved (SC+BS+PR) allocator.
pub fn improved() -> AllocatorConfig {
    AllocatorConfig::improved()
}

/// The full MIPS register file.
pub fn mips_full() -> RegisterFile {
    RegisterFile::mips_full()
}

/// A seeded random terminating program.
pub fn random_program(
    seed: u64,
    functions: usize,
    stmts_per_fn: usize,
    max_loop_depth: usize,
) -> Program {
    fuzz_program(
        seed,
        &FuzzConfig {
            functions,
            stmts_per_fn,
            max_loop_depth,
            ..FuzzConfig::default()
        },
    )
}

/// The wide synthetic program of the incremental-allocation sweep:
/// `funcs` small functions.
pub fn synth_program(funcs: usize, seed: u64) -> Program {
    ccra_eval::synth_program(funcs, seed)
}

/// Dynamic (profiled) frequencies.
pub fn profile(p: &Program) -> Result<FrequencyInfo, String> {
    FrequencyInfo::profile(p).map_err(|e| format!("profiling failed: {e}"))
}

/// Static (loop-nesting) frequency estimates.
pub fn estimate(p: &Program) -> FrequencyInfo {
    FrequencyInfo::estimate(p)
}

/// A program's size in instructions, one per terminator included.
pub fn size_insts(p: &Program) -> u64 {
    size_insts_of(p, None)
}

/// The functions `only` names (by index), or every function.
fn selected<'a>(p: &'a Program, only: Option<&'a [usize]>) -> Vec<(FuncId, &'a Function)> {
    match only {
        None => p.functions().collect(),
        Some(indices) => {
            let ids: Vec<FuncId> = p.func_ids().collect();
            indices
                .iter()
                .map(|&i| (ids[i], p.function(ids[i])))
                .collect()
        }
    }
}

/// The size of the functions `only` names (every function when `None`).
pub fn size_insts_of(p: &Program, only: Option<&[usize]>) -> u64 {
    selected(p, only)
        .into_iter()
        .flat_map(|(_, f)| f.blocks().map(|(_, b)| b.insts.len() as u64 + 1))
        .sum()
}

/// A digest of a program's content: its functions' content hashes, in
/// order.
pub fn program_digest(p: &Program) -> u128 {
    p.functions()
        .fold(0u128, |h, (_, f)| h.rotate_left(7) ^ f.content_hash())
}

/// A fingerprint of an allocation: every rewritten function's content
/// hash and every per-function result, register claims in sorted order.
/// Equal allocations have equal digests; unequal ones differ with
/// overwhelming probability.
pub fn allocation_digest(a: &ProgramAllocation) -> u128 {
    fn reg(h: &mut StableHasher, r: ccra_machine::PhysReg) {
        h.write_u32((r.class as u32) << 16 | (r.kind as u32) << 8 | u32::from(r.index));
    }
    let mut h = StableHasher::new();
    h.write_u64(a.program.main().map_or(u64::MAX, |m| u64::from(m.0)));
    for (id, f) in a.program.functions() {
        let fa = a.func(id);
        h.write_bytes(&f.content_hash().to_le_bytes());
        let o = fa.overhead;
        for x in [o.spill, o.caller_save, o.callee_save, o.shuffle] {
            h.write_f64(x);
        }
        h.write_u32(fa.rounds);
        h.write_u64(fa.spilled_ranges as u64);
        h.write_u64(fa.callee_regs_used as u64);
        h.write_u8(u8::from(fa.degraded));
        for r in &fa.ranges {
            h.write_u8(r.class as u8);
            for x in [r.spill_cost, r.caller_cost, r.callee_cost] {
                h.write_f64(x);
            }
            h.write_u8(u8::from(r.crosses_calls));
            match r.loc.reg() {
                Some(p) => reg(&mut h, p),
                None => h.write_u32(u32::MAX),
            }
        }
        let mut claims: Vec<_> = fa.assignment.iter().collect();
        claims.sort_unstable();
        h.write_u64(claims.len() as u64);
        for (&(bb, idx, v, is_def), &r) in claims {
            h.write_u32(bb.0);
            h.write_u32(idx);
            h.write_u32(v.0);
            h.write_u8(u8::from(is_def));
            reg(&mut h, r);
        }
    }
    h.finish128()
}

/// Edits function `index` the way a trivial source edit would: a dead
/// integer constant `value` prepended to its entry block. Semantics and
/// frequencies stay the same; the function's content hash changes.
pub fn edit_function(p: &mut Program, index: usize, value: i64) {
    let id = p
        .func_ids()
        .nth(index)
        .expect("edit index within the program");
    let f = p.function_mut(id);
    let v = f.new_vreg(RegClass::Int);
    let entry = f.entry();
    f.block_mut(entry)
        .insts
        .insert(0, Inst::IConst { dst: v, value });
}

/// The serial pipeline, with the paper's cost model.
pub fn allocate_program(
    p: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
) -> Result<ProgramAllocation, String> {
    ccra_regalloc::allocate_program(p, freq, file, config).map_err(|e| e.to_string())
}

/// `allocate_function` on every function of a program, strict: a failure
/// comes back as an error instead of falling back.
pub fn allocate_functions(
    p: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
) -> Vec<Result<(Function, FuncAllocation), String>> {
    let cost = CostModel::paper();
    p.functions()
        .map(|(id, f)| {
            ccra_regalloc::allocate_function(f, freq.func(id), &file, config, &cost)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// `reference` — an allocation of a program `edited` differs from only in
/// the functions `edited_indices` names — with those functions allocated
/// afresh, as `allocate_program` would: strictly, falling back to
/// spill-everything on failure. The incremental-allocation oracle, built
/// from per-function allocation alone.
pub fn reallocate(
    reference: &ProgramAllocation,
    edited: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
    edited_indices: &[usize],
) -> Result<ProgramAllocation, String> {
    let cost = CostModel::paper();
    let mut out = reference.clone();
    for (id, f) in selected(edited, Some(edited_indices)) {
        let (body, alloc) =
            ccra_regalloc::allocate_function(f, freq.func(id), &file, config, &cost)
                .or_else(|_| {
                    ccra_regalloc::degraded_allocation(
                        f,
                        freq.func(id),
                        &file,
                        &cost,
                        &mut NoopSink,
                    )
                })
                .map_err(|e| e.to_string())?;
        *out.program.function_mut(id) = body;
        out.per_func[id.index()] = alloc;
    }
    out.overhead = out
        .per_func
        .iter()
        .fold(ccra_regalloc::Overhead::zero(), |acc, f| acc + f.overhead);
    Ok(out)
}

/// Functions of an allocation that fell back to spill-everything.
pub fn degraded_funcs(a: &ProgramAllocation) -> usize {
    a.per_func.iter().filter(|f| f.degraded).count()
}

/// A memo cache with the default shards and byte budget. `poison`
/// collapses every key, so warm runs replay wrong allocations.
pub fn new_cache(poison: bool) -> AllocCache {
    AllocCache::new(CacheConfig {
        poison,
        ..CacheConfig::default()
    })
}

/// The cache's counters.
pub fn cache_stats(c: &AllocCache) -> CacheStats {
    c.stats()
}

/// One [`ParallelDriver`] run and what the benchmark reads off it.
#[derive(Debug)]
pub struct DriverRun {
    /// The merged allocation.
    pub alloc: ProgramAllocation,
    /// Jobs taken from another worker's deque.
    pub steals: u64,
    /// Functions that fell back to spill-everything.
    pub degraded: usize,
    /// Σ per-function allocation time on the workers, microseconds, when
    /// jobs were timed (0 otherwise).
    pub serial_us: f64,
}

/// A driver job that times each function's allocation.
struct TimedJob {
    nanos: AtomicU64,
}

impl AllocJob for TimedJob {
    fn run(
        &self,
        ctx: &JobCtx<'_>,
        sink: &mut dyn AllocSink,
        metrics: &mut MetricsRegistry,
    ) -> Result<(Function, FuncAllocation), ccra_regalloc::AllocError> {
        let t = Instant::now();
        let out = DefaultJob.run(ctx, sink, metrics);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// Allocates through a [`ParallelDriver`] of `workers` threads, consulting
/// and filling `cache` when given. With `time_jobs` every function's
/// allocation is timed on its worker (the traced run's `driver.serial_us`).
pub fn driver_allocate(
    workers: usize,
    p: &Program,
    freq: &FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
    cache: Option<&AllocCache>,
    time_jobs: bool,
) -> Result<DriverRun, String> {
    let cost = CostModel::paper();
    let req = AllocRequest {
        program: p,
        freq,
        file,
        config,
        cost: &cost,
    };
    let flight = FlightRecorder::disabled();
    let timed = TimedJob {
        nanos: AtomicU64::new(0),
    };
    let job: &dyn AllocJob = if time_jobs { &timed } else { &DefaultJob };
    let (alloc, report, _) = ParallelDriver::new(workers)
        .allocate_program_cached(
            &req,
            &mut NoopSink,
            &mut MetricsRegistry::disabled(),
            job,
            &TimelineCollector::disabled(),
            flight.view(0),
            cache,
        )
        .map_err(|e| e.to_string())?;
    Ok(DriverRun {
        alloc,
        steals: report.steals,
        degraded: report.degraded_funcs(),
        serial_us: timed.nanos.load(Ordering::Relaxed) as f64 / 1000.0,
    })
}

/// The serving workload's job stream: Pareto 2–24-function programs under
/// the improved allocator on the full file, `rerun_per_mille` of them
/// byte-identical re-submissions of earlier jobs.
pub fn serve_jobs(n: usize, seed: u64, rerun_per_mille: u32) -> Vec<BatchJob> {
    ccra_eval::traffic::job_stream(
        &ccra_eval::TrafficShape::steady(n, seed, 0).with_rerun_per_mille(rerun_per_mille),
    )
}

/// Exponential inter-arrival gaps (microseconds) with the given mean.
pub fn arrival_gaps(n: usize, seed: u64, mean_gap_us: u64) -> Vec<u64> {
    ccra_eval::traffic::arrival_gaps(&ccra_eval::TrafficShape::steady(n, seed, mean_gap_us))
}

/// The program a job carries.
pub fn job_program(j: &BatchJob) -> &Program {
    &j.program
}

/// A batch service of 2 workers, one shard worker each, the default queue
/// of 16 and request traces on, sharing `cache`.
pub fn start_service(cache: Arc<AllocCache>) -> BatchService {
    BatchService::start(BatchConfig {
        workers: 2,
        shard_workers: 1,
        cache: Some(cache),
        ..BatchConfig::default()
    })
}

/// Submits a job, blocking while the queue is full.
pub fn submit(svc: &BatchService, job: BatchJob) -> Result<u64, String> {
    svc.submit(job).map_err(|e| e.to_string())
}

/// Jobs queued and not yet picked up.
pub fn queue_depth(svc: &BatchService) -> usize {
    svc.pending()
}

/// Submissions that found the queue full and blocked.
pub fn blocked_submits(svc: &BatchService) -> u64 {
    svc.handle().queue_stats().blocked_pushes
}

/// Closes the service and returns every result, sorted by id.
pub fn shutdown(svc: BatchService) -> Vec<BatchResult> {
    svc.shutdown()
}

/// What the benchmark reads off one batch result.
#[derive(Debug)]
pub struct Served {
    /// The submission id.
    pub id: u64,
    /// Whether the job allocated with no degraded function.
    pub ok: bool,
    /// Submit-to-reply time inside the service, microseconds.
    pub e2e_us: u64,
    /// Time queued, microseconds.
    pub queue_us: u64,
    /// Time on a service worker, microseconds.
    pub service_us: u64,
    /// The allocation, when the job ran.
    pub alloc: Option<ProgramAllocation>,
}

/// Unpacks one batch result.
pub fn served(r: BatchResult) -> Served {
    let (e2e_us, queue_us, service_us) = r
        .trace
        .as_ref()
        .map_or((0, 0, r.micros), |t| (t.e2e_us, t.queue_us, t.service_us));
    Served {
        id: r.id,
        ok: r.status == BatchStatus::Ok,
        e2e_us,
        queue_us,
        service_us,
        alloc: r.allocation,
    }
}

/// Runs the independent checker on the functions `only` names (every
/// function when `None`).
pub fn check_program(
    original: &Program,
    freq: &FrequencyInfo,
    a: &ProgramAllocation,
    only: Option<&[usize]>,
) -> Result<(), String> {
    for (id, f) in selected(original, only) {
        ccra_regalloc::check_allocation(f, a.program.function(id), freq.func(id), a.func(id))
            .map_err(|v| format!("checker rejected {}: {:?}", f.name(), v.first()))?;
    }
    Ok(())
}

/// What the interpreter measured running a program.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The value `main` returned.
    pub result: Option<Value>,
    /// Useful instructions executed.
    pub steps: u64,
    /// Overhead operations executed: spill, caller-save, callee-save and
    /// shuffle.
    pub overhead_ops: u64,
}

/// Executes a program on the independent interpreter.
pub fn replay(p: &Program) -> Result<Replay, String> {
    let stats = ccra_analysis::run(p, &InterpConfig::default())
        .map_err(|e| format!("replay failed: {e:?}"))?;
    Ok(Replay {
        result: stats.result,
        steps: stats.steps,
        overhead_ops: stats.total_overhead(),
    })
}

/// Overhead operations the allocation inserted into the functions `only`
/// names (every function when `None`): every spill load and store, and the
/// operations each save/restore or shuffle marker stands for.
pub fn static_overhead_ops(a: &ProgramAllocation, only: Option<&[usize]>) -> u64 {
    let mut ops = 0u64;
    for (_, f) in selected(&a.program, only) {
        for (_, b) in f.blocks() {
            for inst in &b.insts {
                ops += match inst {
                    Inst::SpillLoad { .. } | Inst::SpillStore { .. } => 1,
                    Inst::Overhead { ops, .. } => u64::from(*ops),
                    _ => 0,
                };
            }
        }
    }
    ops
}

/// Removes the first spill store of an allocation's rewritten code, the
/// fault the verification gate must catch. Returns whether one was found.
pub fn drop_one_spill_store(a: &mut ProgramAllocation) -> bool {
    let ids: Vec<_> = a.program.func_ids().collect();
    for id in ids {
        let f = a.program.function_mut(id);
        let blocks: Vec<_> = f.block_ids().collect();
        for bb in blocks {
            let insts = &mut f.block_mut(bb).insts;
            if let Some(i) = insts
                .iter()
                .position(|inst| matches!(inst, Inst::SpillStore { .. }))
            {
                insts.remove(i);
                return true;
            }
        }
    }
    false
}
