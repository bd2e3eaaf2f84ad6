//! The incremental re-allocation sweep behind the `incr` binary: allocate
//! a wide synthetic program cold, edit a fraction of its functions, and
//! re-allocate through a warm [`AllocCache`] — measuring what the
//! content-addressed memo cache buys and proving it never changes a
//! single output byte.
//!
//! Every cell of the sweep (dirty fraction × worker count) runs three
//! allocations of the *edited* program:
//!
//! 1. an uncached reference run — the cold time, and the oracle;
//! 2. a populate run of the *pre-edit* program into a fresh cache;
//! 3. the warm run through that cache — the measured time.
//!
//! The warm result is compared against the reference **inside the
//! sweep**: [`run_incr_sweep`] returns an error (and the binary exits
//! nonzero) on the first byte that differs, so a warm number for a wrong
//! allocation can never be recorded. `--poison` (see
//! [`ccra_regalloc::CacheConfig::poison`]) collapses every cache key and
//! exists to prove in CI that this gate actually fires.
//!
//! Hit counts are a pure function of the sweep — an edited function
//! misses, an untouched one hits — so every cell must then have exactly
//! as many misses as [`dirty_program`] edited functions and hits for all
//! the rest ([`check_hits`]); no baseline file is needed. Wall-clock
//! speedups are recorded for the humans but never gated: they are honest
//! measurements on whatever machine ran the sweep.

use std::time::Instant;

use ccra_analysis::FrequencyInfo;
use ccra_ir::{Inst, Program, RegClass};
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::driver::DefaultJob;
use ccra_regalloc::{
    AllocCache, AllocRequest, AllocatorConfig, CacheConfig, FlightRecorder, MetricsRegistry,
    NoopSink, ParallelDriver, ProgramAllocation, TimelineCollector,
};
use ccra_workloads::{random_program, FuzzConfig};
use serde::Serialize;

use crate::parsweep::SWEEP_WORKER_COUNTS;

/// The dirty fractions the default sweep measures, percent of functions
/// edited between the cold and warm runs: fully warm, the incremental
/// sweet spot, a heavy edit, and nothing reusable.
pub const SWEEP_DIRTY_PCTS: [u64; 4] = [0, 1, 10, 100];

/// The default function count of the synthetic workload — wide enough
/// that a 1% edit still dirties a meaningful population (10 functions).
pub const DEFAULT_FUNCS: usize = 1000;

/// One cell of the incremental re-allocation sweep: a synthetic program
/// re-allocated through a warm [`AllocCache`] after a given fraction of
/// its functions were edited, at one worker count. Every cell is
/// byte-identity-checked against an uncached cold run, and its hit counts
/// checked exactly, before it is recorded.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheEntry {
    /// The workload name (e.g. `"synth1000"`).
    pub workload: String,
    /// Driver worker threads for both the cold and warm runs.
    pub workers: u64,
    /// Percentage of functions edited between the cold and warm runs
    /// (0 = fully warm, 100 = nothing reusable).
    pub dirty_pct: u64,
    /// Functions in the workload.
    pub funcs: u64,
    /// Cold (empty-cache) allocation wall-clock microseconds.
    pub cold_micros: u64,
    /// Warm (populated-cache) re-allocation wall-clock microseconds.
    pub warm_micros: u64,
    /// Memo-cache hit rate of the warm run, 0.0–1.0.
    pub hit_rate: f64,
    /// Memo-cache hits of the warm run.
    pub hits: u64,
    /// Memo-cache misses of the warm run.
    pub misses: u64,
    /// Resident cache bytes after the warm run.
    pub bytes: u64,
    /// Entries evicted across both runs.
    pub evictions: u64,
    /// Cold time divided by warm time (> 1 = the cache paid off).
    pub speedup: f64,
}

/// The shape of one `incr` run.
#[derive(Debug, Clone)]
pub struct IncrConfig {
    /// Functions in the synthetic workload.
    pub funcs: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Worker counts to sweep.
    pub workers: Vec<usize>,
    /// Dirty fractions (percent) to sweep.
    pub dirty_pcts: Vec<u64>,
    /// Collapse every cache key ([`CacheConfig::poison`]) — the warm run
    /// replays wrong allocations and the byte-identity gate must fail.
    pub poison: bool,
}

impl Default for IncrConfig {
    fn default() -> Self {
        IncrConfig {
            funcs: DEFAULT_FUNCS,
            seed: 1997,
            workers: SWEEP_WORKER_COUNTS.to_vec(),
            dirty_pcts: SWEEP_DIRTY_PCTS.to_vec(),
            poison: false,
        }
    }
}

/// Builds the sweep's synthetic workload: `funcs` small functions, the
/// same generator the parallel sweep and the traffic model use.
pub fn synth_program(funcs: usize, seed: u64) -> Program {
    random_program(
        seed,
        &FuzzConfig {
            functions: funcs.max(1),
            stmts_per_fn: 8,
            max_loop_depth: 1,
            max_trips: 4,
        },
    )
}

/// Whether function `index` is edited at this dirty fraction. Spreads the
/// dirty set evenly over the id space (every 100th function at 1%, every
/// 10th at 10%) instead of clustering it at the front.
fn is_dirty(index: usize, dirty_pct: u64) -> bool {
    dirty_pct > 0 && (index as u64 * dirty_pct) % 100 < dirty_pct
}

/// Returns a copy of `base` with `dirty_pct` percent of its functions
/// edited, plus the number of functions actually touched. The edit — a
/// fresh dead `iconst` prepended to the entry block — is semantically
/// inert but changes the function's content hash, exactly like a
/// recompile after a trivial source edit.
pub fn dirty_program(base: &Program, dirty_pct: u64) -> (Program, u64) {
    let mut edited = base.clone();
    let mut dirtied = 0u64;
    for (index, id) in base.func_ids().enumerate() {
        if is_dirty(index, dirty_pct) {
            let f = edited.function_mut(id);
            let v = f.new_vreg(RegClass::Int);
            let entry = f.entry();
            f.block_mut(entry)
                .insts
                .insert(0, Inst::IConst { dst: v, value: 42 });
            dirtied += 1;
        }
    }
    (edited, dirtied)
}

/// One driver run, timed. `cache: None` is the uncached reference.
fn timed_run(
    workers: usize,
    program: &Program,
    freq: &FrequencyInfo,
    config: &AllocatorConfig,
    cost: &CostModel,
    file: RegisterFile,
    cache: Option<&AllocCache>,
) -> (ProgramAllocation, u64) {
    let driver = ParallelDriver::new(workers);
    let flight = FlightRecorder::new(workers + 1);
    let collector = TimelineCollector::disabled();
    let req = AllocRequest {
        program,
        freq,
        file,
        config,
        cost,
    };
    let start = Instant::now();
    let (out, _report, _timeline) = driver
        .allocate_program_cached(
            &req,
            &mut NoopSink,
            &mut MetricsRegistry::disabled(),
            &DefaultJob,
            &collector,
            flight.view(0),
            cache,
        )
        .expect("the incr sweep's synthetic workloads allocate");
    (out, start.elapsed().as_micros() as u64)
}

/// Runs the sweep, calling `progress` after each finished cell.
///
/// # Errors
///
/// Returns a message naming the first cell whose warm (cached) result was
/// not byte-identical to the uncached reference, or whose hit counts were
/// not exact ([`check_hits`]) — the binary turns this into a nonzero
/// exit. With [`IncrConfig::poison`] set the byte-identity failure is the
/// *expected* outcome; a poisoned sweep that returns `Ok` means the gate
/// is dead.
pub fn run_incr_sweep(
    cfg: &IncrConfig,
    mut progress: impl FnMut(&CacheEntry),
) -> Result<Vec<CacheEntry>, String> {
    let config = AllocatorConfig::improved();
    let cost = CostModel::paper();
    let file = RegisterFile::mips_full();
    let workload = format!("synth{}", cfg.funcs);
    let base = synth_program(cfg.funcs, cfg.seed);
    let base_freq = FrequencyInfo::estimate(&base);
    let mut entries = Vec::new();
    for &dirty_pct in &cfg.dirty_pcts {
        let (edited, dirtied) = dirty_program(&base, dirty_pct);
        let edited_freq = FrequencyInfo::estimate(&edited);
        for &workers in &cfg.workers {
            let workers = workers.max(1);
            // The oracle and the cold time: the edited program, no cache.
            let (reference, cold_micros) =
                timed_run(workers, &edited, &edited_freq, &config, &cost, file, None);
            // Populate a fresh cache with the pre-edit program, then
            // re-allocate the edited one through it.
            let cache = AllocCache::new(CacheConfig {
                poison: cfg.poison,
                ..CacheConfig::default()
            });
            let _ = timed_run(
                workers,
                &base,
                &base_freq,
                &config,
                &cost,
                file,
                Some(&cache),
            );
            let before = cache.stats();
            let (warm, warm_micros) = timed_run(
                workers,
                &edited,
                &edited_freq,
                &config,
                &cost,
                file,
                Some(&cache),
            );
            if warm != reference {
                return Err(format!(
                    "BYTE IDENTITY VIOLATED: warm re-allocation of {workload} \
                     (dirty {dirty_pct}%, {workers} worker(s)) differs from the \
                     uncached cold run — the cache changed an allocation"
                ));
            }
            let after = cache.stats();
            let hits = after.hits - before.hits;
            let misses = after.misses - before.misses;
            let entry = CacheEntry {
                workload: workload.clone(),
                workers: workers as u64,
                dirty_pct,
                funcs: cfg.funcs as u64,
                cold_micros,
                warm_micros,
                hit_rate: if hits + misses == 0 {
                    0.0
                } else {
                    hits as f64 / (hits + misses) as f64
                },
                hits,
                misses,
                bytes: after.bytes,
                evictions: after.evictions,
                speedup: cold_micros as f64 / warm_micros.max(1) as f64,
            };
            check_hits(&entry, dirtied)?;
            progress(&entry);
            entries.push(entry);
        }
    }
    Ok(entries)
}

/// The exact hit-count gate on one sweep cell: the warm run must miss
/// on exactly the `edited` functions and hit on every other one. An extra
/// miss means the cache stopped recognizing an unchanged function; an
/// extra hit means it served a stale allocation for an edited one.
///
/// # Errors
///
/// Returns a message naming the cell and both expected and actual counts.
pub fn check_hits(entry: &CacheEntry, edited: u64) -> Result<(), String> {
    let expected_hits = entry.funcs.saturating_sub(edited);
    if entry.misses == edited && entry.hits == expected_hits {
        return Ok(());
    }
    Err(format!(
        "HIT COUNT MISMATCH: {}/w{}/dirty{}%: {} hit(s), {} miss(es); \
         expected {expected_hits} hit(s), {edited} miss(es) for {edited} edited function(s)",
        entry.workload, entry.workers, entry.dirty_pct, entry.hits, entry.misses
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workers: Vec<usize>, dirty_pcts: Vec<u64>) -> IncrConfig {
        IncrConfig {
            funcs: 40,
            seed: 7,
            workers,
            dirty_pcts,
            poison: false,
        }
    }

    #[test]
    fn dirty_program_changes_exactly_the_selected_hashes() {
        let base = synth_program(40, 7);
        let (edited, dirtied) = dirty_program(&base, 10);
        assert_eq!(dirtied, 4, "10% of 40 functions");
        let mut changed = 0;
        for (index, id) in base.func_ids().enumerate() {
            let same = base.function(id).content_hash() == edited.function(id).content_hash();
            assert_eq!(same, !is_dirty(index, 10), "function {index}");
            changed += u32::from(!same);
        }
        assert_eq!(changed, 4);
        let (clean, zero) = dirty_program(&base, 0);
        assert_eq!(zero, 0);
        assert_eq!(clean, base);
        let (all, n) = dirty_program(&base, 100);
        assert_eq!(n, 40);
        assert!(base
            .func_ids()
            .all(|id| base.function(id).content_hash() != all.function(id).content_hash()));
    }

    #[test]
    fn sweep_hit_rates_are_exact_and_outputs_match() {
        let entries =
            run_incr_sweep(&small(vec![1, 2], vec![0, 10, 100]), |_| {}).expect("byte-identical");
        assert_eq!(entries.len(), 6);
        for e in &entries {
            assert_eq!(e.funcs, 40);
            assert_eq!(e.hits + e.misses, 40, "{e:?}");
            let expected_misses = match e.dirty_pct {
                0 => 0,
                10 => 4,
                100 => 40,
                _ => unreachable!(),
            };
            assert_eq!(e.misses, expected_misses, "{e:?}");
            assert_eq!(e.evictions, 0, "nothing evicts at this size: {e:?}");
            assert!(e.bytes > 0);
        }
        // Hit rates are worker-count independent.
        for e in entries.iter().filter(|e| e.workers == 2) {
            let w1 = entries
                .iter()
                .find(|o| o.workers == 1 && o.dirty_pct == e.dirty_pct)
                .expect("workers=1 twin");
            assert_eq!(e.hit_rate, w1.hit_rate);
        }
    }

    #[test]
    fn poison_trips_the_byte_identity_gate() {
        let cfg = IncrConfig {
            poison: true,
            ..small(vec![1], vec![0])
        };
        let err = run_incr_sweep(&cfg, |_| {}).expect_err("poisoned keys replay wrong bodies");
        assert!(err.contains("BYTE IDENTITY VIOLATED"), "{err}");
    }

    #[test]
    fn check_gate_flags_inexact_hit_counts() {
        let cell = |hits: u64, misses: u64| CacheEntry {
            workload: "synth1000".to_string(),
            workers: 4,
            dirty_pct: 1,
            funcs: 1000,
            cold_micros: 100,
            warm_micros: 50,
            hit_rate: hits as f64 / 1000.0,
            hits,
            misses,
            bytes: 1 << 20,
            evictions: 0,
            speedup: 2.0,
        };
        check_hits(&cell(990, 10), 10).expect("exact counts pass");
        check_hits(&cell(1000, 0), 0).expect("fully warm passes");
        // One unchanged function re-allocated: an extra miss.
        let err = check_hits(&cell(989, 11), 10).unwrap_err();
        assert!(err.contains("synth1000/w4/dirty1%"), "{err}");
        assert!(err.contains("expected 990 hit(s), 10 miss(es)"), "{err}");
        // One edited function served from the cache: an extra hit.
        check_hits(&cell(991, 9), 10).unwrap_err();
    }
}
