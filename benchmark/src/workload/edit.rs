//! `edit-1000`: incremental re-allocation of a wide program through the
//! memo cache, one caller in a closed loop.
//!
//! The input is the 1000-function synthetic program of the incremental
//! sweep (about 17.8k instructions) under static frequency estimates. One
//! iteration allocates it cold through a 2-worker `ParallelDriver` into a
//! fresh cache (1000 inserts), then re-allocates it warm eight times, each
//! after a fresh seeded edit of 1% of its functions (990 hits, 10 misses).
//! Cache key, lookup and insert and the driver's shard and merge dominate;
//! graph work is minor. Cold runs write the cache and warm runs read it
//! side by side, so a change that helps one and costs the other shows.
//! A fresh edit each time samples thousands of functions per run, so which
//! functions an edit happens to hit does not move the result.
//!
//! Every cold result must equal the serial pipeline's allocation of the
//! program byte for byte, and every warm result that allocation with the
//! edited functions allocated afresh; each warm run must hit and miss
//! exactly as the edit predicts.

use std::time::Instant;

use crate::calls::mirror::{self, PROBE_US};
use crate::calls::{self, AllocCache, AllocatorConfig, FrequencyInfo, Program};
use crate::calls::{ProgramAllocation, RegisterFile};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::Blocks;

use super::{report_latency, report_layers, report_tail, timed_setup, trace_overhead_pct};
use super::{write_spans, Inject, Rng, RunConfig, Verifier};

/// Driver workers.
const WORKERS: usize = 2;
/// Warm re-allocations per cold one.
const WARM_PER_COLD: usize = 8;
/// Warm results whose programs are also replayed on the interpreter (the
/// edits are dead constants, so the rest replay identically).
const REPLAYED_EDITS: u64 = 8;

/// The workload's inputs and the reference allocation.
struct Inputs {
    funcs: usize,
    edits: usize,
    base: Program,
    freq: FrequencyInfo,
    instrs: u64,
    config: AllocatorConfig,
    file: RegisterFile,
    reference: ProgramAllocation,
}

/// The current edit: a fresh copy of the program with a seeded 1% of its
/// functions edited, and what its warm run must return. Both are rebuilt
/// for every edit rather than patched in place: patching one long-lived
/// copy fragmented the heap until the timed warm runs slowed from about 3.5
/// to 6–7 ms over twenty seconds.
struct Edited {
    program: Program,
    indices: Vec<usize>,
    expected: ProgramAllocation,
    rng: Rng,
    /// Edits made so far. Edit `seq` writes the constant `seq`, so no edit
    /// recreates a function an earlier one already put in the cache.
    seq: i64,
}

impl Edited {
    fn new(inputs: &Inputs, seed: u64) -> Self {
        Edited {
            program: inputs.base.clone(),
            indices: Vec::new(),
            expected: inputs.reference.clone(),
            rng: Rng::new(seed ^ 0xed17),
            seq: 0,
        }
    }

    /// Moves to a fresh seeded edit of 1% of the functions.
    fn next(&mut self, inputs: &Inputs) -> Result<(), String> {
        self.indices.clear();
        while self.indices.len() < inputs.edits {
            let i = (self.rng.next_u64() % inputs.funcs as u64) as usize;
            if !self.indices.contains(&i) {
                self.indices.push(i);
            }
        }
        self.seq += 1;
        self.program = inputs.base.clone();
        for &i in &self.indices {
            calls::edit_function(&mut self.program, i, self.seq);
        }
        self.expected = calls::reallocate(
            &inputs.reference,
            &self.program,
            &inputs.freq,
            inputs.file,
            &inputs.config,
            &self.indices,
        )?;
        Ok(())
    }
}

fn build(seed: u64, tiny: bool) -> Result<Inputs, String> {
    let funcs = if tiny { 40 } else { 1000 };
    let base = calls::synth_program(funcs, seed);
    let freq = calls::estimate(&base);
    let (config, file) = (calls::improved(), calls::mips_full());
    let reference = calls::allocate_program(&base, &freq, file, &config)?;
    let inputs = Inputs {
        funcs,
        edits: (funcs / 100).max(1),
        instrs: calls::size_insts(&base),
        base,
        freq,
        config,
        file,
        reference,
    };
    // Warm-up: one cold and one warm run.
    let cache = calls::new_cache(false);
    inputs.cold(&cache, false)?;
    let mut e = Edited::new(&inputs, seed);
    e.next(&inputs)?;
    inputs.warm(&e, &cache)?;
    Ok(inputs)
}

impl Inputs {
    fn cold(&self, cache: &AllocCache, time_jobs: bool) -> Result<calls::DriverRun, String> {
        calls::driver_allocate(
            WORKERS,
            &self.base,
            &self.freq,
            self.file,
            &self.config,
            Some(cache),
            time_jobs,
        )
    }

    fn warm(&self, e: &Edited, cache: &AllocCache) -> Result<calls::DriverRun, String> {
        // A dead-constant edit leaves every block frequency as it was.
        calls::driver_allocate(
            WORKERS,
            &e.program,
            &self.freq,
            self.file,
            &self.config,
            Some(cache),
            false,
        )
    }
}

/// Compares a result with what it must be and counts failed operations.
fn note(report: &mut Report, got: &ProgramAllocation, expected: &ProgramAllocation, what: &str) {
    report.attempted += 1;
    if calls::degraded_funcs(got) > 0 {
        report.failed += 1;
    }
    if got != expected {
        report.failed += 1;
        report.error(format!(
            "{what} is not byte-identical to the uncached allocation"
        ));
    }
}

/// Checks a warm run's hits and misses against what the edit predicts.
fn note_split(report: &mut Report, inputs: &Inputs, hits: u64, misses: u64) {
    let expect_misses = inputs.edits as u64;
    let expect_hits = inputs.funcs as u64 - expect_misses;
    if (hits, misses) != (expect_hits, expect_misses) {
        report.error(format!(
            "warm run hit {hits} and missed {misses}; the edit predicts \
             {expect_hits} and {expect_misses}"
        ));
    }
}

/// Verifies the functions an edit changed; the first few edited programs
/// are also replayed against their allocations.
fn verify_edit(
    v: &mut Verifier,
    inputs: &Inputs,
    e: &Edited,
    report: &mut Report,
) -> Result<(), String> {
    let replay = if v.allocations <= REPLAYED_EDITS {
        Some(v.replay_original(&e.program)?)
    } else {
        None
    };
    let only = Some(e.indices.as_slice());
    if let Err(err) = v.verify_only(&e.program, &inputs.freq, &e.expected, only, replay.as_ref()) {
        report.error(format!("edited functions {:?}: {err}", e.indices));
    }
    Ok(())
}

#[derive(Default)]
struct LoopOut {
    cold: Blocks,
    warm: Blocks,
    busy_us: f64,
    iterations: u64,
}

/// Cold and warm runs, a block a second, until `seconds` pass.
fn untraced_loop(
    inputs: &Inputs,
    seconds: f64,
    poison: bool,
    e: &mut Edited,
    v: &mut Verifier,
    report: &mut Report,
) -> Result<LoopOut, String> {
    let mut out = LoopOut::default();
    let start = Instant::now();
    let mut block = Instant::now();
    loop {
        let cache = calls::new_cache(poison);
        let t = Instant::now();
        let cold = inputs.cold(&cache, false)?;
        let secs = t.elapsed().as_secs_f64();
        out.cold.push(secs * 1e3, inputs.instrs as f64, secs);
        out.busy_us += secs * 1e6;
        note(report, &cold.alloc, &inputs.reference, "a cold run");
        for _ in 0..WARM_PER_COLD {
            e.next(inputs)?;
            let before = calls::cache_stats(&cache);
            let t = Instant::now();
            let warm = inputs.warm(e, &cache)?;
            let secs = t.elapsed().as_secs_f64();
            out.warm.push(secs * 1e3, inputs.instrs as f64, secs);
            out.busy_us += secs * 1e6;
            let after = calls::cache_stats(&cache);
            note(report, &warm.alloc, &e.expected, "a warm run");
            note_split(
                report,
                inputs,
                after.hits - before.hits,
                after.misses - before.misses,
            );
            verify_edit(v, inputs, e, report)?;
        }
        out.iterations += 1;
        if block.elapsed().as_secs_f64() >= 1.0 {
            out.cold.close();
            out.warm.close();
            block = Instant::now();
            if start.elapsed().as_secs_f64() >= seconds {
                return Ok(out);
            }
        }
    }
}

/// Traced iterations: the cold run through the driver with every
/// function's allocation timed on its worker, the warm runs through the
/// cache mirror. Returns iterations and traced time per iteration with the
/// probes taken out, microseconds.
fn traced_loop(
    inputs: &Inputs,
    seconds: f64,
    poison: bool,
    e: &mut Edited,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(u64, f64), String> {
    let mut iterations = 0u64;
    let mut traced_us = 0.0;
    let (mut driver_us, mut serial_us, mut steals) = (0.0, 0.0, 0u64);
    let mut bytes = 0u64;
    let start = Instant::now();
    while iterations == 0 || start.elapsed().as_secs_f64() < seconds {
        tr.set_op(iterations);
        let cache = calls::new_cache(poison);
        let probes = tr.counter(PROBE_US);
        let t = Instant::now();
        let s = tr.start("driver");
        let cold = inputs.cold(&cache, true)?;
        driver_us += tr.end(s);
        traced_us += t.elapsed().as_secs_f64() * 1e6;
        serial_us += cold.serial_us;
        steals += cold.steals;
        note(report, &cold.alloc, &inputs.reference, "a cold run");
        for _ in 0..WARM_PER_COLD {
            e.next(inputs)?;
            let t = Instant::now();
            let warm = mirror::cached(
                &e.program,
                &inputs.freq,
                inputs.file,
                &inputs.config,
                &cache,
                tr,
            )?;
            traced_us += t.elapsed().as_secs_f64() * 1e6;
            note(report, &warm, &e.expected, "the cache mirror");
        }
        traced_us -= tr.counter(PROBE_US) - probes;
        bytes = bytes.max(calls::cache_stats(&cache).bytes);
        iterations += 1;
    }
    let n = iterations as f64;
    let (hits, misses) = (tr.counter("cache.hits"), tr.counter("cache.misses"));
    report.set("cache.hits", hits / n);
    report.set("cache.misses", misses / n);
    report.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    report.set("cache.evictions", tr.counter("cache.evictions") / n);
    report.set("cache.bytes", bytes as f64);
    report.set("driver.us", driver_us / n);
    report.set("driver.serial_us", serial_us / n);
    report.set(
        "driver.efficiency",
        serial_us / (driver_us * WORKERS as f64).max(1e-9),
    );
    report.set("driver.steals", steals as f64 / n);
    Ok((iterations, traced_us / n))
}

/// Runs `edit-1000`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let poison = cfg.inject == Some(Inject::PoisonCache);
    let (inputs, setup_s) = timed_setup(|| build(cfg.seed, cfg.tiny))?;
    let mut report = Report::new("edit-1000", cfg.seed, cfg.traced);
    let mut e = Edited::new(&inputs, cfg.seed);
    let mut v = Verifier::default();
    let original = v.replay_original(&inputs.base)?;
    if let Err(e) = v.verify(
        &inputs.base,
        &inputs.freq,
        &inputs.reference,
        Some(&original),
    ) {
        report.error(format!("cold allocation: {e}"));
    }
    let untraced_s = if cfg.traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut out = untraced_loop(&inputs, untraced_s, poison, &mut e, &mut v, &mut report)?;
    if cfg.traced {
        let mut tr = Tracer::enabled();
        let (ops, traced_us) = traced_loop(
            &inputs,
            cfg.seconds / 2.0,
            poison,
            &mut e,
            &mut tr,
            &mut report,
        )?;
        report_layers(&mut report, &tr, ops);
        report.set(
            "trace_overhead_pct",
            trace_overhead_pct(out.busy_us / out.iterations as f64, traced_us),
        );
        write_spans(cfg, &tr)?;
    } else {
        report.set("setup_s", setup_s);
        report_latency(&mut report, "warm", &mut out.warm);
        report.set("instrs_per_s", out.cold.rate());
    }
    report_tail(&mut report, "cold", &mut out.cold.pooled());
    report.detail("iterations", out.iterations as f64, "count");
    v.report(&mut report);
    Ok(report)
}
