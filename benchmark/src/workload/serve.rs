//! `serve`: an open loop from one generator thread into a `BatchService`
//! (2 workers, one shard worker each, the default queue of 16, a shared
//! memo cache).
//!
//! Jobs are the traffic model's: Pareto 2–24-function programs, 30% of them
//! byte-identical re-submissions of earlier ones. A run has three phases,
//! each on a fresh service and cache, each replaying the seed's job stream
//! from its start: Poisson arrivals at 600 requests/s for 35% of the run,
//! then at 1400 requests/s for 15% of it, then for the rest a flood of
//! back-to-back submissions in rounds of 2000 jobs. Latency runs from each
//! request's due time: the generator's lateness plus the service's own
//! submit-to-reply time, so a stall is charged to every request it delayed.
//! This is the only workload where admission, queueing and the service
//! path lie on the blocking path; the two rates put the queue at light and
//! heavier load, and the flood measures capacity.
//!
//! `p50_ms` and `p95_ms` are the 600 requests/s phase's, as medians over
//! its half-seconds of each half-second's percentile; `instrs_per_s` is the
//! flood's capacity, the median over rounds. The 1400 requests/s phase is
//! printed beside them: on a 2-vCPU machine whose speed swings by half
//! under other tenants, 1400 requests/s nears saturation in the slow
//! stretches and its latency swings fivefold, while at 600 requests/s
//! latency tracks the machine's speed as closed-loop timings do. A phase
//! lasts whole seconds, and a service holds every result until it shuts
//! down, which bounds the phases' length by memory.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::calls::{self, BatchJob, BatchResult, BatchService, Program, Served};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{drive_open_loop, due_times, Blocks, Dispatch, Samples, WallClock};

use super::{report_layers, report_tail, timed_setup, trace_overhead_pct, write_spans};
use super::{Inject, RunConfig, Verifier};

/// The two Poisson rates, requests per second.
const RATES: [u64; 2] = [600, 1400];
/// The share of a pass each Poisson phase takes; the flood takes the rest.
const SHARES: [f64; 2] = [0.35, 0.15];
/// The phase whose latency the end-to-end metrics report.
const REPORTED: usize = 0;
/// The reported phase's block length, microseconds of due time.
const BLOCK_US: u64 = 500_000;
/// Per-mille of submissions that re-submit an earlier job.
const RERUN_PER_MILLE: u32 = 300;
/// Jobs per flood round.
const FLOOD_ROUND_JOBS: usize = 2000;

/// The first `n` jobs of the seed's stream (every prefix of the stream is
/// the same whatever `n`).
fn stream(seed: u64, n: usize) -> Vec<BatchJob> {
    calls::serve_jobs(n, seed, RERUN_PER_MILLE)
}

/// A Poisson phase's length in a pass of `seconds`: whole seconds, at
/// least one.
fn phase_seconds(slot: usize, seconds: f64) -> f64 {
    (SHARES[slot] * seconds).round().max(1.0)
}

/// One Poisson phase's inputs.
struct Phase {
    jobs: Vec<BatchJob>,
    due_us: Vec<u64>,
}

fn phase_inputs(slot: usize, seed: u64, pass_s: f64) -> Phase {
    let (rate, seconds) = (RATES[slot], phase_seconds(slot, pass_s));
    let n = (rate as f64 * seconds * 1.25) as usize + 64;
    let clock_seed = seed.wrapping_mul(2).wrapping_add(slot as u64) ^ 0xa11;
    let gaps = calls::arrival_gaps(n, clock_seed, 1_000_000 / rate);
    let due_us = due_times(&gaps, (seconds * 1e6) as u64);
    Phase {
        jobs: stream(seed, due_us.len()),
        due_us,
    }
}

/// The set-up: the first phase's inputs and a warm-up of the service path.
fn setup(seed: u64, pass_s: f64, tiny: bool) -> Result<Phase, String> {
    let phase = phase_inputs(0, seed, pass_s);
    let svc = calls::start_service(Arc::new(calls::new_cache(false)));
    for job in stream(seed, if tiny { 20 } else { 200 }) {
        calls::submit(&svc, job)?;
    }
    calls::shutdown(svc);
    Ok(phase)
}

/// Everything a pass measured.
#[derive(Default)]
struct PassOut {
    /// Latency from due time in the reported phase, a block per
    /// half-second.
    reported: Blocks,
    /// Flood capacity, a block per round.
    flood: Blocks,
    per_rate_ms: [Samples; 2],
    lag_us: Samples,
    submit_us: Samples,
    queue_us: Samples,
    service_us: Samples,
    depth: Samples,
    blocked: u64,
    requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_bytes: u64,
    flood_jobs: u64,
    flood_s: f64,
}

/// What verification has seen: each distinct program's digest and the
/// digest of its first allocation, which every later allocation of it must
/// repeat.
type Seen = HashMap<u128, u128>;

/// Matches results to submissions, checks every accepted id resolved
/// exactly once, verifies each program's first allocation and holds every
/// later one to byte identity with it, and returns each submission's
/// result with its allocation dropped.
fn settle(
    results: Vec<BatchResult>,
    ids: &[Option<u64>],
    originals: &[Program],
    seen: &mut Seen,
    v: &mut Verifier,
    report: &mut Report,
) -> Result<Vec<Option<Served>>, String> {
    let mut by_index: Vec<Option<Served>> = ids.iter().map(|_| None).collect();
    let index_of: HashMap<u64, usize> = ids
        .iter()
        .enumerate()
        .filter_map(|(i, id)| id.map(|id| (id, i)))
        .collect();
    for r in results {
        let s = calls::served(r);
        match index_of.get(&s.id) {
            None => {
                report.failed += 1;
                report.error(format!("result for id {} that was never accepted", s.id));
            }
            Some(&i) if by_index[i].is_some() => {
                report.failed += 1;
                report.error(format!("id {} resolved twice", s.id));
            }
            Some(&i) => by_index[i] = Some(s),
        }
    }
    report.attempted += ids.len() as u64;
    for (i, id) in ids.iter().enumerate() {
        let Some(s) = &mut by_index[i] else {
            // A rejected submission was counted when it was rejected.
            if let Some(id) = id {
                report.failed += 1;
                report.error(format!("id {id} was accepted and never resolved"));
            }
            continue;
        };
        if !s.ok {
            report.failed += 1;
        }
        let Some(alloc) = s.alloc.take() else {
            continue;
        };
        let original = &originals[i];
        let program = calls::program_digest(original);
        let digest = calls::allocation_digest(&alloc);
        match seen.get(&program) {
            Some(&first) => {
                if first != digest {
                    report.error(format!(
                        "submission {i} is not byte-identical to an earlier allocation \
                         of its program"
                    ));
                }
            }
            None => {
                seen.insert(program, digest);
                let freq = calls::profile(original)?;
                let expected = v.replay_original(original)?;
                if let Err(e) = v.verify(original, &freq, &alloc, Some(&expected)) {
                    report.error(format!("submission {i}: {e}"));
                }
            }
        }
    }
    Ok(by_index)
}

/// Reads the phase's cache counters into the pass totals.
fn note_cache(out: &mut PassOut, cache: &calls::AllocCache) {
    let st = calls::cache_stats(cache);
    out.cache_hits += st.hits;
    out.cache_misses += st.misses;
    out.cache_evictions += st.evictions;
    out.cache_bytes = out.cache_bytes.max(st.bytes);
}

/// Submits, counting a rejection as a failed operation.
fn submit_or_note(svc: &BatchService, job: BatchJob, report: &mut Report) -> Option<u64> {
    match calls::submit(svc, job) {
        Ok(id) => Some(id),
        Err(e) => {
            report.failed += 1;
            report.error(format!("submission rejected: {e}"));
            None
        }
    }
}

/// What a pass shares across its phases.
struct PassCtx<'a> {
    seed: u64,
    poison: bool,
    tr: &'a mut Tracer,
    seen: &'a mut Seen,
    v: &'a mut Verifier,
    report: &'a mut Report,
}

/// One Poisson phase on a fresh service.
fn poisson_phase(
    phase: Phase,
    slot: usize,
    cx: &mut PassCtx<'_>,
    out: &mut PassOut,
) -> Result<(), String> {
    let cache = Arc::new(calls::new_cache(cx.poison));
    let svc = calls::start_service(Arc::clone(&cache));
    let mut jobs = phase.jobs.into_iter();
    let mut ids: Vec<Option<u64>> = Vec::with_capacity(phase.due_us.len());
    let traced = cx.tr.is_enabled();
    let mut clock = WallClock::start();
    let epoch_us = cx.tr.now_us();
    let dispatches: Vec<Dispatch> = drive_open_loop(&mut clock, &phase.due_us, |_, _| {
        let job = jobs.next().expect("one job per due time");
        if traced {
            out.depth.push(calls::queue_depth(&svc) as f64);
        }
        let s = cx.tr.start("loadgen.submit");
        ids.push(submit_or_note(&svc, job, cx.report));
        cx.tr.end(s);
    });
    out.blocked += calls::blocked_submits(&svc);
    let results = calls::shutdown(svc);
    note_cache(out, &cache);

    let originals: Vec<Program> = stream(cx.seed, ids.len())
        .iter()
        .map(|j| calls::job_program(j).clone())
        .collect();
    let served = settle(results, &ids, &originals, cx.seen, cx.v, cx.report)?;
    let mut block = 0;
    for (d, s) in dispatches.iter().zip(&served) {
        out.requests += 1;
        out.lag_us.push(d.lag_us() as f64);
        out.submit_us.push(d.submit_us() as f64);
        let Some(s) = s else {
            continue;
        };
        let ms = d.latency_from_due_us(s.e2e_us) as f64 / 1000.0;
        out.per_rate_ms[slot].push(ms);
        out.queue_us.push(s.queue_us as f64);
        out.service_us.push(s.service_us as f64);
        if slot == REPORTED {
            if d.due_us / BLOCK_US != block {
                out.reported.close();
                block = d.due_us / BLOCK_US;
            }
            out.reported.push(ms, 0.0, 0.0);
        }
        if traced {
            let due = epoch_us + d.due_us as f64;
            let start = epoch_us + d.start_us as f64;
            let parent = cx
                .tr
                .record("batch.request", due, start + s.e2e_us as f64, None);
            cx.tr
                .record("batch.queue", start, start + s.queue_us as f64, parent);
            let svc_start = start + s.queue_us as f64;
            cx.tr.record(
                "batch.service",
                svc_start,
                svc_start + s.service_us as f64,
                parent,
            );
        }
    }
    out.reported.close();
    Ok(())
}

/// Flood rounds on fresh services until `seconds` pass (at least one),
/// each submitting the same first `round_jobs` jobs of the stream.
fn flood(
    seconds: f64,
    round_jobs: usize,
    cx: &mut PassCtx<'_>,
    out: &mut PassOut,
) -> Result<(), String> {
    let jobs = stream(cx.seed, round_jobs);
    let originals: Vec<Program> = jobs.iter().map(|j| calls::job_program(j).clone()).collect();
    let instrs: Vec<u64> = originals.iter().map(calls::size_insts).collect();
    let start = Instant::now();
    while out.flood.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let round = jobs.clone();
        let cache = Arc::new(calls::new_cache(cx.poison));
        let svc = calls::start_service(Arc::clone(&cache));
        let t = Instant::now();
        let ids: Vec<Option<u64>> = round
            .into_iter()
            .map(|job| submit_or_note(&svc, job, cx.report))
            .collect();
        let results = calls::shutdown(svc);
        let secs = t.elapsed().as_secs_f64();
        note_cache(out, &cache);
        let served = settle(results, &ids, &originals, cx.seen, cx.v, cx.report)?;
        let mut done = 0;
        for (s, n) in served.iter().zip(&instrs) {
            if s.as_ref().is_some_and(|s| s.ok) {
                out.flood_jobs += 1;
                done += n;
            }
        }
        out.flood_s += secs;
        out.flood.push(secs * 1e3, done as f64, secs);
        out.flood.close();
    }
    Ok(())
}

/// Both Poisson phases then the flood.
fn pass(
    first: Phase,
    pass_s: f64,
    round_jobs: usize,
    cx: &mut PassCtx<'_>,
) -> Result<PassOut, String> {
    let mut out = PassOut::default();
    poisson_phase(first, 0, cx, &mut out)?;
    poisson_phase(phase_inputs(1, cx.seed, pass_s), 1, cx, &mut out)?;
    let flood_s = pass_s - phase_seconds(0, pass_s) - phase_seconds(1, pass_s);
    flood(flood_s, round_jobs, cx, &mut out)?;
    Ok(out)
}

/// Runs `serve`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let round_jobs = if cfg.tiny { 100 } else { FLOOD_ROUND_JOBS };
    let pass_s = if cfg.traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (first, setup_s) = timed_setup(|| setup(cfg.seed, pass_s, cfg.tiny))?;
    let mut report = Report::new("serve", cfg.seed, cfg.traced);
    let mut v = Verifier::default();
    let mut seen = Seen::new();
    let mut off = Tracer::disabled();
    let mut tr = Tracer::enabled();
    let (mut out, traced) = {
        let mut cx = PassCtx {
            seed: cfg.seed,
            poison: cfg.inject == Some(Inject::PoisonCache),
            tr: &mut off,
            seen: &mut seen,
            v: &mut v,
            report: &mut report,
        };
        let out = pass(first, pass_s, round_jobs, &mut cx)?;
        let traced = if cfg.traced {
            // The same streams again, so the two passes differ only in
            // tracing.
            cx.tr = &mut tr;
            let first = phase_inputs(0, cfg.seed, pass_s);
            Some(pass(first, pass_s, round_jobs, &mut cx)?)
        } else {
            None
        };
        (out, traced)
    };

    if let Some(mut t) = traced {
        let n = t.requests.max(1) as f64;
        report_layers(&mut report, &tr, t.requests);
        report.set("batch.submit_us.p99", t.submit_us.percentile(99.0));
        report.set("batch.queue_wait_us.p50", t.queue_us.percentile(50.0));
        report.set("batch.queue_wait_us.p99", t.queue_us.percentile(99.0));
        report.set("batch.service_us.p50", t.service_us.percentile(50.0));
        report.set("batch.service_us.p99", t.service_us.percentile(99.0));
        report.set("batch.queue_depth.p99", t.depth.percentile(99.0));
        report.set("batch.blocked_submits", t.blocked as f64 / n);
        report.set("loadgen.lag_us.p99", t.lag_us.percentile(99.0));
        let lookups = (t.cache_hits + t.cache_misses) as f64;
        let all_requests = (t.requests + t.flood_jobs).max(1) as f64;
        report.set("cache.hits", t.cache_hits as f64 / all_requests);
        report.set("cache.misses", t.cache_misses as f64 / all_requests);
        report.set("cache.hit_ratio", t.cache_hits as f64 / lookups.max(1.0));
        report.set("cache.evictions", t.cache_evictions as f64 / all_requests);
        report.set("cache.bytes", t.cache_bytes as f64);
        report.set(
            "trace_overhead_pct",
            trace_overhead_pct(
                out.per_rate_ms[REPORTED].mean(),
                t.per_rate_ms[REPORTED].mean(),
            ),
        );
        write_spans(cfg, &tr)?;
    } else {
        report.set("setup_s", setup_s);
        report.set("p50_ms", out.reported.percentile(50.0));
        report.set("p95_ms", out.reported.percentile(95.0));
        report.set("instrs_per_s", out.flood.rate());
    }
    for (slot, rate) in RATES.iter().enumerate() {
        report_tail(
            &mut report,
            &format!("e2e.r{rate}"),
            &mut out.per_rate_ms[slot],
        );
    }
    report.detail("e2e.r600.blocks", out.reported.len() as f64, "count");
    report.detail("loadgen.lag_us.p99", out.lag_us.percentile(99.0), "us");
    report.detail("capacity_rps", out.flood_jobs as f64 / out.flood_s, "1/s");
    report.detail("flood.rounds", out.flood.len() as f64, "count");
    v.report(&mut report);
    Ok(report)
}
