//! Drives a live [`ccra_regalloc::BatchService`] open-loop and reports
//! the serving-path latency SLOs (queue-wait / service / end-to-end p50,
//! p95, p99) — see [`ccra_eval::loadgen`] for the arrival and job-size
//! model.
//!
//! ```text
//! loadgen [--jobs <n>] [--workers <n>] [--shard-workers <n>]
//!         [--queue <n>] [--mean-gap-us <n>] [--seed <n>] [--rerun <pct>]
//!         [--out <file.json>]
//!         [--chaos] [--trickle <n>] [--slo-us <n>] [--max-limit <n>]
//!         [--timeout-us <n>] [--spike-us <n>] [--cancel-every <n>]
//!         [--p99-bound-us <n>] [--watchdog-secs <n>] [--dump <file.json>]
//!         [--obsv-dump <file.json>]
//! ```
//!
//! * `--jobs` — submissions (default 64; chaos default 200).
//! * `--workers` — service workers (default 2).
//! * `--shard-workers` — per-program driver workers (default 1).
//! * `--queue` — submission-queue capacity (default 16; chaos 32).
//! * `--mean-gap-us` — mean exponential inter-arrival gap (default 500;
//!   0 = submit flat out; chaos default 0).
//! * `--seed` — job-stream seed (default 1997).
//! * `--rerun` — percentage of submissions that are byte-identical
//!   re-submissions of earlier jobs in the stream (default 0). When > 0
//!   the service gets a memo cache, and the run reports its hit/miss
//!   counters; the rewritten stream is still a pure function of `--seed`.
//!   Applies to the chaos storm too.
//! * `--out` — write the measured latency rows here as plain JSON
//!   (`{"latency":[...]}`).
//!
//! Exits 1 if any submission id is lost or duplicated — the run doubles
//! as an accounting check on the batch service.
//!
//! # Chaos mode (`--chaos`)
//!
//! Runs the overload storm of [`ccra_eval::loadgen::run_chaosload`]
//! instead: arrivals outpace capacity, the service has admission control,
//! a per-job timeout, and seeded fault injection (panics, allocator
//! errors, latency spikes) enabled, a subset of queued jobs is cancelled
//! mid-storm, and a closed-loop trickle then verifies recovery. The run
//! asserts, exiting 1 on any violation:
//!
//! * every accepted id resolves exactly once (nothing lost, duplicated,
//!   or invented; shed submissions produce no result);
//! * end-to-end p99 of accepted jobs stays under `--p99-bound-us` while
//!   the limiter sheds;
//! * interactive p99 beats background p99 (priority scheduling works
//!   under overload);
//! * the post-storm limiter regrows to full admission;
//! * the ops observatory's SLO burn-rate alert **fired** during the
//!   storm and stands **resolved** at the end of the run (the alert
//!   cycle is deterministic — the harness ticks the observatory on an
//!   injected manual clock).
//!
//! A watchdog thread exits 3 after `--watchdog-secs` (default 300) — a
//! hang *is* a failed run, not a stuck CI job. On assertion failure the
//! chaos report and the service's flight-recorder dump are written to
//! `--dump` (default `chaos_failure.json`) for upload as a CI artifact.
//! On success `--out` writes the measured rows as plain JSON
//! (`{"admission":[...],"alerts":[...]}`). `--obsv-dump <file>`
//! additionally writes the observatory's `/alerts` document and the
//! retained history of every sampled series — the CI alerting job
//! uploads it as an artifact.

use std::process::ExitCode;

use ccra_eval::loadgen::{run_chaosload, run_loadgen, ChaosloadConfig, LoadgenConfig};
use serde::json::Value;
use serde::Serialize;

struct Args {
    cfg: LoadgenConfig,
    chaos: bool,
    chaos_cfg: ChaosloadConfig,
    p99_bound_us: u64,
    watchdog_secs: u64,
    dump: String,
    obsv_dump: Option<String>,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--jobs <n>] [--workers <n>] [--shard-workers <n>] \
         [--queue <n>] [--mean-gap-us <n>] [--seed <n>] [--rerun <pct>] \
         [--out <file.json>] \
         [--chaos] [--trickle <n>] [--slo-us <n>] [--max-limit <n>] \
         [--timeout-us <n>] [--spike-us <n>] [--cancel-every <n>] \
         [--p99-bound-us <n>] [--watchdog-secs <n>] [--dump <file.json>] \
         [--obsv-dump <file.json>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = LoadgenConfig::default();
    let mut chaos = false;
    let mut chaos_cfg = ChaosloadConfig::default();
    let mut jobs_set = false;
    let mut queue_set = false;
    let mut gap_set = false;
    let mut p99_bound_us = 1_000_000;
    let mut watchdog_secs = 300;
    let mut dump = "chaos_failure.json".to_string();
    let mut obsv_dump = None;
    let mut out = None;

    let mut i = 0;
    while i < argv.len() {
        let take = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--chaos" => {
                chaos = true;
                i += 1;
                continue;
            }
            "--jobs" => {
                cfg.jobs = take(i).parse().unwrap_or_else(|_| usage());
                chaos_cfg.jobs = cfg.jobs;
                jobs_set = true;
            }
            "--workers" => {
                cfg.workers = take(i).parse().unwrap_or_else(|_| usage());
                chaos_cfg.workers = cfg.workers;
            }
            "--shard-workers" => {
                cfg.shard_workers = take(i).parse().unwrap_or_else(|_| usage());
                chaos_cfg.shard_workers = cfg.shard_workers;
            }
            "--queue" => {
                cfg.queue_capacity = take(i).parse().unwrap_or_else(|_| usage());
                chaos_cfg.queue_capacity = cfg.queue_capacity;
                queue_set = true;
            }
            "--mean-gap-us" => {
                cfg.mean_gap_us = take(i).parse().unwrap_or_else(|_| usage());
                chaos_cfg.mean_gap_us = cfg.mean_gap_us;
                gap_set = true;
            }
            "--seed" => {
                cfg.seed = take(i).parse().unwrap_or_else(|_| usage());
                chaos_cfg.seed = cfg.seed;
            }
            "--rerun" => {
                let pct: u32 = take(i).parse().unwrap_or_else(|_| usage());
                if pct > 100 {
                    usage();
                }
                cfg.rerun_per_mille = pct * 10;
                chaos_cfg.rerun_per_mille = cfg.rerun_per_mille;
            }
            "--trickle" => chaos_cfg.trickle = take(i).parse().unwrap_or_else(|_| usage()),
            "--slo-us" => chaos_cfg.slo_us = take(i).parse().unwrap_or_else(|_| usage()),
            "--max-limit" => chaos_cfg.max_limit = take(i).parse().unwrap_or_else(|_| usage()),
            "--timeout-us" => {
                chaos_cfg.job_timeout_us = take(i).parse().unwrap_or_else(|_| usage())
            }
            "--spike-us" => chaos_cfg.spike_us = take(i).parse().unwrap_or_else(|_| usage()),
            "--cancel-every" => {
                chaos_cfg.cancel_every = take(i).parse().unwrap_or_else(|_| usage())
            }
            "--p99-bound-us" => p99_bound_us = take(i).parse().unwrap_or_else(|_| usage()),
            "--watchdog-secs" => watchdog_secs = take(i).parse().unwrap_or_else(|_| usage()),
            "--dump" => dump = take(i).to_string(),
            "--obsv-dump" => obsv_dump = Some(take(i).to_string()),
            "--out" => out = Some(take(i).to_string()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 2;
    }
    if chaos {
        // The chaos defaults differ from the steady ones: a flood past a
        // wider queue. Only apply them where the user didn't override.
        if !jobs_set {
            chaos_cfg.jobs = ChaosloadConfig::default().jobs;
        }
        if !queue_set {
            chaos_cfg.queue_capacity = ChaosloadConfig::default().queue_capacity;
        }
        if !gap_set {
            chaos_cfg.mean_gap_us = ChaosloadConfig::default().mean_gap_us;
        }
    }
    if cfg.jobs == 0 || (chaos && chaos_cfg.jobs == 0) {
        usage();
    }
    Args {
        cfg,
        chaos,
        chaos_cfg,
        p99_bound_us,
        watchdog_secs,
        dump,
        obsv_dump,
        out,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.chaos {
        return run_chaos_mode(&args);
    }
    eprintln!(
        "loadgen: {} job(s), {} worker(s) (shard {}), queue {}, \
         mean gap {} us, seed {}",
        args.cfg.jobs,
        args.cfg.workers,
        args.cfg.shard_workers,
        args.cfg.queue_capacity,
        args.cfg.mean_gap_us,
        args.cfg.seed
    );
    let (report, _results) = run_loadgen(&args.cfg, |submitted, depth| {
        eprintln!("  submitted {submitted:>5}, queue depth {depth}");
    });

    eprintln!(
        "completed {}/{} (ok {}, degraded {}, failed {})",
        report.completed, report.submitted, report.ok, report.degraded, report.failed
    );
    for l in &report.latency {
        eprintln!(
            "  {:>10}: p50 {:>8} us, p95 {:>8} us, p99 {:>8} us \
             (mean {:>10.1} us over {} job(s))",
            l.series, l.p50_us, l.p95_us, l.p99_us, l.mean_us, l.jobs
        );
    }
    if args.cfg.rerun_per_mille > 0 {
        eprintln!(
            "  memo cache: {} hit(s), {} miss(es)",
            report.cache_hits, report.cache_misses
        );
    }
    if !report.accounting_clean() {
        eprintln!(
            "ACCOUNTING FAILED: lost ids {:?}, duplicated ids {:?}",
            report.lost, report.duplicated
        );
        return ExitCode::FAILURE;
    }
    eprintln!("ok: every submission id came back exactly once");

    write_out(
        args.out.as_deref(),
        vec![("latency".to_string(), report.latency.to_value())],
    )
}

fn run_chaos_mode(args: &Args) -> ExitCode {
    let cfg = args.chaos_cfg;
    eprintln!(
        "loadgen --chaos: {} storm job(s) + {} trickle, {} worker(s) (shard {}), \
         queue {}, slo {} us, window {}, seed {}",
        cfg.jobs,
        cfg.trickle,
        cfg.workers,
        cfg.shard_workers,
        cfg.queue_capacity,
        cfg.slo_us,
        cfg.max_limit,
        cfg.seed
    );
    // A hang is a failed run: bound it, don't let CI time out opaquely.
    let watchdog = args.watchdog_secs;
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(watchdog));
        eprintln!("WATCHDOG: chaos run still not finished after {watchdog}s; aborting");
        std::process::exit(3);
    });
    let stride = (cfg.jobs / 8).max(1);
    let (report, _results) = run_chaosload(&cfg, |submitted, depth| {
        if submitted % stride == 0 {
            eprintln!("  submitted {submitted:>5}, queue depth {depth}");
        }
    });
    eprintln!(
        "accepted {}/{} (shed {}), ok {}, degraded {} ({} timeout), failed {}, \
         expired {}, cancelled {} ({} cancel hits)",
        report.accepted,
        report.submitted,
        report.shed,
        report.ok,
        report.degraded,
        report.timeouts,
        report.failed,
        report.expired,
        report.cancelled,
        report.cancel_hits
    );
    for p in &report.per_priority {
        eprintln!(
            "  {:>12}: p50 {:>8} us, p99 {:>8} us over {} job(s)",
            p.priority, p.p50_us, p.p99_us, p.jobs
        );
    }
    eprintln!(
        "accepted e2e p99 {} us; admission window {:.1}/{:.0} after trickle",
        report.accepted_p99_us, report.final_limit, report.max_limit
    );
    if cfg.rerun_per_mille > 0 {
        eprintln!(
            "  memo cache: {} hit(s), {} miss(es)",
            report.cache_hits, report.cache_misses
        );
    }
    for s in &report.alert_stats {
        if s.fires > 0 {
            eprintln!(
                "  alert {:>20}: {} fire(s), worst {:.2}, cleared in {} us, now {:?}",
                s.rule, s.fires, s.worst_value, s.time_to_clear_us, s.state
            );
        }
    }

    let mut violations = Vec::new();
    if !report.accounting_clean() {
        violations.push(format!(
            "accounting: lost {:?}, duplicated {:?}, phantom {:?}, \
             accepted {} vs resolved {}",
            report.lost,
            report.duplicated,
            report.phantom,
            report.accepted,
            report.ok + report.degraded + report.failed + report.expired + report.cancelled
        ));
    }
    if report.accepted_p99_us >= args.p99_bound_us {
        violations.push(format!(
            "accepted p99 unbounded: {} us >= {} us while shedding",
            report.accepted_p99_us, args.p99_bound_us
        ));
    }
    if !report.priorities_ordered() {
        violations.push("interactive p99 did not beat background p99".to_string());
    }
    if !report.limiter_recovered() {
        violations.push(format!(
            "limiter did not recover: window {:.1} of {:.0} after the trickle",
            report.final_limit, report.max_limit
        ));
    }
    if !report.slo_alert_cycled() {
        violations.push(format!(
            "SLO burn alert did not cycle (fire during the storm, resolve \
             after the tail): {:?}",
            report.alert_stats
        ));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("CHAOS INVARIANT FAILED: {v}");
        }
        let doc = Value::Obj(vec![
            (
                "violations".to_string(),
                Value::Arr(violations.iter().map(|v| Value::Str(v.clone())).collect()),
            ),
            ("report".to_string(), Value::Str(format!("{report:?}"))),
            ("flightrec".to_string(), report.flight.clone()),
        ]);
        match std::fs::write(&args.dump, doc.to_json() + "\n") {
            Ok(()) => eprintln!("wrote failure dump to {}", args.dump),
            Err(e) => eprintln!("cannot write failure dump {}: {e}", args.dump),
        }
        return ExitCode::FAILURE;
    }
    eprintln!(
        "ok: every accepted id resolved exactly once; limiter recovered; \
         burn alert fired and resolved"
    );

    if let Some(path) = &args.obsv_dump {
        let doc = Value::Obj(vec![
            ("alerts".to_string(), report.alerts_value.clone()),
            ("history".to_string(), report.obsv_history.clone()),
        ]);
        match std::fs::write(path, doc.to_json() + "\n") {
            Ok(()) => eprintln!("wrote observatory dump to {path}"),
            Err(e) => {
                eprintln!("cannot write observatory dump {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    write_out(
        args.out.as_deref(),
        vec![
            (
                "admission".to_string(),
                vec![report.admission_entry()].to_value(),
            ),
            ("alerts".to_string(), report.alert_entries().to_value()),
        ],
    )
}

/// Writes the measured rows as one plain JSON object, when `--out` asked
/// for them.
fn write_out(out: Option<&str>, rows: Vec<(String, Value)>) -> ExitCode {
    let Some(path) = out else {
        return ExitCode::SUCCESS;
    };
    match std::fs::write(path, Value::Obj(rows).to_json() + "\n") {
        Ok(()) => {
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
