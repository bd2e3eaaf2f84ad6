//! Runs the incremental re-allocation sweep ([`ccra_eval::incr`]):
//! per dirty-fraction × worker-count cell, the cold and warm wall-clock
//! times, the memo-cache hit counts, resident bytes, and evictions.
//!
//! ```text
//! incr [--funcs <n>] [--seed <n>] [--workers <n>] [--dirty <pct>]
//!      [--out <file.json>] [--poison]
//! ```
//!
//! * `--funcs` — functions in the synthetic workload (default 1000).
//! * `--seed` — workload generator seed (default 1997).
//! * `--workers` — restrict the sweep to one worker count (default:
//!   sweep 1, 2, 4, 8).
//! * `--dirty` — restrict the sweep to one dirty fraction, percent
//!   (default: sweep 0, 1, 10, 100).
//! * `--out` — write the measured cells here as plain JSON
//!   (`{"cache":[...]}`).
//! * `--poison` — collapse every cache key
//!   ([`ccra_regalloc::CacheConfig::poison`]): the warm run replays wrong
//!   allocations, the in-sweep byte-identity check must fail, and the run
//!   must exit nonzero. CI runs this to prove the gate fires.
//!
//! Every cell's warm result is compared byte-for-byte against an uncached
//! cold run of the same edited program, and its hit counts are checked
//! exactly against the number of edited functions
//! ([`ccra_eval::check_hits`]), *before* it is recorded; the run exits 1
//! on the first violation, so this binary doubles as the cache-correctness
//! oracle at every worker count it sweeps.

use std::process::ExitCode;

use ccra_eval::incr::{run_incr_sweep, IncrConfig};
use serde::json::Value;
use serde::Serialize;

struct Args {
    cfg: IncrConfig,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: incr [--funcs <n>] [--seed <n>] [--workers <n>] [--dirty <pct>] \
         [--out <file.json>] [--poison]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = IncrConfig::default();
    let mut out = None;

    let mut i = 0;
    while i < argv.len() {
        let take = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--poison" => {
                cfg.poison = true;
                i += 1;
                continue;
            }
            "--funcs" => cfg.funcs = take(i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = take(i).parse().unwrap_or_else(|_| usage()),
            "--workers" => {
                let w: usize = take(i).parse().unwrap_or_else(|_| usage());
                if w == 0 {
                    usage();
                }
                cfg.workers = vec![w];
            }
            "--dirty" => {
                let d: u64 = take(i).parse().unwrap_or_else(|_| usage());
                if d > 100 {
                    usage();
                }
                cfg.dirty_pcts = vec![d];
            }
            "--out" => out = Some(take(i).to_string()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 2;
    }
    if cfg.funcs == 0 {
        usage();
    }
    Args { cfg, out }
}

fn main() -> ExitCode {
    let args = parse_args();
    eprintln!(
        "incr: {} function(s), seed {}, workers {:?}, dirty {:?}%{}",
        args.cfg.funcs,
        args.cfg.seed,
        args.cfg.workers,
        args.cfg.dirty_pcts,
        if args.cfg.poison { ", POISONED" } else { "" }
    );
    let entries = match run_incr_sweep(&args.cfg, |e| {
        eprintln!(
            "  {:>9} w={} dirty {:>3}%: cold {:>8} us, warm {:>8} us \
             ({:>5.2}x), hit rate {:.3} ({} hit(s), {} miss(es)), \
             {} byte(s), {} eviction(s)",
            e.workload,
            e.workers,
            e.dirty_pct,
            e.cold_micros,
            e.warm_micros,
            e.speedup,
            e.hit_rate,
            e.hits,
            e.misses,
            e.bytes,
            e.evictions
        );
    }) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "ok: every warm result was byte-identical to its uncached cold run, \
         and every cell missed exactly on its edited functions"
    );

    if let Some(path) = &args.out {
        let doc = Value::Obj(vec![("cache".to_string(), entries.to_value())]);
        if let Err(e) = std::fs::write(path, doc.to_json() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
