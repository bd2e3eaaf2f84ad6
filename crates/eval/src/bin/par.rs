//! Sweeps the parallel allocation driver over worker counts
//! ([`ccra_eval::SWEEP_WORKER_COUNTS`]), verifies the parallel output is
//! byte-identical to the serial pipeline on every workload, and gates the
//! driver's `workers = 1` overhead.
//!
//! ```text
//! par [--scale <f64>] [--iters <n>] [--w1-threshold <pct>]
//! ```
//!
//! * `--scale` — workload scale (default 1.0).
//! * `--iters` — timed iterations per cell (default 3). At `workers = 1`
//!   each iteration is a pair of blocks of at least 20 ms each, serial
//!   calls and driver calls interleaved call by call; at other worker
//!   counts the fastest iteration is kept.
//! * `--w1-threshold` — the median of the `workers = 1` pairs'
//!   serial/driver block-total ratios must not fall more than this many
//!   percent below 1 (default 10); exit 1 otherwise.
//!
//! Speedups are wall-clock honest: on a single-core machine every worker
//! count measures ≈ 1.0×, and that is the number printed.

use std::process::ExitCode;

use ccra_eval::{parsweep, workers1_gate};
use ccra_workloads::Scale;

struct Args {
    scale: Scale,
    iters: u32,
    w1_threshold: f64,
}

fn usage() -> ! {
    eprintln!("usage: par [--scale <f64>] [--iters <n>] [--w1-threshold <pct>]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale(1.0);
    let mut iters = 3u32;
    let mut w1_threshold = 10.0;

    let mut i = 0;
    while i < argv.len() {
        let take = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--scale" => {
                scale = Scale(take(i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--iters" => {
                iters = take(i).parse().unwrap_or_else(|_| usage());
                if iters == 0 {
                    usage();
                }
                i += 2;
            }
            "--w1-threshold" => {
                w1_threshold = take(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args {
        scale,
        iters,
        w1_threshold,
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    eprintln!(
        "par: scale {}, {} iteration(s) per cell, worker counts {:?}",
        args.scale.0,
        args.iters,
        parsweep::SWEEP_WORKER_COUNTS
    );
    let parallel = parsweep::run_par_sweep(args.scale, args.iters, |e, summary| {
        eprintln!(
            "  {:>8} [{:^10}] w={}: {:>9} instrs in {:>8} us ({:>12.0} instrs/sec, \
             {:.2}x vs serial)",
            e.workload, e.config, e.workers, e.instrs, e.micros, e.instrs_per_sec, e.speedup
        );
        eprintln!("           driver: {summary}");
    });

    if let Err(e) = workers1_gate(&parallel, args.w1_threshold) {
        eprintln!("GATE FAILED: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "ok: workers=1 within {:.0}% of the serial pipeline on every workload",
        args.w1_threshold
    );
    ExitCode::SUCCESS
}
