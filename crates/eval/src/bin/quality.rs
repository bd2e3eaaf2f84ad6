//! Runs the fixed allocation-quality matrix, optionally writing its
//! scores as a plain [`QualityFile`].
//!
//! ```text
//! quality [--scale <f64>] [--out <file.json>]
//! ```
//!
//! * `--scale` — workload scale (default 1.0).
//! * `--out` — write the scale and the matrix cells here as plain JSON.
//!
//! The scale-1.0 file is pinned byte for byte by the tier-1 test
//! `crates/eval/tests/work_counts.rs` against
//! `crates/eval/baselines/quality_scale_1.json`; `quality --scale 1.0
//! --out crates/eval/baselines/quality_scale_1.json` regenerates it.

use std::process::ExitCode;

use ccra_eval::quality::{run_quality_matrix, QualityFile};
use ccra_workloads::Scale;
use serde::Serialize;

struct Args {
    scale: Scale,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: quality [--scale <f64>] [--out <file.json>]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale(1.0);
    let mut out = None;

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
            "--out" => {
                out = Some(take(i).to_string());
                i += 2;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args { scale, out }
}

fn main() -> ExitCode {
    let args = parse_args();

    eprintln!("quality: scale {}", args.scale.0);
    let entries = match run_quality_matrix(args.scale, |e| {
        eprintln!(
            "  {:>8} [{:^10}] {:>5}: {:>12.0} est cycles, {:>10.0} measured overhead ops, \
             drift {:>+7.1}%{}",
            e.workload,
            e.config,
            e.regs,
            e.estimated_cycles,
            e.measured_overhead_ops,
            e.drift_pct,
            if e.replay_ok { "" } else { "  [replay failed]" }
        );
    }) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("allocation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let total: f64 = entries.iter().map(|e| e.estimated_cycles).sum();
    eprintln!(
        "aggregate: {:.0} estimated cycles over {} cells",
        total,
        entries.len()
    );

    if let Some(path) = &args.out {
        let run = QualityFile {
            scale: args.scale.0,
            quality: entries,
        };
        if let Err(e) = std::fs::write(path, run.to_json() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
