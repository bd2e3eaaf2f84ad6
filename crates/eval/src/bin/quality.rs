//! Runs the fixed allocation-quality matrix, optionally writing its
//! scores as a plain [`QualityFile`] and gating against a committed one.
//!
//! ```text
//! quality [--scale <f64>] [--out <file.json>]
//!         [--check <baseline.json>] [--threshold <pct>]
//!         [--degrade <workload>]
//! ```
//!
//! * `--scale` — workload scale (default 1.0).
//! * `--out` — write the scale and the matrix cells here as plain JSON,
//!   the same shape `--check` reads.
//! * `--check` — compare against a baseline file's cells; exit 1 when any
//!   cell (or the aggregate) estimates more than `--threshold` percent
//!   more execution cycles (default 10). The scale must match the
//!   baseline's.
//! * `--degrade` — allocate the named workload with the spill-everything
//!   fallback: an injected regression that must make `--check` fail
//!   (proving the gate fires; see the CI `quality` job).

use std::process::ExitCode;

use ccra_eval::quality::{compare_quality, run_quality_matrix, QualityFile};
use ccra_workloads::Scale;
use serde::{Deserialize, Serialize};

struct Args {
    scale: Scale,
    out: Option<String>,
    check: Option<String>,
    threshold: f64,
    degrade: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: quality [--scale <f64>] [--out <file.json>] \
         [--check <baseline.json>] [--threshold <pct>] [--degrade <workload>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale(1.0);
    let mut out = None;
    let mut check = None;
    let mut threshold = 10.0;
    let mut degrade = None;

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
            "--check" => {
                check = Some(take(i).to_string());
                i += 2;
            }
            "--threshold" => {
                threshold = take(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--degrade" => {
                degrade = Some(take(i).to_string());
                i += 2;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args {
        scale,
        out,
        check,
        threshold,
        degrade,
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    eprintln!(
        "quality: scale {}{}",
        args.scale.0,
        args.degrade
            .as_deref()
            .map(|w| format!(", degrading {w} (injected regression)"))
            .unwrap_or_default()
    );
    let entries = match run_quality_matrix(args.scale, args.degrade.as_deref(), |e| {
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

    let run = QualityFile {
        scale: args.scale.0,
        quality: entries,
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, run.to_json() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = &args.check {
        return check_against(path, &run, args.threshold);
    }
    ExitCode::SUCCESS
}

fn check_against(path: &str, run: &QualityFile, threshold: f64) -> ExitCode {
    let baseline = match std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {path}: {e}"))
        .and_then(|text| QualityFile::from_json(&text).map_err(|e| format!("baseline {path}: {e}")))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if baseline.scale != run.scale {
        eprintln!(
            "scale mismatch: baseline {path} was run at scale {}, this run is {}",
            baseline.scale, run.scale
        );
        return ExitCode::FAILURE;
    }
    let cmp = match compare_quality(&baseline.quality, &run.quality, threshold) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot compare against {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for d in &cmp.per_entry {
        eprintln!(
            "  {:<28} {:>12.0} -> {:>12.0} est cycles ({:+.1}%){}",
            d.key,
            d.baseline_cycles,
            d.current_cycles,
            d.delta_pct,
            if d.exceeded { "  [regressed!]" } else { "" }
        );
    }
    for key in &cmp.missing {
        eprintln!("  {key:<28} missing from this run");
    }
    if cmp.regressed {
        eprintln!(
            "QUALITY REGRESSION: aggregate {:.0} est cycles vs baseline {:.0} \
             ({:+.1}%, threshold {threshold:.1}%)",
            cmp.current_cycles, cmp.baseline_cycles, cmp.delta_pct
        );
        ExitCode::FAILURE
    } else {
        eprintln!(
            "ok: aggregate {:.0} est cycles vs baseline {:.0} ({:+.1}%, \
             threshold {threshold:.1}%)",
            cmp.current_cycles, cmp.baseline_cycles, cmp.delta_pct
        );
        ExitCode::SUCCESS
    }
}
