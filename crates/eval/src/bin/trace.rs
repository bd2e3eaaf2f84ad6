//! Runs one allocation with telemetry enabled and emits the event stream
//! as JSON Lines: phase timings, per-round graph stats, per-range decision
//! records, spill stats, and function/program summaries.
//!
//! ```text
//! trace <workload> [--config <name>] [--scale <f64>] [--regs Ri Ei Rf Ef]
//!       [--out <file.jsonl>] [--check <baseline.jsonl>] [--threshold <pct>]
//! ```
//!
//! * `<workload>` — a SPEC92-like program name (`eqntott`, `ear`, …).
//! * `--config` — `base`, `improved`, `optimistic`, `improved-optimistic`,
//!   `priority`, or `cbh` (default `improved`).
//! * `--regs` — caller-int, callee-int, caller-float, callee-float bank
//!   sizes (default the full MIPS file).
//! * `--out` — write the JSONL stream to a file instead of stdout.
//! * `--check` — diff this run against a baseline JSONL; exit 1 with a
//!   `MISMATCH` line when the baseline records another workload, config
//!   or scale, and exit 1 when total weighted overhead regresses beyond
//!   `--threshold` percent (default 5). Wall-clock changes only warn:
//!   they are machine-dependent.
//!
//! The stream's first line is a [`TraceHeader`] naming the workload,
//! config and scale; the events follow, one per line.

use std::io::{BufWriter, Write};
use std::process::ExitCode;

use ccra_analysis::FrequencyInfo;
use ccra_eval::telemetry::{self, TraceHeader};
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::{
    allocate_program_instrumented, trace::parse_jsonl, AllocRequest, AllocSink, AllocatorConfig,
    JsonlSink, MetricsRegistry, PriorityOrdering, RecordingSink,
};
use ccra_workloads::{spec_program_scaled, Scale, SpecProgram};
use serde::Serialize;

struct Args {
    program: SpecProgram,
    config_name: String,
    config: AllocatorConfig,
    scale: Scale,
    file: RegisterFile,
    out: Option<String>,
    check: Option<String>,
    threshold: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace <workload> [--config base|improved|optimistic|improved-optimistic|\
         priority|cbh] [--scale <f64>] [--regs <caller-int> <callee-int> \
         <caller-float> <callee-float>] [--out <file>] \
         [--check <baseline.jsonl>] [--threshold <pct>]"
    );
    eprintln!(
        "workloads: {}",
        SpecProgram::ALL.map(|p| p.name()).join(", ")
    );
    std::process::exit(2);
}

fn parse_config(name: &str) -> Option<AllocatorConfig> {
    Some(match name {
        "base" => AllocatorConfig::base(),
        "improved" => AllocatorConfig::improved(),
        "optimistic" => AllocatorConfig::optimistic(),
        "improved-optimistic" => AllocatorConfig::improved_optimistic(),
        "priority" => AllocatorConfig::priority(PriorityOrdering::Sorting),
        "cbh" => AllocatorConfig::cbh(),
        _ => return None,
    })
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut program = None;
    let mut config_name = "improved".to_string();
    let mut config = AllocatorConfig::improved();
    let mut scale = Scale(1.0);
    let mut file = RegisterFile::mips_full();
    let mut out = None;
    let mut check = None;
    let mut threshold = 5.0;

    let mut i = 0;
    while i < argv.len() {
        let take = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--config" => {
                config_name = take(i).to_string();
                config = parse_config(&config_name).unwrap_or_else(|| usage());
                i += 2;
            }
            "--scale" => {
                scale = Scale(take(i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--regs" => {
                let v: Vec<u8> = argv[i + 1..]
                    .iter()
                    .take(4)
                    .filter_map(|s| s.parse().ok())
                    .collect();
                if v.len() != 4 {
                    usage();
                }
                if v[0] < 6 || v[2] < 4 {
                    eprintln!(
                        "error: --regs {} {} {} {} is below the MIPS calling-convention \
                         minimum (caller-int >= 6, caller-float >= 4)",
                        v[0], v[1], v[2], v[3]
                    );
                    std::process::exit(2);
                }
                file = RegisterFile::new(v[0], v[2], v[1], v[3]);
                i += 5;
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
            "--help" | "-h" => usage(),
            name if program.is_none() && !name.starts_with('-') => {
                program = SpecProgram::ALL.into_iter().find(|p| p.name() == name);
                if program.is_none() {
                    eprintln!("unknown workload `{name}`");
                    usage();
                }
                i += 1;
            }
            _ => usage(),
        }
    }
    let Some(program) = program else { usage() };
    Args {
        program,
        config_name,
        config,
        scale,
        file,
        out,
        check,
        threshold,
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    let ir = spec_program_scaled(args.program, args.scale);
    let freq = match FrequencyInfo::profile(&ir) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{}: failed to profile: {e}", args.program);
            return ExitCode::FAILURE;
        }
    };

    let mut sink = RecordingSink::new();
    let req = AllocRequest {
        program: &ir,
        freq: &freq,
        file: args.file,
        config: &args.config,
        cost: &CostModel::paper(),
    };
    let result =
        match allocate_program_instrumented(&req, &mut sink, &mut MetricsRegistry::disabled()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: allocation failed: {e}", args.program);
                return ExitCode::FAILURE;
            }
        };

    // Emit the stream, header first.
    let header = TraceHeader {
        program: args.program.name().to_string(),
        config: args.config_name.clone(),
        scale: args.scale.0,
    };
    match &args.out {
        Some(path) => {
            let mut file = match std::fs::File::create(path) {
                Ok(f) => BufWriter::new(f),
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = writeln!(file, "{}", header.to_line()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            let mut jsonl = JsonlSink::new(file);
            for e in &sink.events {
                jsonl.emit(e.clone());
            }
            if let Err(e) = jsonl.finish() {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            println!("{}", header.to_line());
            for e in &sink.events {
                println!("{}", e.to_json());
            }
        }
    }

    // A quick human-readable footer on stderr so the JSONL on stdout stays
    // machine-clean.
    eprintln!(
        "{} [{}] @ scale {}: {} events, total overhead {:.2}",
        args.program,
        args.config.label(),
        args.scale.0,
        sink.events.len(),
        result.overhead.total()
    );
    for (phase, micros) in telemetry::phase_totals(&sink.events) {
        eprintln!("  {phase:<13} {micros:>8} us");
    }

    // Baseline comparison.
    if let Some(path) = &args.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let events = match TraceHeader::split(&text) {
            (Some(base), events) if base == header => events,
            (Some(base), _) => {
                eprintln!("MISMATCH: baseline {base} vs current {header}");
                return ExitCode::FAILURE;
            }
            (None, _) => {
                eprintln!(
                    "MISMATCH: baseline {path} has no trace header naming its \
                     workload, config and scale; current {header}"
                );
                return ExitCode::FAILURE;
            }
        };
        let baseline = match parse_jsonl(events) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("cannot parse baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match telemetry::compare(&baseline, &sink.events, args.threshold) {
            Ok(c) => {
                eprintln!("{}", c.verdict(args.threshold));
                eprintln!(
                    "  wall-clock {} us vs baseline {} us ({:+.1}%, informational)",
                    c.current_micros, c.baseline_micros, c.time_delta_pct
                );
                if c.regressed {
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("comparison failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
