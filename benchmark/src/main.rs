//! The `benchmark` command line; see `README.md`.

use std::io::Write;
use std::process::{Command, ExitCode};

use ccra_benchmark::compare;
use ccra_benchmark::workload::{self, Inject, RunConfig, WORKLOADS};

const USAGE: &str = "\
usage:
  benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
            [--out <runs.jsonl>] [--spans <trace.json>]
  benchmark --seed <u64> [--seconds <n>] [--trace 0|1] [--out <runs.jsonl>]
            (every workload in turn, each in its own process)
  benchmark compare <a.jsonl> <b.jsonl> [--bounds <BENCHMARK.json>]

workloads: spec-suite, large-funcs, edit-1000, serve
--seconds   how long a run measures (default 12)
--trace 1   the traced run: per-layer metrics instead of end-to-end ones
--out       append each run's record to a JSON-lines file (compare reads it)
--spans     write the traced run's spans as a Chrome trace
--tiny      shrink every input (tests)
--inject    poison-cache | drop-spill-store: a fault verification must catch";

/// Parsed arguments of a run.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    spans: Option<String>,
    tiny: bool,
    inject: Option<Inject>,
}

fn parse_run_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 12.0,
        traced: false,
        out: None,
        spans: None,
        tiny: false,
        inject: None,
    };
    let mut seed = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--tiny" {
            args.tiny = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                };
            }
            "--out" => args.out = Some(value.clone()),
            "--spans" => args.spans = Some(value.clone()),
            "--inject" => {
                args.inject =
                    Some(Inject::parse(value).ok_or_else(|| format!("unknown fault `{value}`"))?);
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
        i += 2;
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// Runs one workload in this process and prints its report.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let cfg = RunConfig {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        tiny: args.tiny,
        inject: args.inject,
        spans_out: args.spans.clone(),
    };
    let report = match workload::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in report.lines() {
        println!("{line}");
    }
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.record_json()));
        if let Err(e) = appended {
            eprintln!("benchmark: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of this binary, so each
/// one's peak memory is its own.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(argv)
            .args(["--workload", name])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: {name} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: cannot run {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(argv: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--bounds" {
            match argv.get(i + 1) {
                Some(p) => bounds_path = p.clone(),
                None => return usage_error("--bounds needs a value"),
            }
            i += 2;
        } else {
            files.push(argv[i].clone());
            i += 1;
        }
    }
    let [a, b] = files.as_slice() else {
        return usage_error("compare takes two run files");
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let loaded = read(&bounds_path)
        .and_then(|t| compare::parse_bounds(&t))
        .and_then(|bounds| {
            let ra = read(a).and_then(|t| compare::parse_runs(&t))?;
            let rb = read(b).and_then(|t| compare::parse_runs(&t))?;
            Ok((bounds, ra, rb))
        });
    let (bounds, ra, rb) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare::compare(&bounds, &ra, &rb);
    if rows.is_empty() {
        eprintln!("benchmark compare: no (workload, metric) pair in both files");
        return ExitCode::from(2);
    }
    print!("{}", compare::render(&rows));
    if rows.iter().any(|r| r.verdict == compare::Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return run_compare(&argv[1..]);
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_run_args(&argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&argv),
    }
}
