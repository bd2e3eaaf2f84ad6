//! Differential fuzz oracle for the register allocators.
//!
//! ```text
//! fuzzcheck [--cases <n>] [--seed <u64>]
//! ```
//!
//! Each case generates a random program ([`ccra_workloads::random_program`]),
//! profiles it, and runs it through the four headline allocators (improved
//! Chaitin, improved optimistic, priority, CBH) plus the spill-everywhere
//! fallback ([`ccra_eval::degraded_program_allocation`], the path a
//! function takes when its allocator fails) on a register file cycled by
//! case index. For every allocation the oracle asserts:
//!
//! * the independent checker ([`ccra_regalloc::check_allocation`]) accepts
//!   every function's allocation;
//! * the rewritten program verifies and computes the **same observable
//!   result** as the original under the interpreter;
//! * the overhead the interpreter *measures* equals the overhead the
//!   allocation *claims* (dynamic profile ⇒ exact match).
//!
//! Exits non-zero on the first divergence, printing the seed, allocator,
//! register file, and violation so the case can be replayed.

use std::process::ExitCode;

use ccra_analysis::{run, FrequencyInfo, InterpConfig};
use ccra_eval::degraded_program_allocation;
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::{
    allocate_program, check_allocation, measured_overhead, AllocatorConfig, MetricsRegistry,
    PriorityOrdering,
};
use ccra_workloads::{random_program, FuzzConfig};

fn usage() -> ! {
    eprintln!("usage: fuzzcheck [--cases <n>] [--seed <u64>]");
    std::process::exit(2);
}

struct Args {
    cases: u64,
    seed: u64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cases = 200u64;
    let mut seed = 42u64;
    let mut i = 0;
    while i < argv.len() {
        let take = |i: usize| -> &str {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--cases" => {
                cases = take(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                seed = take(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            _ => usage(),
        }
    }
    Args { cases, seed }
}

fn configs() -> [(&'static str, AllocatorConfig); 4] {
    [
        ("improved", AllocatorConfig::improved()),
        (
            "improved-optimistic",
            AllocatorConfig::improved_optimistic(),
        ),
        (
            "priority",
            AllocatorConfig::priority(PriorityOrdering::Sorting),
        ),
        ("cbh", AllocatorConfig::cbh()),
    ]
}

fn files() -> [RegisterFile; 3] {
    [
        RegisterFile::minimum(),
        RegisterFile::new(6, 4, 1, 0),
        RegisterFile::mips_full(),
    ]
}

fn interp() -> InterpConfig {
    InterpConfig {
        step_limit: 5_000_000,
        ..Default::default()
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut checked = 0u64;
    for case in 0..args.cases {
        let seed = args.seed.wrapping_add(case);
        let program = random_program(seed, &FuzzConfig::default());
        let expect = match run(&program, &interp()) {
            Ok(stats) => stats.result,
            Err(e) => {
                eprintln!("case {case} (seed {seed}): original program fails to run: {e}");
                return ExitCode::FAILURE;
            }
        };
        let freq = match FrequencyInfo::profile(&program) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("case {case} (seed {seed}): profiling failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let file = files()[(case % 3) as usize];
        let allocations = configs()
            .into_iter()
            .map(|(label, config)| (label, allocate_program(&program, &freq, file, &config)))
            .chain(std::iter::once((
                "spill-everywhere",
                degraded_program_allocation(
                    &program,
                    &freq,
                    &file,
                    &CostModel::paper(),
                    &mut MetricsRegistry::disabled(),
                ),
            )));
        for (label, out) in allocations {
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("case {case} (seed {seed}) {label} @ {file}: allocation error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // 1. The independent checker accepts every function.
            for (id, original) in program.functions() {
                let rewritten = out.program.function(id);
                if let Err(violations) =
                    check_allocation(original, rewritten, freq.func(id), out.func(id))
                {
                    eprintln!(
                        "case {case} (seed {seed}) {label} @ {file}: checker rejected {}:",
                        original.name()
                    );
                    for v in violations {
                        eprintln!("  {v}");
                    }
                    return ExitCode::FAILURE;
                }
            }
            // 2. Observable behavior is unchanged.
            if let Err(e) = out.program.verify() {
                eprintln!("case {case} (seed {seed}) {label} @ {file}: rewrite fails verify: {e}");
                return ExitCode::FAILURE;
            }
            let stats = match run(&out.program, &interp()) {
                Ok(stats) => stats,
                Err(e) => {
                    eprintln!("case {case} (seed {seed}) {label} @ {file}: rewrite fails: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if stats.result != expect {
                eprintln!(
                    "case {case} (seed {seed}) {label} @ {file}: result diverged: \
                     {:?} vs original {:?}",
                    stats.result, expect
                );
                return ExitCode::FAILURE;
            }
            // 3. Claimed overhead matches what execution measures.
            let measured = measured_overhead(&stats);
            if (measured.total() - out.overhead.total()).abs() > 1e-6 {
                eprintln!(
                    "case {case} (seed {seed}) {label} @ {file}: overhead drifted: \
                     measured {} vs claimed {}",
                    measured.total(),
                    out.overhead.total()
                );
                return ExitCode::FAILURE;
            }
            checked += 1;
        }
    }
    println!(
        "fuzzcheck: {} cases x {} allocators = {checked} allocations clean",
        args.cases,
        configs().len() + 1
    );
    ExitCode::SUCCESS
}
