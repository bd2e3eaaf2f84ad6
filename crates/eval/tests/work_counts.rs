//! Exact work-count gate: the allocator's deterministic work profile on a
//! fixed matrix — five SPEC workloads × five allocators × two register
//! files at scale 1.0 — must match the committed
//! `crates/eval/baselines/work_counts.txt` line for line.
//!
//! Every number here is a pure function of the workload and the code —
//! spill rounds, liveness iterations, webs, interference-graph nodes and
//! edges, call sites, spilled ranges and the weighted overhead — so no
//! noise can move it and the comparison is exact. A change that alters
//! the work the allocator does changes this file; on a mismatch the test
//! prints the fresh file, which replaces the committed one together with
//! an explanation of why the work changed. Wall-clock speed is measured
//! by the repository benchmark (`benchmark/`), not here.

use std::fmt::Write as _;

use ccra_analysis::FrequencyInfo;
use ccra_eval::parsweep::MATRIX_WORKLOADS;
use ccra_eval::quality::matrix_files;
use ccra_machine::CostModel;
use ccra_regalloc::{
    allocate_program_instrumented, AllocRequest, AllocatorConfig, MetricsRegistry, NoopSink,
    PriorityOrdering,
};
use ccra_workloads::{spec_program_scaled, Scale};

/// Repo-root-relative path of the committed counts.
const BASELINE: &str = "crates/eval/baselines/work_counts.txt";

/// The allocator configurations of the matrix: the paper's base
/// allocator, the full improvement set, its optimistic variant, the
/// priority-based allocator and CBH.
fn matrix_configs() -> [AllocatorConfig; 5] {
    [
        AllocatorConfig::base(),
        AllocatorConfig::improved(),
        AllocatorConfig::improved_optimistic(),
        AllocatorConfig::priority(PriorityOrdering::Sorting),
        AllocatorConfig::cbh(),
    ]
}

/// The summed registry histograms each line reports, by metric name.
const SUMMED: [&str; 6] = [
    "analysis_liveness_iterations",
    "analysis_webs",
    "graph_nodes",
    "graph_edges",
    "build_callsites",
    "func_spilled_ranges",
];

/// One line per matrix cell: `<workload> <config> <regs>` followed by
/// `name=value` counts.
fn fresh_counts() -> String {
    let cost = CostModel::paper();
    let mut out = String::new();
    for program in MATRIX_WORKLOADS {
        let ir = spec_program_scaled(program, Scale(1.0));
        let freq = FrequencyInfo::profile(&ir)
            .unwrap_or_else(|e| panic!("{program} failed to profile: {e}"));
        for config in matrix_configs() {
            for (regs, file) in matrix_files() {
                let mut metrics = MetricsRegistry::new();
                let req = AllocRequest {
                    program: &ir,
                    freq: &freq,
                    file,
                    config: &config,
                    cost: &cost,
                };
                let alloc = allocate_program_instrumented(&req, &mut NoopSink, &mut metrics)
                    .unwrap_or_else(|e| panic!("{program} failed to allocate: {e}"));
                write!(
                    out,
                    "{} {} {regs} alloc_rounds_total={}",
                    program.name(),
                    config.label(),
                    metrics.counter("alloc_rounds_total")
                )
                .unwrap();
                for name in SUMMED {
                    let sum = metrics.histogram(name).map_or(0, |h| h.sum());
                    write!(out, " {name}={sum}").unwrap();
                }
                writeln!(out, " overhead={}", alloc.overhead.total()).unwrap();
            }
        }
    }
    out
}

/// The cell name of a line: its first three fields.
fn cell(line: &str) -> String {
    line.split(' ').take(3).collect::<Vec<_>>().join(" ")
}

/// Every difference between the committed and fresh files, one message
/// per cell that differs, is missing, or is new.
fn mismatches(committed: &str, fresh: &str) -> Vec<String> {
    let committed: Vec<&str> = committed.lines().filter(|l| !l.is_empty()).collect();
    let fresh: Vec<&str> = fresh.lines().collect();
    let mut out = Vec::new();
    for want in &committed {
        match fresh.iter().find(|got| cell(got) == cell(want)) {
            None => out.push(format!("{}: missing from this run", cell(want))),
            Some(got) if got != want => out.push(format!(
                "{}:\n    committed: {want}\n    fresh:     {got}",
                cell(want)
            )),
            Some(_) => {}
        }
    }
    for got in &fresh {
        if !committed.iter().any(|want| cell(want) == cell(got)) {
            out.push(format!("{}: not in the committed file", cell(got)));
        }
    }
    out
}

#[test]
fn work_counts_match_the_committed_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root exists");
    let path = root.join(BASELINE);
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let fresh = fresh_counts();
    assert_eq!(
        fresh.lines().count(),
        MATRIX_WORKLOADS.len() * matrix_configs().len() * matrix_files().len()
    );
    let diffs = mismatches(&committed, &fresh);
    assert!(
        diffs.is_empty(),
        "work counts differ from {BASELINE} in {} cell(s):\n{}\n\n\
         If the change in work is intended, replace {BASELINE} with the fresh \
         file below and explain the change in CHANGES.md:\n{fresh}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn mismatches_name_the_cell() {
    let a = "eqntott base mips alloc_rounds_total=2 overhead=1\n\
             li CBH tight alloc_rounds_total=3 overhead=4\n";
    assert!(mismatches(a, a).is_empty());
    let edited = a.replace("rounds_total=3", "rounds_total=4");
    let diffs = mismatches(a, &edited);
    assert_eq!(diffs.len(), 1);
    assert!(diffs[0].starts_with("li CBH tight:"), "{}", diffs[0]);
    let dropped = "eqntott base mips alloc_rounds_total=2 overhead=1\n";
    assert_eq!(
        mismatches(a, dropped),
        vec!["li CBH tight: missing from this run"]
    );
    assert_eq!(
        mismatches(dropped, a),
        vec!["li CBH tight: not in the committed file"]
    );
}
