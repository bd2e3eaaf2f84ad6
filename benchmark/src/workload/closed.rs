//! The closed-loop workloads: one caller allocating whole programs back to
//! back through the serial pipeline, each call starting when the last one
//! returns.
//!
//! * `spec-suite` — the paper's own traffic: the 14 SPEC92-shaped programs
//!   × 5 allocators × 2 register files under profiled frequencies, 140
//!   cells a pass, the cell order shuffled by the seed each pass. Functions
//!   are small (at most 231 instructions), so per-call fixed costs and all
//!   four colouring families dominate; the cache, the driver and the
//!   service are never touched.
//! * `large-funcs` — 24 random programs of 3 functions × 120 statements at
//!   loop depth 2 (about 800 instructions, 200–300 nodes and 3–4k edges
//!   each) under the improved allocator on the full MIPS file. Graph
//!   construction dominates, and each program takes 2–3 spill rounds, so
//!   spill insertion and reconstruction do real work. The corpus is fixed
//!   and the seed shuffles its order: a draw of 24 programs from the seed
//!   moves the median by ±8% and the tail by ±20% between seeds, which
//!   would hide the changes this workload exists to show. The full file is
//!   used because on the tight one some programs run 60 spill rounds into
//!   the degraded fallback, which makes run time a lottery.

use std::time::Instant;

use crate::calls::mirror::{self, PROBE_US};
use crate::calls::{self, AllocatorConfig, FrequencyInfo, Program, ProgramAllocation};
use crate::calls::{RegisterFile, Replay};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::Blocks;

use super::{report_latency, report_layers, timed_setup, trace_overhead_pct, write_spans};
use super::{Inject, Rng, RunConfig, Verifier};

/// Which closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The SPEC-shaped suite.
    SpecSuite,
    /// The large random programs.
    LargeFuncs,
}

impl Kind {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecSuite => "spec-suite",
            Kind::LargeFuncs => "large-funcs",
        }
    }

    /// Passes over the inputs per block: about a second of work, and whole
    /// passes, so every block times the same mix.
    fn passes_per_block(self) -> usize {
        match self {
            Kind::SpecSuite => 5,
            Kind::LargeFuncs => 1,
        }
    }
}

/// The generator seeds of the `large-funcs` corpus.
const LARGE_CORPUS: std::ops::RangeInclusive<u64> = 1..=24;

/// One (program, allocator, register file) combination.
struct Cell {
    label: String,
    prog: usize,
    config: AllocatorConfig,
    file: RegisterFile,
    instrs: u64,
}

/// A workload's inputs and the reference allocation of every cell.
struct Suite {
    programs: Vec<Program>,
    freqs: Vec<FrequencyInfo>,
    cells: Vec<Cell>,
    refs: Vec<ProgramAllocation>,
}

/// Generates the inputs, profiles them and allocates every cell once: the
/// reference each later call must reproduce byte for byte, and the warm-up.
fn build_suite(kind: Kind, tiny: bool) -> Result<Suite, String> {
    let mut programs = Vec::new();
    let mut cells = Vec::new();
    match kind {
        Kind::SpecSuite => {
            let scale = if tiny { 0.05 } else { 1.0 };
            for (name, p) in calls::spec_programs(scale) {
                let prog = programs.len();
                let instrs = calls::size_insts(&p);
                programs.push(p);
                for (clabel, config) in calls::spec_configs() {
                    for (flabel, file) in calls::spec_files() {
                        cells.push(Cell {
                            label: format!("{name}/{clabel}/{flabel}"),
                            prog,
                            config,
                            file,
                            instrs,
                        });
                    }
                }
            }
        }
        Kind::LargeFuncs => {
            let (count, stmts) = if tiny { (4, 30) } else { (24, 120) };
            for seed in LARGE_CORPUS.take(count) {
                let p = calls::random_program(seed, 3, stmts, 2);
                cells.push(Cell {
                    label: format!("random{seed}"),
                    prog: programs.len(),
                    config: calls::improved(),
                    file: calls::mips_full(),
                    instrs: calls::size_insts(&p),
                });
                programs.push(p);
            }
        }
    }
    let freqs = programs
        .iter()
        .map(calls::profile)
        .collect::<Result<Vec<_>, _>>()?;
    let refs = cells
        .iter()
        .map(|c| calls::allocate_program(&programs[c.prog], &freqs[c.prog], c.file, &c.config))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Suite {
        programs,
        freqs,
        cells,
        refs,
    })
}

/// What the untraced loop measured.
#[derive(Default)]
struct LoopOut {
    blocks: Blocks,
    busy_us: f64,
    ops: u64,
}

/// Allocates cells in seeded order, a fresh shuffle each pass, a block
/// every few passes, until `seconds` pass. Each result is compared with its
/// reference outside the timed call.
fn untraced_loop(
    kind: Kind,
    suite: &Suite,
    seconds: f64,
    rng: &mut Rng,
    report: &mut Report,
) -> Result<LoopOut, String> {
    let mut out = LoopOut::default();
    let mut order: Vec<usize> = (0..suite.cells.len()).collect();
    let start = Instant::now();
    loop {
        for _ in 0..kind.passes_per_block() {
            rng.shuffle(&mut order);
            for &c in &order {
                let cell = &suite.cells[c];
                let t = Instant::now();
                let got = calls::allocate_program(
                    &suite.programs[cell.prog],
                    &suite.freqs[cell.prog],
                    cell.file,
                    &cell.config,
                )?;
                let secs = t.elapsed().as_secs_f64();
                out.blocks.push(secs * 1e3, cell.instrs as f64, secs);
                out.busy_us += secs * 1e6;
                out.ops += 1;
                note_result(report, cell, &got, &suite.refs[c], "allocate_program");
            }
        }
        out.blocks.close();
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

/// Counts a failed operation and records a mismatch against the reference.
fn note_result(
    report: &mut Report,
    cell: &Cell,
    got: &ProgramAllocation,
    reference: &ProgramAllocation,
    what: &str,
) {
    report.attempted += 1;
    if calls::degraded_funcs(got) > 0 {
        report.failed += 1;
    }
    if got != reference {
        report.failed += 1;
        report.error(format!(
            "{}: {what} differs from the reference allocation",
            cell.label
        ));
    }
}

/// Whole passes through the pipeline mirror with spans on, until `seconds`
/// pass. Returns the operation count and the traced time per operation
/// with the probes taken out, microseconds.
fn traced_loop(
    suite: &Suite,
    seconds: f64,
    rng: &mut Rng,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(u64, f64), String> {
    let mut order: Vec<usize> = (0..suite.cells.len()).collect();
    let mut ops = 0u64;
    let mut traced_us = 0.0;
    let start = Instant::now();
    while ops == 0 || start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        for &c in &order {
            let cell = &suite.cells[c];
            tr.set_op(ops);
            let probes = tr.counter(PROBE_US);
            let t = Instant::now();
            let got = mirror::allocate_program(
                &suite.programs[cell.prog],
                &suite.freqs[cell.prog],
                cell.file,
                &cell.config,
                tr,
            )?;
            traced_us += t.elapsed().as_secs_f64() * 1e6 - (tr.counter(PROBE_US) - probes);
            ops += 1;
            note_result(report, cell, &got, &suite.refs[c], "the pipeline mirror");
        }
    }
    Ok((ops, traced_us / ops as f64))
}

/// Runs `spec-suite` or `large-funcs`.
pub fn run(kind: Kind, cfg: &RunConfig) -> Result<Report, String> {
    let (mut suite, setup_s) = timed_setup(|| build_suite(kind, cfg.tiny))?;
    let mut report = Report::new(kind.name(), cfg.seed, cfg.traced);
    let mut rng = Rng::new(cfg.seed);
    let untraced_s = if cfg.traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut out = untraced_loop(kind, &suite, untraced_s, &mut rng, &mut report)?;

    if cfg.traced {
        let mut tr = Tracer::enabled();
        let (ops, traced_us) =
            traced_loop(&suite, cfg.seconds / 2.0, &mut rng, &mut tr, &mut report)?;
        report_layers(&mut report, &tr, ops);
        report.set(
            "trace_overhead_pct",
            trace_overhead_pct(out.busy_us / out.ops as f64, traced_us),
        );
        write_spans(cfg, &tr)?;
    } else {
        report.set("setup_s", setup_s);
        report_latency(&mut report, "alloc", &mut out.blocks);
        report.set("instrs_per_s", out.blocks.rate());
    }
    report.detail("passes", out.ops as f64 / suite.cells.len() as f64, "count");

    if cfg.inject == Some(Inject::DropSpillStore)
        && !suite.refs.iter_mut().any(calls::drop_one_spill_store)
    {
        report.error("no allocation has a spill store to drop");
    }
    let mut v = Verifier::default();
    let originals = suite
        .programs
        .iter()
        .map(|p| v.replay_original(p))
        .collect::<Result<Vec<Replay>, _>>()?;
    for (cell, alloc) in suite.cells.iter().zip(&suite.refs) {
        let p = cell.prog;
        if let Err(e) = v.verify(
            &suite.programs[p],
            &suite.freqs[p],
            alloc,
            Some(&originals[p]),
        ) {
            report.error(format!("{}: {e}", cell.label));
        }
    }
    v.report(&mut report);
    Ok(report)
}
