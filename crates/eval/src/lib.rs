//! Experiment drivers regenerating every table and figure of
//! *Call-Cost Directed Register Allocation* (Lueh & Gross, PLDI 1997).
//!
//! Each experiment lives in [`experiments`] and returns [`Table`]s; the
//! companion binaries (`fig2`, `fig6`, `fig7`, `tab2`, `tab3`, `fig9`,
//! `fig10`, `fig11`, `tab4`, `priority_orderings`, `callee_cost_models`,
//! and `all_experiments`) print them. Every binary accepts an optional
//! `--scale <f64>` argument that shrinks the workloads proportionally.
//!
//! Several binaries are not experiments. `trace` runs one allocation with
//! telemetry enabled and emits the raw event stream as JSON Lines (see
//! [`telemetry`]). `par` sweeps the
//! parallel allocation driver over worker counts, verifies
//! parallel-equals-serial on every workload, and gates the `workers = 1`
//! overhead (see [`parsweep`]). `loadgen` drives a live batch service
//! open-loop and reports the queue-wait / service / end-to-end latency
//! quantiles (see [`loadgen`]). `quality` scores allocation quality on a
//! fixed matrix (see [`quality`]), `incr` sweeps the memo
//! cache (see [`incr`]), and `explain` renders per-function reports
//! saying why each web got its storage class and final location (see
//! [`explain`]). Allocator speed is measured by the repository benchmark
//! under `benchmark/`, not by this crate.
//!
//! | Experiment | Paper content | Module |
//! |---|---|---|
//! | Figure 2 | base-allocator cost split by component, eqntott/ear | [`experiments::fig2`] |
//! | Figure 6 | improvement combinations vs register pressure | [`experiments::fig6`] |
//! | Figure 7 | overhead under improved allocation, ear/eqntott | [`experiments::fig7`] |
//! | Tables 2–3 | base vs optimistic, static/dynamic | [`experiments::tab2_tab3`] |
//! | Figure 9 | optimistic vs improved, fpppp static | [`experiments::fig9`] |
//! | Figure 10 | priority-based vs improved Chaitin | [`experiments::fig10`] |
//! | Figure 11 | improved Chaitin vs CBH | [`experiments::fig11`] |
//! | Table 4 | execution-time speedup (cycle model) | [`experiments::tab4`] |
//! | §9.1, §4, §5 | ablations | [`experiments::ablations`] |
//!
//! # Example
//!
//! ```no_run
//! use ccra_eval::experiments::fig2;
//! use ccra_workloads::Scale;
//!
//! for table in fig2::run(Scale(1.0)) {
//!     println!("{table}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod experiments;
pub mod explain;
pub mod incr;
pub mod loadgen;
pub mod parsweep;
pub mod plot;
pub mod quality;
mod table;
pub mod telemetry;
pub mod timeline;
pub mod traffic;

pub use bench::{load_all, Bench};
pub use incr::{check_hits, dirty_program, run_incr_sweep, synth_program, CacheEntry, IncrConfig};
pub use loadgen::{
    job_stream, run_chaosload, run_loadgen, AdmissionEntry, AlertEntry, ChaosReport,
    ChaosloadConfig, LatencyEntry, LoadgenConfig, LoadgenReport, PriorityLatency,
};
pub use parsweep::{run_par_sweep, workers1_gate, ParEntry, SWEEP_WORKER_COUNTS};
pub use quality::{
    degraded_program_allocation, quality_configs, run_quality_matrix, QualityEntry, QualityFile,
    QUALITY_WORKLOADS,
};
pub use table::{ratio, CellParseError, Table};
pub use traffic::TrafficShape;

use ccra_workloads::Scale;

/// Parses `--scale <f64>` from CLI args (used by every experiment binary).
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--scale" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                return Scale(v);
            }
        }
    }
    Scale(1.0)
}

/// The output format selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Aligned plain-text tables (default).
    Text,
    /// Comma-separated values.
    Csv,
    /// One JSON document containing all tables.
    Json,
    /// Plain-text tables followed by ASCII charts of the numeric columns.
    Chart,
}

/// Parses `--format text|csv|json|chart` from CLI args.
pub fn format_from_args() -> OutputFormat {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--format" {
            match args.get(i + 1).map(String::as_str) {
                Some("csv") => return OutputFormat::Csv,
                Some("json") => return OutputFormat::Json,
                Some("chart") => return OutputFormat::Chart,
                _ => return OutputFormat::Text,
            }
        }
    }
    OutputFormat::Text
}

/// Prints tables in the selected format (the shared tail of every
/// experiment binary).
pub fn emit(tables: &[Table], format: OutputFormat) {
    match format {
        OutputFormat::Text => {
            for t in tables {
                println!("{t}");
            }
        }
        OutputFormat::Csv => {
            for t in tables {
                println!("# {}", t.title);
                print!("{}", t.to_csv());
                println!();
            }
        }
        OutputFormat::Json => {
            println!("{}", table::tables_to_json(tables));
        }
        OutputFormat::Chart => {
            for t in tables {
                println!("{t}");
                let x: Vec<String> = t.rows.iter().map(|r| r[0].clone()).collect();
                let series: Vec<plot::Series> = (1..t.headers.len())
                    .map(|c| plot::column_series(t, c))
                    .filter(|s| s.values.iter().any(|v| v.is_finite()))
                    .collect();
                if !series.is_empty() {
                    println!("{}", plot::render_chart(&t.title, &x, &series, 12));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_one() {
        // No --scale in the test harness args.
        assert_eq!(scale_from_args(), Scale(1.0));
    }
}
