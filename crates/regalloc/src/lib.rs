//! Call-cost directed register allocation — the primary contribution of
//! Lueh & Gross, *Call-Cost Directed Register Allocation* (PLDI 1997).
//!
//! The crate implements the paper's register-allocation framework
//! (Figure 1) and five allocators on top of it:
//!
//! * **base Chaitin-style** coloring with the simple call-cost model of
//!   Section 3.1 ([`AllocatorConfig::base`]);
//! * **improved Chaitin-style** coloring with the paper's three
//!   enhancements ([`AllocatorConfig::improved`]): storage-class analysis
//!   (Section 4), benefit-driven simplification (Section 5), and preference
//!   decision (Section 6) — each independently toggleable
//!   ([`AllocatorConfig::with_improvements`]);
//! * **optimistic (Briggs)** coloring ([`AllocatorConfig::optimistic`]),
//!   also composable with the improvements (Section 8);
//! * **priority-based (Chow)** coloring without splitting, with the three
//!   color orderings of Section 9.1 ([`AllocatorConfig::priority`]);
//! * the **CBH** model of Section 10 ([`AllocatorConfig::cbh`]).
//!
//! Every allocator runs through the same pipeline: graph construction and
//! aggressive coalescing ([`build_context`]), color ordering and assignment,
//! iterated spill-code insertion and graph reconstruction, and finally
//! shuffle-/save-restore-code insertion. The cost of the result is an
//! [`Overhead`]: weighted spill, caller-save, callee-save, and shuffle
//! operations (Section 3) — both computable analytically
//! ([`weighted_overhead`]) and measurable by executing the rewritten
//! program ([`measured_overhead`]).
//!
//! # Example
//!
//! ```
//! use ccra_ir::{FunctionBuilder, Program, RegClass, BinOp, Callee};
//! use ccra_analysis::FrequencyInfo;
//! use ccra_machine::RegisterFile;
//! use ccra_regalloc::{allocate_program, AllocatorConfig};
//!
//! // x is live across a call; the allocators decide whether it belongs in
//! // a caller-save register, a callee-save register, or memory.
//! let mut b = FunctionBuilder::new("main");
//! let x = b.new_vreg(RegClass::Int);
//! b.iconst(x, 1);
//! let r = b.new_vreg(RegClass::Int);
//! b.call(Callee::External("g"), vec![], Some(r));
//! b.binary(BinOp::Add, r, r, x);
//! b.ret(Some(r));
//! let mut program = Program::new();
//! let id = program.add_function(b.finish());
//! program.set_main(id);
//!
//! let freq = FrequencyInfo::profile(&program)?;
//! let out = allocate_program(&program, &freq, RegisterFile::new(8, 4, 2, 2),
//!                            &AllocatorConfig::improved())
//!     .expect("allocation succeeds");
//! assert!(out.overhead.total() >= 0.0);
//! # Ok::<(), ccra_analysis::InterpError>(())
//! ```
//!
//! # Entry points
//!
//! Each layer has one plain and at most one instrumented entry point:
//! [`allocate_function`] and [`allocate_function_instrumented`] (taking a
//! [`JobCtx`]) for one function, [`allocate_program`] and
//! [`allocate_program_instrumented`] (taking an [`AllocRequest`]) for a
//! serial program, and [`ParallelDriver::allocate_program_cached`] for the
//! parallel driver. The instrumented forms emit events through an
//! [`AllocSink`] and aggregate into a [`MetricsRegistry`]; [`NoopSink`]
//! and [`MetricsRegistry::disabled`] switch either off.
//!
//! # Robustness
//!
//! Every entry point returns `Result<_, `[`AllocError`]`>` with variants
//! naming the exact web, node, or register involved. The program-level
//! drivers recover from per-function failures via [`degraded_allocation`],
//! and the [`check`] module verifies any finished allocation independently
//! of the allocator that produced it.
//!
//! # Parallelism
//!
//! The [`driver`] module allocates a program's functions in parallel on a
//! dependency-free work-stealing pool with a deterministic merge —
//! [`ParallelDriver`] output is byte-identical at any worker count and
//! equal to the serial pipeline — and [`BatchService`] fronts many-program
//! workloads with a bounded queue and per-job statuses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod build;
pub mod cache;
mod cbh;
mod chaitin;
pub mod check;
pub mod driver;
mod error;
mod graph;
pub mod metrics;
mod node;
pub mod obsv;
mod pipeline;
mod priority;
pub mod quality;
mod reconstruct;
mod rewrite;
mod spill;
pub mod trace;
mod types;

pub use accounting::{measured_overhead, weighted_overhead};
pub use build::{build_context, FuncContext};
pub use cache::{
    config_fingerprint, file_fingerprint, freq_fingerprint, AllocCache, CacheConfig, CacheKey,
    CacheStats,
};
pub use cbh::allocate_bank_cbh;
pub use chaitin::{allocate_bank_chaitin, preference_decision, BankResult};
pub use check::{check_allocation, CheckViolation};
pub use driver::{
    AdmissionConfig, AdmissionController, AdmissionSnapshot, BatchConfig, BatchHandle, BatchJob,
    BatchResult, BatchService, BatchStatus, CancelOutcome, ChaosConfig, DegradeCause, DriverReport,
    DriverSummary, FlightEvent, FlightKind, FlightRecorder, FlightView, JobStatus, ParallelDriver,
    Priority, RejectCause, RequestTrace, StatusServer, SubmitError, Timeline, TimelineCollector,
    TimelineEvent, TimelineSummary,
};
pub use error::AllocError;
pub use graph::InterferenceGraph;
pub use metrics::{CounterSnapshot, Histogram, HistogramSnapshot, MetricsRegistry};
pub use node::{CallSite, NodeInfo, SPILL_TEMP_COST};
pub use obsv::{
    AlertCondition, AlertRule, AlertRuleStats, AlertState, AlertTransition, Clock, ManualClock,
    Observatory, ObsvConfig, Tier, WallClock,
};
pub use pipeline::{
    allocate_function, allocate_function_instrumented, allocate_program,
    allocate_program_instrumented, count_kinds, degraded_allocation, AllocRequest, FuncAllocation,
    JobCtx, ProgramAllocation, RangeSummary, RefAssignment, METRIC_MEM_PEAK, METRIC_MEM_RECORDS,
};
pub use priority::allocate_bank_priority;
pub use quality::{score_program, FuncQuality, QualityReport};
pub use reconstruct::reconstruct_context;
pub use rewrite::{insert_overhead_markers, FinalAssignment, MarkerRewrite};
pub use spill::{insert_spill_code_traced, SpillRewrite, TempRef};
pub use trace::{AllocEvent, AllocSink, JsonlSink, NoopSink, RecordingSink};
pub use types::{
    AllocatorConfig, AllocatorKind, BsKey, CalleeCostModel, Loc, Overhead, PriorityOrdering,
};
