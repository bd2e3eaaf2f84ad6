//! The repository benchmark of the call-cost register allocator.
//!
//! Four seeded workloads — `spec-suite`, `large-funcs`, `edit-1000` and
//! `serve` — each stressing different layers, each with its outputs
//! checked: the independent checker on every distinct allocation, the
//! interpreter's replay of every allocated program against the original,
//! byte identity of repeated, cached and mirrored allocations, and every
//! served request resolved exactly once. The untraced run reports
//! end-to-end metrics; the traced run re-drives the allocator's layers
//! through mirrors of its entry points with spans around every public
//! phase call and reports per-layer metrics. See `README.md` for the
//! workloads, the metric table and how to run each mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calls;
pub mod compare;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
