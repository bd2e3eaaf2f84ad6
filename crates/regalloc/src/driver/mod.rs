//! The concurrency subsystem: parallel per-function allocation and the
//! batch service front-end.
//!
//! Register allocation is embarrassingly parallel at function granularity —
//! each function's webs, interference graph, and SC/BS/PR decisions are
//! self-contained; only the frequency weights are whole-program, and those
//! are read-only by allocation time. This module family exploits that on
//! `std` alone (the offline environment vendors no concurrency crates):
//!
//! * [`pool`] — a scoped thread pool with per-worker deques and work
//!   stealing, absorbing the wild per-function cost variance;
//! * [`ParallelDriver`] — shards a [`ccra_ir::Program`] into per-function
//!   jobs and merges results **deterministically**: byte-identical output
//!   at any worker count, equal to the serial pipeline, with telemetry
//!   fanned in function order and per-job failures (errors *and* panics)
//!   degraded in place instead of killing the batch;
//! * [`BatchService`] — submit many programs against a bounded queue with
//!   backpressure, collect per-job statuses; jobs carry a priority and an
//!   optional deadline (EDF within priority class), can be cancelled while
//!   queued, and are bounded by an optional service-time watchdog;
//! * [`admission`] — the latency-aware AIMD admission limiter in front of
//!   the queue: when observed end-to-end latency blows the SLO, `submit`
//!   sheds with a typed rejection and retry-after hint instead of
//!   blocking;
//! * [`chaos`] — deterministic seed-driven fault injection (per-job
//!   panics, allocator errors, latency spikes) for overload testing;
//! * [`queue`] — the bounded MPMC queue underneath the service;
//! * [`timeline`] — per-worker span/instant/counter collection for the
//!   pool and driver (exported as a Chrome trace by
//!   [`crate::trace::chrometrace`]);
//! * [`flightrec`] — the always-on flight recorder: fixed-size per-lane
//!   rings of recent compact scheduling events, dumped as JSON when a job
//!   degrades or panics;
//! * [`status`] — a std-only HTTP endpoint serving a live
//!   [`BatchHandle`] view (`/metrics`, `/healthz`, `/status`, per-request
//!   `/trace/<id>`, `/debug/flightrec`).
//!
//! The `ccra-eval` `par` binary sweeps worker counts over five SPEC
//! workloads with the driver and gates its `workers = 1` overhead; the
//! `timeline` binary captures one traced batch as a Perfetto-loadable
//! timeline; the `loadgen` binary drives the batch service open-loop
//! (`--chaos` adds a seeded overload storm) and reports its latency and
//! admission rows. Driver throughput is measured by the repository
//! benchmark's `edit-1000` workload.

pub mod admission;
pub mod batch;
pub mod chaos;
pub mod flightrec;
mod parallel;
pub mod pool;
pub mod queue;
pub mod status;
pub mod timeline;

pub use crate::pipeline::{AllocRequest, JobCtx};
pub use admission::{AdmissionConfig, AdmissionController, AdmissionSnapshot};
pub use batch::{
    per_priority_latency, BatchConfig, BatchHandle, BatchJob, BatchResult, BatchService,
    BatchStatus, CancelOutcome, DegradeCause, Priority, RejectCause, RequestTrace, SubmitError,
    STATUS_SCHEMA_VERSION,
};
pub use chaos::{ChaosConfig, ChaosJob, Fault};
pub use flightrec::{FlightEvent, FlightKind, FlightRecorder, FlightView};
pub use parallel::{
    AllocJob, DefaultJob, DriverReport, DriverSummary, JobStatus, ParallelDriver, TimeoutJob,
};
pub use pool::{run_jobs, run_jobs_observed, JobOutcome, PoolStats, WorkerScratch};
pub use queue::{BoundedQueue, PushError, QueueStats};
pub use status::StatusServer;
pub use timeline::{Timeline, TimelineCollector, TimelineEvent, TimelineSummary};
