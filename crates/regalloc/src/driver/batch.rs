//! The batch service front-end: submit many [`Program`]s, collect
//! per-job results.
//!
//! Where [`crate::driver::ParallelDriver`] parallelizes *within* one
//! program (per-function sharding), [`BatchService`] parallelizes *across*
//! programs — the compile-service shape: a bounded submission queue with
//! blocking backpressure ([`BatchService::submit`]) or caller-side load
//! shedding ([`BatchService::try_submit`]), a fixed pool of service
//! workers, and a status per job ([`BatchStatus`]) so one failed
//! submission never hides or poisons its siblings. The two layers compose:
//! [`BatchConfig::shard_workers`] > 1 gives every service worker its own
//! [`ParallelDriver`] for the functions of each program it picks up.
//!
//! Results are collected with [`BatchService::shutdown`], which closes the
//! queue, drains it, joins the workers, and returns results **sorted by
//! submission id** — deterministic presentation over a nondeterministic
//! execution order.
//!
//! # Overload behavior
//!
//! Under sustained overload a bounded queue alone only bounds *memory*;
//! the service layers four policies on top (all scheduling-side — no
//! accepted job's allocation bytes ever depend on them):
//!
//! * **Admission control** ([`BatchConfig::admission`]): an AIMD limiter
//!   ([`crate::driver::admission`]) on observed end-to-end latency vs. an
//!   SLO target. When the window is full, `submit` **sheds** — it returns
//!   [`RejectCause::Shed`] with a retry-after hint instead of blocking —
//!   and the shed is counted ([`METRIC_SHED`]) and flight-recorded.
//! * **Priority + deadline scheduling**: every [`BatchJob`] carries a
//!   [`Priority`] and an optional relative deadline; workers pop the
//!   queued job with the smallest (priority rank, earliest absolute
//!   deadline, estimated cost, id) key — EDF within priority class, with
//!   the cost estimate (Σ instrs × expected spill rounds) breaking
//!   deadline ties toward short jobs. A job whose deadline passed while
//!   queued resolves as [`BatchStatus::DeadlineExpired`] without running
//!   (its queue span is still recorded).
//! * **Cancellation** ([`BatchHandle::cancel`]): queued jobs resolve as
//!   [`BatchStatus::Cancelled`]; in-flight jobs run to completion; done
//!   jobs are untouched — race-free via the per-id ledger entry that
//!   workers and cancellers both lock.
//! * **Per-job timeout** ([`BatchConfig::job_timeout`]): a cooperative
//!   watchdog ([`crate::driver::TimeoutJob`]) on service time; on expiry
//!   the remaining functions take the spill-everything degraded fallback
//!   and the result is flagged [`DegradeCause::Timeout`] — never a lost
//!   id, never a held worker.
//!
//! The invariant all four preserve: **every accepted submission id
//! resolves exactly once** (Ok / Degraded / Failed / DeadlineExpired /
//! Cancelled), and a shed submission is resolved synchronously at the
//! submit call. The chaos harness ([`crate::driver::chaos`],
//! `loadgen --chaos`) drives overload against exactly this invariant.
//!
//! # Observation
//!
//! The service keeps its own [`MetricsRegistry`] (the `batch_*` names
//! below): submissions, completions by status, backpressure stalls, sheds,
//! expiries, cancellations, timeouts, queue wait, job run, end-to-end
//! histograms, and per-priority end-to-end histograms for accepted jobs. A
//! cloneable [`BatchHandle`] ([`BatchService::handle`]) reads live state —
//! queue depth, in-flight count, per-job statuses so far, an admission
//! snapshot, and a metrics snapshot with scrape-time gauges — without
//! touching the service's lifecycle; it is what the
//! [`crate::driver::status`] HTTP endpoint serves. Service metrics are
//! wall-clock and scheduling facts: they stay out of allocation results.
//!
//! Every per-job fact lives in one ledger behind one lock: each accepted
//! id's lifecycle entry, the results in completion order, the service
//! metrics, and the retained flight dumps. A worker touches it twice per
//! job — at pick-up and at resolve — and every outcome (ran, expired,
//! cancelled) resolves through the same path, so each read of the handle
//! (`/status` included) is one consistent snapshot. The service does not
//! score allocation quality; that is an offline pass
//! ([`crate::quality::score_program`]).
//!
//! # Request-scoped tracing
//!
//! Every submission gets a trace identity — its submission id, rendered
//! `req-<id>` — and a [`RequestTrace`]: queue-wait / service / end-to-end
//! durations plus a per-request [`Timeline`] whose clock starts at the
//! submission instant ([`TimelineCollector::enabled_since`]). The timeline
//! carries the queue-wait span, the shard workers' job and phase spans,
//! the driver's merge span, the whole service span, and a reply instant —
//! renderable directly by [`crate::trace::chrometrace`] and served per
//! request at `/trace/<id>`. Traces ride on [`BatchResult::trace`]; the
//! live service serves any completed job's trace from its ledger, and
//! [`BatchService::shutdown`] keeps the traces of the last 32 completed
//! jobs so `/trace/<id>` still answers for them afterwards. Like every
//! other scheduling fact they are quarantined — program output stays
//! byte-identical to serial.
//!
//! # Flight recorder
//!
//! The service owns an always-on [`FlightRecorder`]: lane 0 belongs to the
//! submission path (submit / backpressure / shed events), and each service
//! worker gets a contiguous lane block (its shard workers, then its
//! driver + service lane) via [`FlightRecorder::view`]. When a job
//! completes [`BatchStatus::Degraded`] or [`BatchStatus::Failed`], the
//! recorder is dumped automatically and the JSON retained in a small ring
//! of recent dumps — queryable, together with the live recorder, at
//! `/debug/flightrec`. Expiries and cancellations are recorded as flight
//! events but do not trigger dumps: under overload they are policy working
//! as intended, not anomalies.
//! Observatory alert transitions are not flight events: the observatory's
//! own transition log, served at `/alerts`, is their one record.
//!
//! [`TimelineCollector::enabled_since`]: crate::driver::timeline::TimelineCollector::enabled_since

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccra_analysis::FrequencyInfo;
use ccra_ir::{Program, RegClass};
use ccra_machine::{CostModel, RegisterFile};
use serde::json::Value;

use crate::driver::admission::{AdmissionConfig, AdmissionController, AdmissionSnapshot};
use crate::driver::chaos::{ChaosConfig, ChaosJob, Fault};
use crate::driver::flightrec::{FlightKind, FlightRecorder, FlightView};
use crate::driver::parallel::{AllocJob, DefaultJob, ParallelDriver, TimeoutJob};
use crate::driver::queue::{BoundedQueue, PushError, QueueStats};
use crate::driver::timeline::{
    InstantKind, Lane, SpanKind, Timeline, TimelineCollector, TimelineEvent,
};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::obsv::{AlertTransition, Observatory};
use crate::pipeline::AllocRequest;
use crate::pipeline::ProgramAllocation;
use crate::trace::chrometrace::to_chrome_trace;
use crate::trace::NoopSink;
use crate::types::AllocatorConfig;

/// Service counter: jobs accepted by `submit`/`try_submit`.
pub const METRIC_SUBMITTED: &str = "batch_jobs_submitted_total";
/// Service counter: jobs that completed with [`BatchStatus::Ok`].
pub const METRIC_COMPLETED: &str = "batch_jobs_completed_total";
/// Service counter: jobs that completed with [`BatchStatus::Degraded`].
pub const METRIC_DEGRADED: &str = "batch_jobs_degraded_total";
/// Service counter: jobs that completed with [`BatchStatus::Failed`].
pub const METRIC_FAILED: &str = "batch_jobs_failed_total";
/// Service counter: blocking submits that found the queue full and stalled.
pub const METRIC_STALLS: &str = "batch_backpressure_stalls_total";
/// Service counter: submissions shed by the admission limiter.
pub const METRIC_SHED: &str = "batch_jobs_shed_total";
/// Service counter: jobs whose deadline passed while queued
/// ([`BatchStatus::DeadlineExpired`]).
pub const METRIC_EXPIRED: &str = "batch_jobs_expired_total";
/// Service counter: queued jobs resolved by [`BatchHandle::cancel`].
pub const METRIC_CANCELLED: &str = "batch_jobs_cancelled_total";
/// Service counter: jobs whose service-time watchdog fired
/// ([`DegradeCause::Timeout`]).
pub const METRIC_TIMEOUTS: &str = "batch_jobs_timeout_total";
/// Service histogram: microseconds a job sat in the submission queue.
pub const METRIC_QUEUE_WAIT: &str = "batch_queue_wait_micros";
/// Service histogram: microseconds a job took to run (profiling included).
pub const METRIC_JOB_MICROS: &str = "batch_job_micros";
/// Service histogram: microseconds from submission to stored result —
/// queue wait plus service time, the submitter-visible latency.
pub const METRIC_E2E: &str = "batch_e2e_micros";
/// Per-priority end-to-end histogram, accepted jobs that produced an
/// allocation ([`Priority::Interactive`]).
pub const METRIC_E2E_INTERACTIVE: &str = "batch_e2e_micros_interactive";
/// Per-priority end-to-end histogram ([`Priority::Batch`]).
pub const METRIC_E2E_BATCH: &str = "batch_e2e_micros_batch";
/// Per-priority end-to-end histogram ([`Priority::Background`]).
pub const METRIC_E2E_BACKGROUND: &str = "batch_e2e_micros_background";

/// How many automatic flight-record dumps the service retains.
const FLIGHT_DUMP_KEEP: usize = 8;

/// How many request traces [`BatchService::shutdown`] keeps for
/// `/trace/<id>`: those of the most recently completed jobs.
const TRACE_KEEP: usize = 32;

/// Version of the `/status` document shape. v1 was the pre-observatory
/// document; v2 added `uptime_us` and this `build` object; v3 dropped
/// the `quality` object.
pub const STATUS_SCHEMA_VERSION: u32 = 3;

/// Sizing knobs for a [`BatchService`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Service workers — whole programs allocated concurrently (≥ 1).
    pub workers: usize,
    /// Submission-queue capacity; submitters beyond it block (≥ 1).
    pub queue_capacity: usize,
    /// Per-program [`ParallelDriver`] workers (1 = allocate each
    /// program's functions serially within its service worker).
    pub shard_workers: usize,
    /// The admission limiter; `None` (the default) keeps the legacy
    /// blocking-backpressure-only behavior. `Some` makes `submit` shed
    /// ([`RejectCause::Shed`]) when the AIMD window is full.
    pub admission: Option<AdmissionConfig>,
    /// A service-time watchdog per job; on expiry remaining functions
    /// take the degraded fallback and the result is flagged
    /// [`DegradeCause::Timeout`]. `None` (the default) runs unbounded.
    pub job_timeout: Option<Duration>,
    /// Deterministic fault injection ([`crate::driver::chaos`]); `None`
    /// (the default) injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// The content-addressed memo cache ([`crate::cache::AllocCache`]):
    /// every submission's functions are looked up before scheduling and
    /// strict results are inserted after, so repeat traffic replays warm
    /// allocations byte-identically. A shared `Arc` — hand the same cache
    /// to several services (or keep a handle to `invalidate`/`clear` it
    /// while the service runs). `None` (the default) allocates everything
    /// fresh.
    pub cache: Option<Arc<crate::cache::AllocCache>>,
    /// The ops observatory ([`crate::obsv`]): snapshots the service
    /// metrics into bounded time-series rings and evaluates alert rules
    /// each tick. The service runs no sampler of its own: ticks come from
    /// readers — the observatory's status routes and
    /// [`BatchHandle::obsv_tick`] — and the observatory's interval gate
    /// keeps them at most one per 2 s. `None` (the default) samples
    /// nothing. The observatory only reads service state — enabling it
    /// never changes any result's bytes.
    pub obsv: Option<crate::obsv::ObsvConfig>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: 2,
            queue_capacity: 16,
            shard_workers: 1,
            admission: None,
            job_timeout: None,
            chaos: None,
            cache: None,
            obsv: None,
        }
    }
}

/// A job's scheduling class: workers serve strictly by priority, EDF
/// within a class (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// A user is waiting (an editor, a REPL): served first.
    Interactive,
    /// Ordinary build traffic — the default.
    #[default]
    Batch,
    /// Best-effort work (prefetch, warming): served when nothing else
    /// waits.
    Background,
}

impl Priority {
    /// Every priority, highest first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Background];

    /// The scheduling rank (0 serves first).
    pub fn rank(self) -> u8 {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }

    /// A short label for serialized views.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }

    /// The per-priority end-to-end histogram this class reports into.
    pub fn e2e_metric(self) -> &'static str {
        match self {
            Priority::Interactive => METRIC_E2E_INTERACTIVE,
            Priority::Batch => METRIC_E2E_BATCH,
            Priority::Background => METRIC_E2E_BACKGROUND,
        }
    }
}

/// The `per_priority` object of `/status`'s `admission` section: for each
/// scheduling class, its completed-job count and end-to-end p50/p99 (log2
/// bucket upper bounds, microseconds) read from the class's histogram
/// ([`Priority::e2e_metric`]). A class that has completed nothing — its
/// histogram absent or empty — reports `{jobs: 0, p50: 0, p99: 0}` rather
/// than disappearing, so dashboards keyed on the class names never 404.
pub fn per_priority_latency(m: &MetricsRegistry) -> Value {
    let empty = Histogram::new();
    Value::Obj(
        Priority::ALL
            .iter()
            .map(|p| {
                let h = m.histogram(p.e2e_metric()).unwrap_or(&empty);
                let class = obj(vec![
                    ("jobs", int(h.count())),
                    ("p50", int(h.quantile(0.5))),
                    ("p99", int(h.quantile(0.99))),
                ]);
                (p.label().to_string(), class)
            })
            .collect(),
    )
}

/// One submission: a program plus the allocation parameters to run it
/// under, its scheduling class, and an optional deadline.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// A caller-chosen label, echoed in the result.
    pub name: String,
    /// The program to allocate.
    pub program: Program,
    /// The register file.
    pub file: RegisterFile,
    /// The allocator configuration.
    pub config: AllocatorConfig,
    /// The scheduling class ([`Priority::Batch`] by default).
    pub priority: Priority,
    /// A relative deadline, measured from the submit call: a job still
    /// queued when it passes resolves [`BatchStatus::DeadlineExpired`]
    /// without running. `None` waits indefinitely.
    pub deadline: Option<Duration>,
}

impl BatchJob {
    /// A default-priority job with no deadline.
    pub fn new(
        name: impl Into<String>,
        program: Program,
        file: RegisterFile,
        config: AllocatorConfig,
    ) -> Self {
        BatchJob {
            name: name.into(),
            program,
            file,
            config,
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a relative deadline (measured from the submit call).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The scheduling cost estimate: Σ over functions of instruction
    /// count × expected spill rounds, where the expected rounds grow with
    /// register pressure (virtual registers per integer register). Used
    /// to break deadline ties toward short jobs; it prices work, it never
    /// changes any result.
    pub fn estimated_cost(&self) -> u64 {
        let int_regs = self.file.regs(RegClass::Int).count().max(1) as u64;
        self.program
            .functions()
            .map(|(_, f)| {
                // +1 per block for the terminator.
                let instrs: u64 = f.blocks().map(|(_, b)| b.insts.len() as u64 + 1).sum();
                let expected_rounds = 1 + f.num_vregs() as u64 / int_regs;
                instrs * expected_rounds
            })
            .sum()
    }
}

/// Why a submission was rejected (see [`SubmitError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// The queue is at capacity (only [`BatchService::try_submit`]
    /// rejects with this; the blocking submit waits instead).
    QueueFull,
    /// The admission limiter shed the submission; retry after roughly the
    /// hinted number of microseconds.
    Shed {
        /// The limiter's retry-after hint, microseconds.
        retry_after_us: u64,
    },
    /// The queue is closed (the service is shutting down).
    ShuttingDown,
}

impl RejectCause {
    /// A short label for serialized views and logs.
    pub fn label(self) -> &'static str {
        match self {
            RejectCause::QueueFull => "queue_full",
            RejectCause::Shed { .. } => "shed",
            RejectCause::ShuttingDown => "shutting_down",
        }
    }
}

/// A rejected submission: the job rides back to the caller (nothing is
/// silently dropped) together with *why* it was rejected.
#[derive(Debug)]
pub struct SubmitError {
    /// The rejected job, returned for retry or reporting.
    pub job: BatchJob,
    /// Why it was rejected.
    pub cause: RejectCause,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cause {
            RejectCause::QueueFull => write!(f, "submission queue is at capacity"),
            RejectCause::Shed { retry_after_us } => write!(
                f,
                "shed by the admission limiter; retry after ~{retry_after_us}us"
            ),
            RejectCause::ShuttingDown => write!(f, "the service is shutting down"),
        }
    }
}

/// Why a job degraded (see [`BatchStatus::Degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeCause {
    /// The strict allocator failed (or panicked) on the degraded
    /// functions — the per-function fallback path.
    Alloc,
    /// The per-job service-time watchdog ([`BatchConfig::job_timeout`])
    /// fired; functions not yet allocated took the fallback.
    Timeout,
}

impl DegradeCause {
    /// A short label for serialized views.
    pub fn label(self) -> &'static str {
        match self {
            DegradeCause::Alloc => "alloc",
            DegradeCause::Timeout => "timeout",
        }
    }
}

/// How one batch job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchStatus {
    /// Every function allocated strictly.
    Ok,
    /// The program allocated, but some functions fell back to the
    /// degraded spill-everything allocation.
    Degraded {
        /// How many functions degraded.
        funcs: usize,
        /// Why they degraded.
        cause: DegradeCause,
    },
    /// The job produced no allocation (profiling failed, or the degraded
    /// fallback itself failed).
    Failed {
        /// The rendered error.
        error: String,
    },
    /// The job's deadline passed while it was queued; it never ran.
    DeadlineExpired,
    /// The job was cancelled while queued; it never ran.
    Cancelled,
}

impl BatchStatus {
    /// A short status label (`"ok"`, `"degraded"`, `"failed"`,
    /// `"deadline_expired"`, `"cancelled"`) for serialized views.
    pub fn label(&self) -> &'static str {
        match self {
            BatchStatus::Ok => "ok",
            BatchStatus::Degraded { .. } => "degraded",
            BatchStatus::Failed { .. } => "failed",
            BatchStatus::DeadlineExpired => "deadline_expired",
            BatchStatus::Cancelled => "cancelled",
        }
    }
}

/// The outcome of [`BatchHandle::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: it will resolve
    /// [`BatchStatus::Cancelled`] without running.
    Cancelled,
    /// A worker is running it; it runs to completion (allocation is not
    /// interruptible mid-function, and a half-cancelled result helps
    /// nobody).
    InFlight,
    /// Already resolved; cancelling is a no-op.
    Done,
    /// The id was never accepted (unknown, shed, or rejected).
    Unknown,
}

/// The request-scoped observability record of one submission: its trace
/// identity, queue-wait / service / end-to-end durations, and a timeline
/// whose clock starts at the submission instant.
///
/// Everything here is wall-clock and scheduling-dependent — quarantined
/// next to the result like [`crate::driver::DriverReport`], never inside
/// the allocation.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The submission id (the trace identity; rendered `req-<id>`).
    pub id: u64,
    /// The job's label.
    pub name: String,
    /// Microseconds the submission sat in the queue.
    pub queue_us: u64,
    /// Microseconds the service worker spent on it (profiling included).
    pub service_us: u64,
    /// Microseconds from submission to stored result.
    pub e2e_us: u64,
    /// The per-request timeline: queue-wait span, shard job/phase spans,
    /// driver merge, service span, reply instant. `ts = 0` is the
    /// submission instant.
    pub timeline: Timeline,
}

impl RequestTrace {
    /// The trace id as served by `/trace/<id>`.
    pub fn trace_id(&self) -> String {
        format!("req-{}", self.id)
    }

    /// The trace as a Chrome Trace Event Format value
    /// ([`crate::trace::chrometrace::to_chrome_trace`]) with the request's
    /// identity and latency split as extra top-level fields (Perfetto
    /// ignores unknown keys, so the object stays directly loadable).
    pub fn to_chrome_value(&self) -> Value {
        let mut fields = match to_chrome_trace(&self.timeline) {
            Value::Obj(fields) => fields,
            other => return other,
        };
        fields.push(("requestId".to_string(), Value::Str(self.trace_id())));
        fields.push(("requestName".to_string(), Value::Str(self.name.clone())));
        fields.push(("queueUs".to_string(), Value::Int(self.queue_us as i64)));
        fields.push(("serviceUs".to_string(), Value::Int(self.service_us as i64)));
        fields.push(("e2eUs".to_string(), Value::Int(self.e2e_us as i64)));
        Value::Obj(fields)
    }
}

/// The outcome of one submission.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The submission id [`BatchService::submit`] returned.
    pub id: u64,
    /// The label from the [`BatchJob`].
    pub name: String,
    /// How the job ended.
    pub status: BatchStatus,
    /// The allocation, present only when the job ran ([`BatchStatus::Ok`]
    /// or [`BatchStatus::Degraded`]).
    pub allocation: Option<ProgramAllocation>,
    /// Wall-clock microseconds the job took (profiling included); 0 when
    /// it never ran.
    pub micros: u64,
    /// The request-scoped trace; every result the service resolves
    /// carries one.
    pub trace: Option<RequestTrace>,
}

/// Where an accepted submission is in its lifecycle — the cancellation
/// state machine: `Queued → Running → Done`, with `Queued → Done` for
/// cancellations and expiries. Workers and cancellers serialize on the
/// ledger lock, so exactly one side wins each transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Queued {
        cancelled: bool,
    },
    Running,
    /// Resolved; its result sits at this position of [`Ledger::results`]
    /// until shutdown hands the results out.
    Done(usize),
}

/// The scheduling key workers pop the minimum of: priority class, then
/// earliest absolute deadline (deadline-less jobs sort after every
/// deadline in their class), then estimated cost, then submission id.
type OrderKey = (u8, (u8, Instant), u64, u64);

/// One accepted submission as it sits in the queue.
struct QueuedJob {
    id: u64,
    queued_at: Instant,
    deadline_at: Option<Instant>,
    order_key: OrderKey,
    job: BatchJob,
}

impl QueuedJob {
    fn new(id: u64, job: BatchJob) -> Self {
        let queued_at = Instant::now();
        let deadline_at = job.deadline.map(|d| queued_at + d);
        QueuedJob {
            id,
            queued_at,
            deadline_at,
            // The whole scheduling key is fixed at submit time, so compute
            // it once here — [`BoundedQueue::pop_min_by_key`] evaluates
            // the key O(depth) times per pop, and the estimated-cost term
            // walks every instruction of the program.
            order_key: (
                job.priority.rank(),
                match deadline_at {
                    Some(at) => (0, at),
                    None => (1, queued_at),
                },
                job.estimated_cost(),
                id,
            ),
            job,
        }
    }

    /// The precomputed [`OrderKey`] (see [`QueuedJob::new`]).
    fn order_key(&self) -> OrderKey {
        self.order_key
    }
}

/// Every per-job fact the service records, behind the one lock of
/// [`Shared::ledger`] (see the module docs).
#[derive(Default)]
struct Ledger {
    /// One lifecycle entry per accepted id.
    entries: HashMap<u64, Entry>,
    /// How many entries are [`Entry::Running`].
    running: u64,
    /// Resolved results in completion order.
    results: Vec<BatchResult>,
    /// The service metrics (the `batch_*` names).
    metrics: MetricsRegistry,
    /// Retained automatic flight dumps, oldest first, each tagged with the
    /// id whose resolution triggered it.
    dumps: VecDeque<(u64, Value)>,
    /// The traces [`BatchService::shutdown`] keeps after handing the
    /// results out.
    kept_traces: HashMap<u64, RequestTrace>,
}

impl Ledger {
    /// The result of a resolved id the ledger still holds.
    fn result(&self, id: u64) -> Option<&BatchResult> {
        match self.entries.get(&id) {
            Some(Entry::Done(at)) => self.results.get(*at),
            _ => None,
        }
    }

    /// The results held, sorted by submission id.
    fn results_by_id(&self) -> Vec<&BatchResult> {
        let mut done: Vec<&BatchResult> = self.results.iter().collect();
        done.sort_by_key(|r| r.id);
        done
    }
}

/// Functions a status says degraded.
fn degraded_of(status: &BatchStatus) -> usize {
    match status {
        BatchStatus::Degraded { funcs, .. } => *funcs,
        _ => 0,
    }
}

struct Shared {
    queue: BoundedQueue<QueuedJob>,
    ledger: Mutex<Ledger>,
    admission: Option<AdmissionController>,
    cost: CostModel,
    shard_workers: usize,
    job_timeout: Option<Duration>,
    chaos: Option<ChaosConfig>,
    cache: Option<Arc<crate::cache::AllocCache>>,
    flight: FlightRecorder,
    obsv: Option<Arc<Observatory>>,
    started: Instant,
}

impl Shared {
    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().expect("batch ledger lock")
    }

    /// The live metrics plus scrape-time gauges — the one snapshot shape
    /// both [`BatchHandle::metrics_snapshot`] and the observatory's ticks
    /// read.
    fn scraped_metrics(&self) -> MetricsRegistry {
        let ledger = self.ledger();
        let mut m = ledger.metrics.clone();
        m.gauge_set("batch_in_flight", ledger.running as f64);
        drop(ledger);
        let stats = self.queue.stats();
        m.gauge_set("batch_queue_depth", stats.depth as f64);
        m.gauge_set(
            "batch_queue_occupancy",
            stats.depth as f64 / stats.capacity as f64,
        );
        m.gauge_set("batch_queue_high_water", stats.high_water as f64);
        m.gauge_set("batch_queue_blocked_pushes", stats.blocked_pushes as f64);
        if let Some(adm) = &self.admission {
            let snap = adm.snapshot();
            m.gauge_set("batch_admission_limit", snap.limit);
            m.gauge_set("batch_admission_admitted", snap.admitted as f64);
        }
        if let Some(cache) = &self.cache {
            cache.publish(&mut m);
        }
        m
    }

    /// The pick-up transition of the state machine: a cancelled or
    /// expired job comes back as the status it resolves with, without
    /// running; anything else goes [`Entry::Running`].
    fn pick_up(&self, id: u64, deadline_at: Option<Instant>) -> Option<BatchStatus> {
        let mut ledger = self.ledger();
        if ledger.entries.get(&id) == Some(&Entry::Queued { cancelled: true }) {
            return Some(BatchStatus::Cancelled);
        }
        if deadline_at.is_some_and(|at| Instant::now() >= at) {
            return Some(BatchStatus::DeadlineExpired);
        }
        ledger.entries.insert(id, Entry::Running);
        ledger.running += 1;
        None
    }

    /// Resolves an accepted submission — the single exit of the per-id
    /// state machine, whether the job ran, expired, or was cancelled. One
    /// ledger acquisition counts the outcome, retains a flight dump for a
    /// degraded or failed job, and stores the result. The admission
    /// callback and the flight-recorder serialization run outside the
    /// lock.
    fn resolve(&self, queued_at: Instant, priority: Priority, result: BatchResult) {
        let e2e = queued_at.elapsed().as_micros() as u64;
        if let Some(adm) = &self.admission {
            match result.status {
                // A deadline miss is congestion evidence: back the window
                // off just like an over-SLO completion.
                BatchStatus::DeadlineExpired => adm.on_miss(),
                // Cancellation says nothing about load: free the slot,
                // leave the window alone.
                BatchStatus::Cancelled => adm.release(),
                _ => adm.on_complete(e2e),
            }
        }
        let dump = matches!(
            result.status,
            BatchStatus::Degraded { .. } | BatchStatus::Failed { .. }
        )
        .then(|| self.flight.dump());

        let mut guard = self.ledger();
        let ledger = &mut *guard;
        let m = &mut ledger.metrics;
        match &result.status {
            BatchStatus::DeadlineExpired => m.inc(METRIC_EXPIRED),
            BatchStatus::Cancelled => m.inc(METRIC_CANCELLED),
            ran => {
                m.observe(METRIC_QUEUE_WAIT, e2e.saturating_sub(result.micros));
                m.observe(METRIC_JOB_MICROS, result.micros);
                m.observe(METRIC_E2E, e2e);
                match ran {
                    BatchStatus::Failed { .. } => m.inc(METRIC_FAILED),
                    BatchStatus::Degraded { cause, .. } => {
                        m.inc(METRIC_DEGRADED);
                        if *cause == DegradeCause::Timeout {
                            m.inc(METRIC_TIMEOUTS);
                        }
                        m.observe(priority.e2e_metric(), e2e);
                    }
                    _ => {
                        m.inc(METRIC_COMPLETED);
                        m.observe(priority.e2e_metric(), e2e);
                    }
                }
            }
        }
        if let Some(dump) = dump {
            if ledger.dumps.len() >= FLIGHT_DUMP_KEEP {
                ledger.dumps.pop_front();
            }
            ledger.dumps.push_back((result.id, dump));
        }
        let done = Entry::Done(ledger.results.len());
        if ledger.entries.insert(result.id, done) == Some(Entry::Running) {
            ledger.running -= 1;
        }
        ledger.results.push(result);
    }
}

/// The batch allocation service (see the module docs).
pub struct BatchService {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    workers: Vec<JoinHandle<()>>,
}

/// One request's trace in the making: the collector whose clock starts at
/// the submission instant, the service lane, and the queue wait measured
/// at pick-up.
struct RequestClock {
    collector: TimelineCollector,
    lane: Lane,
    queue_us: u64,
}

impl RequestClock {
    /// Starts at pick-up: the queue wait is the time since submission.
    fn pick_up(queued_at: Instant, shard_workers: usize) -> Self {
        let collector = TimelineCollector::enabled_since(queued_at);
        let lane = collector.lane(shard_workers as u32 + 1);
        let queue_us = collector.now_us();
        RequestClock {
            collector,
            lane,
            queue_us,
        }
    }

    /// The trace tail every resolution shares: the queue-wait span from
    /// submission to pick-up, the reply instant, and the [`RequestTrace`]
    /// around `timeline` (the driver's, empty for a job that never ran).
    /// `unrun` labels the queue span and the reply of a job resolved
    /// without running.
    fn finish(
        mut self,
        id: u64,
        name: &str,
        mut timeline: Timeline,
        service_us: u64,
        unrun: Option<&str>,
    ) -> RequestTrace {
        timeline.events.push(TimelineEvent::Span {
            tid: self.lane.tid(),
            kind: SpanKind::Queue,
            name: "queue wait".to_string(),
            detail: unrun.map(str::to_string),
            start_us: 0,
            dur_us: self.queue_us,
        });
        self.lane.instant(InstantKind::Reply, || match unrun {
            Some(label) => format!("reply ({label})"),
            None => "reply".to_string(),
        });
        let e2e_us = self.collector.now_us();
        timeline.events.extend(self.lane.into_events());
        RequestTrace {
            id,
            name: name.to_string(),
            queue_us: self.queue_us,
            service_us,
            e2e_us,
            timeline,
        }
    }
}

/// Runs one submission on a service worker: records the service span and
/// service-level flight events, shards the program through
/// [`ParallelDriver`] under the request's clock, and assembles the
/// [`BatchResult`] with its [`RequestTrace`].
///
/// `flight` is the worker's lane block: shard workers record on view
/// lanes `0..shard_workers`, the service-level events land on view lane
/// `shard_workers` (written only by this thread, before the pool spawns
/// and after it joins).
fn run_batch_job(
    id: u64,
    job: BatchJob,
    shared: &Shared,
    flight: FlightView<'_>,
    queued_at: Instant,
) -> BatchResult {
    let start = Instant::now();
    let shard_workers = shared.shard_workers;
    let mut clock = RequestClock::pick_up(queued_at, shard_workers);
    flight.record(shard_workers as u32, FlightKind::JobStart, id, 0);
    let service_span = clock.lane.start();

    // Chaos: the per-submission fault is a pure function of (seed, id).
    // A latency spike is a service-level fault, applied once before the
    // driver; panic/error faults afflict every function via the job
    // wrapper below.
    let fault = shared
        .chaos
        .map_or(Fault::None, |chaos| chaos.fault_for(id));
    if fault == Fault::Spike {
        if let Some(chaos) = shared.chaos {
            std::thread::sleep(Duration::from_micros(chaos.spike_us));
        }
    }
    // The job the shard pool runs: the strict pipeline, optionally
    // wrapped in fault injection, optionally wrapped in the service-time
    // watchdog (the watchdog is outermost so a timed-out job cannot be
    // held up by injected work either).
    let default_job = DefaultJob;
    let chaos_job = ChaosJob::new(&default_job, fault, id);
    let inner: &dyn AllocJob = if matches!(fault, Fault::Panic | Fault::Error) {
        &chaos_job
    } else {
        &default_job
    };
    let timeout_job = shared
        .job_timeout
        .map(|t| TimeoutJob::new(inner, start + t));
    let job_ref: &dyn AllocJob = timeout_job.as_ref().map_or(inner, |t| t as &dyn AllocJob);

    let driver = ParallelDriver::new(shard_workers);
    let (status, allocation, timeline) = match FrequencyInfo::profile(&job.program) {
        Err(e) => (
            BatchStatus::Failed {
                error: format!("profiling failed: {e}"),
            },
            None,
            Timeline::empty(),
        ),
        Ok(freq) => {
            let req = AllocRequest {
                program: &job.program,
                freq: &freq,
                file: job.file,
                config: &job.config,
                cost: &shared.cost,
            };
            match driver.allocate_program_cached(
                &req,
                &mut NoopSink,
                &mut MetricsRegistry::disabled(),
                job_ref,
                &clock.collector,
                flight,
                shared.cache.as_deref(),
            ) {
                Err(e) => (
                    BatchStatus::Failed {
                        error: e.to_string(),
                    },
                    None,
                    Timeline::empty(),
                ),
                Ok((alloc, report, timeline)) => {
                    let degraded = report.degraded_funcs();
                    let status = if degraded == 0 {
                        BatchStatus::Ok
                    } else {
                        let cause = if timeout_job.as_ref().is_some_and(|t| t.fired()) {
                            DegradeCause::Timeout
                        } else {
                            DegradeCause::Alloc
                        };
                        BatchStatus::Degraded {
                            funcs: degraded,
                            cause,
                        }
                    };
                    (status, Some(alloc), timeline)
                }
            }
        }
    };

    let service_us = start.elapsed().as_micros() as u64;
    let (end_kind, end_payload) = match &status {
        BatchStatus::Ok => (FlightKind::JobOk, 0),
        BatchStatus::Degraded {
            funcs,
            cause: DegradeCause::Timeout,
        } => (FlightKind::Timeout, *funcs as u64),
        BatchStatus::Degraded { funcs, .. } => (FlightKind::JobDegraded, *funcs as u64),
        // A job that ran never expires or cancels; those resolve in
        // resolve_unrun.
        _ => (FlightKind::JobFailed, 0),
    };
    flight.record(shard_workers as u32, end_kind, id, end_payload);
    let name = job.name;
    clock.lane.end_span(service_span, SpanKind::Service, || {
        format!("req-{id} {name}")
    });
    let trace = clock.finish(id, &name, timeline, service_us, None);
    BatchResult {
        id,
        name,
        status,
        allocation,
        micros: service_us,
        trace: Some(trace),
    }
}

/// Resolves a submission that never ran (deadline expiry or
/// cancellation): no allocation and zero service time, but a flight event
/// and a trace with the queue wait and the reply, so the request's trace
/// tells the whole story.
fn resolve_unrun(
    id: u64,
    job: BatchJob,
    status: BatchStatus,
    shared: &Shared,
    flight: FlightView<'_>,
    queued_at: Instant,
) -> BatchResult {
    let clock = RequestClock::pick_up(queued_at, shared.shard_workers);
    let kind = if status == BatchStatus::Cancelled {
        FlightKind::Cancelled
    } else {
        FlightKind::DeadlineExpired
    };
    flight.record(shared.shard_workers as u32, kind, id, clock.queue_us);
    let trace = clock.finish(id, &job.name, Timeline::empty(), 0, Some(status.label()));
    BatchResult {
        id,
        name: job.name,
        status,
        allocation: None,
        micros: 0,
        trace: Some(trace),
    }
}

/// A cloneable, read-only view of a live [`BatchService`] (see
/// [`BatchService::handle`]).
///
/// The handle holds the service's shared state but not its lifecycle:
/// dropping it does nothing, and after [`BatchService::shutdown`] it keeps
/// answering (with an empty result set, since shutdown hands the results
/// to its caller).
#[derive(Clone)]
pub struct BatchHandle {
    shared: Arc<Shared>,
}

impl BatchHandle {
    /// Jobs queued but not yet picked up.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Jobs a worker is running right now.
    pub fn in_flight(&self) -> u64 {
        self.shared.ledger().running
    }

    /// The submission queue's traffic counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.shared.queue.stats()
    }

    /// Requests cancellation of submission `id` (see [`CancelOutcome`]):
    /// still queued → resolves [`BatchStatus::Cancelled`] without
    /// running; in flight → runs to completion; already resolved or never
    /// accepted → no-op. Race-free: the ledger lock serializes this
    /// against the worker's pick-up.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        match self.shared.ledger().entries.get_mut(&id) {
            Some(Entry::Queued { cancelled }) => {
                *cancelled = true;
                CancelOutcome::Cancelled
            }
            Some(Entry::Running) => CancelOutcome::InFlight,
            Some(Entry::Done(_)) => CancelOutcome::Done,
            None => CancelOutcome::Unknown,
        }
    }

    /// The admission limiter's live snapshot, when admission control is
    /// enabled.
    pub fn admission_snapshot(&self) -> Option<AdmissionSnapshot> {
        self.shared.admission.as_ref().map(|a| a.snapshot())
    }

    /// Per-job statuses of every completed job so far, sorted by
    /// submission id.
    pub fn statuses(&self) -> Vec<(u64, String, BatchStatus)> {
        self.shared
            .ledger()
            .results_by_id()
            .into_iter()
            .map(|r| (r.id, r.name.clone(), r.status.clone()))
            .collect()
    }

    /// Total functions that degraded across completed jobs.
    pub fn degraded_funcs(&self) -> usize {
        let ledger = self.shared.ledger();
        ledger.results.iter().map(|r| degraded_of(&r.status)).sum()
    }

    /// The service metrics plus scrape-time gauges (queue depth and
    /// occupancy, in-flight count, queue high-water and blocked pushes,
    /// and — when admission control is on — the limiter's window and
    /// admitted count).
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.shared.scraped_metrics()
    }

    /// The service's observatory, when [`BatchConfig::obsv`] was set.
    pub fn observatory(&self) -> Option<Arc<Observatory>> {
        self.shared.obsv.clone()
    }

    /// Offers the observatory a sample tick: [`Observatory::tick`]
    /// snapshots the live metrics, samples them and evaluates the alert
    /// rules only when a full interval has passed since its last sample,
    /// so a read that is not due copies nothing. The snapshot takes the
    /// ledger lock inside the observatory's; no path takes them in the
    /// other order. The status routes call this before they
    /// read; deterministic callers (tests, `loadgen --chaos`) call it
    /// after advancing a manual clock. Safe from any number of threads.
    /// Returns the tick's alert transitions; a no-op without an
    /// observatory.
    pub fn obsv_tick(&self) -> Vec<AlertTransition> {
        match &self.shared.obsv {
            Some(obsv) => obsv.tick(|| self.shared.scraped_metrics()),
            None => Vec::new(),
        }
    }

    /// The name of a critical alert rule currently firing, if any —
    /// what flips `/healthz` to 503.
    pub fn critical_alert(&self) -> Option<String> {
        self.shared.obsv.as_ref()?.critical_firing()
    }

    /// Microseconds since the service started.
    pub fn uptime_us(&self) -> u64 {
        self.shared.started.elapsed().as_micros() as u64
    }

    /// [`BatchHandle::metrics_snapshot`] in the Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus_text()
    }

    /// The [`RequestTrace`] of submission `id`, if the service still holds
    /// it: any completed job's while the service runs, and after shutdown
    /// those of the last 32 jobs to complete.
    pub fn trace(&self, id: u64) -> Option<RequestTrace> {
        let ledger = self.shared.ledger();
        match ledger.result(id) {
            Some(r) => r.trace.clone(),
            None => ledger.kept_traces.get(&id).cloned(),
        }
    }

    /// The trace of submission `id` rendered as Chrome-trace JSON
    /// ([`RequestTrace::to_chrome_value`]) — what `/trace/<id>` serves.
    pub fn trace_chrome_json(&self, id: u64) -> Option<String> {
        self.trace(id).map(|t| t.to_chrome_value().to_json())
    }

    /// The flight-recorder document served at `/debug/flightrec`: the live
    /// recorder dump plus the retained automatic dumps (most recent last),
    /// each tagged with the submission id that triggered it.
    pub fn flightrec_value(&self) -> Value {
        let retained = self
            .shared
            .ledger()
            .dumps
            .iter()
            .map(|(id, dump)| {
                Value::Obj(vec![
                    ("id".to_string(), Value::Int(*id as i64)),
                    ("dump".to_string(), dump.clone()),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("live".to_string(), self.shared.flight.dump()),
            ("dumps".to_string(), Value::Arr(retained)),
        ])
    }

    /// The live status document served at `/status`:
    ///
    /// ```json
    /// {"uptime_us": 1234567,
    ///  "build": {"crate_version": "0.1.0", "status_schema": 3},
    ///  "queue_depth": 0, "in_flight": 1, "completed": 2,
    ///  "degraded_funcs": 0,
    ///  "jobs": [{"id": 0, "name": "eqntott", "status": "ok",
    ///            "degraded_funcs": 0, "micros": 1234}, ...]}
    /// ```
    ///
    /// Failed jobs carry an extra `"error"` string; degraded jobs an extra
    /// `"degrade_cause"` (`"alloc"` or `"timeout"`). A `"latency"` object
    /// reports the queue-wait / service / end-to-end SLO quantiles
    /// (log2-bucket upper bounds, microseconds) alongside the mean and
    /// sample count:
    ///
    /// ```json
    /// {"latency": {"queue_wait": {"p50": 15, "p95": 63, "p99": 63,
    ///                             "mean_us": 21.5, "count": 4}, ...}}
    /// ```
    ///
    /// An `"admission"` object reports the overload posture — the
    /// limiter's window and in-system count (when enabled), the shed /
    /// expired / cancelled / timeout counters, and per-priority
    /// end-to-end quantiles for accepted jobs:
    ///
    /// ```json
    /// {"admission": {"enabled": true, "limit": 12.0, "admitted": 3,
    ///                "slo_us": 50000, "shed": 5, "expired": 2,
    ///                "cancelled": 1, "timeouts": 0,
    ///                "per_priority": {"interactive": {"jobs": 9,
    ///                    "p50": 1023, "p99": 4095}, ...}}}
    /// ```
    ///
    /// A `"cache"` object reports the memo cache when
    /// [`BatchConfig::cache`] is set — occupancy, traffic, and hit rate
    /// (just `{"enabled": false}` otherwise):
    ///
    /// ```json
    /// {"cache": {"enabled": true, "entries": 42, "bytes": 81920,
    ///            "budget_bytes": 67108864, "hits": 990, "misses": 10,
    ///            "hit_rate": 0.99, "insertions": 10, "evictions": 0}}
    /// ```
    pub fn status_value(&self) -> Value {
        // One ledger snapshot: the jobs, their counts and the metrics
        // cannot disagree however many jobs complete meanwhile.
        let ledger = self.shared.ledger();
        let done = ledger.results_by_id();
        let degraded_funcs: usize = done.iter().map(|r| degraded_of(&r.status)).sum();
        let jobs = done
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("id", int(r.id)),
                    ("name", Value::Str(r.name.clone())),
                    ("status", Value::Str(r.status.label().to_string())),
                    ("degraded_funcs", int(degraded_of(&r.status) as u64)),
                    ("micros", int(r.micros)),
                ];
                match &r.status {
                    BatchStatus::Degraded { cause, .. } => {
                        fields.push(("degrade_cause", Value::Str(cause.label().to_string())));
                    }
                    BatchStatus::Failed { error } => {
                        fields.push(("error", Value::Str(error.clone())));
                    }
                    _ => {}
                }
                obj(fields)
            })
            .collect();
        let m = &ledger.metrics;
        let empty = Histogram::new();
        let latency_of = |name: &str| {
            let h = m.histogram(name).unwrap_or(&empty);
            obj(vec![
                ("p50", int(h.quantile(0.5))),
                ("p95", int(h.quantile(0.95))),
                ("p99", int(h.quantile(0.99))),
                ("mean_us", Value::Float(h.mean())),
                ("count", int(h.count())),
            ])
        };
        let latency = obj(vec![
            ("queue_wait", latency_of(METRIC_QUEUE_WAIT)),
            ("service", latency_of(METRIC_JOB_MICROS)),
            ("e2e", latency_of(METRIC_E2E)),
        ]);
        let mut admission = vec![("enabled", Value::Bool(self.shared.admission.is_some()))];
        if let Some(adm) = &self.shared.admission {
            let snap = adm.snapshot();
            admission.extend([
                ("limit", Value::Float(snap.limit)),
                ("admitted", int(snap.admitted as u64)),
                ("slo_us", int(adm.config().slo_us)),
            ]);
        }
        admission.extend([
            ("shed", int(m.counter(METRIC_SHED))),
            ("expired", int(m.counter(METRIC_EXPIRED))),
            ("cancelled", int(m.counter(METRIC_CANCELLED))),
            ("timeouts", int(m.counter(METRIC_TIMEOUTS))),
            ("per_priority", per_priority_latency(m)),
        ]);
        let counts = [
            ("in_flight", int(ledger.running)),
            ("completed", int(done.len() as u64)),
            ("degraded_funcs", int(degraded_funcs as u64)),
        ];
        drop(ledger);
        let mut cache = vec![("enabled", Value::Bool(self.shared.cache.is_some()))];
        if let Some(c) = &self.shared.cache {
            let stats = c.stats();
            cache.extend([
                ("entries", int(stats.entries)),
                ("bytes", int(stats.bytes)),
                ("budget_bytes", int(stats.byte_budget)),
                ("hits", int(stats.hits)),
                ("misses", int(stats.misses)),
                ("hit_rate", Value::Float(stats.hit_rate())),
                ("insertions", int(stats.insertions)),
                ("evictions", int(stats.evictions)),
            ]);
        }
        let mut doc = vec![
            ("uptime_us", int(self.uptime_us())),
            (
                "build",
                obj(vec![
                    (
                        "crate_version",
                        Value::Str(env!("CARGO_PKG_VERSION").to_string()),
                    ),
                    ("status_schema", int(u64::from(STATUS_SCHEMA_VERSION))),
                ]),
            ),
            ("queue_depth", int(self.queue_depth() as u64)),
        ];
        doc.extend(counts);
        doc.extend([
            ("latency", latency),
            ("admission", obj(admission)),
            ("cache", obj(cache)),
            ("jobs", Value::Arr(jobs)),
        ]);
        obj(doc)
    }
}

/// A JSON object from borrowed keys.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON integer from a count.
fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

impl BatchService {
    /// Starts the service: spawns [`BatchConfig::workers`] threads that
    /// drain the submission queue until [`BatchService::shutdown`], each
    /// allocating under the paper's cost model.
    pub fn start(config: BatchConfig) -> Self {
        let service_workers = config.workers.max(1);
        let shard_workers = config.shard_workers.max(1);
        // Flight lanes: lane 0 is the submission path; each service worker
        // `w` owns the contiguous block starting at `1 + w * (shard + 1)`
        // (its shard workers, then its driver/service lane).
        let flight_lanes = 1 + service_workers * (shard_workers + 1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            ledger: Mutex::new(Ledger::default()),
            admission: config.admission.map(AdmissionController::new),
            cost: CostModel::paper(),
            shard_workers,
            job_timeout: config.job_timeout,
            chaos: config.chaos,
            cache: config.cache,
            flight: FlightRecorder::new(flight_lanes),
            obsv: config.obsv.map(|c| Arc::new(Observatory::new(c))),
            started: Instant::now(),
        });
        let workers = (0..service_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let lane_base = (1 + w * (shard_workers + 1)) as u32;
                std::thread::spawn(move || {
                    while let Some(queued) = shared.queue.pop_min_by_key(QueuedJob::order_key) {
                        let QueuedJob {
                            id,
                            queued_at,
                            deadline_at,
                            job,
                            ..
                        } = queued;
                        let priority = job.priority;
                        let flight = shared.flight.view(lane_base);
                        let result = match shared.pick_up(id, deadline_at) {
                            Some(status) => {
                                resolve_unrun(id, job, status, &shared, flight, queued_at)
                            }
                            None => run_batch_job(id, job, &shared, flight, queued_at),
                        };
                        shared.resolve(queued_at, priority, result);
                    }
                })
            })
            .collect();
        BatchService {
            shared,
            next_id: AtomicU64::new(0),
            workers,
        }
    }

    /// A read-only live view of the service (cheap to clone; see
    /// [`BatchHandle`]).
    pub fn handle(&self) -> BatchHandle {
        BatchHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Admission + ledger registration preamble shared by both submit
    /// paths: sheds when the limiter's window is full, otherwise marks
    /// the id `Queued` *before* the queue push so a worker can never pop
    /// a job the ledger does not know.
    fn admit(&self, id: u64, job: BatchJob) -> Result<QueuedJob, SubmitError> {
        if let Some(adm) = &self.shared.admission {
            if let Err(retry_after_us) = adm.try_admit() {
                self.shared.ledger().metrics.inc(METRIC_SHED);
                self.shared
                    .flight
                    .record(0, FlightKind::Shed, id, retry_after_us);
                return Err(SubmitError {
                    job,
                    cause: RejectCause::Shed { retry_after_us },
                });
            }
        }
        self.shared
            .ledger()
            .entries
            .insert(id, Entry::Queued { cancelled: false });
        Ok(QueuedJob::new(id, job))
    }

    /// Rolls back [`BatchService::admit`] when the queue turns out to be
    /// closed (or, for `try_submit`, full): the id leaves the ledger and
    /// the admission slot is freed.
    fn unadmit(&self, id: u64) {
        self.shared.ledger().entries.remove(&id);
        if let Some(adm) = &self.shared.admission {
            adm.release();
        }
    }

    /// Submits a job, blocking while the queue is at capacity
    /// (backpressure). Returns the submission id its result will carry.
    ///
    /// # Errors
    ///
    /// [`RejectCause::Shed`] when the admission limiter's window is full
    /// (with a retry-after hint) and [`RejectCause::ShuttingDown`] when
    /// the queue is closed — in both cases [`SubmitError::job`] hands the
    /// job back. Submission ids are unique and increasing but may have
    /// gaps (a rejected submission consumes one).
    pub fn submit(&self, job: BatchJob) -> Result<u64, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let queued = self.admit(id, job)?;
        // Try the fast path first so a stall (queue at capacity) is
        // observable as a metric before we block.
        let queued = match self.shared.queue.try_push(queued) {
            Ok(()) => {
                self.note_submit(id);
                return Ok(id);
            }
            Err(PushError::Closed(q)) => {
                self.unadmit(id);
                return Err(SubmitError {
                    job: q.job,
                    cause: RejectCause::ShuttingDown,
                });
            }
            Err(PushError::Full(q)) => {
                self.shared.ledger().metrics.inc(METRIC_STALLS);
                self.shared
                    .flight
                    .record(0, FlightKind::BackpressureEngage, id, 0);
                q
            }
        };
        match self.shared.queue.push(queued) {
            Ok(()) => {
                self.shared
                    .flight
                    .record(0, FlightKind::BackpressureRelease, id, 0);
                self.note_submit(id);
                Ok(id)
            }
            Err(e) => {
                self.unadmit(id);
                Err(SubmitError {
                    job: e.into_inner().job,
                    cause: RejectCause::ShuttingDown,
                })
            }
        }
    }

    /// Submits without blocking; the caller sheds load on a full queue.
    ///
    /// # Errors
    ///
    /// [`RejectCause::QueueFull`] when the queue is at capacity,
    /// [`RejectCause::Shed`] when the admission limiter trips, and
    /// [`RejectCause::ShuttingDown`] when the queue is closed — the job
    /// rides back on every one.
    ///
    /// Submission ids are unique and increasing but may have gaps (a
    /// rejected submission consumes one).
    pub fn try_submit(&self, job: BatchJob) -> Result<u64, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let queued = self.admit(id, job)?;
        match self.shared.queue.try_push(queued) {
            Ok(()) => {
                self.note_submit(id);
                Ok(id)
            }
            Err(e) => {
                self.unadmit(id);
                let cause = match &e {
                    PushError::Full(_) => RejectCause::QueueFull,
                    PushError::Closed(_) => RejectCause::ShuttingDown,
                };
                Err(SubmitError {
                    job: e.into_inner().job,
                    cause,
                })
            }
        }
    }

    fn note_submit(&self, id: u64) {
        self.shared.flight.record(0, FlightKind::Submit, id, 0);
        self.shared.ledger().metrics.inc(METRIC_SUBMITTED);
    }

    /// Jobs queued but not yet picked up.
    pub fn pending(&self) -> usize {
        self.shared.queue.len()
    }

    /// Closes the queue, drains the remaining jobs (expired and cancelled
    /// ones resolve without running), joins the workers, and returns
    /// every result sorted by submission id. The handle keeps serving the
    /// traces of the last 32 jobs to complete.
    pub fn shutdown(self) -> Vec<BatchResult> {
        self.shared.queue.close();
        for handle in self.workers {
            handle.join().expect("batch workers do not panic");
        }
        let mut ledger = self.shared.ledger();
        let mut results = std::mem::take(&mut ledger.results);
        ledger.kept_traces = results
            .iter()
            .rev()
            .take(TRACE_KEEP)
            .filter_map(|r| Some((r.id, r.trace.clone()?)))
            .collect();
        drop(ledger);
        results.sort_by_key(|r| r.id);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccra_ir::FunctionBuilder;

    fn job(name: &str, stmts: usize) -> BatchJob {
        let mut b = FunctionBuilder::new(name);
        let x = b.new_vreg(RegClass::Int);
        b.iconst(x, 1);
        for _ in 0..stmts {
            let y = b.new_vreg(RegClass::Int);
            b.iconst(y, 2);
        }
        b.ret(Some(x));
        let mut program = Program::new();
        let id = program.add_function(b.finish());
        program.set_main(id);
        BatchJob::new(
            name,
            program,
            RegisterFile::mips_full(),
            AllocatorConfig::improved(),
        )
    }

    /// Satellite pin: precomputing the whole [`OrderKey`] at submit must
    /// not change scheduling — popping by the stored key yields exactly
    /// the order of recomputing the key from the job on every comparison
    /// (the pre-change behavior).
    #[test]
    fn precomputed_order_key_preserves_pop_order() {
        let make_jobs = || {
            let mut jobs = Vec::new();
            for (i, (priority, deadline, stmts)) in [
                (Priority::Batch, None, 40),
                (Priority::Interactive, Some(Duration::from_secs(5)), 10),
                (Priority::Background, None, 5),
                (Priority::Batch, Some(Duration::from_secs(1)), 80),
                (Priority::Batch, None, 3),
                (Priority::Interactive, None, 90),
                (Priority::Batch, Some(Duration::from_secs(9)), 3),
                (Priority::Background, Some(Duration::from_secs(2)), 60),
            ]
            .into_iter()
            .enumerate()
            {
                let mut j = job(&format!("job-{i}"), stmts).with_priority(priority);
                j.deadline = deadline;
                jobs.push(QueuedJob::new(i as u64, j));
            }
            jobs
        };

        // Two queues over the same submissions: one popped by the stored
        // key, one by a key recomputed from the job every time.
        let stored = BoundedQueue::new(16);
        let recomputed = BoundedQueue::new(16);
        for q in make_jobs() {
            // Rebuild the second copy with identical timestamps so the
            // deadline terms agree exactly.
            recomputed
                .try_push(QueuedJob {
                    id: q.id,
                    queued_at: q.queued_at,
                    deadline_at: q.deadline_at,
                    order_key: q.order_key,
                    job: q.job.clone(),
                })
                .ok()
                .expect("fits");
            stored.try_push(q).ok().expect("fits");
        }
        let fresh_key = |q: &QueuedJob| {
            (
                q.job.priority.rank(),
                match q.deadline_at {
                    Some(at) => (0, at),
                    None => (1, q.queued_at),
                },
                q.job.estimated_cost(),
                q.id,
            )
        };
        let mut stored_order = Vec::new();
        let mut recomputed_order = Vec::new();
        stored.close();
        recomputed.close();
        while let Some(q) = stored.pop_min_by_key(QueuedJob::order_key) {
            stored_order.push(q.id);
        }
        while let Some(q) = recomputed.pop_min_by_key(fresh_key) {
            recomputed_order.push(q.id);
        }
        assert_eq!(stored_order.len(), 8);
        assert_eq!(stored_order, recomputed_order);
        // And the stored key really is the recomputed key, term for term.
        for q in make_jobs() {
            assert_eq!(q.order_key(), fresh_key(&q));
        }
    }
}
