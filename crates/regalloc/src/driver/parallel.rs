//! The parallel allocation driver: shard a [`ccra_ir::Program`] into per-function
//! jobs, allocate them on the work-stealing pool, and merge the results
//! deterministically.
//!
//! # Determinism
//!
//! Per-function allocation is a pure function of `(function, frequencies,
//! register file, config, cost model)` — exactly the property the serial
//! pipeline already has — so the driver recovers byte-identical output at
//! any worker count by confining nondeterminism to *scheduling* and
//! merging in **function-id order** (a documented invariant of
//! [`ccra_ir::Program`]: ids are dense and in insertion order):
//!
//! * rewritten bodies and [`FuncAllocation`]s are placed by id, so the
//!   result equals [`crate::allocate_program_instrumented`]'s exactly;
//! * each job records telemetry into a private [`RecordingSink`] and a
//!   private [`MetricsRegistry`]; the driver fans events into the program
//!   sink and merges registries in id order, so the merged event stream
//!   (wall-clock normalized) and every merged counter equal the serial
//!   run's;
//! * scheduling facts (which worker ran what, steal counts, the timeline,
//!   the flight record) never touch the allocation result or the program
//!   registry — they live in [`DriverReport`], the returned [`Timeline`]
//!   and the caller's flight recorder only.
//!
//! # Observation
//!
//! [`ParallelDriver::allocate_program_cached`] is the driver's only entry
//! point; every instrument it takes can be switched off. Under an enabled
//! [`TimelineCollector`] each worker records job/steal/idle spans on a
//! private lane (see [`crate::driver::timeline`]), and each job's
//! [`PhaseSpan`] events are mirrored as nested phase spans on the worker's
//! lane. A disabled collector costs one branch per event site.
//!
//! The [`FlightView`] records job start/end, steal, degrade and cache
//! events in the always-on flight recorder; a caller that wants the record
//! of a degraded run dumps its recorder
//! ([`crate::driver::FlightRecorder::dump_json`]), as the batch service
//! does. Like the timeline, flight data is scheduling quarantine — it
//! never touches allocation results.
//!
//! # Failure isolation
//!
//! A job whose strict allocation returns an [`AllocError`] falls back to
//! [`crate::degraded_allocation`] *inside the job*, through the same
//! recovery helper as the serial driver. A job that **panics** is caught by the pool; the driver
//! then runs the degraded fallback for that function on the calling
//! thread. Either way the function is flagged ([`JobStatus::Degraded`],
//! plus the usual `degraded` telemetry event) and every sibling job
//! completes untouched. Only a failure of the fallback itself — a register
//! file below the ABI minimum — aborts the batch, mirroring the serial
//! contract.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ccra_ir::Function;

use crate::cache::{config_fingerprint, file_fingerprint, AllocCache, CacheKey};
use crate::driver::flightrec::{FlightKind, FlightView};
use crate::driver::pool::{run_jobs_observed, JobOutcome};
use crate::driver::timeline::{Lane, SpanKind, Timeline, TimelineCollector};
use crate::error::AllocError;
use crate::metrics::MetricsRegistry;
use crate::pipeline::{
    allocate_function_instrumented, fall_back, finish_program, AllocRequest, FuncAllocation,
    JobCtx, ProgramAllocation,
};
use crate::trace::{span_start, AllocEvent, AllocSink, PhaseSpan, RecordingSink};

/// The strict per-function allocation one driver job runs.
///
/// The default ([`DefaultJob`]) is [`crate::allocate_function_instrumented`];
/// tests and experiments plug alternatives in through the `job` argument
/// of [`ParallelDriver::allocate_program_cached`] — most usefully jobs
/// that *fail* on selected functions, which is how the fault-isolation
/// tests exercise the degraded path without a contrived register file.
///
/// An `Err` triggers the degraded fallback for that function; a panic is
/// caught by the pool and triggers the same fallback.
pub trait AllocJob: Sync {
    /// Allocates one function, emitting telemetry into job-local layers.
    fn run(
        &self,
        ctx: &JobCtx<'_>,
        sink: &mut dyn AllocSink,
        metrics: &mut MetricsRegistry,
    ) -> Result<(Function, FuncAllocation), AllocError>;
}

/// The default job: the strict serial pipeline,
/// [`crate::allocate_function_instrumented`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultJob;

impl AllocJob for DefaultJob {
    fn run(
        &self,
        ctx: &JobCtx<'_>,
        sink: &mut dyn AllocSink,
        metrics: &mut MetricsRegistry,
    ) -> Result<(Function, FuncAllocation), AllocError> {
        allocate_function_instrumented(ctx, sink, metrics)
    }
}

/// An [`AllocJob`] wrapper enforcing a service-time watchdog: once the
/// wall-clock deadline passes, every remaining function fails with
/// [`AllocError::DeadlineExceeded`] instead of running — which the driver
/// turns into the spill-everything degraded fallback, so an overrunning
/// job finishes *degraded, fast, and accounted for* rather than holding a
/// worker indefinitely.
///
/// The check is cooperative and per-function: functions already allocated
/// when the deadline fires keep their strict results (the degraded
/// fallback is per-function, not per-job). [`TimeoutJob::fired`] reports
/// whether the watchdog tripped, so the batch layer can label the result's
/// degradation cause `Timeout` without parsing reason strings.
pub struct TimeoutJob<'a> {
    inner: &'a dyn AllocJob,
    deadline: Instant,
    fired: AtomicBool,
}

impl<'a> TimeoutJob<'a> {
    /// Wraps `inner` with a wall-clock deadline.
    pub fn new(inner: &'a dyn AllocJob, deadline: Instant) -> Self {
        TimeoutJob {
            inner,
            deadline,
            fired: AtomicBool::new(false),
        }
    }

    /// Whether any function hit the deadline.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

impl AllocJob for TimeoutJob<'_> {
    fn run(
        &self,
        ctx: &JobCtx<'_>,
        sink: &mut dyn AllocSink,
        metrics: &mut MetricsRegistry,
    ) -> Result<(Function, FuncAllocation), AllocError> {
        if Instant::now() >= self.deadline {
            self.fired.store(true, Ordering::Relaxed);
            return Err(AllocError::DeadlineExceeded {
                func: ctx.func.name().to_string(),
            });
        }
        self.inner.run(ctx, sink, metrics)
    }
}

/// How one function's job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The strict allocator succeeded.
    Ok,
    /// The function fell back to the degraded spill-everything allocation.
    Degraded {
        /// The strict failure (an [`AllocError`] rendering, or
        /// `"worker panicked: …"`).
        reason: String,
    },
}

impl JobStatus {
    /// Whether this job degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, JobStatus::Degraded { .. })
    }

    /// Whether this job degraded because its worker panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, JobStatus::Degraded { reason } if reason.starts_with("worker panicked"))
    }
}

/// What the driver did, beyond the allocation itself: per-job statuses
/// (deterministic, in function-id order) and the scheduling facts
/// (nondeterministic — diagnostics only).
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Worker threads actually used.
    pub workers: usize,
    /// Jobs each worker executed.
    pub jobs_per_worker: Vec<u64>,
    /// Jobs taken from another worker's deque.
    pub steals: u64,
    /// Per-function outcome, indexed by function id.
    pub statuses: Vec<JobStatus>,
}

impl DriverReport {
    /// How many functions degraded.
    pub fn degraded_funcs(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_degraded()).count()
    }

    /// The report folded into a [`DriverSummary`].
    ///
    /// `total_jobs`, `panics`, and `degraded` are deterministic (they
    /// derive from the per-function statuses, which are merged in id
    /// order) and safe to assert exactly in tests; `steals` is a
    /// scheduling fact and only safe to assert loosely.
    pub fn summary(&self) -> DriverSummary {
        DriverSummary {
            workers: self.workers,
            total_jobs: self.statuses.len() as u64,
            degraded: self.degraded_funcs(),
            panics: self.statuses.iter().filter(|s| s.is_panicked()).count(),
            steals: self.steals,
        }
    }
}

/// A [`DriverReport`] folded down to the numbers worth printing after a
/// batch (see [`DriverReport::summary`] for which are deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverSummary {
    /// Worker threads actually used.
    pub workers: usize,
    /// Functions allocated.
    pub total_jobs: u64,
    /// Functions that fell back to the degraded allocation (includes the
    /// panicked ones).
    pub degraded: usize,
    /// Functions whose job panicked (a subset of `degraded`).
    pub panics: usize,
    /// Jobs taken from another worker's deque.
    pub steals: u64,
}

impl std::fmt::Display for DriverSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} job(s) on {} worker(s): {} degraded ({} panicked), {} steal(s)",
            self.total_jobs, self.workers, self.degraded, self.panics, self.steals
        )
    }
}

/// What one job sends back to the merge: its result (or the fallback's
/// own failure), its recorded event substream, and its metrics.
struct JobReturn {
    result: Result<(Function, FuncAllocation, JobStatus), AllocError>,
    events: Vec<AllocEvent>,
    metrics: MetricsRegistry,
}

/// An [`AllocSink`] shim that mirrors [`PhaseSpan`] events onto a timeline
/// lane as nested phase spans (back-dated: the event is emitted right as
/// the phase ends, so `start = now - micros`) while forwarding everything
/// to the job's recorder, if any. Without a recorder it wants the phase
/// timings only, so the pipeline builds no other event for it.
struct PhaseTap<'a> {
    inner: Option<&'a mut RecordingSink>,
    lane: &'a mut Lane,
}

impl AllocSink for PhaseTap<'_> {
    fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn times_phases(&self) -> bool {
        self.inner.is_some() || self.lane.enabled()
    }

    fn emit(&mut self, event: AllocEvent) {
        if self.lane.enabled() {
            if let AllocEvent::Phase(PhaseSpan {
                phase,
                round,
                micros,
                ..
            }) = &event
            {
                let (phase, round, micros) = (phase.clone(), *round, *micros);
                self.lane.backdated_span(
                    SpanKind::Phase,
                    micros,
                    || phase,
                    || Some(format!("round {round}")),
                );
            }
        }
        if let Some(r) = self.inner.as_mut() {
            r.emit(event);
        }
    }
}

/// The parallel allocation driver (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ParallelDriver {
    workers: usize,
}

impl ParallelDriver {
    /// A driver using up to `workers` threads (clamped to ≥ 1; also
    /// clamped per batch to the function count).
    pub fn new(workers: usize) -> Self {
        ParallelDriver {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Allocates every function of a program in parallel with a custom
    /// per-function [`AllocJob`] (usually [`DefaultJob`]) under a
    /// [`TimelineCollector`], a flight-recorder window, and an optional
    /// content-addressed memo cache, returning the merged driver
    /// [`Timeline`] alongside the allocation and report. Mirrors
    /// [`crate::allocate_program_instrumented`]: the merged event stream
    /// (wall-clock normalized) and the merged counters equal the serial
    /// run's. Pass [`TimelineCollector::disabled`],
    /// `FlightRecorder::disabled().view(0)` and `None` for a plain run.
    ///
    /// With a cache, every function is looked up before anything is
    /// scheduled: hits replay the stored rewritten body and
    /// [`FuncAllocation`] (status [`JobStatus::Ok`], no phase spans — the
    /// timeline records a [`SpanKind::CacheHit`] span instead), only
    /// misses become pool jobs, and the merge interleaves both strictly in
    /// function-id order, so output is byte-identical to a cold run at any
    /// worker count. Fresh strict results are inserted after merge;
    /// degraded results are never cached. Cache lookups happen on the
    /// calling thread, so their flight events ([`FlightKind::CacheHit`],
    /// [`FlightKind::CacheMiss`], [`FlightKind::CacheEvict`]) land on view
    /// lane 0. The cache's own [`AllocCache::stats`] count hits, misses
    /// and evictions (never the allocation metrics), and
    /// `alloc_functions_total` counts only functions actually allocated.
    ///
    /// Worker lanes are `0..workers`; the driver thread's merge span lands
    /// on lane `workers`. With a disabled collector the timeline comes
    /// back empty. Flight lanes mirror timeline lanes (worker `w` records
    /// on view lane `w`).
    ///
    /// # Errors
    ///
    /// Propagates the first (in function-id order) failure of the degraded
    /// fallback; strict-allocation failures and job panics degrade instead
    /// (see the module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn allocate_program_cached(
        &self,
        req: &AllocRequest<'_>,
        sink: &mut dyn AllocSink,
        metrics: &mut MetricsRegistry,
        job: &dyn AllocJob,
        collector: &TimelineCollector,
        flight: FlightView<'_>,
        cache: Option<&AllocCache>,
    ) -> Result<(ProgramAllocation, DriverReport, Timeline), AllocError> {
        let start = span_start(sink);
        let prog_timer = metrics.timer();
        let sink_on = sink.enabled();
        let metrics_on = metrics.enabled();
        let program = req.program;
        let all_ids: Vec<ccra_ir::FuncId> = program.func_ids().collect();

        // Consult the memo cache before scheduling anything. `replayed`
        // and `miss_keys` are parallel to `all_ids`; only misses reach the
        // pool.
        let mut replayed: Vec<Option<(Function, FuncAllocation)>>;
        let mut miss_keys: Vec<Option<CacheKey>>;
        let miss_ids: Vec<ccra_ir::FuncId>;
        if let Some(cache) = cache {
            let cfg_fp = config_fingerprint(req.config, req.cost);
            let file_fp = file_fingerprint(&req.file);
            replayed = Vec::with_capacity(all_ids.len());
            miss_keys = Vec::with_capacity(all_ids.len());
            let mut misses = Vec::new();
            for &id in &all_ids {
                let key = cache.key(
                    program.function(id),
                    req.freq.mode(),
                    req.freq.func(id),
                    cfg_fp,
                    file_fp,
                );
                match cache.get(&key) {
                    Some(entry) => {
                        flight.record(0, FlightKind::CacheHit, u64::from(id.0), 0);
                        replayed.push(Some(entry));
                        miss_keys.push(None);
                    }
                    None => {
                        flight.record(0, FlightKind::CacheMiss, u64::from(id.0), 0);
                        replayed.push(None);
                        miss_keys.push(Some(key));
                        misses.push(id);
                    }
                }
            }
            miss_ids = misses;
        } else {
            replayed = vec![None; all_ids.len()];
            miss_keys = vec![None; all_ids.len()];
            miss_ids = all_ids.clone();
        }

        let (outcomes, stats, scratches) = run_jobs_observed(
            self.workers,
            &miss_ids,
            collector,
            flight,
            |index, &id, scratch| {
                let ctx = req.job(id);
                let tid = scratch.lane.tid();
                if scratch.lane.enabled() {
                    scratch.job_label = Some(ctx.func.name().to_string());
                }
                let mut recorder = sink_on.then(RecordingSink::new);
                let mut tap = PhaseTap {
                    inner: recorder.as_mut(),
                    lane: &mut scratch.lane,
                };
                let mut job_metrics = if metrics_on {
                    MetricsRegistry::new()
                } else {
                    MetricsRegistry::disabled()
                };
                let result = match job.run(&ctx, &mut tap, &mut job_metrics) {
                    Ok((body, alloc)) => Ok((body, alloc, JobStatus::Ok)),
                    Err(err) => {
                        let reason = err.to_string();
                        flight.record(tid, FlightKind::JobDegraded, index as u64, 0);
                        fall_back(&ctx, &reason, &mut tap, &mut job_metrics)
                            .map(|(body, alloc)| (body, alloc, JobStatus::Degraded { reason }))
                    }
                };
                JobReturn {
                    result,
                    events: recorder.map(|r| r.events).unwrap_or_default(),
                    metrics: job_metrics,
                }
            },
        );

        let mut lanes: Vec<Vec<_>> = Vec::with_capacity(scratches.len() + 1);
        lanes.extend(scratches.into_iter().map(|s| s.lane.into_events()));
        let mut driver_lane = collector.lane(stats.workers as u32);
        let merge_span = driver_lane.start();

        // Deterministic merge: strictly in function-id order, regardless
        // of which worker finished when, interleaving cache replays with
        // fresh pool results.
        let mut funcs = Vec::with_capacity(all_ids.len());
        let mut statuses = Vec::with_capacity(all_ids.len());
        let mut fresh = miss_ids.iter().zip(outcomes);
        for (pos, &id) in all_ids.iter().enumerate() {
            let (body, alloc, status) = if let Some((body, alloc)) = replayed[pos].take() {
                driver_lane.backdated_span(
                    SpanKind::CacheHit,
                    0,
                    || program.function(id).name().to_string(),
                    || None,
                );
                (body, alloc, JobStatus::Ok)
            } else {
                let (&miss_id, outcome) = fresh.next().expect("one pool outcome per miss");
                debug_assert_eq!(miss_id, id);
                let (body, alloc, status) = match outcome {
                    JobOutcome::Completed(ret) => {
                        for event in ret.events {
                            sink.emit(event);
                        }
                        metrics.merge(&ret.metrics);
                        ret.result?
                    }
                    JobOutcome::Panicked(msg) => {
                        // The job's partial telemetry died with it; recover on
                        // the calling thread against the program-level layers.
                        let reason = format!("worker panicked: {msg}");
                        let (body, alloc) = fall_back(&req.job(id), &reason, sink, metrics)?;
                        (body, alloc, JobStatus::Degraded { reason })
                    }
                };
                // Memoize only strict results: a degraded allocation is a
                // recovery artifact, not the pure function's value.
                if let (Some(cache), Some(key), JobStatus::Ok) = (cache, miss_keys[pos], &status) {
                    let ins = cache.insert(key, &body, &alloc);
                    if ins.evicted > 0 {
                        flight.record(0, FlightKind::CacheEvict, u64::from(id.0), ins.evicted);
                    }
                }
                (body, alloc, status)
            };
            funcs.push((body, alloc));
            statuses.push(status);
        }
        let alloc = finish_program(req, funcs, start, prog_timer, sink, metrics);
        driver_lane.end_span(merge_span, SpanKind::Merge, || "merge".to_string());
        lanes.push(driver_lane.into_events());
        Ok((
            alloc,
            DriverReport {
                workers: stats.workers,
                jobs_per_worker: stats.jobs_per_worker,
                steals: stats.steals,
                statuses,
            },
            Timeline::merge(stats.workers, lanes),
        ))
    }
}
