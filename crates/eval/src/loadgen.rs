//! The open-loop load generator behind the `loadgen` binary: drive a live
//! [`BatchService`] the way a compile service is actually loaded and
//! measure the serving-path latency SLOs.
//!
//! Closed-loop benchmarks (submit, wait, submit) measure service time but
//! hide queueing: the submitter politely waits, so the queue never grows
//! and queue-wait reads as zero. The load generator is **open-loop**:
//! submission times come from an exponential inter-arrival clock that does
//! not care whether the service keeps up, so when arrivals outpace
//! service, jobs genuinely queue and the queue-wait histogram measures
//! something real. Job sizes are heavy-tailed (a bounded Pareto over
//! function counts) because compile workloads are: most programs are
//! small, a few are not, and the tail is what SLOs are about. The
//! distributions live in [`crate::traffic`].
//!
//! The run double-checks the service's bookkeeping: every submission id
//! must come back exactly once ([`LoadgenReport::lost`] /
//! [`LoadgenReport::duplicated`] stay empty), which CI asserts at several
//! worker counts.
//!
//! Everything is deterministic except the clock: the job stream derives
//! from [`LoadgenConfig::seed`] alone, so two runs submit byte-identical
//! programs; only the measured latencies differ.
//!
//! # Chaos mode
//!
//! [`run_chaosload`] (the binary's `--chaos` flag) is the overload
//! variant: a storm-shaped stream ([`TrafficShape::storm`] — priority
//! mix, deadlines on interactive jobs, burst arrivals) floods a service
//! configured with admission control, a per-job timeout, and seeded fault
//! injection (panics, allocator errors, latency spikes), a subset of
//! queued jobs is cancelled mid-storm, and a closed-loop trickle then
//! verifies the limiter recovers to full admission. The report asserts
//! the service's core overload invariant: **every accepted id resolves
//! exactly once** (ok / degraded / failed / expired / cancelled), no id
//! is lost, duplicated, or invented, and shed submissions produce no
//! result at all.
//!
//! The chaos service also runs the ops observatory
//! ([`ccra_regalloc::Observatory`]) on an injected [`ManualClock`]: the
//! harness ticks it at fixed points (during the storm, after the drain,
//! through the trickle, and over an idle tail), so the SLO burn-rate
//! alert deterministically **fires** during the storm and **resolves**
//! once the storm interval ages out of the short burn window. The
//! observatory's e2e SLO is pinned to half the injected spike length —
//! the seeded latency spikes alone push the over-SLO fraction far past
//! the burn threshold, independent of host speed. The alert cycle and
//! the sampled history go into the report's [`AlertEntry`] rows and the
//! CI artifacts.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use ccra_regalloc::driver::batch::{METRIC_E2E, METRIC_JOB_MICROS, METRIC_QUEUE_WAIT};
use ccra_regalloc::obsv::{BURN_SHORT_WINDOW, RAW_INTERVAL_US, RULE_E2E_BURN};
use ccra_regalloc::{
    AdmissionConfig, AlertRuleStats, AlertState, AllocCache, BatchConfig, BatchJob, BatchResult,
    BatchService, BatchStatus, CancelOutcome, ChaosConfig, Clock, ManualClock, Observatory,
    ObsvConfig, Priority, RejectCause, SubmitError, Tier,
};
use serde::Serialize;

use crate::traffic::{arrival_gaps, job_stream as stream_for_shape, TrafficShape};

/// The three latency series a load-generator run measures, with the
/// service histogram each reads.
pub const LATENCY_SERIES: [(&str, &str); 3] = [
    ("queue_wait", METRIC_QUEUE_WAIT),
    ("service", METRIC_JOB_MICROS),
    ("e2e", METRIC_E2E),
];

/// One latency series of the serving path, measured driving a live
/// [`BatchService`] open-loop at one worker count. Quantiles are
/// log2-bucket upper bounds ([`ccra_regalloc::Histogram::quantile`]),
/// microseconds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyEntry {
    /// Which latency: `"queue_wait"`, `"service"`, or `"e2e"`.
    pub series: String,
    /// Service workers the batch ran with.
    pub workers: u64,
    /// Jobs the run completed (the histogram's sample count).
    pub jobs: u64,
    /// Median, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Arithmetic mean, microseconds.
    pub mean_us: f64,
}

/// One priority class's end-to-end latency in an overload run
/// ([`AdmissionEntry`]). Quantiles are log2-bucket upper bounds,
/// microseconds, over accepted jobs that produced an allocation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PriorityLatency {
    /// The priority label (`"interactive"`, `"batch"`, `"background"`).
    pub priority: String,
    /// Accepted jobs of this class that ran.
    pub jobs: u64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_us: u64,
}

/// The overload accounting of one chaos storm at one worker count: what
/// the admission limiter shed, what expired or was cancelled in the
/// queue, what the watchdog timed out, and how each priority class's
/// tail latency fared.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdmissionEntry {
    /// Service workers the storm ran against.
    pub workers: u64,
    /// Submissions attempted (sheds included).
    pub submitted: u64,
    /// Submissions accepted (an id was issued).
    pub accepted: u64,
    /// Submissions the admission limiter shed.
    pub shed: u64,
    /// Accepted jobs whose deadline passed while queued.
    pub expired: u64,
    /// Accepted jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs whose service-time watchdog fired.
    pub timeouts: u64,
    /// Per-priority end-to-end quantiles of accepted jobs.
    pub per_priority: Vec<PriorityLatency>,
}

/// One alert rule's activity during a chaos storm at one worker count,
/// as the ops observatory saw it: how many times the rule fired, the
/// worst value it observed while firing (for the SLO rule, the peak burn
/// rate — a multiple of the error budget), and how long the last cycle
/// took to clear after the storm subsided.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AlertEntry {
    /// Service workers the storm ran against.
    pub workers: u64,
    /// The alert rule name (e.g. `"e2e_p99_slo_burn"`).
    pub rule: String,
    /// Fire transitions across the run.
    pub fires: u64,
    /// Worst (largest-magnitude) value observed while firing.
    pub worst_value: f64,
    /// Microseconds from the last fire to its clear (0 if never fired
    /// or still firing at the end of the run).
    pub time_to_clear_us: u64,
}

/// Sizing and shape knobs of one load-generator run.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Jobs to submit.
    pub jobs: usize,
    /// Service workers ([`BatchConfig::workers`]).
    pub workers: usize,
    /// Per-program shard workers ([`BatchConfig::shard_workers`]).
    pub shard_workers: usize,
    /// Submission-queue capacity ([`BatchConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Mean inter-arrival gap, microseconds (the exponential clock's
    /// mean; 0 = submit as fast as the queue accepts).
    pub mean_gap_us: u64,
    /// The RNG seed the whole job stream derives from.
    pub seed: u64,
    /// Per-mille of submissions that are byte-identical re-submissions of
    /// earlier jobs ([`TrafficShape::rerun_per_mille`]). When > 0 the
    /// service runs with a shared memo cache, so the reruns hit warm.
    pub rerun_per_mille: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            jobs: 64,
            workers: 2,
            shard_workers: 1,
            queue_capacity: 16,
            mean_gap_us: 500,
            seed: 1997,
            rerun_per_mille: 0,
        }
    }
}

impl LoadgenConfig {
    /// The steady traffic shape this config drives.
    fn shape(&self) -> TrafficShape {
        TrafficShape::steady(self.jobs, self.seed, self.mean_gap_us)
            .with_rerun_per_mille(self.rerun_per_mille)
    }
}

/// What one load-generator run measured and verified.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Service workers the run used.
    pub workers: u64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Results collected.
    pub completed: u64,
    /// Results with [`ccra_regalloc::BatchStatus::Ok`].
    pub ok: u64,
    /// Results that degraded.
    pub degraded: u64,
    /// Results that failed outright.
    pub failed: u64,
    /// Submission ids that never produced a result (must be empty).
    pub lost: Vec<u64>,
    /// Submission ids that produced more than one result (must be empty).
    pub duplicated: Vec<u64>,
    /// The measured queue-wait / service / end-to-end series.
    pub latency: Vec<LatencyEntry>,
    /// Memo-cache hits over the run (0 when the run had no cache, i.e.
    /// [`LoadgenConfig::rerun_per_mille`] was 0).
    pub cache_hits: u64,
    /// Memo-cache misses over the run (0 when the run had no cache).
    pub cache_misses: u64,
}

impl LoadgenReport {
    /// Whether every submission came back exactly once.
    pub fn accounting_clean(&self) -> bool {
        self.lost.is_empty() && self.duplicated.is_empty()
    }
}

/// The deterministic job stream of a run: `jobs` fuzz programs whose
/// function counts follow the bounded Pareto. Exposed so tests can assert
/// the stream is a pure function of the seed.
pub fn job_stream(cfg: &LoadgenConfig) -> Vec<BatchJob> {
    stream_for_shape(&cfg.shape())
}

/// Runs the load generator: submits the seeded job stream open-loop
/// (blocking on backpressure), shuts the service down, verifies the
/// id accounting, and reads the latency histograms. Calls `progress`
/// every `jobs / 8`-ish submissions with (submitted, queue depth).
pub fn run_loadgen(
    cfg: &LoadgenConfig,
    mut progress: impl FnMut(usize, usize),
) -> (LoadgenReport, Vec<BatchResult>) {
    // Rerun traffic gets a memo cache, so byte-identical re-submissions
    // actually replay warm allocations.
    let cache = (cfg.rerun_per_mille > 0).then(|| Arc::new(AllocCache::default()));
    let service = BatchService::start(BatchConfig {
        workers: cfg.workers.max(1),
        queue_capacity: cfg.queue_capacity.max(1),
        shard_workers: cfg.shard_workers.max(1),
        cache: cache.clone(),
        ..BatchConfig::default()
    });
    let handle = service.handle();
    let gaps = arrival_gaps(&cfg.shape());
    let stride = (cfg.jobs / 8).max(1);
    let mut submitted_ids = Vec::with_capacity(cfg.jobs);
    for (i, (job, gap_us)) in job_stream(cfg).into_iter().zip(gaps).enumerate() {
        // Open loop: the gap is drawn before submit and slept regardless
        // of how the service is doing; `submit` then blocks only if the
        // queue is at capacity (that stall is the backpressure metric).
        if gap_us > 0 {
            std::thread::sleep(Duration::from_micros(gap_us));
        }
        let id = service.submit(job).expect("queue open while submitting");
        submitted_ids.push(id);
        if (i + 1) % stride == 0 {
            progress(i + 1, handle.queue_depth());
        }
    }
    let results = service.shutdown();

    let (lost, duplicated, phantom) = account_ids(&submitted_ids, &results);
    assert!(
        phantom.is_empty(),
        "results for ids that were never submitted: {phantom:?}"
    );
    let metrics = handle.metrics_snapshot();
    let latency = LATENCY_SERIES
        .iter()
        .map(|&(series, metric)| {
            let (p50, p95, p99, mean, count) =
                metrics.histogram(metric).map_or((0, 0, 0, 0.0, 0), |h| {
                    (
                        h.quantile(0.5),
                        h.quantile(0.95),
                        h.quantile(0.99),
                        h.mean(),
                        h.count(),
                    )
                });
            LatencyEntry {
                series: series.to_string(),
                workers: cfg.workers as u64,
                jobs: count,
                p50_us: p50,
                p95_us: p95,
                p99_us: p99,
                mean_us: mean,
            }
        })
        .collect();
    let count_status =
        |pred: fn(&BatchStatus) -> bool| results.iter().filter(|r| pred(&r.status)).count() as u64;
    let report = LoadgenReport {
        workers: cfg.workers as u64,
        submitted: submitted_ids.len() as u64,
        completed: results.len() as u64,
        ok: count_status(|s| matches!(s, BatchStatus::Ok)),
        degraded: count_status(|s| matches!(s, BatchStatus::Degraded { .. })),
        failed: count_status(|s| matches!(s, BatchStatus::Failed { .. })),
        lost,
        duplicated,
        latency,
        cache_hits: cache.as_ref().map_or(0, |c| c.stats().hits),
        cache_misses: cache.as_ref().map_or(0, |c| c.stats().misses),
    };
    (report, results)
}

/// Exactly-once accounting: (lost, duplicated, phantom) — accepted ids
/// with no result, accepted ids with several, and result ids that were
/// never accepted.
fn account_ids(accepted: &[u64], results: &[BatchResult]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut lost = Vec::new();
    let mut duplicated = Vec::new();
    for &id in accepted {
        match results.iter().filter(|r| r.id == id).count() {
            0 => lost.push(id),
            1 => {}
            _ => duplicated.push(id),
        }
    }
    let phantom = results
        .iter()
        .map(|r| r.id)
        .filter(|id| !accepted.contains(id))
        .collect();
    (lost, duplicated, phantom)
}

/// Sizing and shape knobs of one chaos-storm run ([`run_chaosload`]).
#[derive(Debug, Clone, Copy)]
pub struct ChaosloadConfig {
    /// Storm jobs (submitted as fast as the shape's clock allows —
    /// deliberately past capacity).
    pub jobs: usize,
    /// Recovery-trickle jobs submitted closed-loop after the storm.
    pub trickle: usize,
    /// Service workers.
    pub workers: usize,
    /// Per-program shard workers.
    pub shard_workers: usize,
    /// Submission-queue capacity.
    pub queue_capacity: usize,
    /// The seed the storm stream, the arrival clock, and the injected
    /// faults all derive from.
    pub seed: u64,
    /// The admission limiter's end-to-end latency SLO, microseconds.
    pub slo_us: u64,
    /// The admission window ceiling (in-system jobs at full admission).
    pub max_limit: usize,
    /// The per-job service-time watchdog, microseconds.
    pub job_timeout_us: u64,
    /// The injected latency-spike length, microseconds. Kept under the
    /// SLO by default so a spiked trickle job still counts on-time and
    /// recovery stays deterministic.
    pub spike_us: u64,
    /// Mean storm inter-arrival gap, microseconds (0 = flood).
    pub mean_gap_us: u64,
    /// Every `cancel_every`-th storm submission cancels a recent pending
    /// id (0 = no cancellations).
    pub cancel_every: usize,
    /// Per-mille of storm submissions that are byte-identical
    /// re-submissions ([`TrafficShape::rerun_per_mille`]); > 0 also gives
    /// the stormed service a memo cache.
    pub rerun_per_mille: u32,
}

impl Default for ChaosloadConfig {
    fn default() -> Self {
        ChaosloadConfig {
            jobs: 200,
            trickle: 48,
            workers: 2,
            shard_workers: 1,
            queue_capacity: 32,
            seed: 1997,
            slo_us: 30_000,
            max_limit: 32,
            job_timeout_us: 2_000_000,
            spike_us: 10_000,
            mean_gap_us: 0,
            cancel_every: 17,
            rerun_per_mille: 0,
        }
    }
}

/// What one chaos-storm run measured and verified.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Service workers the run used.
    pub workers: u64,
    /// Submissions attempted (storm + trickle, sheds included).
    pub submitted: u64,
    /// Submissions the service accepted (an id was issued).
    pub accepted: u64,
    /// Submissions the admission limiter shed.
    pub shed: u64,
    /// Accepted jobs that completed [`BatchStatus::Ok`].
    pub ok: u64,
    /// Accepted jobs that degraded (injected faults and timeouts land
    /// here).
    pub degraded: u64,
    /// Accepted jobs that failed outright.
    pub failed: u64,
    /// Accepted jobs whose deadline passed while queued.
    pub expired: u64,
    /// Accepted jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs whose service-time watchdog fired (a subset of `degraded`).
    pub timeouts: u64,
    /// Cancellation calls that caught the job still queued.
    pub cancel_hits: u64,
    /// Accepted ids that never produced a result (must be empty).
    pub lost: Vec<u64>,
    /// Accepted ids that produced more than one result (must be empty).
    pub duplicated: Vec<u64>,
    /// Result ids that were never accepted (must be empty — a shed
    /// submission must produce nothing).
    pub phantom: Vec<u64>,
    /// Per-priority end-to-end quantiles of accepted jobs that produced
    /// an allocation.
    pub per_priority: Vec<PriorityLatency>,
    /// End-to-end p99 (microseconds) across accepted jobs that ran.
    pub accepted_p99_us: u64,
    /// The admission window after the recovery trickle.
    pub final_limit: f64,
    /// The admission window ceiling the run was configured with.
    pub max_limit: f64,
    /// Memo-cache hits over the run (0 when the run had no cache).
    pub cache_hits: u64,
    /// Memo-cache misses over the run (0 when the run had no cache).
    pub cache_misses: u64,
    /// The service's flight-recorder document (live dump + retained
    /// automatic dumps) — written out as a CI artifact when an invariant
    /// fails.
    pub flight: serde::json::Value,
    /// Per-rule observatory alert stats at the end of the run.
    pub alert_stats: Vec<AlertRuleStats>,
    /// The observatory's `/alerts` document (rules + transition log).
    pub alerts_value: serde::json::Value,
    /// Raw-tier history of every sampled series — the `--obsv-dump`
    /// artifact body.
    pub obsv_history: serde::json::Value,
}

impl ChaosReport {
    /// Whether every accepted id resolved exactly once — and only
    /// accepted ids did.
    pub fn accounting_clean(&self) -> bool {
        self.lost.is_empty()
            && self.duplicated.is_empty()
            && self.phantom.is_empty()
            && self.accepted
                == self.ok + self.degraded + self.failed + self.expired + self.cancelled
    }

    /// Whether the limiter regrew to (essentially) full admission after
    /// the storm — recovery is completion-driven, so a healthy trickle
    /// must restore the window.
    pub fn limiter_recovered(&self) -> bool {
        self.final_limit >= 0.9 * self.max_limit
    }

    /// Whether interactive latency beat background latency at the tail —
    /// the point of priority scheduling under overload. Vacuously true
    /// when either class has no samples.
    pub fn priorities_ordered(&self) -> bool {
        let p99 = |label: &str| {
            self.per_priority
                .iter()
                .find(|p| p.priority == label && p.jobs > 0)
                .map(|p| p.p99_us)
        };
        match (p99("interactive"), p99("background")) {
            (Some(i), Some(b)) => i < b,
            _ => true,
        }
    }

    /// Whether the SLO burn alert completed a full cycle: fired at least
    /// once during the storm and stands resolved at the end of the run.
    pub fn slo_alert_cycled(&self) -> bool {
        self.alert_stats
            .iter()
            .any(|s| s.rule == RULE_E2E_BURN && s.fires >= 1 && s.state == AlertState::Inactive)
    }

    /// The alert rows this run measured: one entry per rule that fired.
    pub fn alert_entries(&self) -> Vec<AlertEntry> {
        self.alert_stats
            .iter()
            .filter(|s| s.fires > 0)
            .map(|s| AlertEntry {
                workers: self.workers,
                rule: s.rule.clone(),
                fires: s.fires,
                worst_value: s.worst_value,
                time_to_clear_us: s.time_to_clear_us,
            })
            .collect()
    }

    /// The admission row this run measured.
    pub fn admission_entry(&self) -> AdmissionEntry {
        AdmissionEntry {
            workers: self.workers,
            submitted: self.submitted,
            accepted: self.accepted,
            shed: self.shed,
            expired: self.expired,
            cancelled: self.cancelled,
            timeouts: self.timeouts,
            per_priority: self.per_priority.clone(),
        }
    }
}

/// Runs the chaos storm (see the module docs): floods a service that has
/// admission control, a per-job timeout, and seeded fault injection
/// enabled, cancels a subset of queued jobs mid-storm, then trickles
/// closed-loop until the limiter regrows. Calls `progress` with
/// (submissions attempted, queue depth) as the storm advances.
pub fn run_chaosload(
    cfg: &ChaosloadConfig,
    mut progress: impl FnMut(usize, usize),
) -> (ChaosReport, Vec<BatchResult>) {
    let admission = AdmissionConfig {
        slo_us: cfg.slo_us.max(1),
        max_limit: cfg.max_limit.max(1),
    };
    let chaos = ChaosConfig {
        seed: cfg.seed,
        panic_per_mille: 40,
        error_per_mille: 40,
        spike_per_mille: 60,
        spike_us: cfg.spike_us,
    };
    let cache = (cfg.rerun_per_mille > 0).then(|| Arc::new(AllocCache::default()));
    // The ops observatory rides on the storm with an injected manual
    // clock — the harness ticks it at fixed points below, so the alert
    // timeline is the same on every host. Its e2e SLO is half the
    // injected spike length: the seeded spikes (6% of traffic, each ≥
    // one full spike over this SLO) guarantee an over-SLO fraction far
    // past the 2× burn threshold during the storm, however fast the
    // machine is.
    let obsv_clock = Arc::new(ManualClock::new());
    let obsv_cfg = ObsvConfig {
        clock: Arc::clone(&obsv_clock) as Arc<dyn Clock>,
        sampler_thread: false,
        e2e_slo_us: (cfg.spike_us / 2).max(1),
    };
    let service = BatchService::start(BatchConfig {
        workers: cfg.workers.max(1),
        queue_capacity: cfg.queue_capacity.max(1),
        shard_workers: cfg.shard_workers.max(1),
        admission: Some(admission),
        job_timeout: Some(Duration::from_micros(cfg.job_timeout_us.max(1))),
        chaos: Some(chaos),
        cache: cache.clone(),
        obsv: Some(obsv_cfg),
    });
    let handle = service.handle();
    // One deterministic sample: advance the manual clock a full interval,
    // then tick the observatory through the service handle (the handle
    // records alert transitions into the flight recorder).
    let obsv_tick = || {
        obsv_clock.advance(RAW_INTERVAL_US);
        handle.obsv_tick();
    };
    let storm = TrafficShape::storm(cfg.jobs, cfg.seed, cfg.mean_gap_us)
        .with_rerun_per_mille(cfg.rerun_per_mille);
    let gaps = arrival_gaps(&storm);
    let mut accepted: Vec<u64> = Vec::with_capacity(cfg.jobs);
    let mut submitted = 0u64;
    let mut shed = 0u64;
    let mut cancel_hits = 0u64;
    let mut cancelled_ids: BTreeSet<u64> = BTreeSet::new();
    for (i, (job, gap_us)) in stream_for_shape(&storm).into_iter().zip(gaps).enumerate() {
        if gap_us > 0 {
            std::thread::sleep(Duration::from_micros(gap_us));
        }
        submitted += 1;
        match service.submit(job) {
            Ok(id) => accepted.push(id),
            Err(SubmitError {
                cause: RejectCause::Shed { .. },
                ..
            }) => shed += 1,
            Err(e) => panic!("storm submit rejected unexpectedly: {e}"),
        }
        // Mid-storm cancellations: aim a few submissions back, where the
        // job is plausibly still queued; any outcome (queued, in flight,
        // done) is legitimate — the accounting check below is what must
        // hold regardless. Cancel is idempotent, so hits count unique
        // ids, not raw calls (the same victim can be picked twice).
        if cfg.cancel_every > 0 && (i + 1) % cfg.cancel_every == 0 {
            if let Some(&victim) = accepted.get(accepted.len().saturating_sub(5)) {
                if handle.cancel(victim) == CancelOutcome::Cancelled && cancelled_ids.insert(victim)
                {
                    cancel_hits += 1;
                }
            }
        }
        // Mid-storm samples: the queue-delay and burn series see the
        // overload build up.
        if (i + 1) % 25 == 0 {
            obsv_tick();
        }
        progress(i + 1, handle.queue_depth());
    }

    // Let the backlog drain (bounded wait) before measuring recovery.
    let drain_deadline = std::time::Instant::now() + Duration::from_secs(60);
    while (handle.queue_depth() > 0 || handle.in_flight() > 0)
        && std::time::Instant::now() < drain_deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    // The post-drain sample sees every storm completion that hadn't been
    // sampled yet — the tick where the burn alert is guaranteed to be
    // firing.
    obsv_tick();

    // The recovery trickle: closed-loop (each job completes before the
    // next submit), so every on-time completion grows the window one
    // step. Shed retries honor the limiter's hint.
    let trickle = TrafficShape::steady(cfg.trickle, cfg.seed ^ 0x7A1C, 0);
    let mut trickled = 0usize;
    for mut job in stream_for_shape(&trickle) {
        loop {
            submitted += 1;
            match service.submit(job) {
                Ok(id) => {
                    accepted.push(id);
                    break;
                }
                Err(SubmitError {
                    job: returned,
                    cause: RejectCause::Shed { retry_after_us },
                }) => {
                    shed += 1;
                    job = returned;
                    std::thread::sleep(Duration::from_micros(retry_after_us.clamp(100, 5_000)));
                }
                Err(e) => panic!("trickle submit rejected unexpectedly: {e}"),
            }
        }
        let job_deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (handle.queue_depth() > 0 || handle.in_flight() > 0)
            && std::time::Instant::now() < job_deadline
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        trickled += 1;
        if trickled.is_multiple_of(4) {
            obsv_tick();
        }
    }
    // The idle tail: enough empty intervals to flush the storm (and any
    // spiked trickle job) out of the short burn window, so the alert
    // resolves before the run ends — an idle interval reads burn 0.
    for _ in 0..=BURN_SHORT_WINDOW {
        obsv_tick();
    }

    let final_limit = handle.admission_snapshot().map_or(0.0, |s| s.limit);
    let flight = handle.flightrec_value();
    let obsv = handle
        .observatory()
        .expect("chaos service runs an observatory");
    let alert_stats = obsv.alert_stats();
    let alerts_value = obsv.alerts_value();
    let obsv_history = obsv_history_doc(&obsv);
    let results = service.shutdown();
    let (lost, duplicated, phantom) = account_ids(&accepted, &results);
    let metrics = handle.metrics_snapshot();
    let per_priority = Priority::ALL
        .iter()
        .map(|p| {
            let (p50, p99, count) = metrics.histogram(p.e2e_metric()).map_or((0, 0, 0), |h| {
                (h.quantile(0.5), h.quantile(0.99), h.count())
            });
            PriorityLatency {
                priority: p.label().to_string(),
                jobs: count,
                p50_us: p50,
                p99_us: p99,
            }
        })
        .collect();
    let accepted_p99_us = metrics
        .histogram(METRIC_E2E)
        .map_or(0, |h| h.quantile(0.99));
    let count_status =
        |pred: fn(&BatchStatus) -> bool| results.iter().filter(|r| pred(&r.status)).count() as u64;
    let report = ChaosReport {
        workers: cfg.workers as u64,
        submitted,
        accepted: accepted.len() as u64,
        shed,
        ok: count_status(|s| matches!(s, BatchStatus::Ok)),
        degraded: count_status(|s| matches!(s, BatchStatus::Degraded { .. })),
        failed: count_status(|s| matches!(s, BatchStatus::Failed { .. })),
        expired: count_status(|s| matches!(s, BatchStatus::DeadlineExpired)),
        cancelled: count_status(|s| matches!(s, BatchStatus::Cancelled)),
        timeouts: metrics.counter("batch_jobs_timeout_total"),
        cancel_hits,
        lost,
        duplicated,
        phantom,
        per_priority,
        accepted_p99_us,
        final_limit,
        max_limit: cfg.max_limit.max(1) as f64,
        cache_hits: cache.as_ref().map_or(0, |c| c.stats().hits),
        cache_misses: cache.as_ref().map_or(0, |c| c.stats().misses),
        flight,
        alert_stats,
        alerts_value,
        obsv_history,
    };
    (report, results)
}

/// Every sampled series' raw-tier history as one document — the body of
/// the `--obsv-dump` CI artifact.
fn obsv_history_doc(obsv: &Observatory) -> serde::json::Value {
    let series = obsv
        .series_names()
        .into_iter()
        .filter_map(|name| obsv.history_value(&name, Tier::Raw))
        .collect();
    serde::json::Value::Obj(vec![(
        "series".to_string(),
        serde::json::Value::Arr(series),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LoadgenConfig {
        LoadgenConfig {
            jobs: 12,
            workers: 2,
            shard_workers: 1,
            queue_capacity: 4,
            mean_gap_us: 0,
            seed: 42,
            rerun_per_mille: 0,
        }
    }

    #[test]
    fn rerun_traffic_exercises_the_memo_cache() {
        let cfg = LoadgenConfig {
            jobs: 32,
            rerun_per_mille: 500,
            ..tiny()
        };
        let (report, results) = run_loadgen(&cfg, |_, _| {});
        assert_eq!(report.submitted, 32);
        assert!(report.accounting_clean(), "{report:?}");
        assert_eq!(results.len(), 32);
        assert!(
            report.cache_hits > 0,
            "re-submitted jobs hit the memo cache: {report:?}"
        );
        // Without reruns no cache is attached, so the counters stay zero.
        let (quiet, _) = run_loadgen(&tiny(), |_, _| {});
        assert_eq!(quiet.cache_hits, 0);
        assert_eq!(quiet.cache_misses, 0);
    }

    #[test]
    fn job_stream_is_a_pure_function_of_the_seed() {
        let a = job_stream(&tiny());
        let b = job_stream(&tiny());
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.program, y.program);
        }
        let other = job_stream(&LoadgenConfig { seed: 43, ..tiny() });
        assert!(
            a.iter().zip(&other).any(|(x, y)| x.program != y.program),
            "a different seed changes the stream"
        );
    }

    #[test]
    fn run_accounts_for_every_job_and_measures_latency() {
        let (report, results) = run_loadgen(&tiny(), |_, _| {});
        assert_eq!(report.submitted, 12);
        assert_eq!(report.completed, 12);
        assert!(report.accounting_clean(), "{report:?}");
        assert_eq!(report.ok + report.degraded + report.failed, 12);
        assert_eq!(results.len(), 12);
        assert_eq!(report.latency.len(), 3);
        for l in &report.latency {
            assert_eq!(l.jobs, 12, "{l:?}");
            assert!(l.p50_us <= l.p95_us && l.p95_us <= l.p99_us, "{l:?}");
        }
        let e2e = report
            .latency
            .iter()
            .find(|l| l.series == "e2e")
            .expect("e2e series present");
        let service = report
            .latency
            .iter()
            .find(|l| l.series == "service")
            .expect("service series present");
        assert!(
            e2e.p99_us >= service.p99_us,
            "end-to-end dominates service time: {e2e:?} vs {service:?}"
        );
    }

    #[test]
    fn chaos_storm_resolves_every_accepted_id_exactly_once() {
        // Small and forgiving (debug-build service times are what they
        // are): a generous SLO keeps this a determinism/accounting test,
        // not a latency one — the overload assertions live in the
        // release-mode `loadgen --chaos` smoke run.
        let cfg = ChaosloadConfig {
            jobs: 24,
            trickle: 10,
            workers: 2,
            queue_capacity: 8,
            slo_us: 2_000_000,
            max_limit: 8,
            job_timeout_us: 30_000_000,
            spike_us: 1_000,
            cancel_every: 7,
            ..ChaosloadConfig::default()
        };
        let (report, results) = run_chaosload(&cfg, |_, _| {});
        assert!(report.accounting_clean(), "{report:?}");
        assert_eq!(
            report.submitted,
            report.accepted + report.shed,
            "{report:?}"
        );
        assert_eq!(results.len() as u64, report.accepted);
        assert_eq!(report.cancelled, report.cancel_hits, "{report:?}");
        assert!(
            report.limiter_recovered(),
            "an idle trickle regrows the window: {report:?}"
        );
        // The degraded population includes the injected faults; with a
        // 24+10-job stream at 4%+4% fault rates this is probabilistic,
        // so only the structural invariants are asserted here.
        assert!(report.per_priority.len() == 3);
        // The observatory rode along on the manual clock: the SLO burn
        // alert fired during the storm (the observatory SLO is spike/2 =
        // 500us here, which debug-build service times blow through on
        // every job) and resolved over the idle tail.
        assert!(
            report.slo_alert_cycled(),
            "burn alert fires and resolves: {:?}",
            report.alert_stats
        );
        let entries = report.alert_entries();
        let burn = entries
            .iter()
            .find(|e| e.rule == RULE_E2E_BURN)
            .expect("burn rule entry present");
        assert!(burn.fires >= 1 && burn.worst_value > 2.0, "{burn:?}");
        assert!(burn.time_to_clear_us > 0, "{burn:?}");
        // The alert transitions are in the flight recorder dump and the
        // /alerts document.
        let flight = report.flight.to_json();
        assert!(flight.contains("\"alert_fire\""), "fire in flightrec");
        let alerts = report.alerts_value.to_json();
        assert!(alerts.contains("\"fire\""), "fire in transition log");
        assert!(alerts.contains("\"clear\""), "clear in transition log");
        // And the history artifact has the derived series.
        let history = report.obsv_history.to_json();
        assert!(history.contains("derived:queue_delay_slope_us_per_s"));
        assert!(history.contains("derived:e2e_burn_short"));
    }
}
