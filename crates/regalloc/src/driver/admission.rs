//! Latency-aware admission control for the batch service: an AIMD
//! concurrency limiter driven by observed end-to-end latency against a
//! configurable SLO target.
//!
//! The submission queue bounds *memory*, not *latency*: a full queue makes
//! blocking submitters wait, but every job that does get in still pays the
//! whole queue in front of it. Under sustained overload the honest answer
//! is to stop accepting work the service cannot finish on time — the
//! pattern production schedulers converge on (Sui's transaction limiter,
//! TCP congestion control): **additive increase, multiplicative
//! decrease** on an admission window, with observed latency as the
//! congestion signal.
//!
//! The [`AdmissionController`] tracks how many admitted jobs are in the
//! system (queued + running) against a floating `limit`:
//!
//! * [`AdmissionController::try_admit`] admits while `admitted <
//!   floor(limit)`; beyond it the submission is **shed** — the caller gets
//!   a retry-after hint instead of a queue slot, and the shed is counted.
//! * [`AdmissionController::on_complete`] feeds back one finished job's
//!   end-to-end latency: at or under [`AdmissionConfig::slo_us`] the limit
//!   grows by [`STEP`] (additive increase, toward
//!   [`AdmissionConfig::max_limit`]); over it the limit is multiplied by
//!   [`BACKOFF`] (multiplicative decrease, floored at [`MIN_LIMIT`]).
//! * [`AdmissionController::on_miss`] is the deadline-expiry signal — the
//!   job never ran, but it queued past its deadline, which is congestion
//!   evidence just like an over-SLO completion.
//! * [`AdmissionController::release`] returns a slot with no latency
//!   signal (a job cancelled while queued says nothing about load).
//!
//! The controller starts at full admission (`limit = max_limit`) and only
//! backs off on evidence; because increase is completion-driven, recovery
//! after a storm happens as the trickle of post-storm jobs completes on
//! time — which is exactly what the chaos harness asserts.
//!
//! Everything here is scheduling policy: whether a job is admitted affects
//! *which* jobs run, never the bytes of any accepted job's allocation. The
//! determinism quarantine (results byte-identical to serial) is untouched.

use std::sync::Mutex;

/// The window never shrinks below this many jobs, so the service always
/// makes progress and can observe recovery.
pub const MIN_LIMIT: f64 = 1.0;
/// Multiplicative-decrease factor applied on an over-SLO completion or a
/// deadline miss: the window halves.
pub const BACKOFF: f64 = 0.5;
/// Additive-increase step applied on an on-time completion: one slot per
/// good completion.
pub const STEP: f64 = 1.0;

/// Tuning knobs of an [`AdmissionController`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// The end-to-end latency target, microseconds: completions at or
    /// under it grow the window, completions over it shrink it.
    pub slo_us: u64,
    /// The window never grows beyond this many jobs (at least
    /// [`MIN_LIMIT`]); also the starting limit (full admission until
    /// latency says otherwise).
    pub max_limit: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            slo_us: 50_000,
            max_limit: 64,
        }
    }
}

impl AdmissionConfig {
    fn max_limit(&self) -> f64 {
        (self.max_limit as f64).max(MIN_LIMIT)
    }
}

/// A point-in-time view of the limiter (see
/// [`AdmissionController::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSnapshot {
    /// The current window (fractional; admission compares against its
    /// floor).
    pub limit: f64,
    /// Admitted jobs currently in the system (queued + running).
    pub admitted: usize,
    /// Submissions shed because the window was full.
    pub shed: u64,
    /// Completions that met the SLO (window grew).
    pub on_time: u64,
    /// Completions over the SLO plus deadline misses (window shrank).
    pub late: u64,
}

#[derive(Debug)]
struct Inner {
    limit: f64,
    admitted: usize,
    shed: u64,
    on_time: u64,
    late: u64,
}

/// The AIMD admission limiter (see the module docs).
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    inner: Mutex<Inner>,
}

impl AdmissionController {
    /// A controller at full admission (`limit = max_limit`).
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            inner: Mutex::new(Inner {
                limit: config.max_limit(),
                admitted: 0,
                shed: 0,
                on_time: 0,
                late: 0,
            }),
            config,
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Requests one admission slot.
    ///
    /// # Errors
    ///
    /// When the window is full the submission is shed: the error is a
    /// retry-after hint in microseconds (currently one SLO — roughly when
    /// the in-system jobs ahead of the caller should have drained if the
    /// service is healthy again).
    pub fn try_admit(&self) -> Result<(), u64> {
        let mut inner = self.inner.lock().expect("admission lock");
        if (inner.admitted as f64) < inner.limit.floor() {
            inner.admitted += 1;
            Ok(())
        } else {
            inner.shed += 1;
            Err(self.config.slo_us.max(1))
        }
    }

    /// Feeds back one admitted job's completion: frees its slot and
    /// applies AIMD on its end-to-end latency.
    pub fn on_complete(&self, e2e_us: u64) {
        let mut inner = self.inner.lock().expect("admission lock");
        inner.admitted = inner.admitted.saturating_sub(1);
        if e2e_us > self.config.slo_us {
            inner.late += 1;
            inner.limit = (inner.limit * BACKOFF).max(MIN_LIMIT);
        } else {
            inner.on_time += 1;
            inner.limit = (inner.limit + STEP).min(self.config.max_limit());
        }
    }

    /// Frees the slot of an admitted job that missed its deadline while
    /// queued — congestion evidence, so the window also backs off.
    pub fn on_miss(&self) {
        let mut inner = self.inner.lock().expect("admission lock");
        inner.admitted = inner.admitted.saturating_sub(1);
        inner.late += 1;
        inner.limit = (inner.limit * BACKOFF).max(MIN_LIMIT);
    }

    /// Frees the slot of an admitted job with no latency signal (e.g.
    /// cancelled while queued).
    pub fn release(&self) {
        let mut inner = self.inner.lock().expect("admission lock");
        inner.admitted = inner.admitted.saturating_sub(1);
    }

    /// A consistent snapshot of the limiter's state.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let inner = self.inner.lock().expect("admission lock");
        AdmissionSnapshot {
            limit: inner.limit,
            admitted: inner.admitted,
            shed: inner.shed,
            on_time: inner.on_time,
            late: inner.late,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AdmissionConfig {
        AdmissionConfig {
            slo_us: 1_000,
            max_limit: 4,
        }
    }

    #[test]
    fn starts_at_full_admission_and_sheds_beyond_the_window() {
        let ctrl = AdmissionController::new(small());
        for _ in 0..4 {
            ctrl.try_admit().expect("within the window");
        }
        let hint = ctrl.try_admit().expect_err("the fifth is shed");
        assert_eq!(hint, 1_000, "retry-after hint is one SLO");
        let snap = ctrl.snapshot();
        assert_eq!(snap.admitted, 4);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.limit, 4.0);
    }

    #[test]
    fn over_slo_completions_shrink_multiplicatively_to_the_floor() {
        let ctrl = AdmissionController::new(small());
        ctrl.try_admit().expect("admitted");
        ctrl.on_complete(10_000); // 4 -> 2
        assert_eq!(ctrl.snapshot().limit, 2.0);
        ctrl.try_admit().expect("admitted");
        ctrl.on_complete(10_000); // 2 -> 1
        ctrl.try_admit().expect("admitted");
        ctrl.on_complete(10_000); // floored at 1
        let snap = ctrl.snapshot();
        assert_eq!(snap.limit, 1.0);
        assert_eq!(snap.late, 3);
        assert_eq!(snap.admitted, 0);
        // At the floor, exactly one job is admitted at a time.
        ctrl.try_admit().expect("one slot at the floor");
        ctrl.try_admit().expect_err("the floor is one");
    }

    #[test]
    fn on_time_completions_grow_additively_to_the_ceiling() {
        let ctrl = AdmissionController::new(small());
        ctrl.try_admit().expect("admitted");
        ctrl.on_complete(10_000); // collapse to 2
        for _ in 0..5 {
            ctrl.try_admit().expect("admitted");
            ctrl.on_complete(10); // +1 each, capped at 4
        }
        let snap = ctrl.snapshot();
        assert_eq!(snap.limit, 4.0, "recovered to the ceiling, not past it");
        assert_eq!(snap.on_time, 5);
    }

    #[test]
    fn deadline_misses_back_off_and_cancellations_do_not() {
        let ctrl = AdmissionController::new(small());
        ctrl.try_admit().expect("admitted");
        ctrl.try_admit().expect("admitted");
        ctrl.on_miss(); // 4 -> 2, slot freed
        let snap = ctrl.snapshot();
        assert_eq!(snap.limit, 2.0);
        assert_eq!(snap.admitted, 1);
        ctrl.release(); // neutral: slot freed, limit unchanged
        let snap = ctrl.snapshot();
        assert_eq!(snap.limit, 2.0);
        assert_eq!(snap.admitted, 0);
        assert_eq!(snap.late, 1);
    }

    /// The satellite's synthetic latency step: a run of over-SLO
    /// completions collapses the window (sheds engage); stepping latency
    /// back under the SLO re-opens it to full admission (sheds release).
    #[test]
    fn latency_step_engages_and_releases_the_limiter() {
        let cfg = AdmissionConfig {
            max_limit: 8,
            ..small()
        };
        let ctrl = AdmissionController::new(cfg);
        // Latency steps up: every completion is 10x the SLO.
        for _ in 0..6 {
            ctrl.try_admit().expect("still making progress");
            ctrl.on_complete(cfg.slo_us * 10);
        }
        assert_eq!(ctrl.snapshot().limit, 1.0, "collapsed to the floor");
        ctrl.try_admit().expect("the floor slot");
        ctrl.try_admit()
            .expect_err("engaged: second submission shed");
        ctrl.on_complete(cfg.slo_us * 10);
        // Latency steps back down: on-time completions re-open one slot
        // each until the ceiling.
        for _ in 0..7 {
            ctrl.try_admit().expect("recovering window admits");
            ctrl.on_complete(cfg.slo_us / 10);
        }
        assert_eq!(ctrl.snapshot().limit, 8.0, "released to full admission");
        for _ in 0..8 {
            ctrl.try_admit().expect("full window admits");
        }
        let shed_before = ctrl.snapshot().shed;
        ctrl.try_admit()
            .expect_err("beyond the full window still sheds");
        assert_eq!(ctrl.snapshot().shed, shed_before + 1);
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            slo_us: 0,
            max_limit: 0,
        });
        // The ceiling clamps to the floor of one; the retry hint to 1us.
        ctrl.try_admit().expect("limit clamped to at least one");
        assert_eq!(ctrl.try_admit().expect_err("window of one"), 1);
        ctrl.on_complete(5);
        let snap = ctrl.snapshot();
        assert_eq!(snap.limit, 1.0);
        assert_eq!(snap.admitted, 0);
    }
}
