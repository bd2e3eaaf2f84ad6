//! The always-on flight recorder: a fixed-size ring of recent compact
//! scheduling events per lane, dumped as JSON when something goes wrong.
//!
//! Timelines ([`crate::driver::timeline`]) answer "show me everything
//! about the run I chose to trace"; the flight recorder answers the
//! opposite question — "what just happened?" — for runs nobody chose to
//! trace, which is where degradations and panics actually occur. It is
//! designed to stay enabled in production:
//!
//! * **Fixed memory.** Each lane owns a ring of [`DEFAULT_FLIGHT_CAPACITY`]
//!   [`FlightEvent`]s (a few KiB); old events are overwritten, never
//!   reallocated. The count of overwritten events is kept, so a dump says
//!   how much history it lost.
//! * **Compact events.** A [`FlightEvent`] is a few machine words — a
//!   timestamp, a lane, a [`FlightKind`], and two `u64` payloads whose
//!   meaning depends on the kind (job index, victim worker, degraded
//!   function count). No strings, no allocation on the record path.
//! * **Single writer per lane.** Exactly one thread records into each
//!   lane, the same discipline as timeline [`crate::driver::timeline::Lane`]s.
//!   The rings still sit behind per-lane `Mutex`es — the crate forbids
//!   `unsafe`, so a true lock-free ring (seqlock or atomic indices over
//!   uninitialized memory) is out of reach — but a mutex that is never
//!   contended is an uncontended compare-and-swap pair, not a lock in any
//!   observable sense. The CI workers=1 overhead gate runs with the
//!   recorder **enabled** to hold the steady-state-cost claim to measure.
//! * **Zero cost when disabled.** [`FlightRecorder::record`] gates on the
//!   enabled flag before reading the clock, exactly like a disabled
//!   [`crate::metrics::MetricsRegistry`].
//!
//! Lanes are position-addressed: a [`BatchService`] gives lane 0 to the
//! submission path and a contiguous block per service worker (its shard
//! workers, then its driver/service lane); [`FlightView`] carries the
//! block's base offset so pool code can record at `base + worker_index`
//! without knowing who else shares the recorder.
//!
//! A dump ([`FlightRecorder::dump`]) merges every lane's retained events,
//! sorts them by timestamp, and renders deterministic JSON — the artifact
//! the batch service attaches to degraded results and serves at
//! `/debug/flightrec`.
//!
//! Only scheduling events are recorded. Observatory alert transitions
//! have their own bounded log, served at `/alerts` with the rule name and
//! the exact value ([`crate::obsv::AlertEngine`]).
//!
//! [`BatchService`]: crate::driver::BatchService

use std::sync::Mutex;
use std::time::Instant;

use serde::json::Value;

/// Per-lane ring capacity (events retained per lane).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What a flight-recorder event marks. Payload meanings (`a`, `b`) are
/// listed per variant; unused payloads are 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A job entered the submission queue (`a` = submission id).
    Submit,
    /// A job started running (`a` = job index or submission id).
    JobStart,
    /// A job completed strictly (`a` = job index or submission id).
    JobOk,
    /// A job fell back to the degraded allocation (`a` = job index or
    /// submission id, `b` = degraded function count when known).
    JobDegraded,
    /// A job produced no allocation at all (`a` = submission id).
    JobFailed,
    /// A job panicked and was caught (`a` = job index).
    JobPanicked,
    /// A worker stole a job (`a` = job index, `b` = victim worker).
    Steal,
    /// A steal sweep found every deque empty (`a` = worker).
    StealMiss,
    /// A blocking submit found the queue full and stalled
    /// (`a` = submission id).
    BackpressureEngage,
    /// A stalled submit finally enqueued (`a` = submission id).
    BackpressureRelease,
    /// The admission limiter shed a submission (`a` = submission id,
    /// `b` = retry-after hint, microseconds).
    Shed,
    /// A job's deadline passed while it was queued; it was resolved
    /// without running (`a` = submission id, `b` = microseconds queued).
    DeadlineExpired,
    /// A queued job was cancelled before a worker ran it
    /// (`a` = submission id).
    Cancelled,
    /// A job's service-time watchdog fired; remaining functions took the
    /// degraded fallback (`a` = submission id, `b` = degraded function
    /// count).
    Timeout,
    /// A function's allocation was replayed from the memo cache
    /// (`a` = function id).
    CacheHit,
    /// A function missed the memo cache and was scheduled for allocation
    /// (`a` = function id).
    CacheMiss,
    /// Inserting a fresh allocation evicted resident entries
    /// (`a` = function id, `b` = entries evicted).
    CacheEvict,
}

impl FlightKind {
    /// The label used in serialized dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Submit => "submit",
            FlightKind::JobStart => "job_start",
            FlightKind::JobOk => "job_ok",
            FlightKind::JobDegraded => "job_degraded",
            FlightKind::JobFailed => "job_failed",
            FlightKind::JobPanicked => "job_panicked",
            FlightKind::Steal => "steal",
            FlightKind::StealMiss => "steal_miss",
            FlightKind::BackpressureEngage => "backpressure_engage",
            FlightKind::BackpressureRelease => "backpressure_release",
            FlightKind::Shed => "shed",
            FlightKind::DeadlineExpired => "deadline_expired",
            FlightKind::Cancelled => "cancelled",
            FlightKind::Timeout => "timeout",
            FlightKind::CacheHit => "cache_hit",
            FlightKind::CacheMiss => "cache_miss",
            FlightKind::CacheEvict => "cache_evict",
        }
    }
}

/// One compact flight-recorder event: a timestamp (microseconds since the
/// recorder's epoch), the lane that recorded it, a kind, and two payload
/// words whose meaning the [`FlightKind`] documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the recorder's creation.
    pub ts_us: u64,
    /// The lane that recorded the event.
    pub lane: u32,
    /// What happened.
    pub kind: FlightKind,
    /// First payload word (usually a job index or submission id).
    pub a: u64,
    /// Second payload word (kind-specific; 0 when unused).
    pub b: u64,
}

/// One lane's ring: a fixed-capacity buffer overwritten oldest-first.
#[derive(Debug)]
struct Ring {
    events: Vec<FlightEvent>,
    next: usize,
    total: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            events: Vec::new(),
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, event: FlightEvent) {
        if self.events.len() < DEFAULT_FLIGHT_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.next] = event;
        }
        self.next = (self.next + 1) % DEFAULT_FLIGHT_CAPACITY;
        self.total += 1;
    }

    /// Retained events, oldest first.
    fn ordered(&self) -> Vec<FlightEvent> {
        if self.total as usize <= self.events.len() {
            // Never wrapped: insertion order is age order.
            self.events.clone()
        } else {
            let mut out = Vec::with_capacity(self.events.len());
            out.extend_from_slice(&self.events[self.next..]);
            out.extend_from_slice(&self.events[..self.next]);
            out
        }
    }
}

/// The flight recorder (see the module docs): per-lane rings of recent
/// compact events on one shared clock.
#[derive(Debug)]
pub struct FlightRecorder {
    on: bool,
    epoch: Instant,
    lanes: Vec<Mutex<Ring>>,
}

impl FlightRecorder {
    /// A recorder with `lanes` lanes (clamped to ≥ 1), each retaining the
    /// newest [`DEFAULT_FLIGHT_CAPACITY`] events.
    pub fn new(lanes: usize) -> Self {
        FlightRecorder {
            on: true,
            epoch: Instant::now(),
            lanes: (0..lanes.max(1)).map(|_| Mutex::new(Ring::new())).collect(),
        }
    }

    /// A recorder that drops everything at the cost of one branch per
    /// site — the flight analog of [`crate::NoopSink`].
    pub fn disabled() -> Self {
        FlightRecorder {
            on: false,
            epoch: Instant::now(),
            lanes: vec![Mutex::new(Ring::new())],
        }
    }

    /// Whether this recorder records.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Records one event on `lane` (clamped into range). Reads the clock
    /// only when enabled.
    pub fn record(&self, lane: u32, kind: FlightKind, a: u64, b: u64) {
        if !self.on {
            return;
        }
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let index = (lane as usize).min(self.lanes.len() - 1);
        self.lanes[index]
            .lock()
            .expect("flight recorder lane lock")
            .push(FlightEvent {
                ts_us,
                lane,
                kind,
                a,
                b,
            });
    }

    /// A recording view whose lane 0 is this recorder's lane `base` — how
    /// a batch service hands each worker its own contiguous lane block.
    pub fn view(&self, base: u32) -> FlightView<'_> {
        FlightView { rec: self, base }
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_events(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.lock().expect("flight recorder lane lock").total)
            .sum()
    }

    /// Dumps the retained history as a deterministic JSON value:
    ///
    /// ```json
    /// {"capacity": 256, "lanes": 4, "recorded": 9, "dropped": 0,
    ///  "events": [{"ts_us": 12, "lane": 0, "kind": "job_start",
    ///              "a": 3, "b": 0}, ...]}
    /// ```
    ///
    /// Events are merged across lanes and sorted by `(ts_us, lane)`;
    /// `dropped` counts events the rings overwrote.
    pub fn dump(&self) -> Value {
        let mut events: Vec<FlightEvent> = Vec::new();
        let mut recorded = 0u64;
        for lane in &self.lanes {
            let ring = lane.lock().expect("flight recorder lane lock");
            recorded += ring.total;
            events.extend(ring.ordered());
        }
        events.sort_by_key(|e| (e.ts_us, e.lane));
        let dropped = recorded - events.len() as u64;
        let events = events
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("ts_us".to_string(), Value::Int(e.ts_us as i64)),
                    ("lane".to_string(), Value::Int(e.lane as i64)),
                    ("kind".to_string(), Value::Str(e.kind.name().to_string())),
                    ("a".to_string(), Value::Int(e.a as i64)),
                    ("b".to_string(), Value::Int(e.b as i64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            (
                "capacity".to_string(),
                Value::Int(DEFAULT_FLIGHT_CAPACITY as i64),
            ),
            ("lanes".to_string(), Value::Int(self.lanes.len() as i64)),
            ("recorded".to_string(), Value::Int(recorded as i64)),
            ("dropped".to_string(), Value::Int(dropped as i64)),
            ("events".to_string(), Value::Arr(events)),
        ])
    }

    /// [`FlightRecorder::dump`] rendered to a JSON string.
    pub fn dump_json(&self) -> String {
        self.dump().to_json()
    }
}

/// A borrowed recording window into a [`FlightRecorder`], offset by a lane
/// base. `Copy`, so pool code can pass it around freely; recording at view
/// lane `w` lands on recorder lane `base + w`.
#[derive(Debug, Clone, Copy)]
pub struct FlightView<'a> {
    rec: &'a FlightRecorder,
    base: u32,
}

impl FlightView<'_> {
    /// Records on recorder lane `base + lane`.
    pub fn record(&self, lane: u32, kind: FlightKind, a: u64, b: u64) {
        self.rec.record(self.base + lane, kind, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(0, FlightKind::JobStart, 1, 0);
        rec.record(9, FlightKind::Steal, 2, 3);
        assert_eq!(rec.total_events(), 0);
        let dump = rec.dump();
        assert_eq!(dump.get("recorded").and_then(Value::as_i64), Some(0));
        let Some(Value::Arr(events)) = dump.get("events") else {
            panic!("dump has an events array");
        };
        assert!(events.is_empty());
    }

    #[test]
    fn rings_wrap_and_report_drops() {
        let rec = FlightRecorder::new(1);
        let total = DEFAULT_FLIGHT_CAPACITY as u64 + 6;
        for i in 0..total {
            rec.record(0, FlightKind::JobOk, i, 0);
        }
        assert_eq!(rec.total_events(), total);
        let dump = rec.dump();
        assert_eq!(
            dump.get("recorded").and_then(Value::as_i64),
            Some(total as i64)
        );
        assert_eq!(dump.get("dropped").and_then(Value::as_i64), Some(6));
        let Some(Value::Arr(events)) = dump.get("events") else {
            panic!("dump has an events array");
        };
        // The six oldest are gone; the rest survive, oldest first.
        let ids: Vec<i64> = events
            .iter()
            .map(|e| e.get("a").and_then(Value::as_i64).expect("payload a"))
            .collect();
        assert_eq!(ids, (6..total as i64).collect::<Vec<_>>());
    }

    #[test]
    fn lanes_are_independent_and_merge_sorted() {
        let rec = FlightRecorder::new(3);
        rec.record(2, FlightKind::Steal, 5, 1);
        rec.record(0, FlightKind::JobStart, 7, 0);
        rec.record(1, FlightKind::JobDegraded, 7, 2);
        let dump = rec.dump();
        assert_eq!(dump.get("lanes").and_then(Value::as_i64), Some(3));
        let Some(Value::Arr(events)) = dump.get("events") else {
            panic!("dump has an events array");
        };
        assert_eq!(events.len(), 3);
        // Sorted by timestamp (same-lane ordering is recording order; we
        // only assert the timestamps are non-decreasing).
        let ts: Vec<i64> = events
            .iter()
            .map(|e| e.get("ts_us").and_then(Value::as_i64).expect("ts"))
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| e.get("kind").and_then(Value::as_str).expect("kind"))
            .collect();
        assert!(kinds.contains(&"steal"));
        assert!(kinds.contains(&"job_degraded"));
    }

    #[test]
    fn out_of_range_lanes_clamp_instead_of_panicking() {
        let rec = FlightRecorder::new(2);
        rec.record(99, FlightKind::JobPanicked, 1, 0);
        assert_eq!(rec.total_events(), 1);
        // The event's declared lane survives even though it was stored in
        // the last ring.
        let dump = rec.dump();
        let Some(Value::Arr(events)) = dump.get("events") else {
            panic!("dump has an events array");
        };
        assert_eq!(events[0].get("lane").and_then(Value::as_i64), Some(99));
    }

    #[test]
    fn views_offset_lanes() {
        let rec = FlightRecorder::new(6);
        let view = rec.view(2);
        view.record(0, FlightKind::JobStart, 1, 0);
        view.record(3, FlightKind::JobOk, 1, 0);
        let dump = rec.dump();
        let Some(Value::Arr(events)) = dump.get("events") else {
            panic!("dump has an events array");
        };
        let lanes: Vec<i64> = events
            .iter()
            .map(|e| e.get("lane").and_then(Value::as_i64).expect("lane"))
            .collect();
        assert_eq!(lanes, vec![2, 5]);
    }

    #[test]
    fn dump_json_round_trips() {
        let rec = FlightRecorder::new(2);
        rec.record(0, FlightKind::Submit, 0, 0);
        rec.record(1, FlightKind::BackpressureEngage, 0, 0);
        rec.record(1, FlightKind::BackpressureRelease, 0, 0);
        let parsed = serde::json::parse(&rec.dump_json()).expect("dump is valid JSON");
        assert_eq!(parsed.get("recorded").and_then(Value::as_i64), Some(3));
        assert_eq!(
            parsed.get("capacity").and_then(Value::as_i64),
            Some(DEFAULT_FLIGHT_CAPACITY as i64)
        );
    }

    #[test]
    fn default_capacity_lane_keeps_exactly_the_newest_256() {
        // Overflow the default 256-event ring by a non-multiple of its
        // capacity so the wrap point lands mid-ring.
        let rec = FlightRecorder::new(1);
        let total = DEFAULT_FLIGHT_CAPACITY as u64 * 2 + 37;
        for i in 0..total {
            rec.record(0, FlightKind::JobOk, i, 0);
        }
        assert_eq!(rec.total_events(), total);
        let dump = rec.dump();
        assert_eq!(
            dump.get("recorded").and_then(Value::as_i64),
            Some(total as i64)
        );
        assert_eq!(
            dump.get("dropped").and_then(Value::as_i64),
            Some((total - DEFAULT_FLIGHT_CAPACITY as u64) as i64)
        );
        let Some(Value::Arr(events)) = dump.get("events") else {
            panic!("dump has an events array");
        };
        assert_eq!(events.len(), DEFAULT_FLIGHT_CAPACITY);
        // Exactly the newest 256 survive, oldest first and contiguous.
        let ids: Vec<u64> = events
            .iter()
            .map(|e| e.get("a").and_then(Value::as_i64).expect("payload a") as u64)
            .collect();
        let expected: Vec<u64> = (total - DEFAULT_FLIGHT_CAPACITY as u64..total).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn concurrent_single_writer_lanes_stay_ordered_and_lose_only_the_oldest() {
        // The single-writer-per-lane invariant: each thread owns one lane
        // and records a strictly increasing sequence. Whatever the
        // cross-lane interleaving, every lane's retained events must be a
        // contiguous, in-order suffix of what its owner wrote — a torn or
        // reordered ring would break all of flight-dump forensics.
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 700; // > 2 × capacity: every lane wraps.
        let rec = std::sync::Arc::new(FlightRecorder::new(WRITERS));
        let mut handles = Vec::new();
        for lane in 0..WRITERS as u32 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    rec.record(lane, FlightKind::JobOk, i, u64::from(lane));
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        assert_eq!(rec.total_events(), WRITERS as u64 * PER_WRITER);
        let dump = rec.dump();
        let Some(Value::Arr(events)) = dump.get("events") else {
            panic!("dump has an events array");
        };
        for lane in 0..WRITERS as i64 {
            let ids: Vec<u64> = events
                .iter()
                .filter(|e| e.get("lane").and_then(Value::as_i64) == Some(lane))
                .map(|e| e.get("a").and_then(Value::as_i64).expect("payload a") as u64)
                .collect();
            assert_eq!(ids.len(), DEFAULT_FLIGHT_CAPACITY, "lane {lane}");
            let expected: Vec<u64> =
                (PER_WRITER - DEFAULT_FLIGHT_CAPACITY as u64..PER_WRITER).collect();
            assert_eq!(ids, expected, "lane {lane}: newest suffix, in order");
        }
    }
}
