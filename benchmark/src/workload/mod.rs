//! The four workloads and what they share: the run configuration, timed
//! set-up, output verification and the per-layer report.

use std::time::Instant;

use crate::calls::{self, FrequencyInfo, Program, ProgramAllocation, Replay};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{tail_percentile, Blocks, Samples};

mod closed;
mod edit;
mod serve;

/// Every workload, in the order a full run takes them.
pub const WORKLOADS: [&str; 4] = ["spec-suite", "large-funcs", "edit-1000", "serve"];

/// A fault injected to prove a verification gate fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Build every memo cache with colliding keys: warm runs replay the
    /// wrong allocations, which byte identity must catch.
    PoisonCache,
    /// Drop one spill store from a verified allocation, which the checker
    /// or the replay comparison must catch.
    DropSpillStore,
}

impl Inject {
    /// Parses the `--inject` argument.
    pub fn parse(s: &str) -> Option<Inject> {
        match s {
            "poison-cache" => Some(Inject::PoisonCache),
            "drop-spill-store" => Some(Inject::DropSpillStore),
            _ => None,
        }
    }
}

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// The seed every input derives from.
    pub seed: u64,
    /// How long the run measures, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) rather than the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Shrinks every input to a few percent of its size, for tests.
    pub tiny: bool,
    /// A fault to inject, for the gate tests.
    pub inject: Option<Inject>,
    /// Where the traced run writes its spans (a Chrome trace), if anywhere.
    pub spans_out: Option<String>,
}

/// Runs one workload and reports it.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves nothing to report (a
/// program that cannot be profiled, an allocation that errors out).
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let mut report = match cfg.workload.as_str() {
        "spec-suite" => closed::run(closed::Kind::SpecSuite, cfg),
        "large-funcs" => closed::run(closed::Kind::LargeFuncs, cfg),
        "edit-1000" => edit::run(cfg),
        "serve" => serve::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }?;
    if !cfg.traced {
        report.set("peak_rss_mb", peak_rss_mb()?);
    }
    report.finish();
    Ok(report)
}

/// How many times a run sets up; `setup_s` is the median.
pub(crate) const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times, keeping the last state, and returns
/// it with the median set-up time in seconds.
pub(crate) fn timed_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Samples::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take()); // free the previous state before building the next
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), times.percentile(50.0)))
}

/// The process's peak resident set (VmHWM), MiB.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A splitmix64 generator for shuffles and edit choices.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates in place.
    pub(crate) fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Sets `p50_ms` and `p95_ms` — the medians over blocks of each block's
/// nearest-rank percentile, milliseconds — and prints the pooled series'
/// count, median and tail.
pub(crate) fn report_latency(report: &mut Report, what: &str, blocks: &mut Blocks) {
    report.set("p50_ms", blocks.percentile(50.0));
    report.set("p95_ms", blocks.percentile(95.0));
    report.detail(format!("{what}.blocks"), blocks.len() as f64, "count");
    report_tail(report, what, &mut blocks.pooled());
}

/// Prints a latency series' count, median and its highest percentile with
/// ten samples beyond it.
pub(crate) fn report_tail(report: &mut Report, what: &str, lat_ms: &mut Samples) {
    report.detail(format!("{what}.n"), lat_ms.len() as f64, "count");
    report.detail(format!("{what}.p50_ms"), lat_ms.percentile(50.0), "ms");
    if let Some(p) = tail_percentile(lat_ms.len()) {
        report.detail(format!("{what}.p{p}_ms"), lat_ms.percentile(p), "ms");
    }
}

/// Checks distinct allocations and tallies what verification costs and
/// finds: the checker on every function, the replayed result against the
/// original program's, and the generated code's size and overhead.
#[derive(Debug, Default)]
pub struct Verifier {
    /// Allocations verified.
    pub allocations: u64,
    /// Time in the checker, microseconds.
    pub check_us: f64,
    /// Time replaying programs, microseconds.
    pub replay_us: f64,
    /// Instructions of the original programs.
    pub original_insts: u64,
    /// Overhead operations the allocations inserted statically.
    pub static_overhead_ops: u64,
    /// Overhead operations the replays executed.
    pub dyn_overhead_ops: u64,
    /// Useful instructions the replays executed.
    pub dyn_steps: u64,
}

impl Verifier {
    /// Replays an original program, timed.
    pub fn replay_original(&mut self, p: &Program) -> Result<Replay, String> {
        let t = Instant::now();
        let r = calls::replay(p);
        self.replay_us += t.elapsed().as_secs_f64() * 1e6;
        r
    }

    /// Verifies one allocation of `original` against the checker and, when
    /// `expected` is given, the original's replayed result.
    pub fn verify(
        &mut self,
        original: &Program,
        freq: &FrequencyInfo,
        alloc: &ProgramAllocation,
        expected: Option<&Replay>,
    ) -> Result<(), String> {
        self.verify_only(original, freq, alloc, None, expected)
    }

    /// Like [`Verifier::verify`], checking and sizing only the functions
    /// `only` names: the ones an edit changed, when the rest are known
    /// byte-identical to an allocation already verified.
    pub fn verify_only(
        &mut self,
        original: &Program,
        freq: &FrequencyInfo,
        alloc: &ProgramAllocation,
        only: Option<&[usize]>,
        expected: Option<&Replay>,
    ) -> Result<(), String> {
        self.allocations += 1;
        self.original_insts += calls::size_insts_of(original, only);
        self.static_overhead_ops += calls::static_overhead_ops(alloc, only);
        let t = Instant::now();
        let checked = calls::check_program(original, freq, alloc, only);
        self.check_us += t.elapsed().as_secs_f64() * 1e6;
        checked?;
        if let Some(expected) = expected {
            let t = Instant::now();
            let got = calls::replay(&alloc.program);
            self.replay_us += t.elapsed().as_secs_f64() * 1e6;
            let got = got?;
            if got.result != expected.result || got.steps != expected.steps {
                return Err(format!(
                    "replay of the allocated program returned {:?} in {} steps, \
                     the original {:?} in {} steps",
                    got.result, got.steps, expected.result, expected.steps
                ));
            }
            self.dyn_overhead_ops += got.overhead_ops;
            self.dyn_steps += got.steps;
        }
        Ok(())
    }

    /// Generated code size over original size: original instructions plus
    /// every inserted overhead operation, over original instructions.
    pub fn code_size_ratio(&self) -> f64 {
        (self.original_insts + self.static_overhead_ops) as f64 / self.original_insts.max(1) as f64
    }

    /// Records the verification numbers: `code_size_ratio` on the untraced
    /// run, the cost per verified allocation on the traced one, and the
    /// replayed overhead either way.
    pub fn report(&self, report: &mut Report) {
        let per_kinstr = self.dyn_overhead_ops as f64 * 1000.0 / self.dyn_steps.max(1) as f64;
        if report.traced {
            let n = self.allocations.max(1) as f64;
            report.set("check.us", self.check_us / n);
            report.set("replay.us", self.replay_us / n);
            report.set("replay.overhead_ops", self.dyn_overhead_ops as f64 / n);
            report.set("replay.overhead_per_kinstr", per_kinstr);
        } else {
            report.set("code_size_ratio", self.code_size_ratio());
        }
        report.detail("verified_allocations", self.allocations as f64, "count");
        report.detail(
            "code_size_insts",
            (self.original_insts + self.static_overhead_ops) as f64,
            "count",
        );
        report.detail("dyn_overhead_ops", self.dyn_overhead_ops as f64, "count");
        report.detail("overhead_per_kinstr", per_kinstr, "ops/kinstr");
    }
}

/// The allocator-layer metrics of a traced phase, per operation.
pub(crate) fn report_layers(report: &mut Report, tr: &Tracer, ops: u64) {
    let n = ops.max(1) as f64;
    let per = |v: f64| v / n;
    let liveness = tr.total_us("liveness");
    let webs = tr.total_us("webs");
    let build = tr.total_us("build");
    report.set("liveness.us", per(liveness));
    report.set(
        "liveness.iterations",
        per(tr.counter("liveness.iterations")),
    );
    report.set("webs.us", per(webs));
    report.set("webs.refs", per(tr.counter("webs.refs")));
    report.set("build.us", per(build));
    report.set("build.self_us", per((build - liveness - webs).max(0.0)));
    report.set("build.nodes", per(tr.counter("build.nodes")));
    report.set("build.edges", per(tr.counter("build.edges")));
    report.set("build.coalesced", per(tr.counter("build.coalesced")));
    report.set("color.calls", per(tr.counter("color.calls")));
    report.set("color.us", per(tr.self_us("color")));
    report.set("color.spilled", per(tr.counter("color.spilled")));
    report.set("spill.us", per(tr.self_us("spill")));
    report.set("spill.inserted", per(tr.counter("spill.inserted")));
    report.set("reconstruct.us", per(tr.self_us("reconstruct")));
    report.set("rewrite.us", per(tr.self_us("rewrite")));
    report.set("pipeline.rounds", per(tr.counter("pipeline.rounds")));
    report.set("pipeline.degraded", per(tr.counter("pipeline.degraded")));
    report.set("cache.key_us", per(tr.self_us("cache.key")));
    report.set("cache.get_us", per(tr.self_us("cache.get")));
    report.set("cache.insert_us", per(tr.self_us("cache.insert")));
    report.set("trace.ops", ops as f64);
}

/// The traced run's overhead: traced time per operation, probes excluded,
/// against untraced time per operation, percent.
pub(crate) fn trace_overhead_pct(untraced_us_per_op: f64, traced_us_per_op: f64) -> f64 {
    (traced_us_per_op - untraced_us_per_op) / untraced_us_per_op.max(1e-9) * 100.0
}

/// Writes the tracer's spans as a Chrome trace when asked to.
pub(crate) fn write_spans(cfg: &RunConfig, tr: &Tracer) -> Result<(), String> {
    match &cfg.spans_out {
        Some(path) => std::fs::write(path, tr.to_chrome().to_json())
            .map_err(|e| format!("cannot write spans to {path}: {e}")),
        None => Ok(()),
    }
}
