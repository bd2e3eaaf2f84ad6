//! The parallel-driver worker sweep behind the `par` binary: time each
//! workload through [`ParallelDriver`] at worker counts
//! [`SWEEP_WORKER_COUNTS`] against the serial pipeline, verify the outputs
//! are identical along the way, and gate the results.
//!
//! One gate rides on the sweep: [`workers1_gate`] — the driver at
//! `workers = 1` must not be slower than the serial pipeline by more than
//! a small tolerance: the sharding machinery itself has to be near-free.
//! The comparison is paired: a pair is a block of serial calls and a
//! block of `workers = 1` calls, interleaved call by call (alternating
//! which goes first), and the gate reads the median of the ratios of the
//! block totals ([`paired_speedup`]). Each block holds as many calls as
//! make up at least [`PAIR_BLOCK_US`] ([`block_calls`], calibrated per
//! workload), so one preemption of a few milliseconds moves a ratio by a
//! few percent instead of several fold, and the interleaving puts both
//! blocks of a pair on the same stretch of machine time, so a slower
//! spell of a shared machine slows both. The sweep runs with the flight recorder **enabled**, takes one
//! admission-limiter round trip ([`ccra_regalloc::AdmissionController`])
//! per timed run, and polls an enabled [`ccra_regalloc::Observatory`] once
//! per timed run (the same interval-gated `tick` the status routes
//! call before they read), so this gate prices the always-on recorder, the serving
//! path's admission bookkeeping, *and* the ops observatory's sampling path
//! — not an idealized bare driver. Driver throughput is measured by the
//! repository benchmark's `edit-1000` workload, not here.
//!
//! Speedup numbers are honest wall-clock measurements on whatever machine
//! runs the sweep — on a single-core container the sweep records ≈ 1.0×
//! at every worker count (and that is the *correct* answer there, which is
//! why the gate bounds only the `workers = 1` overhead, not a speedup
//! floor).

use std::time::{Duration, Instant};

use ccra_analysis::FrequencyInfo;
use ccra_ir::Program;
use ccra_machine::{CostModel, RegisterFile};
use ccra_regalloc::driver::DefaultJob;
use ccra_regalloc::{
    allocate_program_instrumented, AdmissionConfig, AdmissionController, AllocRequest,
    AllocatorConfig, DriverSummary, FlightRecorder, MetricsRegistry, NoopSink, Observatory,
    ObsvConfig, ParallelDriver, ProgramAllocation, TimelineCollector,
};
use ccra_workloads::{random_program, spec_program_scaled, FuzzConfig, Scale, SpecProgram};

/// The spec workloads of the sweep: a spread over the shapes the suite
/// contains — call-heavy integer code (eqntott, li), mixed DSP (ear), a
/// huge basic-block floating-point function (fpppp), and a call-free
/// vectorizable loop nest (tomcatv).
pub const MATRIX_WORKLOADS: [SpecProgram; 5] = [
    SpecProgram::Eqntott,
    SpecProgram::Ear,
    SpecProgram::Li,
    SpecProgram::Fpppp,
    SpecProgram::Tomcatv,
];

/// One cell of the sweep: a workload allocated through
/// [`ParallelDriver`] at one worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ParEntry {
    /// The workload name.
    pub workload: String,
    /// The allocator configuration label.
    pub config: String,
    /// The register-file label.
    pub regs: String,
    /// Worker threads the driver was configured with.
    pub workers: u64,
    /// Functions in the workload.
    pub funcs: u64,
    /// Instructions (terminators included) in the workload.
    pub instrs: u64,
    /// Best-of-N parallel allocation wall-clock microseconds per call.
    pub micros: u64,
    /// Instructions allocated per second (from the best iteration).
    pub instrs_per_sec: f64,
    /// Serial-pipeline time divided by this entry's time (> 1 = the
    /// driver was faster than `allocate_program`): at `workers = 1` the
    /// median ratio of the paired blocks ([`paired_speedup`]), otherwise
    /// best serial over best parallel.
    pub speedup: f64,
}

/// The size of a program: functions and instructions (block terminators
/// included).
fn program_size(p: &Program) -> (u64, u64) {
    let mut funcs = 0u64;
    let mut instrs = 0u64;
    for (_, f) in p.functions() {
        funcs += 1;
        for (_, block) in f.blocks() {
            instrs += block.insts.len() as u64 + 1; // + terminator
        }
    }
    (funcs, instrs)
}

/// The worker counts the sweep measures.
pub const SWEEP_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The seed and shape of the many-function fuzz workload: the spec
/// programs have 1–4 functions each, so sharding needs a wide program to
/// show; 64 functions give every worker count in the sweep real work.
pub const FUZZ_WORKLOAD_FUNCS: usize = 64;

/// One named workload of the sweep.
pub struct ParWorkload {
    /// The name recorded in [`ParEntry::workload`].
    pub name: String,
    /// The program.
    pub program: Program,
}

/// The sweep's workloads: the five [`MATRIX_WORKLOADS`] at `scale`,
/// plus a deterministic 64-function fuzz program (scale-independent —
/// its point is function *count*, which the spec programs lack).
pub fn par_workloads(scale: Scale) -> Vec<ParWorkload> {
    let mut out: Vec<ParWorkload> = MATRIX_WORKLOADS
        .iter()
        .map(|&w| ParWorkload {
            name: w.name().to_string(),
            program: spec_program_scaled(w, scale),
        })
        .collect();
    out.push(ParWorkload {
        name: format!("fuzz{FUZZ_WORKLOAD_FUNCS}"),
        program: random_program(
            1997,
            &FuzzConfig {
                functions: FUZZ_WORKLOAD_FUNCS,
                stmts_per_fn: 12,
                max_loop_depth: 1,
                max_trips: 4,
            },
        ),
    });
    out
}

/// The least wall-clock time each side of a `workers = 1` pair runs for.
pub const PAIR_BLOCK_US: u64 = 20_000;

/// How many back-to-back calls of `probe_us` each make a block of at
/// least [`PAIR_BLOCK_US`] (at least one; at most 10 000, for calls too
/// quick for the clock to see).
pub fn block_calls(probe_us: u64) -> u32 {
    PAIR_BLOCK_US.div_ceil(probe_us.max(1)).min(10_000) as u32
}

/// Times one pair: `calls` calls of `serial` and `calls` of `driver` (at
/// least one each), interleaved call by call with `serial` first on even
/// steps when `serial_first` and on odd steps otherwise. Returns each
/// side's block total in microseconds with its last call's output.
fn time_pair<S, D>(
    calls: u32,
    serial_first: bool,
    mut serial: impl FnMut() -> S,
    mut driver: impl FnMut() -> D,
) -> ((u64, S), (u64, D)) {
    fn timed<T>(total: &mut Duration, call: &mut impl FnMut() -> T) -> T {
        let start = Instant::now();
        let out = call();
        *total += start.elapsed();
        out
    }
    let (mut serial_total, mut driver_total) = (Duration::ZERO, Duration::ZERO);
    let mut last = None;
    for step in 0..calls.max(1) {
        last = Some(if (step % 2 == 0) == serial_first {
            let s = timed(&mut serial_total, &mut serial);
            (s, timed(&mut driver_total, &mut driver))
        } else {
            let d = timed(&mut driver_total, &mut driver);
            (timed(&mut serial_total, &mut serial), d)
        });
    }
    let (s, d) = last.expect("at least one call per side");
    let micros = |d: Duration| d.as_micros() as u64;
    ((micros(serial_total), s), (micros(driver_total), d))
}

/// The median of the per-pair ratios `serial_us / driver_us` — the
/// `workers = 1` speedup of a paired comparison (1.0 without pairs). A
/// pair is two block totals of the same call count.
pub fn paired_speedup(pairs: &[(u64, u64)]) -> f64 {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|&(serial, driver)| serial.max(1) as f64 / driver.max(1) as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    match ratios.len() {
        0 => 1.0,
        n if n % 2 == 1 => ratios[n / 2],
        n => (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0,
    }
}

/// One serial-pipeline run.
fn allocate_serial(req: &AllocRequest<'_>, name: &str) -> ProgramAllocation {
    allocate_program_instrumented(req, &mut NoopSink, &mut MetricsRegistry::disabled())
        .unwrap_or_else(|e| panic!("{name} failed to allocate: {e}"))
}

/// The driver at one worker count with the serving-path instruments the
/// sweep prices (see the module docs).
struct TimedDriver {
    driver: ParallelDriver,
    flight: FlightRecorder,
    admission: AdmissionController,
    obsv: Observatory,
}

impl TimedDriver {
    fn new(workers: usize) -> Self {
        TimedDriver {
            driver: ParallelDriver::new(workers),
            // Enabled on purpose: the sweep's timings (and the workers=1
            // gate) must include the always-on flight recorder's cost.
            flight: FlightRecorder::new(workers + 1),
            // One limiter round trip per timed run, like the batch
            // service takes per job — the gate prices its bookkeeping.
            // Closed-loop, so the window never fills and nothing sheds.
            admission: AdmissionController::new(AdmissionConfig::default()),
            // An enabled observatory, ticked once per timed run exactly
            // like a status read ticks it — mostly the cheap interval-gate
            // branch, occasionally a real sample — so the workers=1 gate
            // prices the sampling path too.
            obsv: Observatory::new(ObsvConfig::default()),
        }
    }

    /// One timed run.
    fn run(&self, req: &AllocRequest<'_>, name: &str) -> (u64, ProgramAllocation, DriverSummary) {
        let start = Instant::now();
        self.admission
            .try_admit()
            .expect("a closed-loop sweep never fills the admission window");
        let (out, report, _timeline) = self
            .driver
            .allocate_program_cached(
                req,
                &mut NoopSink,
                &mut MetricsRegistry::disabled(),
                &DefaultJob,
                &TimelineCollector::disabled(),
                self.flight.view(0),
                None,
            )
            .unwrap_or_else(|e| {
                let workers = self.driver.workers();
                panic!("{name} failed on {workers} worker(s): {e}")
            });
        self.admission
            .on_complete(start.elapsed().as_micros() as u64);
        self.obsv.tick(&MetricsRegistry::disabled());
        (start.elapsed().as_micros() as u64, out, report.summary())
    }
}

/// Runs the sweep: for each workload, `iters` pairs of a serial block and
/// a `workers = 1` driver block (interleaved call by call, alternating
/// which goes first; both of [`block_calls`] calls, calibrated on one
/// call of each), then
/// a best-of-`iters` [`ParallelDriver`] run per other worker count, each
/// verified byte-identical to the serial result. Calls `progress` after
/// each finished entry with the entry and the final iteration's
/// [`DriverSummary`] (job/degraded/panic counts are deterministic; the
/// steal count is a scheduling fact).
///
/// # Panics
///
/// Panics if a workload fails to profile or allocate, or if a parallel
/// result ever differs from the serial one — the sweep doubles as a
/// determinism check on real workloads.
pub fn run_par_sweep(
    scale: Scale,
    iters: u32,
    mut progress: impl FnMut(&ParEntry, &DriverSummary),
) -> Vec<ParEntry> {
    let config = AllocatorConfig::improved();
    let cost = CostModel::paper();
    let file = RegisterFile::mips_full();
    let mut entries = Vec::new();
    for workload in par_workloads(scale) {
        let name = &workload.name;
        let freq = FrequencyInfo::profile(&workload.program)
            .unwrap_or_else(|e| panic!("{name} failed to profile: {e}"));
        let (funcs, instrs) = program_size(&workload.program);
        let req = AllocRequest {
            program: &workload.program,
            freq: &freq,
            file,
            config: &config,
            cost: &cost,
        };

        let mut serial_micros = u64::MAX;
        let mut serial_alloc = None;
        for workers in SWEEP_WORKER_COUNTS {
            let timed = TimedDriver::new(workers);
            let mut pairs = Vec::new();
            let mut best_micros = u64::MAX;
            let mut summary = None;
            // The calibration: one call of each side sizes the blocks.
            let calls = if workers == 1 {
                let start = Instant::now();
                allocate_serial(&req, name);
                let serial_probe = start.elapsed().as_micros() as u64;
                block_calls(serial_probe.min(timed.run(&req, name).0))
            } else {
                1
            };
            for i in 0..iters.max(1) {
                let (micros, out, run_summary) = if workers == 1 {
                    let ((serial_us, serial_out), (driver_us, (_, out, run_summary))) = time_pair(
                        calls,
                        i % 2 == 0,
                        || allocate_serial(&req, name),
                        || timed.run(&req, name),
                    );
                    serial_micros = serial_micros.min(serial_us / u64::from(calls));
                    serial_alloc = Some(serial_out);
                    pairs.push((serial_us, driver_us));
                    (driver_us / u64::from(calls), out, run_summary)
                } else {
                    timed.run(&req, name)
                };
                assert!(
                    serial_alloc.as_ref() == Some(&out),
                    "{name}: parallel result at {workers} worker(s) differs from serial"
                );
                best_micros = best_micros.min(micros);
                summary = Some(run_summary);
            }
            let summary = summary.expect("at least one parallel iteration ran");
            let secs = best_micros.max(1) as f64 / 1e6;
            let speedup = if workers == 1 {
                paired_speedup(&pairs)
            } else {
                serial_micros.max(1) as f64 / best_micros.max(1) as f64
            };
            let entry = ParEntry {
                workload: name.clone(),
                config: config.label(),
                regs: "mips".to_string(),
                workers: workers as u64,
                funcs,
                instrs,
                micros: best_micros,
                instrs_per_sec: instrs as f64 / secs,
                speedup,
            };
            progress(&entry, &summary);
            entries.push(entry);
        }
    }
    entries
}

/// The `workers = 1` overhead gate: the driver with one worker runs jobs
/// inline, so it must stay within `threshold_pct` percent of the serial
/// pipeline on every workload. The sweep's `workers = 1` speedup is the
/// median of its paired block ratios ([`paired_speedup`]).
///
/// # Errors
///
/// Returns a message naming every workload whose `workers = 1` entry was
/// more than `threshold_pct` percent slower than serial
/// (`speedup < 1 - threshold_pct/100`).
pub fn workers1_gate(parallel: &[ParEntry], threshold_pct: f64) -> Result<(), String> {
    let floor = 1.0 - threshold_pct / 100.0;
    let offenders: Vec<String> = parallel
        .iter()
        .filter(|e| e.workers == 1 && e.speedup < floor)
        .map(|e| format!("{} ({:.2}x)", e.workload, e.speedup))
        .collect();
    if offenders.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "parallel driver at workers=1 slower than serial by more than \
             {threshold_pct:.0}%: {}",
            offenders.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn par(workload: &str, workers: u64, micros: u64, speedup: f64) -> ParEntry {
        ParEntry {
            workload: workload.to_string(),
            config: "SC+BS+PR".to_string(),
            regs: "mips".to_string(),
            workers,
            funcs: 4,
            instrs: 1000,
            micros,
            instrs_per_sec: 1000.0 / (micros as f64 / 1e6),
            speedup,
        }
    }

    #[test]
    fn workers1_gate_flags_only_slow_workers1_entries() {
        let sweep = vec![
            par("eqntott", 1, 100, 0.97),
            par("eqntott", 4, 80, 1.25), // other worker counts never gate
            par("ear", 1, 100, 0.80),
        ];
        workers1_gate(&sweep, 10.0).expect_err("ear at 0.80x trips a 10% gate");
        let err = workers1_gate(&sweep, 10.0).unwrap_err();
        assert!(err.contains("ear") && !err.contains("eqntott"), "{err}");
        workers1_gate(&sweep, 25.0).expect("0.80x passes a 25% gate");
        workers1_gate(&[], 10.0).expect("empty sweep passes vacuously");

        // Synthetic (serial_us, driver_us) pairs on both sides of a 10%
        // bound: the gate reads their median ratio, so one noisy pair
        // cannot trip it, but a driver slow in most pairs does.
        let paired = |name: &str, pairs: &[(u64, u64)]| par(name, 1, 100, paired_speedup(pairs));
        let one_noisy_pair = [(100, 100), (100, 200), (100, 101), (100, 99), (100, 102)];
        let just_inside = [(91, 100), (92, 100), (300, 100), (50, 100)];
        let just_outside = [(89, 100), (88, 100), (100, 100), (80, 100), (150, 100)];
        let slow_every_pair = [(100, 125), (100, 124), (100, 126)];
        assert!((paired_speedup(&one_noisy_pair) - 100.0 / 101.0).abs() < 1e-12);
        assert!((paired_speedup(&just_inside) - 0.915).abs() < 1e-12);
        workers1_gate(&[paired("eqntott", &one_noisy_pair)], 10.0)
            .expect("one 0.5x pair among five near 1.0x passes");
        workers1_gate(&[paired("eqntott", &just_inside)], 10.0).expect("median 0.915x passes");
        let err = workers1_gate(
            &[
                paired("eqntott", &one_noisy_pair),
                paired("li", &just_outside),
                paired("ear", &slow_every_pair),
            ],
            10.0,
        )
        .expect_err("medians 0.89x and 0.80x trip a 10% gate");
        assert!(
            err.contains("li (0.89x)") && err.contains("ear (0.80x)"),
            "{err}"
        );
        assert!(!err.contains("eqntott"), "{err}");
        assert_eq!(paired_speedup(&[]), 1.0);

        // The block form: each side of a pair is `block_calls` calls of at
        // least PAIR_BLOCK_US in total, calibrated on one call.
        assert_eq!(block_calls(1_000), 20);
        assert_eq!(block_calls(7), 2_858, "rounds up to cover the block");
        assert_eq!(block_calls(PAIR_BLOCK_US + 1), 1, "long calls run once");
        assert_eq!(block_calls(0), 10_000, "a call too quick to see is capped");
        // A 1 ms preemption lands on the driver side in three of five
        // pairs; the driver is really 3% slower per call. Single calls
        // read the stall as a 0.49x driver; blocks of 20 calls read it as
        // 0.93x and pass, while a driver really 20% slower fails both.
        let (serial_call, driver_call, stall) = (1_000u64, 1_030u64, 1_000u64);
        let stalled = [true, false, true, true, false];
        let pairs_of = |calls: u64, driver_call: u64| -> Vec<(u64, u64)> {
            stalled
                .iter()
                .map(|&hit| {
                    let driver = calls * driver_call + if hit { stall } else { 0 };
                    (calls * serial_call, driver)
                })
                .collect()
        };
        let calls = u64::from(block_calls(serial_call));
        let single = paired("eqntott", &pairs_of(1, driver_call));
        let block = paired("eqntott", &pairs_of(calls, driver_call));
        let slow_block = paired("eqntott", &pairs_of(calls, 1_200));
        assert!((single.speedup - 1_000.0 / 2_030.0).abs() < 1e-12);
        assert!((block.speedup - 20_000.0 / 21_600.0).abs() < 1e-12);
        workers1_gate(&[single], 10.0).expect_err("one-call pairs trip on the stall");
        workers1_gate(&[block], 10.0).expect("blocks absorb the stall");
        workers1_gate(&[slow_block], 10.0).expect_err("a 20% slower driver still trips");
        // time_pair interleaves the sides call by call, in the order asked
        // for, and hands back each side's last output.
        for (serial_first, order) in [(true, "sddssd"), (false, "dssdds")] {
            let log = std::cell::RefCell::new(String::new());
            let ((_, s), (_, d)) = time_pair(
                3,
                serial_first,
                || {
                    log.borrow_mut().push('s');
                    log.borrow().len()
                },
                || {
                    log.borrow_mut().push('d');
                    log.borrow().len()
                },
            );
            assert_eq!(log.into_inner(), order);
            assert_eq!((s, d), if serial_first { (5, 6) } else { (6, 5) });
        }
    }

    #[test]
    fn sweep_runs_at_tiny_scale_and_matches_serial() {
        // The full sweep at minuscule scale: exercises the
        // parallel-equals-serial assertion inside run_par_sweep on every
        // workload (fuzz64 included) at all four worker counts.
        let mut seen = Vec::new();
        let entries = run_par_sweep(Scale(0.02), 1, |e, summary| {
            assert_eq!(summary.total_jobs, e.funcs, "summary counts every job");
            assert_eq!(summary.degraded, 0);
            assert_eq!(summary.panics, 0);
            assert_eq!(summary.workers as u64, e.workers.min(e.funcs));
            seen.push(e.workload.clone());
        });
        assert_eq!(
            entries.len(),
            par_workloads(Scale(0.02)).len() * SWEEP_WORKER_COUNTS.len()
        );
        assert_eq!(seen.len(), entries.len());
        for e in &entries {
            assert!(e.micros > 0 && e.instrs > 0 && e.speedup > 0.0);
        }
        let fuzz: Vec<_> = entries
            .iter()
            .filter(|e| e.workload.starts_with("fuzz"))
            .collect();
        assert_eq!(fuzz.len(), SWEEP_WORKER_COUNTS.len());
        assert_eq!(fuzz[0].funcs, FUZZ_WORKLOAD_FUNCS as u64);
    }
}
