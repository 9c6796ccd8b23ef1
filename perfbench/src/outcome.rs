//! What a workload hands back to `main`, and helpers the
//! workloads share.

use crate::pace::Pacer;
use crate::record::Metric;
use crate::stats::Tally;
use crate::trace::Tracer;
use qokit_core::SimOptions;
use qokit_dist::wire::SweepSimSpec;
use qokit_statevec::ExecPolicy;
use std::time::Instant;

/// Command-line arguments of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Seconds each measured phase lasts: all of `seconds` in an
    /// end-to-end run; a traced run splits them between an untraced and a
    /// traced phase so it can report its own tracing overhead.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds as f64 / 2.0
        } else {
            self.seconds as f64
        }
    }
}

/// Timed intervals — requests or set-up repetitions — each with its wall
/// time and when it ran, so it can be paced afterwards.
#[derive(Clone, Debug, Default)]
pub struct Intervals {
    /// Wall time of each interval, ms.
    pub ms: Vec<f64>,
    /// Start and end of each interval.
    pub at: Vec<(Instant, Instant)>,
}

impl Intervals {
    /// Records the interval `[start, end]`.
    pub fn push(&mut self, start: Instant, end: Instant) {
        self.ms.push((end - start).as_secs_f64() * 1e3);
        self.at.push((start, end));
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.ms.len()
    }
}

/// The measured result of one workload run. Timings are wall times with
/// their intervals; `main` paces them (see [`crate::pace`]).
#[derive(Default)]
pub struct Outcome {
    /// Attempts and failures over every checked operation.
    pub tally: Tally,
    /// The run's set-up repetitions.
    pub setup: Intervals,
    /// Each request of the untraced phase.
    pub latency: Intervals,
    /// Each request of the traced phase (traced runs).
    pub traced: Intervals,
    /// Work items (evaluations, grid points, jobs) done in the untraced
    /// phase.
    pub items: f64,
    /// Wall seconds of the untraced phase, time spent pacing excluded.
    pub window_s: f64,
    /// Peak resident memory at the end of the untraced phase, MiB (the
    /// output checks after it are not what a user pays for).
    pub peak_rss_mib: f64,
    /// Per-layer metrics every workload reports in its traced run.
    pub layers: Vec<Metric>,
    /// Workload-specific metrics under their own names.
    pub report: Vec<Metric>,
}

/// Blocks of set-up repetitions with a pace sample before each and after
/// the last, so every repetition has samples close on both sides.
pub const SETUP_BLOCKS: usize = 5;

/// Runs `build` `reps` times in [`SETUP_BLOCKS`] paced blocks and returns
/// the timed repetitions together with the last build's value.
pub fn timed_setup<T>(
    pacer: &mut Pacer,
    reps: usize,
    mut build: impl FnMut() -> T,
) -> (Intervals, T) {
    let mut setup = Intervals::default();
    let mut last = None;
    let reps = reps.max(1);
    for rep in 0..reps {
        if rep % reps.div_ceil(SETUP_BLOCKS) == 0 {
            pacer.sample();
        }
        let t = Instant::now();
        last = Some(build());
        setup.push(t, Instant::now());
    }
    pacer.sample();
    (setup, last.expect("at least one set-up repetition"))
}

/// Seconds since `t` as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` under `tr` as a root span when tracing, timing it either way;
/// returns `(value, ms)`.
pub fn timed_ms<R>(tr: &Tracer, name: &str, request: u64, f: impl FnOnce(u64) -> R) -> (R, f64) {
    let t = Instant::now();
    let v = tr.span(name, 0, request, f);
    (v, t.elapsed().as_secs_f64() * 1e3)
}

/// The simulator spec serve jobs must carry. The job API forces a layout
/// and precompute choice; this is the one place they are filled in, with
/// the defaults a plain `FurSimulator::new` would resolve.
pub fn default_spec() -> SweepSimSpec {
    let defaults = SimOptions::default();
    SweepSimSpec {
        precompute: defaults.precompute,
        quantize_u16: defaults.quantize_u16,
        layout: ExecPolicy::auto().layout,
    }
}
