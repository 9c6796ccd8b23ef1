//! `scan_maxcut`: a 256×256 `(γ, β)` landscape of a seeded 3-regular
//! MaxCut graph at n = 10, p = 1, streamed through
//! `SweepRunner::scan_into` into a `LandscapeAggregator` with default
//! sweep options. The kernels run on 1024-amplitude states, so per-point
//! dispatch, buffer checkout and initial-state fill weigh against the
//! arithmetic. A request is one batched dispatch of `CHUNK` points.

use crate::outcome::{secs, timed_ms, timed_setup, Args, Intervals, Outcome};
use crate::pace::Pacer;
use crate::probe::{self, Kernels};
use crate::record::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use qokit_core::landscape::{EnergySink, LandscapeAggregator};
use qokit_core::{FurSimulator, QaoaSimulator, SweepRunner};
use qokit_dist::{Axis, Grid2d, PointSource};
use qokit_statevec::ExecPolicy;
use qokit_terms::maxcut::maxcut_polynomial;
use qokit_terms::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const N: usize = 10;
const STEPS: usize = 256;
/// Points per batched dispatch of `scan_into` — one request, a quarter of
/// the grid. Long enough (~0.4 s) that a scheduler hiccup on the shared
/// host is a small part of any one request, so the tail stays steady.
const CHUNK: usize = 16384;
const TOP_K: usize = 8;
/// Set-up takes well under a millisecond; many repetitions steady its
/// median.
const SETUP_REPS: usize = 1000;

/// What a scan pass must reproduce: point count, minimum energy bits,
/// argmin.
type Fingerprint = (u64, Option<u64>, Option<u64>);

fn fingerprint(count: u64, agg: &LandscapeAggregator) -> Fingerprint {
    (count, agg.min_energy().map(f64::to_bits), agg.argmin())
}

/// Forwards every energy to the aggregator and clocks each batched
/// dispatch: a batch ends when its last point is observed; the pacer may
/// sample there, and the next batch starts after it.
struct BatchClock<'a> {
    agg: LandscapeAggregator,
    last: Instant,
    batches: &'a mut Intervals,
    pacer: &'a mut Pacer,
    tr: &'a Tracer,
    parent: u64,
    request: u64,
}

impl EnergySink for BatchClock<'_> {
    fn observe(&mut self, index: u64, energy: f64) {
        self.agg.observe(index, energy);
        if (index + 1).is_multiple_of(CHUNK as u64) {
            let now = Instant::now();
            self.batches.push(self.last, now);
            self.tr.record(
                "core.sweep.batch",
                self.parent,
                self.request,
                self.last,
                now,
            );
            self.pacer.tick();
            self.last = Instant::now();
        }
    }
}

/// Scan passes back to back until `seconds` have passed (at least one).
/// Returns each pass's fingerprint; each batch goes to `batches`.
fn scan_for(
    seconds: f64,
    runner: &SweepRunner,
    grid: &Grid2d,
    tr: &Tracer,
    pacer: &mut Pacer,
    batches: &mut Intervals,
) -> Vec<Fingerprint> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || secs(start) < seconds {
        let request = passes.len() as u64 + 1;
        let ((count, agg), _) = timed_ms(tr, "core.scan", request, |id| {
            let mut sink = BatchClock {
                agg: LandscapeAggregator::new(TOP_K),
                last: Instant::now(),
                batches: &mut *batches,
                pacer: &mut *pacer,
                tr,
                parent: id,
                request,
            };
            let count = runner.scan_into((0..grid.len()).map(|i| grid.point(i)), CHUNK, &mut sink);
            (count, sink.agg)
        });
        // A scan error is a failed pass: it can never match the reference.
        let count = count.unwrap_or(u64::MAX);
        passes.push(fingerprint(count, &agg));
    }
    pacer.sample();
    passes
}

/// Runs the workload.
pub fn run(args: &Args, tr: &Tracer, pacer: &mut Pacer) -> Outcome {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let graph = Graph::random_regular(N, 3, &mut rng);
    let grid = Grid2d::new(
        Axis::new(0.0, rng.gen_range::<f64, _>(0.8..1.6), STEPS),
        Axis::new(-rng.gen_range::<f64, _>(0.6..1.2), 0.0, STEPS),
    );

    let mut terms_s = Vec::new();
    let mut precompute_s = Vec::new();
    let (setup, runner) = timed_setup(pacer, SETUP_REPS, || {
        let t = Instant::now();
        let poly = maxcut_polynomial(&graph);
        terms_s.push(secs(t));
        let t = Instant::now();
        let sim = FurSimulator::new(&poly);
        precompute_s.push(secs(t));
        SweepRunner::new(sim)
    });
    let sim = runner.simulator().clone();
    // Warm-up: fill the buffer recycler and the pool.
    let mut warm = LandscapeAggregator::new(TOP_K);
    std::hint::black_box(runner.scan_into(
        (0..CHUNK as u64).map(|i| grid.point(i)),
        CHUNK,
        &mut warm,
    ))
    .ok();

    let mut out = Outcome {
        setup,
        ..Outcome::default()
    };
    let off = Tracer::new(false);
    let (t, spent) = (Instant::now(), pacer.spent_s());
    let mut passes = scan_for(
        args.phase_seconds(),
        &runner,
        &grid,
        &off,
        pacer,
        &mut out.latency,
    );
    out.window_s = secs(t) - (pacer.spent_s() - spent);
    out.items = (passes.len() as u64 * grid.len()) as f64;
    out.peak_rss_mib = crate::host::peak_rss_mib();
    let untraced_passes = passes.len();
    if args.trace {
        passes.extend(scan_for(
            args.phase_seconds(),
            &runner,
            &grid,
            tr,
            pacer,
            &mut out.traced,
        ));
    }

    // Output check, outside the timed region: every pass saw every grid
    // point, and min/argmin are bit-equal to a serial per-point
    // recomputation folded in index order.
    let mut reference = LandscapeAggregator::new(TOP_K);
    let serial_t = Instant::now();
    for i in 0..grid.len() {
        let p = grid.point(i);
        let mut state = sim.initial_state();
        sim.evolve_in_place_with(&mut state, &p.gammas, &p.betas, ExecPolicy::serial());
        let e = sim
            .cost_diagonal()
            .expectation(state.amplitudes(), ExecPolicy::serial());
        reference.observe(i, e);
    }
    let serial_point_us = secs(serial_t) * 1e6 / grid.len() as f64;
    let want = fingerprint(grid.len(), &reference);
    for got in &passes {
        out.tally.attempt();
        out.tally.checked(*got == want);
    }

    let points_per_s = out.items / out.window_s;
    let point_us = 1e6 / points_per_s;
    let width = crate::host::pool_width() as f64;
    out.report = vec![
        Metric::new("scan_points_per_s", points_per_s, "points/s"),
        Metric::new("scan.passes", untraced_passes as f64, "count"),
        Metric::new("core.sweep_point_us", point_us, "us"),
        Metric::new("core.point_kernel_us", serial_point_us, "us"),
        Metric::new(
            "core.sweep_overhead_frac",
            1.0 - serial_point_us / (width * point_us),
            "fraction",
        ),
    ];
    out.layers = vec![
        Metric::new("terms.build_s", median(&terms_s), "s"),
        Metric::new("costvec.precompute_s", median(&precompute_s), "s"),
        Metric::new(
            "costvec.diag_bytes",
            sim.cost_diagonal().memory_bytes() as f64,
            "bytes",
        ),
    ];
    if args.trace {
        let p = grid.point(grid.len() / 2 + STEPS as u64 / 2);
        out.layers.extend(probe::common_layers(
            tr,
            &sim,
            &p.gammas,
            &p.betas,
            Kernels::Serial,
            500,
            None,
        ));
    }
    out
}
