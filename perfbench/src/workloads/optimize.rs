//! `optimize_labs`: the paper's headline loop. Fixed-budget Nelder–Mead
//! (`ftol = xtol = 0`, so every run spends its whole budget) over one
//! default-policy `FurSimulator` for LABS at n = 20, p = 6, from a
//! seeded linear ramp. Almost all time goes to the phase and mixer
//! kernels on a 2^20-amplitude state.

use crate::outcome::{secs, timed_setup, Args, Intervals, Outcome};
use crate::pace::Pacer;
use crate::probe::{self, Kernels};
use crate::record::Metric;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use qokit_core::{FurSimulator, QaoaSimulator};
use qokit_optim::schedules::{linear_ramp, pack, unpack};
use qokit_optim::{NelderMead, OptimizeResult};
use qokit_statevec::ExecPolicy;
use qokit_terms::labs::labs_terms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const N: usize = 20;
const P: usize = 6;
/// Objective evaluations per optimization run.
pub const BUDGET: usize = 24;
const SETUP_REPS: usize = 15;
/// Largest allowed |best_f − serial re-evaluation|.
const TOL: f64 = 1e-9;

struct Run {
    result: OptimizeResult,
    optimize_s: f64,
    objective_s: f64,
}

/// Nominal seconds of one optimization run on the 2-core reference host.
/// A phase of `s` seconds makes `round(s / RUN_NOMINAL_S)` runs (at least
/// one): a fixed count, so every run of the benchmark has the same number
/// of samples and its tail the same percentile, whatever the host speed.
const RUN_NOMINAL_S: f64 = 10.0;

/// Fixed-budget optimization runs back to back, as many as `seconds` holds
/// nominally; every objective call's latency goes to `lat_ms`.
fn optimize_for(
    seconds: f64,
    x0: &[f64],
    pacer: &mut Pacer,
    lat: &mut Intervals,
    mut objective: impl FnMut(&[f64], &[f64], u64) -> f64,
) -> Vec<Run> {
    let nm = NelderMead {
        max_evals: BUDGET,
        ftol: 0.0,
        xtol: 0.0,
        ..NelderMead::default()
    };
    let count = ((seconds / RUN_NOMINAL_S).round() as usize).max(1);
    let mut runs: Vec<Run> = Vec::with_capacity(count);
    while runs.len() < count {
        let (t, spent) = (Instant::now(), pacer.spent_s());
        let mut objective_s = 0.0;
        let result = nm.minimize(
            |x| {
                let (g, b) = unpack(x);
                pacer.tick();
                let c = Instant::now();
                let v = objective(g, b, lat.len() as u64 + 1);
                let end = Instant::now();
                objective_s += (end - c).as_secs_f64();
                lat.push(c, end);
                v
            },
            x0,
        );
        runs.push(Run {
            result,
            optimize_s: secs(t) - (pacer.spent_s() - spent),
            objective_s,
        });
    }
    pacer.sample();
    runs
}

/// Runs the workload.
pub fn run(args: &Args, tr: &Tracer, pacer: &mut Pacer) -> Outcome {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let (g0, b0) = linear_ramp(P, rng.gen_range::<f64, _>(0.5..0.9));
    let x0 = pack(&g0, &b0);

    let mut terms_s = Vec::new();
    let mut precompute_s = Vec::new();
    let (setup, sim) = timed_setup(pacer, SETUP_REPS, || {
        let t = Instant::now();
        let poly = labs_terms(N);
        terms_s.push(secs(t));
        let t = Instant::now();
        let sim = FurSimulator::new(&poly);
        precompute_s.push(secs(t));
        sim
    });
    std::hint::black_box(sim.objective(&g0, &b0)); // warm-up

    let mut out = Outcome {
        setup,
        ..Outcome::default()
    };
    let (t, spent) = (Instant::now(), pacer.spent_s());
    let mut runs = optimize_for(
        args.phase_seconds(),
        &x0,
        pacer,
        &mut out.latency,
        |g, b, _| sim.objective(g, b),
    );
    out.window_s = secs(t) - (pacer.spent_s() - spent);
    out.items = out.latency.len() as f64;
    out.peak_rss_mib = crate::host::peak_rss_mib();
    let untraced_runs = runs.len();
    if args.trace {
        let policy = sim.options().exec;
        runs.extend(optimize_for(
            args.phase_seconds(),
            &x0,
            pacer,
            &mut out.traced,
            |g, b, request| probe::objective(&sim, g, b, policy, tr, request),
        ));
    }

    // Output check, outside the timed region: the best value re-evaluated
    // under the serial policy, and the budget spent exactly.
    for r in &runs {
        out.tally.attempt();
        let (g, b) = unpack(&r.result.best_x);
        let mut state = sim.initial_state();
        sim.evolve_in_place_with(&mut state, g, b, ExecPolicy::serial());
        let serial = sim
            .cost_diagonal()
            .expectation(state.amplitudes(), ExecPolicy::serial());
        let spent = r.result.n_evals == r.result.history.len() && r.result.n_evals >= BUDGET;
        out.tally
            .checked(spent && (serial - r.result.best_f).abs() <= TOL);
    }

    let untraced = &runs[..untraced_runs];
    let optimize_s = median(&untraced.iter().map(|r| r.optimize_s).collect::<Vec<_>>());
    let self_s = median(
        &untraced
            .iter()
            .map(|r| r.optimize_s - r.objective_s)
            .collect::<Vec<_>>(),
    );
    let obj = summarize(&out.latency.ms);
    out.report = vec![
        Metric::new("optimize_s", optimize_s, "s"),
        Metric::new("objective_p50_ms", obj.median, "ms"),
        Metric::new("objective_tail_ms", obj.tail, "ms"),
        Metric::new("optim.evals", runs[0].result.n_evals as f64, "count"),
        Metric::new("optim.self_s", self_s, "s"),
        Metric::new("optim.runs", untraced_runs as f64, "count"),
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
        let best = &runs[0].result.best_x;
        let (g, b) = unpack(best);
        out.layers.extend(probe::common_layers(
            tr,
            &sim,
            g,
            b,
            Kernels::Workload,
            2,
            Some(obj.median),
        ));
    }
    out
}
