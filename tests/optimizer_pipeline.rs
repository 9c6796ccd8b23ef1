//! End-to-end parameter-optimization pipelines (the Fig. 1 loop): the
//! optimizers must actually improve QAOA objectives through the fast
//! simulator, and the depth-extension heuristics must behave.

use qokit::optim::{schedules, NelderMead, Spsa};
use qokit::prelude::*;
use qokit::terms::{labs, maxcut};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn maxcut_sim(n: usize, seed: u64) -> FurSimulator {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Graph::random_regular(n, 3, &mut rng);
    FurSimulator::with_options(
        &maxcut::maxcut_polynomial(&g),
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    )
}

#[test]
fn nelder_mead_improves_over_ramp_start() {
    let sim = maxcut_sim(10, 5);
    let p = 3;
    let (g0, b0) = schedules::linear_ramp(p, 0.5);
    let x0 = schedules::pack(&g0, &b0);
    let start = sim.objective(&g0, &b0);
    let nm = NelderMead {
        max_evals: 250,
        ..NelderMead::default()
    };
    let r = nm.minimize(
        |x| {
            let (g, b) = schedules::unpack(x);
            sim.objective(g, b)
        },
        &x0,
    );
    assert!(
        r.best_f < start - 0.1,
        "optimizer failed to improve: {start} → {}",
        r.best_f
    );
    // The optimized energy beats the uniform state's.
    assert!(r.best_f < sim.objective(&[], &[]));
}

#[test]
fn ramp_already_beats_uniform_state() {
    // The corrected TQA sign convention must anneal downhill.
    let sim = maxcut_sim(12, 7);
    let (g, b) = schedules::linear_ramp(6, 0.4);
    assert!(sim.objective(&g, &b) < sim.objective(&[], &[]) - 0.5);
}

#[test]
fn interp_ladder_tracks_depth() {
    // Optimize at p, extend with INTERP to p+1: the extended start must
    // not be drastically worse than the optimum it came from, and
    // re-optimizing must improve it further.
    let sim = maxcut_sim(10, 11);
    let p = 2;
    let (g0, b0) = schedules::linear_ramp(p, 0.5);
    let nm = NelderMead {
        max_evals: 200,
        ..NelderMead::default()
    };
    let r = nm.minimize(
        |x| {
            let (g, b) = schedules::unpack(x);
            sim.objective(g, b)
        },
        &schedules::pack(&g0, &b0),
    );
    let (g_opt, b_opt) = schedules::unpack(&r.best_x);
    let g_ext = schedules::interp_extend(g_opt);
    let b_ext = schedules::interp_extend(b_opt);
    let extended_start = sim.objective(&g_ext, &b_ext);
    assert!(
        extended_start < r.best_f + 1.0,
        "INTERP start collapsed: {extended_start} vs {}",
        r.best_f
    );
    let r2 = nm.minimize(
        |x| {
            let (g, b) = schedules::unpack(x);
            sim.objective(g, b)
        },
        &schedules::pack(&g_ext, &b_ext),
    );
    assert!(r2.best_f <= extended_start + 1e-9);
    assert!(
        r2.best_f <= r.best_f + 0.2,
        "depth increase should not hurt"
    );
}

#[test]
fn spsa_improves_labs_objective() {
    let poly = labs::labs_terms(8);
    let sim = FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    let (g0, b0) = schedules::linear_ramp(2, 0.4);
    let start = sim.objective(&g0, &b0);
    let mut rng = StdRng::seed_from_u64(3);
    let spsa = Spsa {
        iterations: 150,
        ..Spsa::default()
    };
    let r = spsa.minimize(
        |x| {
            let (g, b) = schedules::unpack(x);
            sim.objective(g, b)
        },
        &schedules::pack(&g0, &b0),
        &mut rng,
    );
    assert!(
        r.best_f <= start,
        "SPSA went uphill: {start} → {}",
        r.best_f
    );
}

#[test]
fn p1_landscape_symmetry() {
    // E(γ, β) = E(−γ, −β): complex conjugation symmetry of the QAOA state
    // for real cost functions.
    let sim = maxcut_sim(10, 13);
    for (g, b) in [(0.3, -0.7), (0.9, 0.2), (-0.4, -0.1)] {
        let e1 = sim.objective(&[g], &[b]);
        let e2 = sim.objective(&[-g], &[-b]);
        assert!((e1 - e2).abs() < 1e-10, "({g}, {b}): {e1} vs {e2}");
    }
}

#[test]
fn grid_search_finds_good_p1_point() {
    let sim = maxcut_sim(8, 17);
    let uniform = sim.objective(&[], &[]);
    let r = qokit::optim::grid_search_2d(
        |g, b| sim.objective(&[g], &[b]),
        (-1.0, 1.0),
        (-1.0, 1.0),
        15,
    );
    assert!(r.best_f < uniform, "grid must beat the uniform state");
    assert_eq!(r.n_evals, 225);
}

#[test]
fn optimization_through_gate_baseline_matches_fast_path() {
    // The two objective implementations must drive the optimizer to the
    // same place (they compute the same function).
    let mut rng = StdRng::seed_from_u64(23);
    let g = Graph::random_regular(8, 3, &mut rng);
    let poly = maxcut::maxcut_polynomial(&g);
    let fast = FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    let gate = qokit::gates::GateSimulator::new(
        poly,
        qokit::gates::GateSimOptions {
            exec: ExecPolicy::serial(),
            ..qokit::gates::GateSimOptions::default()
        },
    );
    for (gm, bt) in [(0.2, -0.5), (0.7, -0.1)] {
        let a = fast.objective(&[gm], &[bt]);
        let b = gate.objective(&[gm], &[bt]);
        assert!((a - b).abs() < 1e-9);
    }
}
