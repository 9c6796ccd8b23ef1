//! Batched parameter sweeps and multi-restart optimization — the
//! coarse-grained parallel layer over the paper's Fig. 1 loop.
//!
//! Sweeps the p = 1 `(γ, β)` landscape of a MaxCut instance through a
//! `SweepRunner` (one `Arc`-shared cost vector, points as pool tasks),
//! checks the batch agrees with one-at-a-time evaluation, then runs a
//! multi-restart Nelder–Mead at p = 3 with restarts as pool tasks.
//!
//! Run with: `cargo run --release --example parameter_sweep`
//!
//! Expected output: a 21×21 grid swept in one batched call whose best
//! point matches the sequential grid search exactly, followed by a
//! multi-restart table where every restart is reproducible (fixed seed)
//! and the best restart reaches an approximation ratio above 0.85, and
//! finally a batched Nelder–Mead refinement (reflection/expansion pairs
//! evaluated as 2-point sweep batches under points-parallel nesting,
//! the mode whose serial per-point kernels keep the batched trajectory
//! bit-identical to the sequential one) that never lowers the
//! multi-restart quality.

use qokit::optim::{grid_search_2d, grid_search_2d_batched, MultiStart, NelderMead, RestartMethod};
use qokit::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(7);
    let graph = Graph::random_regular(n, 3, &mut rng);
    let poly = qokit::terms::maxcut::maxcut_polynomial(&graph);
    let (best_cut, _) = poly.brute_force_minimum(); // f = −cut
    let best_cut = -best_cut;
    println!("problem: MaxCut on a random 3-regular graph, n = {n}, optimal cut {best_cut}");

    // --- Batched p = 1 grid sweep -------------------------------------
    let runner = SweepRunner::new(FurSimulator::new(&poly));
    let steps = 21;
    let t = Instant::now();
    let batched = grid_search_2d_batched(
        |pts| runner.energies_p1(pts),
        (-0.6, 0.6),
        (-0.6, 0.6),
        steps,
    );
    let batched_time = t.elapsed();
    println!(
        "batched grid sweep: {} points in {batched_time:.2?} -> best <C> = {:.4} at (γ, β) = ({:.3}, {:.3})",
        batched.n_evals, batched.best_f, batched.best_x[0], batched.best_x[1]
    );

    // The sequential grid search must land on the identical point.
    let sim = runner.simulator();
    let sequential = grid_search_2d(
        |g, b| sim.objective(&[g], &[b]),
        (-0.6, 0.6),
        (-0.6, 0.6),
        steps,
    );
    assert!((sequential.best_f - batched.best_f).abs() < 1e-12);
    assert_eq!(sequential.best_x, batched.best_x);
    println!("sequential grid search agrees: identical best point");

    // --- Multi-restart Nelder–Mead at p = 3 ---------------------------
    let p = 3;
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead {
            max_evals: 200,
            ..NelderMead::default()
        }),
        restarts: 6,
        seed: 11,
        bounds: vec![(-0.7, 0.7); 2 * p],
    };
    let t = Instant::now();
    let run = driver.minimize(&|x: &[f64]| {
        let (g, b) = qokit::optim::schedules::unpack(x);
        sim.objective(g, b)
    });
    let ms_time = t.elapsed();
    println!(
        "\nmulti-restart Nelder–Mead, p = {p}, {} restarts in {ms_time:.2?}:",
        driver.restarts
    );
    for (i, r) in run.restarts.iter().enumerate() {
        let marker = if i == run.best_restart {
            "  <- best"
        } else {
            ""
        };
        println!(
            "  restart {i}: <C> = {:.4} after {} evaluations{marker}",
            r.best_f, r.n_evals
        );
    }
    let ratio = -run.best().best_f / best_cut;
    println!(
        "best restart {}: <C> = {:.4}, approximation ratio {ratio:.4}",
        run.best_restart,
        run.best().best_f
    );
    assert!(ratio > 0.85, "multi-restart should reach ratio > 0.85");

    // --- Batched Nelder–Mead refinement -------------------------------
    // Candidate sets (initial simplex, reflection/expansion pairs, shrink
    // rows) evaluate as sweep batches. Points-parallel keeps kernels
    // serial inside each candidate, so the batched trajectory is
    // *bit-identical* to sequential Nelder–Mead on any pool size
    // (`KernelsParallel` nesting, which `Auto` picks for batches smaller
    // than the pool, trades that determinism for parallel kernels — see
    // the README's nesting-mode guidance).
    let nm = NelderMead {
        max_evals: 150,
        ..NelderMead::default()
    };
    let x0 = run.best().best_x.clone();
    // One serial-kernel simulator, shared between the runner and the
    // sequential reference — from_arc keeps a single 2^n cost diagonal.
    let serial_sim = std::sync::Arc::new(FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    ));
    let refine_runner = SweepRunner::from_arc(
        std::sync::Arc::clone(&serial_sim),
        SweepOptions {
            exec: ExecPolicy::rayon(),
            nested: SweepNesting::PointsParallel,
        },
    );
    let t = Instant::now();
    let refined = nm.minimize_batched(
        |xs| {
            let points: Vec<SweepPoint> = xs
                .iter()
                .map(|x| {
                    let (g, b) = qokit::optim::schedules::unpack(x);
                    SweepPoint::new(g.to_vec(), b.to_vec())
                })
                .collect();
            refine_runner.energies(&points)
        },
        &x0,
    );
    let sequential_refined = nm.minimize(
        |x| {
            let (g, b) = qokit::optim::schedules::unpack(x);
            serial_sim.objective(g, b)
        },
        &x0,
    );
    println!(
        "\nbatched Nelder–Mead refinement: <C> = {:.4} after {} evaluations in {:.2?}",
        refined.best_f,
        refined.n_evals,
        t.elapsed()
    );
    assert_eq!(
        refined.best_f.to_bits(),
        sequential_refined.best_f.to_bits(),
        "batched NM must walk the sequential trajectory exactly"
    );
    assert!(refined.best_f <= run.best().best_f + 1e-9);
    println!("sequential Nelder–Mead agrees: identical trajectory and best value");
}
