//! Batched-sweep equivalence: a `SweepRunner` batch must compute exactly
//! the function a sequential loop of single-point
//! `evolve_in_place` + energy evaluations computes.
//!
//! Properties run with a forced-parallel sweep policy (`min_len = 1`, tiny
//! `min_chunk`) so the pool paths genuinely engage even on small batches
//! and 1-core CI machines, across both `nested` modes and the X / XY-ring
//! mixers. CI additionally runs this whole suite under
//! `QOKIT_THREADS ∈ {1, 4}`. Points-parallel batches are pinned to
//! ≤ 1e-12 of the serial reference (they are in fact bit-identical — the
//! kernels inside each point run serially); kernels-parallel batches may
//! differ by floating-point association in reductions, bounded far below
//! 1e-12 at these sizes.

use proptest::prelude::*;
use qokit::prelude::*;
use qokit::terms::labs::labs_terms;

/// Strategy: a random spin polynomial on `n` variables.
fn poly_strategy(n: usize, max_terms: usize) -> impl Strategy<Value = SpinPolynomial> {
    prop::collection::vec(
        (
            -2.0f64..2.0,
            prop::bits::u64::between(0, n).prop_map(move |m| m & ((1u64 << n) - 1)),
        ),
        1..max_terms,
    )
    .prop_map(move |pairs| {
        SpinPolynomial::new(
            n,
            pairs
                .into_iter()
                .map(|(w, m)| Term::from_mask(w, m))
                .collect(),
        )
    })
}

/// Strategy: a batch of sweep points with depth `p`.
fn points_strategy(p: usize, max_points: usize) -> impl Strategy<Value = Vec<SweepPoint>> {
    prop::collection::vec(
        (
            prop::collection::vec(-1.0f64..1.0, p),
            prop::collection::vec(-1.0f64..1.0, p),
        ),
        1..max_points,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(g, b)| SweepPoint::new(g, b))
            .collect()
    })
}

/// The reference: a sequential loop of single-point evolutions and energy
/// evaluations on a serial simulator.
fn sequential_energies(sim: &FurSimulator, points: &[SweepPoint]) -> Vec<f64> {
    points
        .iter()
        .map(|p| {
            let mut state = sim.initial_state();
            sim.evolve_in_place(&mut state, &p.gammas, &p.betas);
            sim.cost_diagonal()
                .expectation(state.amplitudes(), ExecPolicy::serial())
        })
        .collect()
}

fn serial_sim(poly: &SpinPolynomial, mixer: Mixer) -> FurSimulator {
    FurSimulator::with_options(
        poly,
        SimOptions {
            mixer,
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    )
}

/// The forced-parallel sweep policy: every pool path engages.
fn forced() -> ExecPolicy {
    ExecPolicy::rayon().with_min_len(1).with_min_chunk(4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_sweep_matches_sequential_loop(
        poly in poly_strategy(7, 16),
        points in points_strategy(2, 10),
    ) {
        for mixer in [Mixer::X, Mixer::XyRing] {
            let reference = sequential_energies(&serial_sim(&poly, mixer), &points);
            for nested in [SweepNesting::PointsParallel, SweepNesting::KernelsParallel] {
                let runner = SweepRunner::with_options(
                    serial_sim(&poly, mixer),
                    SweepOptions { exec: forced(), nested },
                );
                let batched = runner.energies(&points);
                prop_assert_eq!(batched.len(), reference.len());
                for (i, (a, b)) in reference.iter().zip(&batched).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-12,
                        "{:?}/{:?} point {}: {} vs {}", mixer, nested, i, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_batches_reuse_buffers_without_drift(
        points in points_strategy(1, 6),
    ) {
        // Round-tripping the same batch through one runner twice must give
        // bit-identical answers — recycled buffers carry no state over.
        let runner = SweepRunner::with_options(
            serial_sim(&labs_terms(6), Mixer::X),
            SweepOptions { exec: forced(), nested: SweepNesting::PointsParallel },
        );
        let a = runner.energies(&points);
        let b = runner.energies(&points);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Deterministic check across explicit pool sizes: the same batch under
/// 1-, 2- and 4-worker sweep pools must match the sequential loop.
#[test]
fn explicit_pool_sizes_match_sequential_loop() {
    let poly = labs_terms(8);
    let points: Vec<SweepPoint> = (0..7)
        .map(|i| {
            SweepPoint::new(
                vec![0.1 + 0.05 * i as f64, -0.3],
                vec![0.6 - 0.04 * i as f64, 0.2],
            )
        })
        .collect();
    for mixer in [Mixer::X, Mixer::XyRing] {
        let reference = sequential_energies(&serial_sim(&poly, mixer), &points);
        for threads in [1usize, 2, 4] {
            let runner = SweepRunner::with_options(
                serial_sim(&poly, mixer),
                SweepOptions {
                    exec: ExecPolicy::rayon()
                        .with_threads(threads)
                        .with_min_len(1)
                        .with_min_chunk(8),
                    nested: SweepNesting::PointsParallel,
                },
            );
            let batched = runner.energies(&points);
            // Serial kernels inside each point: bit-identical, not merely
            // within tolerance.
            for (a, b) in reference.iter().zip(&batched) {
                assert_eq!(a.to_bits(), b.to_bits(), "{mixer:?}, threads = {threads}");
            }
        }
    }
}

/// The batched grid search must visit the exact sequential grid: same best
/// point, same history, when driven through a `SweepRunner`.
#[test]
fn batched_grid_search_equals_sequential_grid_search() {
    let poly = labs_terms(7);
    let sim = serial_sim(&poly, Mixer::X);
    let sequential = qokit::optim::grid_search_2d(
        |g, b| sim.objective(&[g], &[b]),
        (-0.5, 0.5),
        (-0.4, 0.4),
        9,
    );
    let runner = SweepRunner::with_options(
        serial_sim(&poly, Mixer::X),
        SweepOptions {
            exec: forced(),
            nested: SweepNesting::PointsParallel,
        },
    );
    let batched = qokit::optim::grid_search_2d_batched(
        |pts| runner.energies_p1(pts),
        (-0.5, 0.5),
        (-0.4, 0.4),
        9,
    );
    assert_eq!(sequential.best_x, batched.best_x);
    assert_eq!(sequential.best_f.to_bits(), batched.best_f.to_bits());
    assert_eq!(sequential.n_evals, batched.n_evals);
    assert_eq!(sequential.history.len(), batched.history.len());
    for (a, b) in sequential.history.iter().zip(&batched.history) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Batched Nelder–Mead driven by a `SweepRunner` (reflection/expansion
/// pairs, initial simplex, and shrink rows each as one batched pool
/// dispatch) must walk the exact trajectory of sequential Nelder–Mead on
/// one-at-a-time objective calls.
#[test]
fn batched_nelder_mead_via_sweep_runner_matches_sequential() {
    use qokit::optim::{schedules, NelderMead};
    let poly = labs_terms(7);
    let p = 2;
    let nm = NelderMead {
        max_evals: 120,
        ..NelderMead::default()
    };
    let x0 = {
        let (g, b) = schedules::linear_ramp(p, 0.6);
        schedules::pack(&g, &b)
    };

    let sim = serial_sim(&poly, Mixer::X);
    let sequential = nm.minimize(
        |x| {
            let (g, b) = schedules::unpack(x);
            sim.objective(g, b)
        },
        &x0,
    );

    // Points-parallel keeps kernels serial, so each candidate's energy is
    // bit-identical to the sequential objective call — and therefore so is
    // the whole optimization trajectory.
    let runner = SweepRunner::with_options(
        serial_sim(&poly, Mixer::X),
        SweepOptions {
            exec: forced(),
            nested: SweepNesting::PointsParallel,
        },
    );
    let batched = nm.minimize_batched(
        |xs| {
            let points: Vec<SweepPoint> = xs
                .iter()
                .map(|x| {
                    let (g, b) = schedules::unpack(x);
                    SweepPoint::new(g.to_vec(), b.to_vec())
                })
                .collect();
            runner.energies(&points)
        },
        &x0,
    );

    assert_eq!(sequential.best_x, batched.best_x);
    assert_eq!(sequential.best_f.to_bits(), batched.best_f.to_bits());
    assert_eq!(sequential.n_evals, batched.n_evals);
    for (a, b) in sequential.history.iter().zip(&batched.history) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Custom extractors see the same evolved states the plain simulator
/// produces: overlaps from a batch match one-at-a-time overlaps.
#[test]
fn batched_overlaps_match_single_point_runs() {
    let poly = labs_terms(7);
    let sim = serial_sim(&poly, Mixer::X);
    let points: Vec<SweepPoint> = (0..5)
        .map(|i| SweepPoint::p1(0.1 * i as f64, 0.5 - 0.05 * i as f64))
        .collect();
    let runner = SweepRunner::with_options(
        serial_sim(&poly, Mixer::X),
        SweepOptions {
            exec: forced(),
            nested: SweepNesting::PointsParallel,
        },
    );
    let overlaps: Vec<f64> = runner
        .evaluate_with(&points, |s, state, _| {
            s.cost_diagonal().overlap(state.amplitudes())
        })
        .into_iter()
        .map(Result::unwrap)
        .collect();
    for (p, o) in points.iter().zip(&overlaps) {
        let r = sim.simulate_qaoa(&p.gammas, &p.betas);
        assert!((sim.get_overlap(&r) - o).abs() < 1e-12);
    }
}
