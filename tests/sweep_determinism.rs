//! Determinism contracts of the coarse-grained parallel layer: with fixed
//! RNG seeds, multi-restart optimization and batched sweeps return
//! **bit-identical** results regardless of pool size — results are keyed
//! by restart/point index, never by completion order, and points-parallel
//! sweeps keep their kernels serial.

use qokit::optim::{schedules, MultiStart, MultiStartRun, NelderMead, RestartMethod, Spsa};
use qokit::prelude::*;
use qokit::terms::labs::labs_terms;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(op)
}

fn assert_bit_identical(a: &MultiStartRun, b: &MultiStartRun, label: &str) {
    assert_eq!(a.best_restart, b.best_restart, "{label}: winner changed");
    assert_eq!(a.restarts.len(), b.restarts.len());
    for (i, (ra, rb)) in a.restarts.iter().zip(&b.restarts).enumerate() {
        assert_eq!(
            ra.best_f.to_bits(),
            rb.best_f.to_bits(),
            "{label}: restart {i} best_f"
        );
        assert_eq!(ra.best_x.len(), rb.best_x.len());
        for (xa, xb) in ra.best_x.iter().zip(&rb.best_x) {
            assert_eq!(xa.to_bits(), xb.to_bits(), "{label}: restart {i} best_x");
        }
        assert_eq!(ra.n_evals, rb.n_evals, "{label}: restart {i} n_evals");
    }
}

/// Serial-kernel QAOA objective: bit-identical on any pool by construction.
fn qaoa_objective() -> impl Fn(&[f64]) -> f64 + Sync {
    let sim = FurSimulator::with_options(
        &labs_terms(7),
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    move |x: &[f64]| {
        let (g, b) = schedules::unpack(x);
        sim.objective(g, b)
    }
}

#[test]
fn nelder_mead_restarts_are_pool_size_invariant() {
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead {
            max_evals: 120,
            ..NelderMead::default()
        }),
        restarts: 5,
        seed: 17,
        bounds: vec![(-0.8, 0.8); 4],
    };
    let f = qaoa_objective();
    let reference = in_pool(1, || driver.minimize(&f));
    for threads in [2usize, 4] {
        let run = in_pool(threads, || driver.minimize(&f));
        assert_bit_identical(&reference, &run, &format!("NM, {threads} workers"));
    }
}

#[test]
fn spsa_restarts_are_pool_size_invariant() {
    // SPSA draws per-restart RNGs from (seed, restart index) — scheduling
    // must not perturb the streams.
    let driver = MultiStart {
        method: RestartMethod::Spsa(Spsa {
            iterations: 60,
            ..Spsa::default()
        }),
        restarts: 4,
        seed: 23,
        bounds: vec![(-0.8, 0.8); 4],
    };
    let f = qaoa_objective();
    let reference = in_pool(1, || driver.minimize(&f));
    for threads in [3usize, 4] {
        let run = in_pool(threads, || driver.minimize(&f));
        assert_bit_identical(&reference, &run, &format!("SPSA, {threads} workers"));
    }
}

#[test]
fn restart_ordering_is_by_index_not_completion() {
    // On a real pool restarts finish in arbitrary order; slot `i` of the
    // result must nevertheless be exactly what running the optimizer
    // sequentially from starting point `i` produces.
    let nm = NelderMead {
        max_evals: 60,
        ..NelderMead::default()
    };
    let driver = MultiStart {
        method: RestartMethod::NelderMead(nm.clone()),
        restarts: 6,
        seed: 5,
        bounds: vec![(-2.0, 2.0), (-2.0, 2.0)],
    };
    let f = |x: &[f64]| (x[0] - 0.7).powi(2) + (x[1] + 0.2).powi(2) + (3.0 * x[0]).cos() * 0.1;
    let run = in_pool(4, || driver.minimize(&f));
    for (i, (r, x0)) in run
        .restarts
        .iter()
        .zip(driver.starting_points())
        .enumerate()
    {
        let expect = nm.minimize(f, &x0);
        assert_eq!(
            r.best_f.to_bits(),
            expect.best_f.to_bits(),
            "restart {i} does not descend from starting point {i}"
        );
        for (a, b) in r.best_x.iter().zip(&expect.best_x) {
            assert_eq!(a.to_bits(), b.to_bits(), "restart {i} best_x");
        }
    }
}

#[test]
fn points_parallel_sweep_is_pool_size_invariant() {
    let make_runner = || {
        SweepRunner::with_options(
            FurSimulator::with_options(
                &labs_terms(8),
                SimOptions {
                    exec: ExecPolicy::serial(),
                    ..SimOptions::default()
                },
            ),
            SweepOptions {
                exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(8),
                nested: SweepNesting::PointsParallel,
            },
        )
    };
    let points: Vec<SweepPoint> = (0..9)
        .map(|i| SweepPoint::new(vec![0.05 * i as f64, 0.2], vec![0.5, -0.03 * i as f64]))
        .collect();
    let reference = in_pool(1, || make_runner().energies(&points));
    for threads in [2usize, 4] {
        let got = in_pool(threads, || make_runner().energies(&points));
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "point {i}, {threads} workers");
        }
    }
}

#[test]
fn batched_random_search_reproduces_sequential_stream() {
    // Same seed -> same sample sequence -> bit-identical result, whether
    // the evaluator is the sequential objective or a batched sweep.
    let sim = FurSimulator::with_options(
        &labs_terms(7),
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    let bounds = [(-0.6, 0.6), (-0.6, 0.6)];
    let mut rng = StdRng::seed_from_u64(31);
    let sequential =
        qokit::optim::random_search(|x| sim.objective(&[x[0]], &[x[1]]), &bounds, 25, &mut rng);
    let runner = SweepRunner::with_options(
        FurSimulator::with_options(
            &labs_terms(7),
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        ),
        SweepOptions {
            exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(8),
            nested: SweepNesting::PointsParallel,
        },
    );
    let mut rng = StdRng::seed_from_u64(31);
    let batched = qokit::optim::random_search_batched(
        |pts| {
            let pairs: Vec<(f64, f64)> = pts.iter().map(|p| (p[0], p[1])).collect();
            runner.energies_p1(&pairs)
        },
        &bounds,
        25,
        &mut rng,
    );
    assert_eq!(sequential.best_x, batched.best_x);
    assert_eq!(sequential.best_f.to_bits(), batched.best_f.to_bits());
    for (a, b) in sequential.history.iter().zip(&batched.history) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn lane_batched_multistart_is_pool_size_invariant_and_equals_plain_driver() {
    // `minimize_batched` adds two layers the plain driver lacks — restart
    // pool tasks and candidate-batch objective calls —
    // and must change nothing observable: for a pointwise-equal objective
    // it is bit-identical to `minimize`, at every pool size.
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead {
            max_evals: 100,
            ..NelderMead::default()
        }),
        restarts: 5,
        seed: 29,
        bounds: vec![(-0.8, 0.8); 4],
    };
    let f = qaoa_objective();
    let reference = in_pool(1, || driver.minimize(&f));
    let batch_f = |xs: &[Vec<f64>]| -> Vec<f64> { xs.iter().map(|x| f(x)).collect() };
    for threads in [1usize, 2, 4] {
        let run = in_pool(threads, || driver.minimize_batched(&batch_f));
        assert_bit_identical(
            &reference,
            &run,
            &format!("lane-batched NM, {threads} workers"),
        );
    }
}

#[test]
fn lane_batched_multistart_through_sweep_runner_matches_serial_objective() {
    // The full production composition: restart lanes × candidate batches
    // evaluated by a points-parallel SweepRunner — still bit-identical to
    // the sequential driver on the serial objective.
    let p = 2;
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead {
            max_evals: 80,
            ..NelderMead::default()
        }),
        restarts: 4,
        seed: 13,
        bounds: vec![(-0.7, 0.7); 2 * p],
    };
    let f = qaoa_objective();
    let reference = driver.minimize(&f);
    let runner = SweepRunner::with_options(
        FurSimulator::with_options(
            &labs_terms(7),
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        ),
        SweepOptions {
            exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(8),
            nested: SweepNesting::PointsParallel,
        },
    );
    let run = in_pool(4, || {
        driver.minimize_batched(&|xs: &[Vec<f64>]| {
            let points: Vec<SweepPoint> = xs
                .iter()
                .map(|x| {
                    let (g, b) = schedules::unpack(x);
                    SweepPoint::new(g.to_vec(), b.to_vec())
                })
                .collect();
            runner.energies(&points)
        })
    });
    assert_bit_identical(&reference, &run, "lanes x sweep batches");
}

#[test]
fn dist_scan_aggregates_are_pool_size_invariant() {
    // The batch-sharded scan's selection aggregates must not depend on
    // how many workers execute the supersteps.
    use qokit::core::landscape::LandscapeAggregator;
    use qokit::dist::{Axis, DistSweepOptions, DistSweepRunner, Grid2d};
    use std::sync::Arc;
    let make = || {
        DistSweepRunner::with_options(
            Arc::new(FurSimulator::with_options(
                &labs_terms(7),
                SimOptions {
                    exec: ExecPolicy::serial(),
                    ..SimOptions::default()
                },
            )),
            DistSweepOptions {
                ranks: 3,
                sweep: SweepOptions {
                    exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(8),
                    nested: SweepNesting::PointsParallel,
                },
                chunk: 5,
            },
        )
    };
    let grid = Grid2d::new(Axis::new(-0.6, 0.6, 8), Axis::new(-0.6, 0.6, 8));
    let reference = in_pool(1, || make().scan(&grid, LandscapeAggregator::new(6)));
    for threads in [2usize, 4] {
        let scan = in_pool(threads, || make().scan(&grid, LandscapeAggregator::new(6)));
        assert_eq!(scan.agg.argmin(), reference.agg.argmin());
        assert_eq!(scan.agg.top_k(), reference.agg.top_k());
        assert_eq!(
            scan.agg.sum().to_bits(),
            reference.agg.sum().to_bits(),
            "rank-order merge must fix the sum for a fixed rank count"
        );
    }
}
