//! Batch-sharded scan equivalence: a `DistSweepRunner` scan — any rank
//! count, any chunk size, any pool size — must reproduce what one
//! `SweepRunner` over the whole batch computes, which in turn must match
//! a plain sequential loop, to ≤ 1e-12 per point. The aggregates the scan
//! streams (min, argmin, top-k, histogram, count) are order-independent
//! selections, so they are compared exactly once the per-point energies
//! agree; the aggregator's merge itself is pinned associative.
//!
//! CI runs this suite under `QOKIT_THREADS ∈ {1, 4}`; explicit
//! `with_threads` pools cover 1/2/4 workers on any host.

use proptest::prelude::*;
use qokit::core::landscape::{EnergySink, HistogramSpec, LandscapeAggregator};
use qokit::dist::{Axis, DistSweepOptions, DistSweepRunner, Grid2d, PointSource};
use qokit::prelude::*;
use qokit::terms::labs::labs_terms;
use std::sync::Arc;

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

fn serial_sim(poly: &SpinPolynomial) -> FurSimulator {
    FurSimulator::with_options(
        poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    )
}

/// The ground truth: a sequential loop over the grid feeding one
/// aggregator in index order.
fn sequential_agg(
    sim: &FurSimulator,
    grid: &Grid2d,
    proto: LandscapeAggregator,
) -> LandscapeAggregator {
    let mut agg = proto;
    for i in 0..grid.len() {
        let p = grid.point(i);
        agg.observe(i, sim.objective(&p.gammas, &p.betas));
    }
    agg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ranks ∈ {1, 2, 4} × pool ∈ {1, 2, 4}: every sharding of the scan
    /// reproduces the sequential aggregates. Points-parallel nesting keeps
    /// kernels serial, so min/top-k energies are *bit*-identical and
    /// argmin/count/histogram exact.
    #[test]
    fn dist_scan_equals_single_runner_equals_sequential(
        poly in poly_strategy(6, 12),
        steps_g in 3usize..7,
        steps_b in 2usize..6,
    ) {
        let grid = Grid2d::new(
            Axis::new(-0.7, 0.7, steps_g),
            Axis::new(-0.5, 0.5, steps_b),
        );
        let proto = || LandscapeAggregator::new(4).with_histogram(HistogramSpec {
            rows: steps_g,
            cols: steps_b,
            bin_rows: 2,
            bin_cols: 2,
        });
        let reference = sequential_agg(&serial_sim(&poly), &grid, proto());

        // The single-pool SweepRunner over the whole batch, streamed
        // through the same sink API.
        let single = SweepRunner::with_options(
            serial_sim(&poly),
            SweepOptions {
                exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
                nested: SweepNesting::PointsParallel,
            },
        );
        let mut single_agg = proto();
        let pts: Vec<SweepPoint> = (0..grid.len()).map(|i| grid.point(i)).collect();
        single.scan_into(pts.iter().cloned(), 5, &mut single_agg).unwrap();
        prop_assert_eq!(&single_agg, &reference);

        for ranks in [1usize, 2, 4] {
            for threads in [1usize, 2, 4] {
                let runner = DistSweepRunner::with_options(
                    Arc::new(serial_sim(&poly)),
                    DistSweepOptions {
                        ranks,
                        sweep: SweepOptions {
                            exec: ExecPolicy::rayon()
                                .with_threads(threads)
                                .with_min_len(1)
                                .with_min_chunk(4),
                            nested: SweepNesting::PointsParallel,
                        },
                        chunk: 3,
                    },
                );
                let scan = runner.scan(&grid, proto());
                prop_assert_eq!(scan.points, grid.len());
                prop_assert_eq!(scan.agg.count(), reference.count());
                prop_assert_eq!(
                    scan.agg.argmin(), reference.argmin(),
                    "K = {}, threads = {}", ranks, threads
                );
                prop_assert_eq!(
                    scan.agg.min_energy().unwrap().to_bits(),
                    reference.min_energy().unwrap().to_bits()
                );
                prop_assert_eq!(scan.agg.top_k(), reference.top_k());
                prop_assert_eq!(scan.agg.histogram(), reference.histogram());
            }
        }
    }

    /// Nesting modes that parallelize kernels (Auto may resolve to
    /// KernelsParallel) stay within 1e-12 of the sequential energies —
    /// compared through the min/top-k values they aggregate.
    #[test]
    fn dist_scan_with_auto_nesting_stays_within_tolerance(
        poly in poly_strategy(6, 10),
    ) {
        let grid = Grid2d::new(Axis::new(-0.6, 0.6, 5), Axis::new(-0.4, 0.4, 4));
        let reference = sequential_agg(&serial_sim(&poly), &grid, LandscapeAggregator::new(3));
        let runner = DistSweepRunner::with_options(
            Arc::new(serial_sim(&poly)),
            DistSweepOptions {
                ranks: 2,
                sweep: SweepOptions {
                    exec: ExecPolicy::rayon()
                        .with_threads(4)
                        .with_min_len(1)
                        .with_min_chunk(4),
                    nested: SweepNesting::Auto,
                },
                chunk: 4,
            },
        );
        let scan = runner.scan(&grid, LandscapeAggregator::new(3));
        prop_assert_eq!(scan.agg.count(), reference.count());
        // Kernel parallelism may reassociate reductions: compare values
        // within tolerance, and the selected indices through their
        // energies (distinct points can tie within 1e-12).
        let tol = 1e-12;
        prop_assert!(
            (scan.agg.min_energy().unwrap() - reference.min_energy().unwrap()).abs() <= tol
        );
        for (&(_, ea), &(_, eb)) in scan.agg.top_k().iter().zip(reference.top_k()) {
            prop_assert!((ea - eb).abs() <= tol, "{} vs {}", ea, eb);
        }
    }

    /// Aggregator merge is associative: any split of an observation stream
    /// into three shards, merged either way, produces identical aggregates
    /// (the property `BspComm::allreduce_with`'s rank-order fold relies
    /// on).
    #[test]
    fn aggregator_merge_is_associative(
        energies in prop::collection::vec(-10.0f64..10.0, 3..60),
        cut_a in 0usize..20,
        cut_b in 0usize..20,
    ) {
        let n = energies.len();
        let (a, b) = (cut_a.min(n), (cut_a + cut_b.max(1)).min(n));
        let fresh = |range: std::ops::Range<usize>| {
            let mut agg = LandscapeAggregator::new(5);
            for i in range {
                agg.observe(i as u64, energies[i]);
            }
            agg
        };
        // (A ⊕ B) ⊕ C
        let mut left = fresh(0..a);
        left.merge(fresh(a..b));
        left.merge(fresh(b..n));
        // A ⊕ (B ⊕ C)
        let mut tail = fresh(a..b);
        tail.merge(fresh(b..n));
        let mut right = fresh(0..a);
        right.merge(tail);
        // Selection aggregates are *exactly* associative (selection under
        // a strict total order); the floating-point sum only up to
        // reassociation — which is why the production merge fixes the
        // association by folding in rank order.
        prop_assert_eq!(left.top_k(), right.top_k());
        prop_assert_eq!(left.argmin(), right.argmin());
        prop_assert_eq!(
            left.min_energy().map(f64::to_bits),
            right.min_energy().map(f64::to_bits)
        );
        prop_assert_eq!(left.count(), right.count());
        prop_assert!((left.sum() - right.sum()).abs() <= 1e-12 * (1.0 + right.sum().abs()));
        // And both equal the unsharded stream's selections.
        let whole = fresh(0..n);
        prop_assert_eq!(left.top_k(), whole.top_k());
        prop_assert_eq!(left.argmin(), whole.argmin());
    }
}

/// Spawn-self worker entry: when the TCP transport launches this test
/// binary with `QOKIT_WORKER_ADDR` set, this "test" becomes the worker
/// loop and exits the process when the driver shuts it down. In a normal
/// test run the env var is absent and this is an instant no-op.
#[test]
fn tcp_worker_entry() {
    qokit::dist::worker::maybe_run_from_env();
}

/// The same aggregate bits come out of `DistSweepRunner::scan` (in-process
/// ranks sharing the runner's diagonal), the in-process transport, and
/// real worker processes over loopback TCP, at 2 and 4 ranks — the scan
/// payloads genuinely leave the process and come back bit-identical.
#[test]
fn tcp_scan_matches_in_process_scan_bit_for_bit() {
    use qokit::dist::{InProcessTransport, TcpTransport, Transport, WorkerSpawn};

    let poly = labs_terms(6);
    let grid = Grid2d::new(Axis::new(-0.7, 0.7, 9), Axis::new(-0.5, 0.5, 7));
    let proto = || {
        LandscapeAggregator::new(5).with_histogram(HistogramSpec {
            rows: 9,
            cols: 7,
            bin_rows: 3,
            bin_cols: 3,
        })
    };
    let runner = |ranks| {
        DistSweepRunner::with_options(
            Arc::new(serial_sim(&poly)),
            DistSweepOptions {
                ranks,
                sweep: SweepOptions {
                    exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
                    nested: SweepNesting::PointsParallel,
                },
                chunk: 5,
            },
        )
    };
    // Ground truth: the shared-diagonal `scan` (rank count is irrelevant
    // to its bits, pinned by the proptest above).
    let reference = runner(1).scan(&grid, proto());

    let spawn = WorkerSpawn::test_entry("tcp_worker_entry").expect("current_exe");
    for ranks in [2usize, 4] {
        let r = runner(ranks);
        let mut inproc = InProcessTransport::new(ranks);
        let ip = r.try_scan_on(&mut inproc, &poly, &grid, proto()).unwrap();
        let mut tcp = TcpTransport::spawn(ranks, &spawn).expect("spawn workers");
        let over_tcp = r.try_scan_on(&mut tcp, &poly, &grid, proto()).unwrap();

        for (label, scan) in [("in-process", &ip), ("tcp", &over_tcp)] {
            assert_eq!(scan.points, reference.points, "{label} K={ranks}");
            assert_eq!(scan.agg.count(), reference.agg.count(), "{label} K={ranks}");
            assert_eq!(
                scan.agg.argmin(),
                reference.agg.argmin(),
                "{label} K={ranks}"
            );
            assert_eq!(
                scan.agg.min_energy().unwrap().to_bits(),
                reference.agg.min_energy().unwrap().to_bits(),
                "{label} K={ranks}"
            );
            assert_eq!(scan.agg.top_k(), reference.agg.top_k(), "{label} K={ranks}");
            assert_eq!(
                scan.agg.histogram(),
                reference.agg.histogram(),
                "{label} K={ranks}"
            );
        }
        assert_eq!(over_tcp.supersteps, ip.supersteps);
        // The in-process transport moves no wire bytes; TCP reports the
        // real framed traffic.
        assert_eq!(inproc.stats().total_bytes(), 0);
        assert!(tcp.stats().total_bytes() > 0, "K={ranks}");
    }
}

/// A scan bigger than any rank's chunk budget: 2^16 lazily generated
/// points streamed through 4 ranks in 2^10-point chunks — the (debug-
/// scaled) shape of the ≥2^20-point production scan `abl_landscape`
/// exercises in release, with only O(ranks · chunk) live points.
#[test]
fn large_scan_streams_without_materializing_energies() {
    let poly = labs_terms(4);
    let grid = Grid2d::new(Axis::new(-0.8, 0.8, 256), Axis::new(-0.8, 0.8, 256));
    assert_eq!(grid.len(), 1 << 16);
    let runner = DistSweepRunner::with_options(
        Arc::new(serial_sim(&poly)),
        DistSweepOptions {
            ranks: 4,
            sweep: SweepOptions {
                exec: ExecPolicy::rayon(),
                nested: SweepNesting::PointsParallel,
            },
            chunk: 1 << 10,
        },
    );
    let scan = runner.scan(&grid, LandscapeAggregator::new(8));
    assert_eq!(scan.agg.count(), 1 << 16);
    assert_eq!(scan.supersteps, 16); // 2^14 per rank / 2^10 per superstep
    assert_eq!(scan.agg.top_k().len(), 8);
    // Symmetric LABS landscape: the grid minimum is strictly negative and
    // every top-k energy is finite and ordered.
    assert!(scan.agg.min_energy().unwrap() < 0.0);
    let tk = scan.agg.top_k();
    for w in tk.windows(2) {
        assert!(w[0].1 <= w[1].1);
    }
    // Spot-check the argmin against direct evaluation.
    let sim = serial_sim(&poly);
    let best = grid.point(scan.agg.argmin().unwrap());
    assert_eq!(
        sim.objective(&best.gammas, &best.betas).to_bits(),
        scan.agg.min_energy().unwrap().to_bits()
    );
}
