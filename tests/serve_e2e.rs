//! End-to-end tests for the serving layer: an in-process server on real
//! loopback TCP, driven through `ServeClient`.
//!
//! The invariants pinned here:
//!
//! * a served job's result is **bit-for-bit** the one-shot API's result
//!   (sweep vs `SweepRunner`, multi-start vs `MultiStart::minimize`,
//!   light cone vs `LightConeEvaluator`);
//! * a repeated submission hits the precompute cache and returns the
//!   same bits;
//! * a saturated queue answers `Rejected` deterministically;
//! * deadlines and explicit cancels end a job with `Cancelled` and the
//!   lane stays serviceable;
//! * N concurrent clients see exactly the sequential results.

use qokit::core::batch::{SweepNesting, SweepOptions, SweepPoint, SweepRunner};
use qokit::core::{
    FurSimulator, InitialState, LandscapeAggregator, LightConeEvaluator, Mixer, SimOptions,
};
use qokit::dist::wire::SweepSimSpec;
use qokit::optim::{MultiStart, NelderMead, RestartMethod};
use qokit::prelude::*;
use qokit::serve::{ProgressAction, ServeClient};
use qokit::terms::maxcut::maxcut_polynomial;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn spec() -> SweepSimSpec {
    SweepSimSpec {
        precompute: PrecomputeMethod::Direct,
        quantize_u16: false,
        layout: Layout::Interleaved,
    }
}

fn test_poly(seed: u64) -> SpinPolynomial {
    let mut rng = StdRng::seed_from_u64(seed);
    maxcut_polynomial(&Graph::random_regular(10, 3, &mut rng))
}

fn sweep_job(poly: &SpinPolynomial) -> SweepJob {
    SweepJob {
        poly: poly.clone(),
        spec: spec(),
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 8), Axis::new(-0.4, 0.4, 7)),
        top_k: 4,
        chunk: 8,
        deadline_ms: 0,
        progress_every: 0,
    }
}

fn oneshot_runner(poly: &SpinPolynomial) -> SweepRunner {
    let exec = ExecPolicy::serial().with_layout(spec().layout);
    let sim = FurSimulator::with_options(
        poly,
        SimOptions {
            mixer: Mixer::X,
            exec,
            precompute: spec().precompute,
            quantize_u16: spec().quantize_u16,
            initial: InitialState::Auto,
        },
    );
    SweepRunner::with_options(
        sim,
        SweepOptions {
            exec,
            nested: SweepNesting::PointsParallel,
        },
    )
}

fn oneshot_sweep(poly: &SpinPolynomial, job: &SweepJob) -> LandscapeAggregator {
    let mut agg = LandscapeAggregator::new(job.top_k);
    oneshot_runner(poly)
        .scan_into(
            (0..job.grid.len()).map(|i| job.grid.point(i)),
            job.chunk,
            &mut agg,
        )
        .expect("one-shot scan");
    agg
}

fn start_server(queue_capacity: usize) -> qokit::serve::ServerHandle {
    Server::bind(ServerConfig {
        queue_capacity,
        ..ServerConfig::default()
    })
    .expect("bind loopback listener")
    .spawn_thread()
    .expect("spawn server thread")
}

#[test]
fn served_sweep_is_bit_identical_to_oneshot() {
    let handle = start_server(4);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");

    let poly = test_poly(1);
    let job = sweep_job(&poly);
    let served = client
        .submit_sweep(&job, |_| ProgressAction::Continue)
        .expect("rpc")
        .done()
        .expect("job completed");
    let oracle = oneshot_sweep(&poly, &job);

    assert_eq!(served.evaluated, oracle.count());
    assert_eq!(served.sum.to_bits(), oracle.sum().to_bits());
    assert_eq!(
        served.min_energy.to_bits(),
        oracle.min_energy().unwrap().to_bits()
    );
    assert_eq!(served.argmin, oracle.argmin().unwrap());
    let oracle_top: Vec<(u64, u64)> = oracle
        .top_k()
        .iter()
        .map(|&(i, e)| (i, e.to_bits()))
        .collect();
    let served_top: Vec<(u64, u64)> = served
        .top_k
        .iter()
        .map(|&(i, e)| (i, e.to_bits()))
        .collect();
    assert_eq!(served_top, oracle_top);
    assert!(!served.cache_hit);

    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn served_multistart_is_bit_identical_to_oneshot() {
    let handle = start_server(4);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let poly = test_poly(2);
    let bounds = vec![(-0.5, 0.5), (-0.4, 0.4)];
    let served = client
        .submit_multistart(&MultiStartJob {
            poly: poly.clone(),
            spec: spec(),
            depth: 1,
            restarts: 3,
            seed: 17,
            bounds: bounds.clone(),
            deadline_ms: 0,
        })
        .expect("rpc")
        .done()
        .expect("job completed");

    let runner = oneshot_runner(&poly);
    let objective = |x: &[f64]| {
        let pt = SweepPoint::new(x[..1].to_vec(), x[1..].to_vec());
        runner.energies(std::slice::from_ref(&pt))[0]
    };
    let oracle = MultiStart {
        method: RestartMethod::NelderMead(NelderMead::default()),
        restarts: 3,
        seed: 17,
        bounds,
    }
    .minimize(&objective);

    assert_eq!(served.best_restart as usize, oracle.best_restart);
    assert_eq!(served.best_f.to_bits(), oracle.best().best_f.to_bits());
    assert_eq!(served.best_x.len(), oracle.best().best_x.len());
    for (a, b) in served.best_x.iter().zip(&oracle.best().best_x) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let oracle_fs: Vec<u64> = oracle.restarts.iter().map(|r| r.best_f.to_bits()).collect();
    let served_fs: Vec<u64> = served.restart_best_fs.iter().map(|f| f.to_bits()).collect();
    assert_eq!(served_fs, oracle_fs);

    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn served_lightcone_is_bit_identical_to_oneshot() {
    let handle = start_server(4);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let mut rng = StdRng::seed_from_u64(3);
    let graph = Graph::random_regular(600, 3, &mut rng);
    let served = client
        .submit_lightcone(&LightConeJob {
            n_vertices: 600,
            edges: graph.edges().to_vec(),
            gammas: vec![0.4, -0.2],
            betas: vec![0.6, 0.3],
            max_cone_qubits: 22,
            deadline_ms: 0,
        })
        .expect("rpc")
        .done()
        .expect("job completed");

    let oracle = LightConeEvaluator::new(graph)
        .try_energy(&[0.4, -0.2], &[0.6, 0.3])
        .expect("one-shot light cone");
    assert_eq!(served.energy.to_bits(), oracle.energy.to_bits());
    assert_eq!(served.unique_cones as usize, oracle.stats.unique_cones);
    assert_eq!(served.cache_hits as usize, oracle.stats.cache_hits);

    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn second_identical_submission_hits_the_cache() {
    let handle = start_server(4);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let poly = test_poly(4);
    let job = sweep_job(&poly);
    let cold = client
        .submit_sweep(&job, |_| ProgressAction::Continue)
        .expect("rpc")
        .done()
        .expect("cold job");
    assert!(!cold.cache_hit);
    let warm = client
        .submit_sweep(&job, |_| ProgressAction::Continue)
        .expect("rpc")
        .done()
        .expect("warm job");
    assert!(
        warm.cache_hit,
        "identical problem + spec must hit the cache"
    );
    assert_eq!(warm.sum.to_bits(), cold.sum.to_bits());
    assert_eq!(warm.min_energy.to_bits(), cold.min_energy.to_bits());
    assert_eq!(warm.argmin, cold.argmin);

    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.misses, 1);
    assert!(stats.hits >= 1);

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// The spec's layout is not part of the cache key: a job asking for split
/// planes and one asking for interleaved amplitudes on the same polynomial
/// share one entry, and the second is a hit with the same bits.
#[test]
fn layout_only_difference_shares_one_cache_entry() {
    let handle = start_server(4);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let poly = test_poly(6);
    let mut results = Vec::new();
    for layout in [Layout::Split, Layout::Interleaved] {
        let job = SweepJob {
            spec: SweepSimSpec { layout, ..spec() },
            ..sweep_job(&poly)
        };
        results.push(
            client
                .submit_sweep(&job, |_| ProgressAction::Continue)
                .expect("rpc")
                .done()
                .expect("job completed"),
        );
    }
    assert!(!results[0].cache_hit);
    assert!(results[1].cache_hit, "a layout-only difference must hit");
    assert_eq!(results[0].sum.to_bits(), results[1].sum.to_bits());
    assert_eq!(results[0].argmin, results[1].argmin);

    let stats = client.cache_stats().expect("stats");
    assert_eq!((stats.entries, stats.misses, stats.hits), (1, 1, 1));

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// A saturated capacity-1 server must refuse a second concurrent
/// submission with an explicit `Rejected` — not queue it, not hang.
#[test]
fn saturated_queue_rejects_deterministically() {
    let handle = start_server(1);
    let addr = handle.addr();

    let poly = test_poly(5);
    let slow = SweepJob {
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 48), Axis::new(-0.4, 0.4, 48)),
        chunk: 1,
        progress_every: 1,
        ..sweep_job(&poly)
    };
    let a_started = Arc::new(AtomicBool::new(false));
    let b_decided = Arc::new(AtomicBool::new(false));
    let submitter = {
        let (a_started, b_decided) = (Arc::clone(&a_started), Arc::clone(&b_decided));
        let slow = slow.clone();
        std::thread::spawn(move || {
            let mut a = ServeClient::connect(addr).expect("connect A");
            a.submit_sweep(&slow, |_| {
                a_started.store(true, Ordering::Relaxed);
                if b_decided.load(Ordering::Relaxed) {
                    ProgressAction::Cancel
                } else {
                    ProgressAction::Continue
                }
            })
            .expect("rpc A")
        })
    };
    while !a_started.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }

    let mut b = ServeClient::connect(addr).expect("connect B");
    match b
        .submit_sweep(&sweep_job(&poly), |_| ProgressAction::Continue)
        .expect("rpc B")
    {
        JobOutcome::Rejected {
            outstanding,
            capacity,
        } => {
            assert_eq!(outstanding, 1);
            assert_eq!(capacity, 1);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    b_decided.store(true, Ordering::Relaxed);
    match submitter.join().expect("thread A") {
        JobOutcome::Cancelled { evaluated } => {
            assert!(
                evaluated < slow.grid.len(),
                "cancel must cut the sweep short"
            )
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // The freed lane (and admission slot) must accept new work.
    let again = b
        .submit_sweep(&sweep_job(&poly), |_| ProgressAction::Continue)
        .expect("rpc after cancel")
        .done()
        .expect("lane stays serviceable");
    assert_eq!(
        again.min_energy.to_bits(),
        oneshot_sweep(&poly, &sweep_job(&poly))
            .min_energy()
            .unwrap()
            .to_bits()
    );

    b.shutdown_server().expect("shutdown");
    handle.join();
}

/// An expired deadline ends the job with `Cancelled` at the next chunk
/// boundary and the server keeps serving.
#[test]
fn deadline_expiry_cancels_and_server_stays_usable() {
    let handle = start_server(2);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let poly = test_poly(6);
    let doomed = SweepJob {
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 64), Axis::new(-0.4, 0.4, 64)),
        chunk: 1,
        deadline_ms: 1,
        ..sweep_job(&poly)
    };
    match client
        .submit_sweep(&doomed, |_| ProgressAction::Continue)
        .expect("rpc")
    {
        JobOutcome::Cancelled { evaluated } => {
            assert!(
                evaluated < doomed.grid.len(),
                "deadline must cut the sweep short"
            )
        }
        JobOutcome::Done(_) => panic!("a 1ms deadline cannot cover a 4096-point sweep"),
        other => panic!("expected Cancelled, got {other:?}"),
    }

    let ok = client
        .submit_sweep(&sweep_job(&poly), |_| ProgressAction::Continue)
        .expect("rpc")
        .done()
        .expect("server stays usable after a deadline kill");
    assert_eq!(ok.evaluated, sweep_job(&poly).grid.len());

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Four clients with four distinct problems, concurrently, against a
/// multi-lane server: every result must be bit-for-bit the sequential
/// one-shot result for its own problem.
#[test]
fn concurrent_clients_match_sequential_bit_for_bit() {
    let handle = start_server(8);
    let addr = handle.addr();

    let polys: Vec<SpinPolynomial> = (10..14).map(test_poly).collect();
    let threads: Vec<_> = polys
        .iter()
        .map(|poly| {
            let job = sweep_job(poly);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                client
                    .submit_sweep(&job, |_| ProgressAction::Continue)
                    .expect("rpc")
                    .done()
                    .expect("job completed")
            })
        })
        .collect();
    let served: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    for (poly, served) in polys.iter().zip(&served) {
        let oracle = oneshot_sweep(poly, &sweep_job(poly));
        assert_eq!(served.sum.to_bits(), oracle.sum().to_bits());
        assert_eq!(
            served.min_energy.to_bits(),
            oracle.min_energy().unwrap().to_bits()
        );
        assert_eq!(served.argmin, oracle.argmin().unwrap());
    }

    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown_server().expect("shutdown");
    handle.join();
}
