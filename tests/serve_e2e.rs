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

/// A multi-start job whose restarts the server spreads over both lanes
/// (the owning lane and a helper entry) while a second client keeps
/// sweeps in flight: the served result is still `MultiStart::minimize`'s,
/// bit for bit.
#[test]
fn multistart_spread_over_lanes_is_bit_identical_to_oneshot() {
    let handle = start_server(4);
    let addr = handle.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let sweeper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let poly = test_poly(21);
            let mut client = ServeClient::connect(addr).expect("connect sweeper");
            let mut sweeps = 0;
            while !stop.load(Ordering::Relaxed) || sweeps == 0 {
                client
                    .submit_sweep(&sweep_job(&poly), |_| ProgressAction::Continue)
                    .expect("rpc")
                    .done()
                    .expect("sweep completed");
                sweeps += 1;
            }
        })
    };

    let poly = test_poly(20);
    let bounds = vec![(-0.5, 0.5), (-0.4, 0.4)];
    let mut client = ServeClient::connect(addr).expect("connect");
    let served = client
        .submit_multistart(&MultiStartJob {
            poly: poly.clone(),
            spec: spec(),
            depth: 1,
            restarts: 4,
            seed: 23,
            bounds: bounds.clone(),
            deadline_ms: 0,
        })
        .expect("rpc")
        .done()
        .expect("job completed");
    stop.store(true, Ordering::Relaxed);
    sweeper.join().expect("sweeper thread");

    let runner = oneshot_runner(&poly);
    let oracle = MultiStart {
        method: RestartMethod::NelderMead(NelderMead::default()),
        restarts: 4,
        seed: 23,
        bounds,
    }
    .minimize(&|x: &[f64]| {
        let pt = SweepPoint::new(x[..1].to_vec(), x[1..].to_vec());
        runner.energies(std::slice::from_ref(&pt))[0]
    });

    assert_eq!(served.best_restart as usize, oracle.best_restart);
    assert_eq!(served.best_f.to_bits(), oracle.best().best_f.to_bits());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&served.best_x), bits(&oracle.best().best_x));
    let oracle_fs: Vec<f64> = oracle.restarts.iter().map(|r| r.best_f).collect();
    assert_eq!(bits(&served.restart_best_fs), bits(&oracle_fs));

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

/// A hub graph cannot take the server down: the first cone of a
/// 20 000-leaf star spans every vertex, so the job comes back as the
/// `ConeTooWide` error for edge 0, and the same connection is answered
/// right after.
#[test]
fn served_star_graph_is_refused_and_server_stays_usable() {
    use qokit::core::lightcone::{LightConeError, LightConeOptions};
    use qokit::serve::ClientError;
    const LEAVES: usize = 20_000;
    let handle = start_server(2);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let job = LightConeJob {
        n_vertices: LEAVES + 1,
        edges: (1..=LEAVES).map(|leaf| (0, leaf, 1.0)).collect(),
        gammas: vec![0.4, -0.2],
        betas: vec![0.6, 0.3],
        max_cone_qubits: LightConeOptions::default().max_cone_qubits,
        deadline_ms: 0,
    };
    let want = LightConeError::ConeTooWide {
        edge: 0,
        qubits: LEAVES + 1,
        max: 22,
    };
    match client.submit_lightcone(&job) {
        Err(ClientError::Server(message)) => assert_eq!(message, want.to_string()),
        other => panic!("expected the ConeTooWide error, got {other:?}"),
    }
    client.ping().expect("server answers after the refused job");

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// A light-cone job's plan is cached: the same job served twice plans
/// once and has the one-shot bits both times. A different depth, cap or
/// weight bit is a new plan; a refused plan is never cached.
#[test]
fn served_lightcone_plans_once_per_graph() {
    use qokit::core::lightcone::{LightConeError, LightConeOptions};
    use qokit::serve::ClientError;
    let handle = start_server(4);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let mut rng = StdRng::seed_from_u64(5);
    let graph = Graph::random_regular(400, 3, &mut rng);
    let job = LightConeJob {
        n_vertices: 400,
        edges: graph.edges().to_vec(),
        gammas: vec![0.4, -0.2],
        betas: vec![0.6, 0.3],
        max_cone_qubits: 22,
        deadline_ms: 0,
    };
    let oracle = LightConeEvaluator::new(graph)
        .try_energy(&job.gammas, &job.betas)
        .expect("one-shot light cone");
    let serve = |client: &mut ServeClient, job: &LightConeJob| {
        client
            .submit_lightcone(job)
            .expect("rpc")
            .done()
            .expect("job completed")
    };
    let cold = serve(&mut client, &job);
    let warm = serve(&mut client, &job);
    for served in [&cold, &warm] {
        assert_eq!(served.energy.to_bits(), oracle.energy.to_bits());
        assert_eq!(served.unique_cones as usize, oracle.stats.unique_cones);
        assert_eq!(served.cache_hits as usize, oracle.stats.cache_hits);
    }
    let stats = client.cache_stats().expect("stats");
    assert_eq!((stats.plan_misses, stats.plan_hits), (1, 1));
    assert_eq!((stats.misses, stats.hits), (0, 0));
    assert_eq!(stats.entries, 1);

    let mut shallower = job.clone();
    shallower.gammas.truncate(1);
    shallower.betas.truncate(1);
    let narrower = LightConeJob {
        max_cone_qubits: 21,
        ..job.clone()
    };
    let mut reweighted = job.clone();
    reweighted.edges[9].2 = f64::from_bits(1.0f64.to_bits() + 1);
    for variant in [&shallower, &narrower, &reweighted] {
        serve(&mut client, variant);
    }
    let stats = client.cache_stats().expect("stats");
    assert_eq!((stats.plan_misses, stats.plan_hits), (4, 1));
    assert_eq!(stats.entries, 4);

    const LEAVES: usize = 20_000;
    let star = LightConeJob {
        n_vertices: LEAVES + 1,
        edges: (1..=LEAVES).map(|leaf| (0, leaf, 1.0)).collect(),
        max_cone_qubits: LightConeOptions::default().max_cone_qubits,
        ..job.clone()
    };
    let want = LightConeError::ConeTooWide {
        edge: 0,
        qubits: LEAVES + 1,
        max: 22,
    };
    let before = client.cache_stats().expect("stats");
    for _ in 0..2 {
        match client.submit_lightcone(&star) {
            Err(ClientError::Server(message)) => assert_eq!(message, want.to_string()),
            other => panic!("expected the ConeTooWide error, got {other:?}"),
        }
    }
    let after = client.cache_stats().expect("stats");
    assert_eq!(after.plan_misses, before.plan_misses + 2);
    assert_eq!((after.entries, after.bytes), (before.entries, before.bytes));

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// A vertex count far beyond memory is only a number: the adjacency is
/// built on the vertices the edges touch, so the job runs with the bits
/// of the same edge relabelled to two vertices, and the server lives on.
#[test]
fn huge_vertex_count_is_a_normal_lightcone_job_not_an_abort() {
    let handle = start_server(2);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let small = LightConeEvaluator::new(Graph::new(2, vec![(0, 1, 1.0)]))
        .try_energy(&[0.4, -0.2], &[0.6, 0.3])
        .expect("one-shot light cone");
    for edge in [(0, 1, 1.0), (0, (1 << 40) - 1, 1.0)] {
        let served = client
            .submit_lightcone(&LightConeJob {
                n_vertices: 1 << 40,
                edges: vec![edge],
                gammas: vec![0.4, -0.2],
                betas: vec![0.6, 0.3],
                max_cone_qubits: 22,
                deadline_ms: 0,
            })
            .expect("rpc")
            .done()
            .expect("job completed");
        assert_eq!(served.energy.to_bits(), small.energy.to_bits(), "{edge:?}");
        assert_eq!(served.edges, 1);
        client.ping().expect("server answers after the job");
    }

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

    // B is connected and served before A is submitted, so B's submit
    // waits on no accept poll.
    let mut b = ServeClient::connect(addr).expect("connect B");
    b.ping().expect("ping B");

    let poly = test_poly(5);
    // 4096 × 4096 single-point chunks run for minutes, so A is still
    // outstanding when B's submit is decided; the cancel below ends it.
    let slow = SweepJob {
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 4096), Axis::new(-0.4, 0.4, 4096)),
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
