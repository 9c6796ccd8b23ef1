//! Failure-injection suite: every crate's guard rails, exercised from the
//! outside. These are the errors a downstream user will actually hit —
//! mismatched parameter lengths, invalid rank counts, quantization
//! overflow, out-of-range qubits — and each must fail loudly and
//! specifically, not corrupt state.

use qokit::core::batch::SweepError;
use qokit::costvec::{CostVec, QuantizeError};
use qokit::dist::{BspComm, DistError, DistSimulator};
use qokit::optim::{MultiStart, MultiStartError, NelderMead, RestartMethod};
use qokit::prelude::*;
use qokit::terms::labs::labs_terms;

#[test]
fn mismatched_parameter_lengths_panic() {
    let sim = FurSimulator::new(&labs_terms(5));
    let err = std::panic::catch_unwind(|| sim.simulate_qaoa(&[0.1, 0.2], &[0.3]));
    assert!(err.is_err());
}

#[test]
fn distributed_rank_validation_is_an_error_not_a_panic() {
    let poly = labs_terms(6);
    assert!(matches!(
        DistSimulator::new(poly.clone(), 5),
        Err(DistError::RanksNotPowerOfTwo(5))
    ));
    assert!(matches!(
        DistSimulator::new(poly, 16),
        Err(DistError::TooManyRanks { n: 6, ranks: 16 })
    ));
}

#[test]
fn dist_error_messages_are_actionable() {
    let msg = DistError::TooManyRanks { n: 6, ranks: 16 }.to_string();
    assert!(msg.contains("2·log2(16)"), "{msg}");
    let msg = DistError::RanksNotPowerOfTwo(5).to_string();
    assert!(msg.contains("power of two"), "{msg}");
}

#[test]
fn quantization_overflow_is_reported_with_span() {
    let costs = vec![0.0, 1.0e6];
    match CostVec::quantize_exact(&costs, 1.0) {
        Err(QuantizeError::RangeTooWide {
            span,
            representable,
        }) => {
            assert_eq!(span, 1.0e6);
            assert!(representable < span);
        }
        other => panic!("expected RangeTooWide, got {other:?}"),
    }
}

#[test]
fn quantization_off_grid_points_to_the_culprit() {
    let costs = vec![0.0, 2.0, 3.5];
    match CostVec::quantize_exact(&costs, 1.0) {
        Err(QuantizeError::NotIntegral { index, value }) => {
            assert_eq!(index, 2);
            assert_eq!(value, 3.5);
        }
        other => panic!("expected NotIntegral, got {other:?}"),
    }
}

#[test]
fn quantization_rejects_nan_costs() {
    // Regression: NaN passed both the span and integrality checks (every
    // `NaN > x` comparison is false) and `NaN as u16` silently produced
    // level 0 — the global minimum.
    match CostVec::quantize_exact(&[1.0, f64::NAN], 1.0) {
        Err(QuantizeError::NonFinite { index, value }) => {
            assert_eq!(index, 1);
            assert!(value.is_nan());
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
}

#[test]
fn poisoned_recycler_shard_does_not_kill_the_next_sweep() {
    // Regression: the buffer recycler used `lock().unwrap()`, so a panic
    // while a shard lock was held poisoned the mutex and the *next* sweep
    // panicked inside `checkout` — contradicting the "pools stay
    // reusable" guarantee the rest of this suite pins.
    use qokit::core::batch::{SweepOptions, SweepPoint, SweepRunner};
    use qokit::statevec::ExecPolicy;
    let runner = SweepRunner::with_options(
        FurSimulator::new(&labs_terms(5)),
        SweepOptions {
            exec: ExecPolicy::serial(),
            ..SweepOptions::default()
        },
    );
    let points: Vec<SweepPoint> = (0..4)
        .map(|i| SweepPoint::p1(0.1 * i as f64, 0.2))
        .collect();
    let clean = runner.energies(&points);
    runner.debug_poison_recycler();
    // The serial policy evaluates on this thread, so every checkout hits
    // the poisoned shard; it must recover (dropping the cached buffers),
    // not panic — and the energies must be unaffected.
    let after = runner.energies(&points);
    for (a, b) in clean.iter().zip(&after) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn tensornet_width_cap_reports_rank_and_cap() {
    let poly = labs_terms(9);
    let err = qokit::tensornet::qaoa_amplitude(&poly, &[0.1; 3], &[0.2; 3], 0, 4).unwrap_err();
    match err {
        qokit::tensornet::TnError::WidthExceeded { rank, cap } => {
            assert_eq!(cap, 4);
            assert!(rank > 4);
        }
    }
}

#[test]
fn custom_initial_state_dimension_is_checked() {
    let sim = FurSimulator::with_options(
        &labs_terms(5),
        SimOptions {
            initial: InitialState::Custom(StateVec::zero_state(4)),
            ..SimOptions::default()
        },
    );
    let err = std::panic::catch_unwind(|| sim.simulate_qaoa(&[], &[]));
    assert!(err.is_err(), "wrong-dimension custom state must panic");
}

#[test]
fn dicke_weight_out_of_range_panics() {
    let err = std::panic::catch_unwind(|| StateVec::dicke_state(4, 5));
    assert!(err.is_err());
}

#[test]
fn polynomial_variable_bounds_are_enforced() {
    let err = std::panic::catch_unwind(|| SpinPolynomial::new(3, vec![Term::new(1.0, &[3])]));
    assert!(err.is_err());
}

#[test]
fn graph_invariants_are_enforced() {
    assert!(std::panic::catch_unwind(|| Graph::new(3, vec![(0, 0, 1.0)])).is_err());
    assert!(std::panic::catch_unwind(|| Graph::new(2, vec![(0, 5, 1.0)])).is_err());
}

#[test]
fn from_cost_vector_rejects_bad_length() {
    let err = std::panic::catch_unwind(|| {
        FurSimulator::from_cost_vector(CostVec::F64(vec![0.0; 3]), SimOptions::default())
    });
    assert!(err.is_err());
}

#[test]
fn brute_force_guards_against_huge_scans() {
    let poly = labs_terms(31);
    let err = std::panic::catch_unwind(|| poly.brute_force_minimum());
    assert!(err.is_err(), "n = 31 brute force must refuse");
}

#[test]
fn panicking_sweep_point_poisons_only_itself_and_pool_survives() {
    // A sweep task that panics (here: a malformed point whose γ/β lengths
    // disagree) must yield a clean per-point error, leave every other
    // point's result intact, and leave the pool fully reusable — the
    // coarse-grained analogue of vendor/rayon's pool_stress panics.
    let runner = SweepRunner::with_options(
        FurSimulator::new(&labs_terms(6)),
        SweepOptions {
            exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
            nested: SweepNesting::PointsParallel,
        },
    );
    let mut points: Vec<SweepPoint> = (0..6)
        .map(|i| SweepPoint::p1(0.1 * i as f64, 0.3))
        .collect();
    points[3] = SweepPoint::new(vec![0.1, 0.2], vec![0.3]); // length mismatch
    let checked = runner.energies_checked(&points);
    for (i, r) in checked.iter().enumerate() {
        if i == 3 {
            match r {
                Err(SweepError::PointPanicked { index, message }) => {
                    assert_eq!(*index, 3);
                    assert!(message.contains("same length"), "{message}");
                }
                other => panic!("expected PointPanicked, got {other:?}"),
            }
        } else {
            assert!(r.is_ok(), "point {i} must be unaffected");
        }
    }
    // The clean-error form names the poisoned point.
    let err = runner.try_energies(&points).unwrap_err();
    assert!(err.to_string().contains("sweep point 3"), "{err}");
    // The pool is still healthy: a fresh batch and a fresh panic-free run
    // both work.
    let ok = runner.energies(&points[..3]);
    assert_eq!(ok.len(), 3);
    assert!(ok.iter().all(|e| e.is_finite()));
}

#[test]
fn panicking_restart_poisons_only_itself_and_pool_survives() {
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead {
            max_evals: 40,
            ..NelderMead::default()
        }),
        restarts: 5,
        seed: 9,
        bounds: vec![(-1.0, 1.0), (-1.0, 1.0)],
    };
    let poison = driver.starting_points()[1].clone();
    let err = driver
        .try_minimize(&move |x: &[f64]| {
            assert!(x != poison.as_slice(), "injected failure in restart 1");
            x[0] * x[0] + x[1] * x[1]
        })
        .unwrap_err();
    match err {
        MultiStartError::RestartPanicked { restart, message } => {
            assert_eq!(restart, 1);
            assert!(message.contains("injected failure"), "{message}");
        }
        other => panic!("expected RestartPanicked, got {other:?}"),
    }
    // Pool reusable: the same driver immediately runs clean.
    let run = driver.minimize(&|x: &[f64]| x[0] * x[0] + x[1] * x[1]);
    assert_eq!(run.restarts.len(), 5);
    assert!(run.best().best_f < 1e-4);
}

#[test]
fn panicking_dist_rank_unwinds_through_the_pool() {
    // A failing rank task must propagate through the pool's scoped API —
    // not leak a detached OS thread — and leave the pool reusable.
    let comm = BspComm::new(4);
    let mut states = vec![0u32; 4];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        comm.superstep(&mut states, |rank, _| {
            assert!(rank != 1, "injected rank failure");
        });
    }));
    assert!(result.is_err());
    // Both the BSP communicator and the wider pool still work.
    let mut states = vec![0u32; 4];
    comm.superstep(&mut states, |rank, s| *s = rank as u32);
    assert_eq!(states, vec![0, 1, 2, 3]);
    let sim = DistSimulator::new(labs_terms(6), 4).unwrap();
    let r = sim.simulate_qaoa(&[0.2], &[0.5]);
    assert!((r.state.norm_sqr() - 1.0).abs() < 1e-10);
}

#[test]
fn poisoned_point_in_a_dist_scan_names_rank_and_global_index() {
    // Batch-sharded scans contain a point panic inside its rank's
    // superstep: the error names the rank and the *global* point index,
    // sibling ranks finish their superstep, and runner + pool stay
    // reusable afterwards.
    use qokit::core::landscape::LandscapeAggregator;
    use qokit::dist::{DistSweepError, DistSweepOptions, DistSweepRunner};
    use std::sync::Arc;
    let runner = DistSweepRunner::with_options(
        Arc::new(FurSimulator::new(&labs_terms(6))),
        DistSweepOptions {
            ranks: 4,
            sweep: SweepOptions {
                exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
                nested: SweepNesting::PointsParallel,
            },
            chunk: 2,
        },
    );
    let mut points: Vec<SweepPoint> = (0..16)
        .map(|i| SweepPoint::p1(0.05 * i as f64, 0.3))
        .collect();
    // Global index 9 lands in rank 2's contiguous slice [8, 12).
    points[9] = SweepPoint::new(vec![0.1], vec![0.2, 0.3]); // length mismatch
    let err = runner
        .try_scan(&points[..], LandscapeAggregator::new(2))
        .unwrap_err();
    match &err {
        DistSweepError::PointPanicked {
            rank,
            index,
            message,
        } => {
            assert_eq!(*rank, 2);
            assert_eq!(*index, 9);
            assert!(message.contains("same length"), "{message}");
        }
        other => panic!("unexpected error: {other:?}"),
    }
    assert!(err.to_string().contains("point 9"), "{err}");
    assert!(err.to_string().contains("rank 2"), "{err}");
    // Containment: the same runner immediately scans clean input, with
    // every point accounted for.
    let ok = runner.scan(&points[..9], LandscapeAggregator::new(2));
    assert_eq!(ok.agg.count(), 9);
    assert!(ok.agg.min_energy().unwrap().is_finite());
}

#[test]
fn panicking_batched_restart_poisons_only_itself() {
    // The lane-batched multi-start driver matches try_minimize's
    // containment: the lowest poisoned restart is named, sibling lanes
    // complete, and the subset pools are reusable.
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead {
            max_evals: 40,
            ..NelderMead::default()
        }),
        restarts: 5,
        seed: 9,
        bounds: vec![(-1.0, 1.0), (-1.0, 1.0)],
    };
    let poison = driver.starting_points()[3].clone();
    let err = driver
        .try_minimize_batched(&move |xs: &[Vec<f64>]| {
            xs.iter()
                .map(|x| {
                    assert!(x != &poison, "injected failure in restart 3");
                    x[0] * x[0] + x[1] * x[1]
                })
                .collect()
        })
        .unwrap_err();
    match err {
        MultiStartError::RestartPanicked { restart, message } => {
            assert_eq!(restart, 3);
            assert!(message.contains("injected failure"), "{message}");
        }
        other => panic!("expected RestartPanicked, got {other:?}"),
    }
    let run = driver.minimize_batched(&|xs: &[Vec<f64>]| {
        xs.iter().map(|x| x[0] * x[0] + x[1] * x[1]).collect()
    });
    assert_eq!(run.restarts.len(), 5);
    assert!(run.best().best_f < 1e-4);
}

#[test]
fn panicking_edge_cone_poisons_only_its_evaluation() {
    // A panic while simulating one edge's light cone must surface as a
    // clean error naming the *global* edge index, while sibling edge
    // batches run to completion and the pool stays reusable.
    use qokit::core::lightcone::{cone_zz, LightConeError};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let ev = LightConeEvaluator::with_options(
        Graph::ring(12, 1.0),
        LightConeOptions {
            exec: ExecPolicy::rayon().with_threads(4),
            dedup: false, // one cone per edge, so cone index = edge index
            ..LightConeOptions::default()
        },
    );
    let plan = ev.plan(1).unwrap();
    let finished = AtomicUsize::new(0);
    let err = plan
        .try_zz_values_with(ev.options().exec, |i, ego| {
            if i == 7 {
                panic!("injected cone failure");
            }
            let zz = cone_zz(ego, &[0.3], &[0.5]);
            finished.fetch_add(1, Ordering::SeqCst);
            zz
        })
        .unwrap_err();
    match &err {
        LightConeError::ConePanicked { edge, message } => {
            assert_eq!(*edge, 7);
            assert!(message.contains("injected cone failure"), "{message}");
        }
        other => panic!("expected ConePanicked, got {other:?}"),
    }
    assert!(err.to_string().contains("edge 7"), "{err}");
    // Sibling edges all completed despite the poisoned one.
    assert_eq!(finished.load(Ordering::SeqCst), 11);
    // Pool and evaluator stay healthy: a clean evaluation runs right after.
    let run = ev.try_energy(&[0.3], &[0.5]).unwrap();
    assert!(run.energy.is_finite());
    assert_eq!(run.stats.edges, 12);
}

#[test]
fn too_wide_light_cone_is_an_error_not_an_allocation() {
    // Dense graphs (or excessive depth) must be refused with the offending
    // edge named, before any 2^q statevector is allocated.
    use qokit::core::lightcone::LightConeError;
    let ev = LightConeEvaluator::with_options(
        Graph::complete(10, 1.0),
        LightConeOptions {
            max_cone_qubits: 6,
            ..LightConeOptions::default()
        },
    );
    let err = ev.try_energy(&[0.3], &[0.5]).unwrap_err();
    match err {
        LightConeError::ConeTooWide { edge, qubits, max } => {
            assert_eq!(edge, 0);
            assert_eq!(qubits, 10);
            assert_eq!(max, 6);
        }
        other => panic!("expected ConeTooWide, got {other:?}"),
    }
}

#[test]
fn hub_graph_light_cone_is_refused_at_edge_zero() {
    // A star's first cone spans every vertex. With default options it must
    // be refused at edge 0 with the exact width, whatever the depth and
    // dedup setting, before any other edge's cone is walked: holding every
    // edge's full-graph cone would take memory quadratic in the leaf
    // count. A server given the same job answers with that error and
    // keeps serving.
    use qokit::core::lightcone::LightConeError;
    use qokit::serve::{ClientError, LightConeJob, ServeClient, Server, ServerConfig};
    const LEAVES: usize = 20_000;
    let edges: Vec<(usize, usize, f64)> = (1..=LEAVES).map(|leaf| (0, leaf, 1.0)).collect();
    let star = Graph::new(LEAVES + 1, edges.clone());
    let want = LightConeError::ConeTooWide {
        edge: 0,
        qubits: LEAVES + 1,
        max: 22,
    };
    for dedup in [true, false] {
        let ev = LightConeEvaluator::with_options(
            star.clone(),
            LightConeOptions {
                dedup,
                ..LightConeOptions::default()
            },
        );
        assert_eq!(ev.plan(1).unwrap_err(), want, "dedup {dedup}");
        assert_eq!(ev.plan(2).unwrap_err(), want, "dedup {dedup}");
    }

    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn_thread()
        .expect("spawn");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let job = LightConeJob {
        n_vertices: LEAVES + 1,
        edges,
        gammas: vec![0.3],
        betas: vec![0.5],
        max_cone_qubits: LightConeOptions::default().max_cone_qubits,
        deadline_ms: 0,
    };
    match client.submit_lightcone(&job) {
        Err(ClientError::Server(message)) => assert_eq!(message, want.to_string()),
        other => panic!("expected the ConeTooWide error, got {other:?}"),
    }
    client.ping().expect("server answers after the refused job");
    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn non_integral_quantized_simulator_degrades_gracefully() {
    // SK with Gaussian couplings cannot quantize exactly: the option must
    // silently fall back to f64, not corrupt the diagonal.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let sk = qokit::terms::sk::SkInstance::random_gaussian(8, &mut rng);
    let sim = FurSimulator::with_options(
        &sk.to_terms(),
        SimOptions {
            quantize_u16: true,
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    assert!(matches!(sim.cost_diagonal(), CostVec::F64(_)));
    // And the physics is still right.
    let r = sim.simulate_qaoa(&[0.2], &[-0.4]);
    assert!((r.state().norm_sqr() - 1.0).abs() < 1e-10);
    let e = sim.get_expectation(&r);
    let (lo, hi) = sim.cost_diagonal().extrema();
    assert!(e >= lo && e <= hi);
}

/// A client that vanishes mid-job must not wedge the server: the
/// connection handler detects the disconnect, cancels the job, the lane
/// reaps it (freeing the admission slot), and the server keeps serving.
#[test]
fn client_disconnect_mid_job_is_reaped_and_server_stays_serviceable() {
    use qokit::dist::frame::{read_frame, write_frame};
    use qokit::dist::wire::SweepSimSpec;
    use qokit::serve::proto::{decode_response, encode_request, ServeRequest, ServeResponse};
    use qokit::serve::{JobOutcome, ProgressAction, ServeClient, Server, ServerConfig, SweepJob};
    use rand::SeedableRng;
    use std::time::{Duration, Instant};

    // Capacity 1, so the dead job's admission slot is observable: a new
    // submission is Rejected until the reap frees it.
    let handle = Server::bind(ServerConfig {
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn_thread()
    .expect("spawn");

    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let poly = qokit::terms::maxcut::maxcut_polynomial(&Graph::random_regular(10, 3, &mut rng));
    let job = SweepJob {
        poly: poly.clone(),
        spec: SweepSimSpec {
            precompute: PrecomputeMethod::Direct,
            quantize_u16: false,
            layout: Layout::Interleaved,
        },
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 64), Axis::new(-0.4, 0.4, 64)),
        top_k: 2,
        chunk: 1,
        deadline_ms: 0,
        progress_every: 1,
    };

    // Submit over a raw socket, wait for the first Progress frame (the
    // job is demonstrably running), then vanish without a goodbye.
    {
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect raw");
        write_frame(&mut raw, &encode_request(&ServeRequest::Sweep(job.clone()))).expect("submit");
        let (payload, _) = read_frame(&mut raw).expect("first frame");
        assert!(matches!(
            decode_response(&payload).expect("decode"),
            ServeResponse::Progress { .. }
        ));
        // drop(raw): TCP FIN mid-job.
    }

    // The reap is asynchronous (disconnect poll + chunk-boundary cancel);
    // a fresh submission must be accepted within the grace window, and
    // the server must still produce correct results afterwards.
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let small = SweepJob {
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 4), Axis::new(-0.4, 0.4, 4)),
        progress_every: 0,
        ..job
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let summary = loop {
        match client
            .submit_sweep(&small, |_| ProgressAction::Continue)
            .expect("rpc")
        {
            JobOutcome::Done(s) => break s,
            JobOutcome::Rejected { .. } => {
                assert!(
                    Instant::now() < deadline,
                    "abandoned job was never reaped: admission slot still held"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected Done or Rejected, got {other:?}"),
        }
    };
    assert_eq!(summary.evaluated, 16);
    assert!(
        summary.cache_hit,
        "the dead job's precompute must be reusable"
    );

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// A sweep `chunk` is decoded straight off the socket; a huge one must size
/// the chunk buffer by the grid, not abort the server on an impossible
/// allocation (which per-job `catch_unwind` cannot contain).
#[test]
fn huge_socket_chunk_is_a_normal_sweep_not_an_abort() {
    use qokit::dist::wire::SweepSimSpec;
    use qokit::serve::{ProgressAction, ServeClient, Server, ServerConfig, SweepJob};

    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn_thread()
        .expect("spawn");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let small = SweepJob {
        poly: labs_terms(6),
        spec: SweepSimSpec {
            precompute: PrecomputeMethod::Direct,
            quantize_u16: false,
            layout: Layout::Split,
        },
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 2), Axis::new(-0.4, 0.4, 2)),
        top_k: 2,
        chunk: 2,
        deadline_ms: 0,
        progress_every: 0,
    };
    let huge = SweepJob {
        chunk: 1 << 40,
        ..small.clone()
    };
    let mut sweep = |job: &SweepJob| {
        client
            .submit_sweep(job, |_| ProgressAction::Continue)
            .expect("rpc")
            .done()
            .expect("sweep completes")
    };
    let (a, b) = (sweep(&small), sweep(&huge));
    assert_eq!(b.evaluated, 4);
    assert_eq!(a.sum.to_bits(), b.sum.to_bits());
    assert_eq!(a.min_energy.to_bits(), b.min_energy.to_bits());
    assert_eq!(a.argmin, b.argmin);
    client
        .ping()
        .expect("the server still answers after the huge chunk");

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Submits a long multi-start job over a raw socket to a capacity-1,
/// two-lane server, lets `stop` end it (an explicit `Cancel`, or a 1 ms
/// deadline) while its restarts run on both lanes, and checks that it
/// ends with exactly one `Cancelled` frame, that its admission slot is
/// free for the next job, and that the server still answers a `Ping`.
fn multistart_across_lanes_ends_once(deadline_ms: u64, send_cancel: bool) {
    use qokit::dist::frame::{read_frame, write_frame};
    use qokit::dist::wire::SweepSimSpec;
    use qokit::serve::proto::{decode_response, encode_request, ServeRequest, ServeResponse};
    use qokit::serve::{MultiStartJob, ServeClient, Server, ServerConfig, SweepJob};
    use rand::SeedableRng;
    use std::time::Duration;

    let handle = Server::bind(ServerConfig {
        queue_capacity: 1,
        lanes: 2,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn_thread()
    .expect("spawn");
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let poly = qokit::terms::maxcut::maxcut_polynomial(&Graph::random_regular(10, 3, &mut rng));
    let spec = SweepSimSpec {
        precompute: PrecomputeMethod::Direct,
        quantize_u16: false,
        layout: Layout::Split,
    };
    let restarts = 1024;
    let job = MultiStartJob {
        poly: poly.clone(),
        spec,
        depth: 1,
        restarts,
        seed: 8,
        bounds: vec![(-0.5, 0.5), (-0.4, 0.4)],
        deadline_ms,
    };

    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect raw");
    let request = |raw: &mut std::net::TcpStream, req: &ServeRequest| {
        write_frame(raw, &encode_request(req)).expect("send");
    };
    request(&mut raw, &ServeRequest::MultiStart(job));
    if send_cancel {
        // Long enough for the idle second lane to pick up its helper entry.
        std::thread::sleep(Duration::from_millis(30));
        request(&mut raw, &ServeRequest::Cancel);
    }
    let read = |raw: &mut std::net::TcpStream| {
        read_frame(raw).map(|(payload, _)| decode_response(&payload).expect("decode"))
    };
    match read(&mut raw).expect("terminal frame") {
        ServeResponse::Cancelled { evaluated } => {
            assert!(evaluated < restarts as u64, "evaluated = {evaluated}")
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    raw.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    if let Ok(extra) = read(&mut raw) {
        panic!("a second frame followed the terminal one: {extra:?}");
    }
    raw.set_read_timeout(None).expect("timeout");

    // Capacity 1: the next job is admitted only if the slot was released,
    // and released once (a second release would wrap the count).
    let small = SweepJob {
        poly,
        spec,
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 3), Axis::new(-0.4, 0.4, 3)),
        top_k: 1,
        chunk: 3,
        deadline_ms: 0,
        progress_every: 0,
    };
    for _ in 0..2 {
        request(&mut raw, &ServeRequest::Sweep(small.clone()));
        match read(&mut raw).expect("sweep frame") {
            ServeResponse::SweepDone(s) => assert_eq!(s.evaluated, 9),
            other => panic!("expected SweepDone, got {other:?}"),
        }
    }
    request(&mut raw, &ServeRequest::Ping);
    assert_eq!(read(&mut raw).expect("pong"), ServeResponse::Pong);

    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn cancelled_multistart_across_lanes_ends_once_and_frees_its_slot() {
    multistart_across_lanes_ends_once(0, true);
}

#[test]
fn expired_multistart_deadline_across_lanes_ends_once_and_frees_its_slot() {
    multistart_across_lanes_ends_once(1, false);
}

#[test]
fn huge_restart_count_is_an_error_not_an_abort() {
    use qokit::dist::wire::SweepSimSpec;
    use qokit::serve::{ClientError, MultiStartJob, ServeClient, Server, ServerConfig};

    let restarts = 1usize << 40;
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead::default()),
        restarts,
        seed: 3,
        bounds: vec![(-0.5, 0.5), (-0.4, 0.4)],
    };
    let want = MultiStartError::TooManyRestarts { restarts };
    assert_eq!(driver.try_starting_points().unwrap_err(), want);
    let never = |_: &[f64]| -> f64 { unreachable!("no restart may run") };
    assert_eq!(driver.try_minimize(&never).unwrap_err(), want);

    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn_thread()
        .expect("spawn");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let job = MultiStartJob {
        poly: labs_terms(6),
        spec: SweepSimSpec {
            precompute: PrecomputeMethod::Direct,
            quantize_u16: false,
            layout: Layout::Split,
        },
        depth: 1,
        restarts,
        seed: 3,
        bounds: vec![(-0.5, 0.5), (-0.4, 0.4)],
        deadline_ms: 0,
    };
    match client.submit_multistart(&job) {
        Err(ClientError::Server(message)) => assert_eq!(message, want.to_string()),
        other => panic!("expected the TooManyRestarts error, got {other:?}"),
    }
    client
        .ping()
        .expect("the server still answers after the huge restart count");
    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// A served sweep on more qubits than a cost vector can hold is an `Error`
/// frame from the job's precompute, not an allocation abort of the server.
#[test]
fn oversized_served_sweep_is_an_error_not_an_abort() {
    use qokit::dist::wire::SweepSimSpec;
    use qokit::serve::{ClientError, ProgressAction, ServeClient, Server, ServerConfig, SweepJob};
    use qokit::terms::maxcut::maxcut_polynomial;

    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn_thread()
        .expect("spawn");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let job = SweepJob {
        poly: maxcut_polynomial(&Graph::ring(48, 1.0)),
        spec: SweepSimSpec {
            precompute: PrecomputeMethod::Direct,
            quantize_u16: false,
            layout: Layout::Split,
        },
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 2), Axis::new(-0.4, 0.4, 2)),
        top_k: 2,
        chunk: 2,
        deadline_ms: 0,
        progress_every: 0,
    };
    match client.submit_sweep(&job, |_| ProgressAction::Continue) {
        Err(ClientError::Server(message)) => assert!(
            message.contains("n = 48 exceeds MAX_QUBITS = 40"),
            "{message}"
        ),
        other => panic!("expected a MAX_QUBITS error, got {other:?}"),
    }
    client
        .ping()
        .expect("the server still answers after the oversized sweep");
    client.shutdown_server().expect("shutdown");
    handle.join();
}
