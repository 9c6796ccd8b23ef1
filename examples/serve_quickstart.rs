//! The serving layer end to end: an in-process `qokit-serve` server on
//! loopback TCP, driven through the blocking client.
//!
//! The walk-through exercises every serving guarantee:
//!
//! 1. a landscape sweep whose served summary is **bit-identical** to the
//!    one-shot `SweepRunner` scan of the same grid;
//! 2. the same submission again — a **precompute-cache hit** (the
//!    `2^n` cost diagonal is built once per problem, not per request);
//! 3. a multi-start Nelder–Mead job and a light-cone MaxCut job on a
//!    graph far too large for any statevector, over the same socket;
//! 4. **admission control**: a capacity-1 server answers a second
//!    concurrent submission with `Rejected` — overload is an explicit
//!    reply, never a hang — and a streamed-progress callback cancels
//!    the first job mid-flight.
//!
//! Run with: `cargo run --release --example serve_quickstart`

use qokit::core::batch::SweepNesting;
use qokit::core::{
    FurSimulator, InitialState, LandscapeAggregator, Mixer, SimOptions, SweepOptions, SweepRunner,
};
use qokit::dist::wire::SweepSimSpec;
use qokit::prelude::*;
use qokit::serve::ProgressAction;
use qokit::terms::maxcut::maxcut_polynomial;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // --- An in-process server on an ephemeral loopback port ------------
    let handle = Server::bind(ServerConfig::default())
        .expect("bind loopback listener")
        .spawn_thread()
        .expect("spawn serve thread");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    println!("server up at {}", handle.addr());

    // --- Job 1: a landscape sweep, checked against the one-shot API ----
    let mut rng = StdRng::seed_from_u64(7);
    let graph = Graph::random_regular(14, 3, &mut rng);
    let poly = maxcut_polynomial(&graph);
    let spec = SweepSimSpec {
        precompute: PrecomputeMethod::Direct,
        quantize_u16: false,
        layout: Layout::Interleaved,
    };
    let grid = Grid2d::new(Axis::new(-0.6, 0.6, 24), Axis::new(-0.4, 0.4, 24));
    let job = SweepJob {
        poly: poly.clone(),
        spec,
        grid,
        top_k: 5,
        chunk: 32,
        deadline_ms: 0,
        progress_every: 192,
    };

    let t = Instant::now();
    let served = client
        .submit_sweep(&job, |snap| {
            println!(
                "  progress: {}/{} points, min {:+.6}",
                snap.evaluated,
                grid.len(),
                snap.min_energy.unwrap_or(f64::NAN)
            );
            ProgressAction::Continue
        })
        .expect("sweep rpc")
        .done()
        .expect("sweep ran to completion");
    println!(
        "sweep (cold): {} points in {:.2?}, min {:+.9} at #{} (cache_hit = {})",
        served.evaluated,
        t.elapsed(),
        served.min_energy,
        served.argmin,
        served.cache_hit
    );
    assert!(
        !served.cache_hit,
        "first submission must build the simulator"
    );

    // One-shot oracle: same spec, same grid, through the local engine.
    let exec = ExecPolicy::serial().with_layout(spec.layout);
    let sim = FurSimulator::with_options(
        &poly,
        SimOptions {
            mixer: Mixer::X,
            exec,
            precompute: spec.precompute,
            quantize_u16: spec.quantize_u16,
            initial: InitialState::Auto,
        },
    );
    let runner = SweepRunner::with_options(
        sim,
        SweepOptions {
            exec,
            nested: SweepNesting::PointsParallel,
        },
    );
    let mut oracle = LandscapeAggregator::new(5);
    runner
        .scan_into((0..grid.len()).map(|i| grid.point(i)), 32, &mut oracle)
        .expect("local scan");
    assert_eq!(served.sum.to_bits(), oracle.sum().to_bits());
    assert_eq!(
        served.min_energy.to_bits(),
        oracle.min_energy().unwrap().to_bits()
    );
    assert_eq!(served.argmin, oracle.argmin().unwrap());
    println!("  bit-identical to the one-shot SweepRunner scan ✓");

    // --- Job 2: identical submission → precompute-cache hit ------------
    let t = Instant::now();
    let warm = client
        .submit_sweep(&job, |_| ProgressAction::Continue)
        .expect("sweep rpc")
        .done()
        .expect("warm sweep ran");
    println!(
        "sweep (warm): {:.2?}, cache_hit = {}",
        t.elapsed(),
        warm.cache_hit
    );
    assert!(
        warm.cache_hit,
        "second identical submission must hit the cache"
    );
    assert_eq!(warm.min_energy.to_bits(), served.min_energy.to_bits());

    // --- Job 3: multi-start optimization over the cached simulator -----
    let ms = client
        .submit_multistart(&MultiStartJob {
            poly: poly.clone(),
            spec,
            depth: 1,
            restarts: 4,
            seed: 11,
            bounds: vec![(-0.6, 0.6), (-0.4, 0.4)],
            deadline_ms: 0,
        })
        .expect("multistart rpc")
        .done()
        .expect("multistart ran");
    println!(
        "multistart: best f = {:+.9} from restart {} of {} (cache_hit = {})",
        ms.best_f,
        ms.best_restart,
        ms.restart_best_fs.len(),
        ms.cache_hit
    );
    assert!(
        ms.cache_hit,
        "same problem + spec reuses the cached simulator"
    );
    assert!(ms.best_f <= served.min_energy + 1e-9);

    // --- Job 4: light-cone energy on a 20,000-vertex graph -------------
    let big = Graph::random_regular(20_000, 3, &mut rng);
    let lc = client
        .submit_lightcone(&LightConeJob {
            n_vertices: 20_000,
            edges: big.edges().to_vec(),
            gammas: vec![0.4],
            betas: vec![0.6],
            max_cone_qubits: 22,
            deadline_ms: 0,
        })
        .expect("lightcone rpc")
        .done()
        .expect("lightcone ran");
    println!(
        "lightcone: n = 20,000, energy {:+.3}, {} edges from {} unique cones",
        lc.energy, lc.edges, lc.unique_cones
    );

    let stats = client.cache_stats().expect("cache stats");
    println!(
        "cache: {} entries, {} bytes, {} hits / {} misses",
        stats.entries, stats.bytes, stats.hits, stats.misses
    );
    // One cost diagonal and one light-cone plan share the cache.
    assert_eq!((stats.entries, stats.plan_misses), (2, 1));
    assert!(stats.hits >= 2);

    client.shutdown_server().expect("shutdown");
    handle.join();

    // --- Admission control on a saturated capacity-1 server ------------
    let handle = Server::bind(ServerConfig {
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn_thread()
    .expect("spawn");
    let addr = handle.addr();
    // B is connected and served first, so its submit waits on no accept
    // poll; A's 4096 × 4096 grid is still running when B is decided.
    let mut b = ServeClient::connect(addr).expect("connect B");
    b.ping().expect("ping B");

    let a_started = Arc::new(AtomicBool::new(false));
    let b_decided = Arc::new(AtomicBool::new(false));
    let slow_job = SweepJob {
        grid: Grid2d::new(Axis::new(-0.6, 0.6, 4096), Axis::new(-0.4, 0.4, 4096)),
        chunk: 1,
        progress_every: 1, // stream every point: a responsive cancel path
        ..job.clone()
    };
    let submitter = {
        let (a_started, b_decided) = (Arc::clone(&a_started), Arc::clone(&b_decided));
        std::thread::spawn(move || {
            let mut a = ServeClient::connect(addr).expect("connect A");
            a.submit_sweep(&slow_job, |_| {
                a_started.store(true, Ordering::Relaxed);
                if b_decided.load(Ordering::Relaxed) {
                    ProgressAction::Cancel
                } else {
                    ProgressAction::Continue
                }
            })
            .expect("sweep A rpc")
        })
    };
    while !a_started.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }
    // A is mid-sweep and holds the only admission slot: B must be refused.
    let refused = b
        .submit_sweep(&job, |_| ProgressAction::Continue)
        .expect("sweep B rpc");
    match refused {
        JobOutcome::Rejected {
            outstanding,
            capacity,
        } => println!("saturated server refused job B: {outstanding}/{capacity} outstanding ✓"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    b_decided.store(true, Ordering::Relaxed);
    match submitter.join().expect("submitter thread") {
        JobOutcome::Cancelled { evaluated } => {
            println!("job A cancelled mid-flight after {evaluated} points ✓")
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    b.shutdown_server().expect("shutdown");
    handle.join();
    println!("\nserve quickstart: all assertions passed");
}
