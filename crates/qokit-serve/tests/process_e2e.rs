//! Process-level end-to-end test: the real `qokit-serve` binary on real
//! loopback TCP, configured through its `QOKIT_SERVE_*` environment
//! variables, driven by `ServeClient` — the same gate CI runs.
//!
//! Covered here (and nowhere else): the `SERVE_ADDR=` stdout handshake,
//! env-var configuration, all three job kinds against a separate OS
//! process, warm-cache behaviour across requests (a cached diagonal and
//! a cached light-cone plan), deterministic
//! `Rejected` under a saturated 1-slot queue, and a clean `Shutdown`
//! exit.

use qokit_core::batch::{SweepNesting, SweepOptions, SweepRunner};
use qokit_core::landscape::LandscapeAggregator;
use qokit_core::simulator::{FurSimulator, InitialState, SimOptions};
use qokit_core::Mixer;
use qokit_dist::wire::SweepSimSpec;
use qokit_dist::{Axis, Grid2d, PointSource};
use qokit_serve::proto::{LightConeJob, MultiStartJob, SweepJob};
use qokit_serve::{JobOutcome, ProgressAction, ServeClient};
use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::Layout;
use qokit_terms::labs::labs_terms;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kills the server process on drop so a failing assertion can't leak a
/// listener into the test harness.
struct ServerProcess {
    child: Child,
    addr: String,
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn spawn_server(queue_capacity: usize) -> ServerProcess {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qokit-serve"))
        .env("QOKIT_SERVE_ADDR", "127.0.0.1:0")
        .env("QOKIT_SERVE_QUEUE", queue_capacity.to_string())
        .env("QOKIT_SERVE_CACHE_BYTES", (64u64 << 20).to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn qokit-serve binary");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read handshake line");
    let addr = line
        .trim()
        .strip_prefix("SERVE_ADDR=")
        .unwrap_or_else(|| panic!("expected SERVE_ADDR=<addr> handshake, got {line:?}"))
        .to_string();
    ServerProcess { child, addr }
}

fn spec() -> SweepSimSpec {
    SweepSimSpec {
        precompute: qokit_costvec::PrecomputeMethod::Direct,
        quantize_u16: false,
        layout: Layout::Interleaved,
    }
}

fn sweep_job() -> SweepJob {
    SweepJob {
        poly: labs_terms(8),
        spec: spec(),
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 6), Axis::new(-0.4, 0.4, 5)),
        top_k: 3,
        chunk: 5,
        deadline_ms: 0,
        progress_every: 0,
    }
}

#[test]
fn binary_serves_all_job_kinds_with_cache_and_admission_control() {
    let server = spawn_server(1);
    let mut client = ServeClient::connect(&server.addr).expect("connect to spawned server");
    client.ping().expect("ping");

    // --- Sweep: bit-identical to the one-shot engine in THIS process ---
    let job = sweep_job();
    let served = client
        .submit_sweep(&job, |_| ProgressAction::Continue)
        .expect("sweep rpc")
        .done()
        .expect("sweep completed");
    assert!(!served.cache_hit);

    let exec = ExecPolicy::serial().with_layout(spec().layout);
    let runner = SweepRunner::with_options(
        FurSimulator::with_options(
            &job.poly,
            SimOptions {
                mixer: Mixer::X,
                exec,
                precompute: spec().precompute,
                quantize_u16: spec().quantize_u16,
                initial: InitialState::Auto,
            },
        ),
        SweepOptions {
            exec,
            nested: SweepNesting::PointsParallel,
        },
    );
    let mut oracle = LandscapeAggregator::new(job.top_k);
    runner
        .scan_into(
            (0..job.grid.len()).map(|i| job.grid.point(i)),
            job.chunk,
            &mut oracle,
        )
        .expect("local scan");
    assert_eq!(served.sum.to_bits(), oracle.sum().to_bits());
    assert_eq!(
        served.min_energy.to_bits(),
        oracle.min_energy().unwrap().to_bits()
    );
    assert_eq!(served.argmin, oracle.argmin().unwrap());

    // --- Identical resubmission: the cross-request precompute cache ----
    let warm = client
        .submit_sweep(&job, |_| ProgressAction::Continue)
        .expect("warm rpc")
        .done()
        .expect("warm completed");
    assert!(
        warm.cache_hit,
        "second identical submission must hit the cache"
    );
    assert_eq!(warm.sum.to_bits(), served.sum.to_bits());
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.misses, 1);
    assert!(stats.hits >= 1);

    // --- MultiStart + LightCone over the same connection ---------------
    let ms = client
        .submit_multistart(&MultiStartJob {
            poly: labs_terms(8),
            spec: spec(),
            depth: 1,
            restarts: 2,
            seed: 5,
            bounds: vec![(-0.5, 0.5), (-0.4, 0.4)],
            deadline_ms: 0,
        })
        .expect("multistart rpc")
        .done()
        .expect("multistart completed");
    assert!(ms.best_f.is_finite());
    assert!(ms.cache_hit, "labs(8) + same spec is already cached");

    let ring: Vec<(usize, usize, f64)> = (0..64).map(|i| (i, (i + 1) % 64, 1.0)).collect();
    let lc_job = LightConeJob {
        n_vertices: 64,
        edges: ring,
        gammas: vec![0.4],
        betas: vec![0.6],
        max_cone_qubits: 22,
        deadline_ms: 0,
    };
    let lc = client
        .submit_lightcone(&lc_job)
        .expect("lightcone rpc")
        .done()
        .expect("lightcone completed");
    assert!(lc.energy.is_finite());
    assert_eq!(lc.edges, 64);
    assert_eq!(lc.unique_cones, 1, "every ring cone is the same local line");

    // --- Identical light-cone resubmission: the cached cone plan -------
    let before = client.cache_stats().expect("stats");
    let warm_lc = client
        .submit_lightcone(&lc_job)
        .expect("warm lightcone rpc")
        .done()
        .expect("warm lightcone completed");
    assert_eq!(warm_lc.energy.to_bits(), lc.energy.to_bits());
    assert_eq!(warm_lc, lc);
    let after = client.cache_stats().expect("stats");
    assert_eq!(
        (after.plan_hits, after.plan_misses),
        (before.plan_hits + 1, before.plan_misses),
        "second identical light-cone submission must hit the plan cache"
    );

    // --- Saturated 1-slot queue: clean Rejected, never a hang ----------
    let addr = server.addr.clone();
    let a_started = Arc::new(AtomicBool::new(false));
    let b_decided = Arc::new(AtomicBool::new(false));
    // 4096 × 4096 single-point chunks run for minutes, so A is still
    // outstanding when B's submit is decided; the cancel below ends it.
    let slow = SweepJob {
        grid: Grid2d::new(Axis::new(-0.5, 0.5, 4096), Axis::new(-0.4, 0.4, 4096)),
        chunk: 1,
        progress_every: 1,
        ..sweep_job()
    };
    let submitter = {
        let (a_started, b_decided) = (Arc::clone(&a_started), Arc::clone(&b_decided));
        std::thread::spawn(move || {
            let mut a = ServeClient::connect(&addr).expect("connect A");
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
    let wait_start = Instant::now();
    while !a_started.load(Ordering::Relaxed) {
        assert!(
            wait_start.elapsed() < Duration::from_secs(30),
            "job A never started streaming progress"
        );
        std::thread::yield_now();
    }
    match client
        .submit_sweep(&sweep_job(), |_| ProgressAction::Continue)
        .expect("rpc B")
    {
        JobOutcome::Rejected {
            outstanding,
            capacity,
        } => {
            assert_eq!((outstanding, capacity), (1, 1));
        }
        other => panic!("expected Rejected from the saturated queue, got {other:?}"),
    }
    b_decided.store(true, Ordering::Relaxed);
    assert!(matches!(
        submitter.join().expect("thread A"),
        JobOutcome::Cancelled { .. }
    ));

    // --- Clean shutdown: the process exits on its own ------------------
    client.shutdown_server().expect("shutdown");
    drop(client);
    let mut server = server;
    let exit_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "server exited with {status}");
                break;
            }
            None => {
                assert!(
                    Instant::now() < exit_deadline,
                    "server did not exit after Shutdown"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}
