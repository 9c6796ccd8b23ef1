//! `serve_mix`: two closed-loop `ServeClient`s against an in-process
//! `Server` on loopback with two lanes. Each client submits its next job
//! only after the previous one's terminal frame, walking its own seeded
//! 128-job cycle:
//!
//! - 120 small-grid (4×4) sweep jobs per client over 12 distinct
//!   LABS/MaxCut problems at n = 14–16, reused on a Zipf-skewed schedule;
//! - 4 light-cone jobs on one fixed 20 000-vertex 3-regular graph at
//!   p = 2, and 4 multi-start jobs at n = 12, p = 2.
//!
//! The precompute cache's byte budget holds half of the distinct
//! diagonals, so hits, misses and evictions all occur. This is the only
//! workload through the queue, cache and codec layers; its traced run also
//! makes the transport probe of [`super::dist`].

use crate::outcome::{default_spec, secs, Args, Intervals, Outcome};
use crate::pace::Pacer;
use crate::probe::{self, Kernels};
use crate::record::Metric;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use qokit_core::landscape::LandscapeAggregator;
use qokit_core::lightcone::{LightConeEvaluator, LightConeOptions};
use qokit_core::{SweepOptions, SweepPoint, SweepRunner};
use qokit_dist::frame::{encode_frame, read_frame};
use qokit_dist::{Axis, Grid2d, PointSource};
use qokit_optim::{MultiStart, NelderMead, RestartMethod};
use qokit_serve::cache::build_simulator;
use qokit_serve::proto::{decode_request, decode_response, encode_request, encode_response};
use qokit_serve::{
    JobOutcome, LightConeJob, LightConeSummary, MultiStartJob, MultiStartSummary, ProgressAction,
    ServeClient, ServeRequest, ServeResponse, Server, ServerConfig, ServerHandle, SweepJob,
    SweepSummary,
};
use qokit_statevec::ExecPolicy;
use qokit_terms::labs::labs_terms;
use qokit_terms::maxcut::maxcut_polynomial;
use qokit_terms::{Graph, SpinPolynomial, Term};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 2;
const LANES: usize = 2;
const SWEEP_PROBLEMS: usize = 12;
/// Jobs in each client's repeating cycle.
const CLIENT_CYCLE: usize = 128;
/// Long jobs per client cycle: half light-cone, half multi-start. Across
/// the clients there are `CLIENTS · LONG_JOBS / 2` distinct jobs of each
/// long kind.
const LONG_JOBS: usize = 8;
/// Distinct sweep grids per problem.
const GRID_VARIANTS: usize = 4;
const SWEEPS_PER_CLIENT: usize = CLIENT_CYCLE - LONG_JOBS;
const LIGHTCONE_VERTICES: usize = 20_000;
/// Seed of the one light-cone graph every run uses.
const LIGHTCONE_GRAPH_SEED: u64 = 2023;
const SETUP_REPS: usize = 25;
/// Seconds of one closed-loop round; the pacer samples between rounds.
const ROUND_S: f64 = 1.0;
/// Jobs each client runs before measuring, so the cache and the lanes
/// are warm.
const WARM_JOBS: usize = 8;

/// One schedule entry.
#[derive(Clone)]
enum Job {
    Sweep(SweepJob),
    MultiStart(MultiStartJob),
    LightCone(LightConeJob),
}

impl Job {
    fn kind(&self) -> &'static str {
        match self {
            Job::Sweep(_) => "sweep",
            Job::MultiStart(_) => "multistart",
            Job::LightCone(_) => "lightcone",
        }
    }

    fn request(&self) -> ServeRequest {
        match self {
            Job::Sweep(j) => ServeRequest::Sweep(j.clone()),
            Job::MultiStart(j) => ServeRequest::MultiStart(j.clone()),
            Job::LightCone(j) => ServeRequest::LightCone(j.clone()),
        }
    }
}

/// A terminal `*Done` summary.
#[derive(Clone, Debug)]
enum Summary {
    Sweep(SweepSummary),
    MultiStart(MultiStartSummary),
    LightCone(LightConeSummary),
}

impl Summary {
    fn response(&self) -> ServeResponse {
        match self {
            Summary::Sweep(s) => ServeResponse::SweepDone(s.clone()),
            Summary::MultiStart(s) => ServeResponse::MultiStartDone(s.clone()),
            Summary::LightCone(s) => ServeResponse::LightConeDone(s.clone()),
        }
    }

    fn cache_hit(&self) -> Option<bool> {
        match self {
            Summary::Sweep(s) => Some(s.cache_hit),
            Summary::MultiStart(s) => Some(s.cache_hit),
            Summary::LightCone(_) => None,
        }
    }

    /// Bit-identity against a one-shot result (the cache flag is server
    /// state, not part of the result).
    fn same_result(&self, other: &Summary) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (self, other) {
            (Summary::Sweep(a), Summary::Sweep(b)) => {
                let top = |s: &SweepSummary| {
                    s.top_k
                        .iter()
                        .map(|&(i, e)| (i, e.to_bits()))
                        .collect::<Vec<_>>()
                };
                a.evaluated == b.evaluated
                    && a.sum.to_bits() == b.sum.to_bits()
                    && a.min_energy.to_bits() == b.min_energy.to_bits()
                    && a.argmin == b.argmin
                    && top(a) == top(b)
            }
            (Summary::MultiStart(a), Summary::MultiStart(b)) => {
                a.best_restart == b.best_restart
                    && a.best_f.to_bits() == b.best_f.to_bits()
                    && bits(&a.best_x) == bits(&b.best_x)
                    && bits(&a.restart_best_fs) == bits(&b.restart_best_fs)
            }
            (Summary::LightCone(a), Summary::LightCone(b)) => {
                a.energy.to_bits() == b.energy.to_bits()
                    && a.edges == b.edges
                    && a.unique_cones == b.unique_cones
                    && a.cache_hits == b.cache_hits
            }
            _ => false,
        }
    }
}

/// A cost function as drawn from the seed, before its polynomial is
/// built (building it is the program's set-up work, drawing it is not).
enum Problem {
    /// LABS at `n`, made distinct by one extra two-body term of this
    /// weight.
    TaggedLabs { n: usize, tag: f64 },
    /// MaxCut on this graph.
    MaxCut(Graph),
}

impl Problem {
    fn draw(n: usize, labs: bool, rng: &mut StdRng) -> Problem {
        if labs {
            Problem::TaggedLabs {
                n,
                tag: rng.gen_range::<f64, _>(0.5..1.5),
            }
        } else {
            Problem::MaxCut(Graph::random_regular(n, 3, rng))
        }
    }

    fn build(&self) -> SpinPolynomial {
        match self {
            Problem::TaggedLabs { n, tag } => {
                let mut terms = labs_terms(*n).terms().to_vec();
                terms.push(Term {
                    weight: *tag,
                    mask: 0b11,
                });
                SpinPolynomial::new(*n, terms)
            }
            Problem::MaxCut(g) => maxcut_polynomial(g),
        }
    }
}

/// What one schedule slot submits.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Slot {
    /// Sweep of problem `problem` over its grid number `variant`.
    Sweep { problem: usize, variant: usize },
    /// Multi-start job number `j`.
    MultiStart(usize),
    /// Light-cone job number `j`.
    LightCone(usize),
}

/// Everything drawn from the seed.
struct Draw {
    sweep_problems: Vec<Problem>,
    multistart_problems: Vec<Problem>,
    lightcone_graph: Graph,
    /// Per problem, `GRID_VARIANTS` sweep grids.
    grids: Vec<Vec<Grid2d>>,
    multistart_seeds: Vec<u64>,
    lightcone_angles: Vec<(Vec<f64>, Vec<f64>)>,
    /// Client `c`'s cycle is `slots[c·CLIENT_CYCLE..(c+1)·CLIENT_CYCLE]`.
    slots: Vec<Slot>,
}

fn draw(seed: u64) -> Draw {
    let mut rng = StdRng::seed_from_u64(seed);
    // Problem k (popularity rank k): n = 14 for the eight most popular,
    // 15 for the next two, 16 for the last two — so the median job sits
    // inside the one large class of n = 14 sweeps. LABS for even k,
    // MaxCut on a 3-regular graph for odd k (LABS again at odd n, where
    // no 3-regular graph exists).
    let sweep_problems: Vec<Problem> = (0..SWEEP_PROBLEMS)
        .map(|k| {
            let n = match k {
                0..=7 => 14,
                8 | 9 => 15,
                _ => 16,
            };
            Problem::draw(n, k % 2 == 0 || n % 2 == 1, &mut rng)
        })
        .collect();
    let multistart_problems = vec![
        Problem::draw(12, true, &mut rng),
        Problem::draw(12, false, &mut rng),
    ];
    // One fixed light-cone instance, like LABS n = 20 in optimize_labs:
    // the count of distinct cone shapes (a handful of short cycles) swings
    // between random instances and with it the job cost, which is instance
    // luck rather than serving cost. The seed draws the angles.
    let lightcone_graph = Graph::random_regular(
        LIGHTCONE_VERTICES,
        3,
        &mut StdRng::seed_from_u64(LIGHTCONE_GRAPH_SEED),
    );
    let grids = (0..SWEEP_PROBLEMS)
        .map(|_| {
            (0..GRID_VARIANTS)
                .map(|_| {
                    Grid2d::new(
                        Axis::new(0.0, rng.gen_range::<f64, _>(0.3..1.0), 4),
                        Axis::new(-rng.gen_range::<f64, _>(0.3..1.0), 0.0, 4),
                    )
                })
                .collect()
        })
        .collect();
    let multistart_seeds = (0..LONG_JOBS).map(|_| rng.gen()).collect();
    let mut angle = || rng.gen_range::<f64, _>(0.1..0.6);
    let lightcone_angles = (0..LONG_JOBS)
        .map(|_| (vec![angle(), angle()], vec![-angle(), -angle()]))
        .collect();

    // Zipf popularity: problem k gets weight 1/(k+1); largest-remainder
    // rounding to exactly the number of sweep slots.
    let sweep_slots = CLIENTS * SWEEPS_PER_CLIENT;
    let h: f64 = (1..=SWEEP_PROBLEMS).map(|k| 1.0 / k as f64).sum();
    let share = |k: usize| sweep_slots as f64 / (h * (k + 1) as f64);
    let mut counts: Vec<usize> = (0..SWEEP_PROBLEMS).map(|k| share(k) as usize).collect();
    let mut order: Vec<usize> = (0..SWEEP_PROBLEMS).collect();
    order.sort_by(|&a, &b| (share(b) - share(b).floor()).total_cmp(&(share(a) - share(a).floor())));
    let short = sweep_slots - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    let mut sweeps: Vec<Slot> = counts
        .iter()
        .enumerate()
        .flat_map(|(problem, &c)| {
            (0..c).map(move |i| Slot::Sweep {
                problem,
                variant: i % GRID_VARIANTS,
            })
        })
        .collect();
    sweeps.shuffle(&mut rng);
    // Every client runs both long kinds, so both lanes serve light-cone
    // jobs in every run: the light-cone working set then lands in both
    // lanes' allocator arenas whatever the interleaving, and peak memory
    // does not hinge on which lane happened to pick the jobs up.
    let half = LONG_JOBS / 2;
    let mut slots = Vec::with_capacity(CLIENTS * CLIENT_CYCLE);
    for c in 0..CLIENTS {
        let mut cycle = sweeps[c * SWEEPS_PER_CLIENT..(c + 1) * SWEEPS_PER_CLIENT].to_vec();
        let mine = c * half..(c + 1) * half;
        cycle.extend(mine.clone().map(Slot::LightCone));
        cycle.extend(mine.map(Slot::MultiStart));
        cycle.shuffle(&mut rng);
        slots.extend(cycle);
    }
    Draw {
        sweep_problems,
        multistart_problems,
        lightcone_graph,
        grids,
        multistart_seeds,
        lightcone_angles,
        slots,
    }
}

/// The built inputs: distinct polynomials and the job of every slot.
struct Inputs {
    sweep_polys: Vec<SpinPolynomial>,
    multistart_polys: Vec<SpinPolynomial>,
    schedule: Vec<Job>,
}

/// Builds the polynomials and jobs of a draw — the problem-build part of
/// set-up.
fn build(d: &Draw) -> Inputs {
    let sweep_polys: Vec<SpinPolynomial> = d.sweep_problems.iter().map(Problem::build).collect();
    let multistart_polys: Vec<SpinPolynomial> =
        d.multistart_problems.iter().map(Problem::build).collect();
    let spec = default_spec();
    let schedule = d
        .slots
        .iter()
        .map(|&slot| match slot {
            Slot::Sweep { problem, variant } => Job::Sweep(SweepJob {
                poly: sweep_polys[problem].clone(),
                spec,
                grid: d.grids[problem][variant],
                top_k: 4,
                chunk: 16,
                deadline_ms: 0,
                progress_every: 0,
            }),
            Slot::MultiStart(j) => Job::MultiStart(MultiStartJob {
                poly: multistart_polys[j % multistart_polys.len()].clone(),
                spec,
                depth: 2,
                restarts: 2,
                seed: d.multistart_seeds[j],
                bounds: vec![(0.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, 0.0)],
                deadline_ms: 0,
            }),
            Slot::LightCone(j) => Job::LightCone(LightConeJob {
                n_vertices: d.lightcone_graph.n_vertices(),
                edges: d.lightcone_graph.edges().to_vec(),
                gammas: d.lightcone_angles[j].0.clone(),
                betas: d.lightcone_angles[j].1.clone(),
                max_cone_qubits: LightConeOptions::default().max_cone_qubits,
                deadline_ms: 0,
            }),
        })
        .collect();
    Inputs {
        sweep_polys,
        multistart_polys,
        schedule,
    }
}

/// One finished submission.
struct Done {
    slot: usize,
    latency_ms: f64,
    /// Submit and terminal-frame instants.
    at: (Instant, Instant),
    result: Result<Summary, String>,
}

fn submit(client: &mut ServeClient, job: &Job) -> Result<Summary, String> {
    fn finish<T>(
        r: Result<JobOutcome<T>, qokit_serve::ClientError>,
        wrap: fn(T) -> Summary,
    ) -> Result<Summary, String> {
        match r {
            Ok(JobOutcome::Done(s)) => Ok(wrap(s)),
            Ok(JobOutcome::Rejected { .. }) => Err("rejected".into()),
            Ok(JobOutcome::Cancelled { .. }) => Err("cancelled".into()),
            Err(e) => Err(e.to_string()),
        }
    }
    match job {
        Job::Sweep(j) => finish(
            client.submit_sweep(j, |_| ProgressAction::Continue),
            Summary::Sweep,
        ),
        Job::MultiStart(j) => finish(client.submit_multistart(j), Summary::MultiStart),
        Job::LightCone(j) => finish(client.submit_lightcone(j), Summary::LightCone),
    }
}

/// One closed-loop round: each client walks its own cycle of the schedule
/// (client `c` owns slots `c·CLIENT_CYCLE..(c+1)·CLIENT_CYCLE`),
/// submitting the next job when the previous one's terminal frame
/// arrived, until `seconds` have passed or it started `limit` jobs (at
/// least one job each). `positions` holds each client's place in its
/// cycle across calls.
fn round(
    seconds: f64,
    limit: usize,
    clients: &mut [ServeClient],
    positions: &mut [usize],
    schedule: &[Job],
    tr: &Tracer,
) -> Vec<Done> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(positions.iter_mut())
            .enumerate()
            .map(|(c, (client, pos))| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while done.is_empty() || (secs(start) < seconds && done.len() < limit) {
                        let slot = c * CLIENT_CYCLE + *pos % CLIENT_CYCLE;
                        let request = ((c as u64) << 32) | *pos as u64;
                        *pos += 1;
                        let job = &schedule[slot];
                        let t = Instant::now();
                        let result =
                            tr.span(&format!("serve.job.{}", job.kind()), 0, request, |_| {
                                submit(client, job)
                            });
                        let end = Instant::now();
                        done.push(Done {
                            slot,
                            latency_ms: (end - t).as_secs_f64() * 1e3,
                            at: (t, end),
                            result,
                        });
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The closed loop in rounds of at most `ROUND_S` until `seconds` of
/// serving have passed. A round ends when both clients' jobs in flight
/// have finished, and the pacer samples between rounds, never while a
/// job runs.
fn serve_for(
    seconds: f64,
    clients: &mut [ServeClient],
    positions: &mut [usize],
    schedule: &[Job],
    tr: &Tracer,
    pacer: &mut Pacer,
) -> Vec<Done> {
    let (start, spent) = (Instant::now(), pacer.spent_s());
    let mut done = Vec::new();
    loop {
        let left = seconds - (secs(start) - (pacer.spent_s() - spent));
        if left <= 0.0 && !done.is_empty() {
            break;
        }
        done.extend(round(
            left.min(ROUND_S),
            usize::MAX,
            clients,
            positions,
            schedule,
            tr,
        ));
        pacer.tick();
    }
    pacer.sample();
    done
}

/// Binds the in-process server and starts its thread.
fn start_server(cache_bytes: usize) -> ServerHandle {
    Server::bind(ServerConfig {
        cache_bytes,
        lanes: LANES,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
    .spawn_thread()
    .expect("spawn server thread")
}

/// Connects and pings the clients. Every client connects before the
/// first ping, so the accept loop takes them in one pass.
fn connect(handle: &ServerHandle) -> Vec<ServeClient> {
    let mut clients: Vec<ServeClient> = (0..CLIENTS)
        .map(|_| ServeClient::connect(handle.addr()).expect("connect to server"))
        .collect();
    for c in &mut clients {
        c.ping().expect("ping server");
    }
    clients
}

/// Shuts the server down and waits for its thread.
fn stop(handle: ServerHandle) {
    let mut client = ServeClient::connect(handle.addr()).expect("connect to server");
    client.shutdown_server().expect("shut server down");
    drop(client);
    handle.join();
}

/// The evaluator a light-cone job runs on, built as the server builds it.
fn evaluator(j: &LightConeJob) -> LightConeEvaluator {
    LightConeEvaluator::with_options(
        Graph::new(j.n_vertices, j.edges.clone()),
        LightConeOptions {
            max_cone_qubits: j.max_cone_qubits,
            ..LightConeOptions::default()
        },
    )
}

/// Median seconds to plan the light cones of the schedule's first
/// light-cone job (extraction plus dedup, no simulation).
fn lightcone_plan_s(schedule: &[Job]) -> f64 {
    let Some(j) = schedule.iter().find_map(|j| match j {
        Job::LightCone(j) => Some(j),
        _ => None,
    }) else {
        return f64::NAN;
    };
    let evaluator = evaluator(j);
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(evaluator.plan(j.gammas.len()).expect("light-cone plan"));
            secs(t)
        })
        .collect();
    median(&times)
}

/// The one-shot in-process result of a job and its wall time (ms),
/// excluding the simulator build a warm served job skips.
fn one_shot(job: &Job) -> (Summary, f64) {
    match job {
        Job::Sweep(j) => {
            let runner = SweepRunner::from_arc(
                Arc::new(build_simulator(&j.poly, j.spec)),
                SweepOptions::default(),
            );
            let t = Instant::now();
            let mut agg = LandscapeAggregator::new(j.top_k);
            let grid = j.grid;
            let evaluated = runner
                .scan_into((0..grid.len()).map(|i| grid.point(i)), j.chunk, &mut agg)
                .expect("one-shot sweep");
            let ms = secs(t) * 1e3;
            let s = SweepSummary {
                evaluated,
                sum: agg.sum(),
                min_energy: agg.min_energy().unwrap_or(f64::NAN),
                argmin: agg.argmin().unwrap_or(u64::MAX),
                top_k: agg.top_k().to_vec(),
                cache_hit: false,
            };
            (Summary::Sweep(s), ms)
        }
        Job::MultiStart(j) => {
            let runner = SweepRunner::from_arc(
                Arc::new(build_simulator(&j.poly, j.spec)),
                SweepOptions {
                    exec: ExecPolicy::serial(),
                    ..SweepOptions::default()
                },
            );
            let multistart = MultiStart {
                method: RestartMethod::NelderMead(NelderMead::default()),
                restarts: j.restarts,
                seed: j.seed,
                bounds: j.bounds.clone(),
            };
            let p = j.depth;
            let t = Instant::now();
            let run = multistart
                .try_minimize(&|x: &[f64]| {
                    let point = SweepPoint::new(x[..p].to_vec(), x[p..].to_vec());
                    runner.energies(std::slice::from_ref(&point))[0]
                })
                .expect("one-shot multistart");
            let ms = secs(t) * 1e3;
            let s = MultiStartSummary {
                best_restart: run.best_restart as u64,
                best_f: run.best().best_f,
                best_x: run.best().best_x.clone(),
                restart_best_fs: run.restarts.iter().map(|r| r.best_f).collect(),
                cache_hit: false,
            };
            (Summary::MultiStart(s), ms)
        }
        Job::LightCone(j) => {
            let t = Instant::now();
            let run = evaluator(j)
                .try_energy(&j.gammas, &j.betas)
                .expect("one-shot light cone");
            let ms = secs(t) * 1e3;
            let s = LightConeSummary {
                energy: run.energy,
                edges: j.edges.len() as u64,
                unique_cones: run.stats.unique_cones as u64,
                cache_hits: run.stats.cache_hits as u64,
            };
            (Summary::LightCone(s), ms)
        }
    }
}

/// Mean µs to encode (payload + frame) and to decode (frame check +
/// payload) each message of the schedule: every request and its terminal
/// response.
fn codec_us(schedule: &[Job], refs: &[Option<(Summary, f64)>]) -> (f64, f64) {
    let (mut enc, mut dec, mut count) = (0.0, 0.0, 0usize);
    let mut time = |encode: &dyn Fn() -> Vec<u8>, decode: &dyn Fn(&[u8]) -> bool| {
        let t = Instant::now();
        let frame = encode();
        enc += secs(t);
        let t = Instant::now();
        assert!(decode(&frame), "a benchmark message failed to decode");
        dec += secs(t);
        count += 1;
    };
    for (job, r) in schedule.iter().zip(refs) {
        let req = job.request();
        time(&|| encode_frame(&encode_request(&req)), &|f| {
            read_frame(&mut &f[..])
                .ok()
                .and_then(|(p, _)| decode_request(&p).ok())
                .is_some()
        });
        if let Some((s, _)) = r {
            let resp = s.response();
            time(&|| encode_frame(&encode_response(&resp)), &|f| {
                read_frame(&mut &f[..])
                    .ok()
                    .and_then(|(p, _)| decode_response(&p).ok())
                    .is_some()
            });
        }
    }
    (enc * 1e6 / count as f64, dec * 1e6 / count as f64)
}

/// Runs the workload.
pub fn run(args: &Args, tr: &Tracer, pacer: &mut Pacer) -> Outcome {
    // Set-up: build the problems and jobs, bind the server and start its
    // thread. Repeated; each earlier server is shut down outside the timed
    // region.
    let drawn = draw(args.seed);
    let mut terms_s = Vec::new();
    let mut setup = Intervals::default();
    let mut kept: Option<(Inputs, usize, ServerHandle)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, handle)) = kept.take() {
            stop(handle);
        }
        if setup.len() % SETUP_REPS.div_ceil(crate::outcome::SETUP_BLOCKS) == 0 {
            pacer.sample();
        }
        let t = Instant::now();
        let built = build(&drawn);
        terms_s.push(secs(t));
        let diag_bytes: usize = built
            .sweep_polys
            .iter()
            .chain(&built.multistart_polys)
            .map(|p| 8usize << p.n_vars())
            .sum();
        let handle = start_server(diag_bytes / 2);
        setup.push(t, Instant::now());
        kept = Some((built, diag_bytes, handle));
    }
    pacer.sample();
    let (inputs, diag_bytes, handle) = kept.expect("set-up ran");
    let schedule = &inputs.schedule;
    // Slots submitting the same job share one one-shot reference.
    let first_of: Vec<usize> = (0..drawn.slots.len())
        .map(|s| {
            (0..s)
                .find(|&e| drawn.slots[e] == drawn.slots[s])
                .unwrap_or(s)
        })
        .collect();
    let mut clients = connect(&handle);
    let mut positions = vec![0; CLIENTS];
    let off = Tracer::new(false);
    round(
        f64::INFINITY,
        WARM_JOBS,
        &mut clients,
        &mut positions,
        schedule,
        &off,
    );
    let before = clients[0].cache_stats().expect("cache stats");

    let (t, spent) = (Instant::now(), pacer.spent_s());
    let mut done = serve_for(
        args.phase_seconds(),
        &mut clients,
        &mut positions,
        schedule,
        &off,
        pacer,
    );
    let window = secs(t) - (pacer.spent_s() - spent);
    let peak_rss_mib = crate::host::peak_rss_mib();
    let untraced_jobs = done.len();
    let mid = clients[0].cache_stats().expect("cache stats");
    if args.trace {
        done.extend(serve_for(
            args.phase_seconds(),
            &mut clients,
            &mut positions,
            schedule,
            tr,
            pacer,
        ));
    }
    drop(clients);
    stop(handle);
    let mut tally = crate::stats::Tally::default();
    let dist_layers = if args.trace {
        super::dist::probe(args.seed, tr, &mut tally)
    } else {
        Vec::new()
    };

    // Output check, outside the timed region: every terminal summary is
    // bit-identical to the one-shot API result of the same job.
    let mut refs: Vec<Option<(Summary, f64)>> = vec![None; schedule.len()];
    let mut precompute_s = 0.0;
    for d in &done {
        let s = first_of[d.slot];
        if refs[s].is_none() {
            refs[s] = Some(one_shot(&schedule[s]));
        }
    }
    for p in inputs.sweep_polys.iter().chain(&inputs.multistart_polys) {
        let t = Instant::now();
        std::hint::black_box(build_simulator(p, default_spec()));
        precompute_s += secs(t);
    }
    let mut out = Outcome {
        tally,
        setup,
        peak_rss_mib,
        ..Outcome::default()
    };
    let mut rejected = 0u64;
    // Served latency minus the one-shot time of the same job, per kind
    // (sweep, multistart, lightcone); cache-missing jobs are left out,
    // since their one-shot time excludes the simulator build.
    let mut overhead: [Vec<f64>; 3] = Default::default();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    for (i, d) in done.iter().enumerate() {
        out.tally.attempt();
        let (want, one_shot_ms) = refs[first_of[d.slot]].as_ref().expect("reference computed");
        match &d.result {
            Ok(s) => {
                out.tally.checked(s.same_result(want));
                let kind = match s {
                    Summary::Sweep(_) => 0,
                    Summary::MultiStart(_) => 1,
                    Summary::LightCone(_) => 2,
                };
                if i < untraced_jobs {
                    by_kind[kind].push(d.latency_ms);
                    if s.cache_hit() != Some(false) {
                        overhead[kind].push(d.latency_ms - one_shot_ms);
                    }
                }
            }
            Err(e) => {
                out.tally.error();
                rejected += u64::from(e == "rejected");
            }
        }
        if i < untraced_jobs {
            out.latency.push(d.at.0, d.at.1);
        } else {
            out.traced.push(d.at.0, d.at.1);
        }
    }
    out.items = untraced_jobs as f64;
    out.window_s = window;

    let job = summarize(&out.latency.ms);
    let lookups = (mid.hits + mid.misses - before.hits - before.misses).max(1);
    let (encode_us, decode_us) = codec_us(schedule, &refs);
    let ms_times: Vec<f64> = refs
        .iter()
        .zip(schedule)
        .filter(|(_, j)| matches!(j, Job::MultiStart(_)))
        .filter_map(|(r, _)| r.as_ref().map(|r| r.1))
        .collect();
    let lc: Vec<&LightConeSummary> = refs
        .iter()
        .filter_map(|r| match r {
            Some((Summary::LightCone(s), _)) => Some(s),
            _ => None,
        })
        .collect();
    let lc_plan_s = lightcone_plan_s(schedule);
    out.report = vec![
        Metric::new("job_p50_ms", job.median, "ms"),
        Metric::new("job_tail_ms", job.tail, "ms"),
        Metric::new("jobs_per_s", out.items / out.window_s, "jobs/s"),
        Metric::new("serve.p50_ms.sweep", median(&by_kind[0]), "ms"),
        Metric::new("serve.p50_ms.multistart", median(&by_kind[1]), "ms"),
        Metric::new("serve.p50_ms.lightcone", median(&by_kind[2]), "ms"),
        Metric::new(
            "serve.cache.hit_ratio",
            (mid.hits - before.hits) as f64 / lookups as f64,
            "fraction",
        ),
        Metric::new(
            "serve.cache.evictions",
            (mid.evictions - before.evictions) as f64,
            "count",
        ),
        Metric::new("serve.codec.encode_us", encode_us, "us"),
        Metric::new("serve.codec.decode_us", decode_us, "us"),
        Metric::new("serve.overhead_ms.sweep", median(&overhead[0]), "ms"),
        Metric::new("serve.overhead_ms.multistart", median(&overhead[1]), "ms"),
        Metric::new("serve.overhead_ms.lightcone", median(&overhead[2]), "ms"),
        Metric::new("serve.rejected", rejected as f64, "count"),
        Metric::new("optim.multistart_s", median(&ms_times) / 1e3, "s"),
        Metric::new("core.lightcone.plan_s", lc_plan_s, "s"),
        Metric::new(
            "core.lightcone.unique_cones",
            lc.first().map_or(f64::NAN, |s| s.unique_cones as f64),
            "count",
        ),
        Metric::new(
            "core.lightcone.hit_rate",
            lc.first()
                .map_or(f64::NAN, |s| s.cache_hits as f64 / s.edges as f64),
            "fraction",
        ),
    ];
    out.report.extend(dist_layers);
    out.layers = vec![
        Metric::new("terms.build_s", median(&terms_s), "s"),
        Metric::new("costvec.precompute_s", precompute_s, "s"),
        Metric::new("costvec.diag_bytes", diag_bytes as f64, "bytes"),
    ];
    if args.trace {
        // Representative kernels: the most popular problem, at its first
        // job's first grid point, with the serial kernels lanes run.
        let sim = build_simulator(&inputs.sweep_polys[0], default_spec());
        let point = schedule
            .iter()
            .find_map(|j| match j {
                Job::Sweep(s) if s.poly == inputs.sweep_polys[0] => Some(s.grid.point(5)),
                _ => None,
            })
            .unwrap_or_else(|| SweepPoint::p1(0.3, -0.3));
        out.layers.extend(probe::common_layers(
            tr,
            &sim,
            &point.gammas,
            &point.betas,
            Kernels::Serial,
            50,
            None,
        ));
    }
    out
}
