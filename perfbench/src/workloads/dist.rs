//! The transport layer, as a probe of `serve_mix`'s traced run: a few
//! distributed objective calls (`DistSimulator::simulate_qaoa_on`) over a
//! `TcpTransport` with K = 2 spawn-self worker processes, for a seeded
//! 3-regular MaxCut at n = 18, p = 4, with seeded angles that change every
//! call. A probe rather than a workload of its own: the coordinator and
//! its two workers are three processes on the 2-core host, so their
//! end-to-end times measure the scheduler as much as the transport.

use crate::outcome::{secs, timed_ms};
use crate::probe::DIST_PROBE;
use crate::record::Metric;
use crate::stats::{median, summarize, Tally};
use crate::trace::Tracer;
use qokit_core::{FurSimulator, QaoaSimulator, SimOptions};
use qokit_dist::comm::CommStats;
use qokit_dist::wire::{Request, Response};
use qokit_dist::{
    DistSimulator, InProcessTransport, TcpTransport, Transport, TransportError, WorkerSpawn,
};
use qokit_statevec::ExecPolicy;
use qokit_terms::maxcut::maxcut_polynomial;
use qokit_terms::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const N: usize = 18;
const P: usize = 4;
const RANKS: usize = 2;
/// Timed distributed calls over TCP.
const CALLS: usize = 8;
/// Calls over the in-process transport.
const INPROCESS_CALLS: usize = 3;
/// Largest allowed |distributed − serial| expectation.
const TOL: f64 = 1e-9;

/// A [`Transport`] that times every exchange (one BSP superstep) of the
/// transport it wraps, and records each as a `dist.exchange` span under
/// the current call.
struct Timed<'a, T: Transport> {
    inner: T,
    tr: &'a Tracer,
    parent: u64,
    request: u64,
    exchange_ms: Vec<f64>,
}

impl<'a, T: Transport> Timed<'a, T> {
    fn new(inner: T, tr: &'a Tracer) -> Self {
        Timed {
            inner,
            tr,
            parent: 0,
            request: 0,
            exchange_ms: Vec::new(),
        }
    }
}

impl<T: Transport> Transport for Timed<'_, T> {
    fn size(&self) -> usize {
        self.inner.size()
    }

    fn exchange(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        let (inner, tr) = (&mut self.inner, self.tr);
        let t = Instant::now();
        let r = tr.span("dist.exchange", self.parent, self.request, |_| {
            inner.exchange(requests)
        });
        self.exchange_ms.push(secs(t) * 1e3);
        r
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
}

/// One distributed call's angles and its expectation (`None` on a
/// transport error).
struct Call {
    gammas: Vec<f64>,
    betas: Vec<f64>,
    expectation: Option<f64>,
}

/// `count` distributed calls at seeded angles; returns the calls and their
/// latencies (ms). Requests are numbered from `first_request`.
fn calls<T: Transport>(
    count: usize,
    dsim: &DistSimulator,
    t: &mut Timed<'_, T>,
    rng: &mut StdRng,
    first_request: u64,
) -> (Vec<Call>, Vec<f64>) {
    let (mut out, mut lat) = (Vec::new(), Vec::new());
    for k in 0..count as u64 {
        let gammas: Vec<f64> = (0..P).map(|_| rng.gen_range::<f64, _>(0.1..0.8)).collect();
        let betas: Vec<f64> = (0..P).map(|_| -rng.gen_range::<f64, _>(0.1..0.8)).collect();
        let request = first_request + k;
        let tr = t.tr;
        let (r, ms) = timed_ms(tr, "dist.objective", request, |id| {
            t.parent = id;
            t.request = request;
            dsim.simulate_qaoa_on(t, &gammas, &betas)
        });
        lat.push(ms);
        out.push(Call {
            gammas,
            betas,
            expectation: r.ok().map(|r| r.expectation),
        });
    }
    (out, lat)
}

/// Runs the probe on inputs drawn from `seed`: spawns the workers, makes
/// one untimed warm-up call and [`CALLS`] timed calls over TCP (traced
/// under `tr`), the same call over the in-process transport, and checks
/// every TCP expectation against the serial single-node objective into
/// `tally`. Returns the `dist.*` metrics.
pub fn probe(seed: u64, tr: &Tracer, tally: &mut Tally) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = Graph::random_regular(N, 3, &mut rng);
    let poly = maxcut_polynomial(&graph);
    let dsim = DistSimulator::new(poly.clone(), RANKS).expect("valid rank count");
    let spawn = WorkerSpawn::current_exe().expect("locate own executable");
    let t = Instant::now();
    let transport = TcpTransport::spawn(RANKS, &spawn).expect("spawn TCP workers");
    let spawn_s = secs(t);

    let off = Tracer::new(false);
    let mut warm = Timed::new(transport, &off);
    calls(1, &dsim, &mut warm, &mut rng, 0);
    let mut timed = Timed::new(warm.inner, tr);
    let bytes0 = timed.stats().total_bytes();
    let (tcp, lat) = calls(CALLS, &dsim, &mut timed, &mut rng, DIST_PROBE);
    let wire_per_call = (timed.stats().total_bytes() - bytes0) as f64 / CALLS as f64;
    let exchanges_per_call = timed.exchange_ms.len() as f64 / CALLS as f64;
    let exchange = summarize(&timed.exchange_ms);
    let exchange_share = timed.exchange_ms.iter().sum::<f64>() / lat.iter().sum::<f64>();
    drop(timed); // shuts the workers down and reaps them

    let mut inproc = Timed::new(InProcessTransport::new(RANKS), &off);
    let inproc_ms = calls(INPROCESS_CALLS, &dsim, &mut inproc, &mut rng, 0).1;

    // Output check: each expectation within TOL of the serial single-node
    // objective at the same angles.
    let serial = FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    for c in &tcp {
        tally.attempt();
        match c.expectation {
            Some(e) => tally.checked((e - serial.objective(&c.gammas, &c.betas)).abs() <= TOL),
            None => tally.error(),
        }
    }

    vec![
        Metric::new("dist.objective_p50_ms", median(&lat), "ms"),
        Metric::new("dist.exchanges", exchanges_per_call, "count"),
        Metric::new("dist.exchange_ms_p50", exchange.median, "ms"),
        Metric::new("dist.exchange_share", exchange_share, "fraction"),
        Metric::new("dist.wire_bytes", wire_per_call, "bytes"),
        Metric::new("dist.inprocess_ms", median(&inproc_ms), "ms"),
        Metric::new("dist.spawn_s", spawn_s, "s"),
    ]
}
