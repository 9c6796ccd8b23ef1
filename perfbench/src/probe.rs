//! Layer timing from outside the library: one objective call decomposed
//! into the public kernel calls `FurSimulator::objective` makes, each in its
//! own span, and the per-layer metrics derived from those spans.

use crate::record::Metric;
use crate::stats::median;
use crate::trace::{totals_by_name, Span, Tracer};
use qokit_core::{FurSimulator, QaoaSimulator};
use qokit_statevec::{ExecPolicy, Layout, SplitStateVec};

/// Request ids at or above this value belong to probes, not to the
/// workload's own requests.
pub const PROBE_BASE: u64 = 1 << 40;

/// Request-id base of the single-threaded probe.
pub const SERIAL_PROBE: u64 = PROBE_BASE;

/// Request-id base of the default-policy probe.
pub const DEFAULT_PROBE: u64 = 2 * PROBE_BASE;

/// Request-id base of the distributed-transport probe.
pub const DIST_PROBE: u64 = 3 * PROBE_BASE;

/// Minimum bytes a QAOA layer moves per amplitude, beyond the diagonal:
/// the phase reads and writes the state once (32 B), and the mixer does at
/// least once more (32 B).
const LAYER_STATE_BYTES_PER_AMP: usize = 64;

/// `FurSimulator::objective` as its public kernel calls, under `policy`,
/// with a `core.objective` span and one child span per call:
/// `statevec.init`, `p` × (`costvec.phase`, `statevec.mixer`),
/// `costvec.expectation` (plus `statevec.transpose` when the policy's
/// layout is split). The arithmetic and its order are the library's, so
/// the value is bit-identical to the undecomposed call under the same
/// policy.
pub fn objective(
    sim: &FurSimulator,
    gammas: &[f64],
    betas: &[f64],
    policy: ExecPolicy,
    tr: &Tracer,
    request: u64,
) -> f64 {
    tr.span("core.objective", 0, request, |obj| {
        let costs = sim.cost_diagonal();
        let mixer = sim.options().mixer;
        let mut state = tr.span("statevec.init", obj, request, |_| sim.initial_state());
        if policy.layout == Layout::Split {
            let mut split = tr.span("statevec.transpose", obj, request, |_| {
                SplitStateVec::from_interleaved(state.amplitudes())
            });
            let (re, im) = split.planes_mut();
            policy.install(|| {
                for (&g, &b) in gammas.iter().zip(betas) {
                    tr.span("costvec.phase", obj, request, |_| {
                        costs.apply_phase_split(re, im, g, policy)
                    });
                    tr.span("statevec.mixer", obj, request, |_| {
                        mixer.apply_split(re, im, b, policy)
                    });
                }
            });
            tr.span("statevec.transpose", obj, request, |_| {
                split.write_interleaved(state.amplitudes_mut())
            });
        } else {
            let amps = state.amplitudes_mut();
            policy.install(|| {
                for (&g, &b) in gammas.iter().zip(betas) {
                    tr.span("costvec.phase", obj, request, |_| {
                        costs.apply_phase(amps, g, policy)
                    });
                    tr.span("statevec.mixer", obj, request, |_| {
                        mixer.apply(amps, b, policy)
                    });
                }
            });
        }
        tr.span("costvec.expectation", obj, request, |_| {
            policy.install(|| costs.expectation(state.amplitudes(), policy))
        })
    })
}

/// Runs [`objective`] `reps` times with requests `base..base + reps` and
/// returns the median wall time of one call, ms.
pub fn run(
    sim: &FurSimulator,
    gammas: &[f64],
    betas: &[f64],
    policy: ExecPolicy,
    tr: &Tracer,
    base: u64,
    reps: u64,
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|i| {
            let t = std::time::Instant::now();
            std::hint::black_box(objective(sim, gammas, betas, policy, tr, base + i));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Which decomposed calls stand for the workload's own kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kernels {
    /// The workload's traced requests themselves (below [`PROBE_BASE`]).
    Workload,
    /// The single-threaded probe — for workloads whose engine runs every
    /// point with serial kernels (points-parallel sweeps, serve lanes,
    /// rank workers).
    Serial,
}

/// The per-layer metrics every traced run reports for its representative
/// problem (`sim` at angles `gammas`/`betas`): the kernel layer metrics of
/// [`layer_metrics`], the plain single-threaded objective time, and the
/// parallel efficiency of the default policy against it. `default_ms` is
/// the default-policy objective time when the workload measured it
/// itself; otherwise a probe measures it.
pub fn common_layers(
    tr: &Tracer,
    sim: &FurSimulator,
    gammas: &[f64],
    betas: &[f64],
    kernels: Kernels,
    reps: u64,
    default_ms: Option<f64>,
) -> Vec<Metric> {
    let serial_ms = run(
        sim,
        gammas,
        betas,
        ExecPolicy::serial(),
        tr,
        SERIAL_PROBE,
        reps,
    );
    let default_ms = default_ms.unwrap_or_else(|| {
        run(
            sim,
            gammas,
            betas,
            ExecPolicy::auto(),
            tr,
            DEFAULT_PROBE,
            reps,
        )
    });
    let spans = tr.spans();
    let kernel_spans = match kernels {
        Kernels::Workload => requests_in(&spans, 0, PROBE_BASE),
        Kernels::Serial => requests_in(&spans, SERIAL_PROBE, SERIAL_PROBE + reps),
    };
    let n = sim.n_qubits();
    let diag_per_amp = sim.cost_diagonal().memory_bytes() >> n;
    let width = crate::host::pool_width() as f64;
    let mut out = layer_metrics(&kernel_spans, n, diag_per_amp);
    out.push(Metric::new("core.objective_serial_ms", serial_ms, "ms"));
    out.push(Metric::new(
        "core.parallel_efficiency",
        serial_ms / (width * default_ms),
        "fraction",
    ));
    out
}

/// Spans whose request lies in `[lo, hi)`.
pub fn requests_in(spans: &[Span], lo: u64, hi: u64) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| (lo..hi).contains(&s.request))
        .cloned()
        .collect()
}

/// The kernel-layer metrics of decomposed objective calls on a `2^n`
/// state: ns per amplitude of init, phase, mixer and expectation, the
/// computed minimum bytes one layer moves and the bandwidth that implies,
/// and the share of the objective span not covered by its kernel calls.
pub fn layer_metrics(spans: &[Span], n: usize, diag_bytes_per_amp: usize) -> Vec<Metric> {
    let totals = totals_by_name(spans);
    let amps = (1u64 << n) as f64;
    let per_call = |name: &str| {
        totals
            .get(name)
            .filter(|t| t.count > 0)
            .map_or(f64::NAN, |t| t.total_ns as f64 / t.count as f64)
    };
    let layer_bytes = (1usize << n) * (diag_bytes_per_amp + LAYER_STATE_BYTES_PER_AMP);
    let layer_ns = per_call("costvec.phase") + per_call("statevec.mixer");
    let self_frac = totals
        .get("core.objective")
        .map_or(f64::NAN, |t| t.self_ns as f64 / t.total_ns as f64);
    vec![
        Metric::new(
            "costvec.phase_ns_per_amp",
            per_call("costvec.phase") / amps,
            "ns",
        ),
        Metric::new(
            "costvec.expectation_ns_per_amp",
            per_call("costvec.expectation") / amps,
            "ns",
        ),
        Metric::new(
            "statevec.mixer_ns_per_amp",
            per_call("statevec.mixer") / amps,
            "ns",
        ),
        Metric::new(
            "statevec.init_ns_per_amp",
            per_call("statevec.init") / amps,
            "ns",
        ),
        Metric::new("statevec.layer_bytes", layer_bytes as f64, "bytes"),
        Metric::new("statevec.layer_gbps", layer_bytes as f64 / layer_ns, "GB/s"),
        Metric::new("core.objective_self_frac", self_frac, "fraction"),
    ]
}
