//! Worker-side dispatch shared by every transport.
//!
//! Both [`InProcessTransport`](crate::transport::InProcessTransport) and
//! [`TcpTransport`](crate::transport::TcpTransport) route requests through
//! the same [`handle`] function over the same [`WorkerState`] — the
//! per-rank compute is literally the same code whether the "rank" is a
//! pool task in this process or a spawned worker process on the far end
//! of a loopback socket. That is what makes the transports bit-identical
//! by construction: only the bytes' path differs, never the arithmetic.
//!
//! # Spawn-self worker entry
//!
//! A TCP worker process is the current executable re-spawned with
//! [`WORKER_ADDR_ENV`] and [`WORKER_RANK_ENV`] set. Binaries that want to
//! serve as workers call [`maybe_run_from_env`] early: it is a no-op
//! (returns `false`) without the env vars, and otherwise connects back to
//! the driver, serves requests until `Shutdown` or disconnect, and exits
//! the process. Test binaries expose the guard as a `#[test]` function and
//! the driver spawns them with `--exact <that test name>` filter args, so
//! the child runs only the worker loop, never the rest of the suite.

use crate::dist_sim::{rank_bits, DistError};
use crate::wire::{self, read_frame, write_frame, Request, Response, SweepSimSpec, WireError};
use qokit_core::batch::{SweepError, SweepNesting, SweepOptions, SweepRunner};
use qokit_core::simulator::{FurSimulator, InitialState, SimOptions};
use qokit_core::Mixer;
use qokit_costvec::{fill_direct_slice, CostVec};
use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::su2::apply_mat2_serial;
use qokit_statevec::{Mat2, C64, MAX_QUBITS};
use qokit_terms::SpinPolynomial;
use std::time::Duration;

/// Driver address a spawned worker connects back to.
pub const WORKER_ADDR_ENV: &str = "QOKIT_WORKER_ADDR";
/// Rank id of a spawned worker.
pub const WORKER_RANK_ENV: &str = "QOKIT_WORKER_RANK";
/// Test hook: milliseconds a worker sleeps before answering each request
/// (drives the deadline-expiry fault-injection tests).
pub const WORKER_STALL_ENV: &str = "QOKIT_WORKER_STALL_MS";

/// Per-rank state between supersteps: lazily initialized per workload by
/// the corresponding `*Init` request.
#[derive(Default)]
pub struct WorkerState {
    rank: usize,
    pub(crate) sweep: Option<SweepRunner>,
    sim: Option<SimRank>,
}

impl WorkerState {
    /// Fresh state for rank `rank`.
    pub fn new(rank: usize) -> Self {
        WorkerState {
            rank,
            ..Default::default()
        }
    }

    /// This worker's rank id.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

/// Algorithm-4 rank state: the amplitude slice plus the local cost slice.
/// One type for both executions of a rank — a pool task of the in-process
/// `DistSimulator` and a worker behind any [`Transport`](crate::Transport)
/// — so their per-step arithmetic is the same code. The cost slice is
/// level-coded when it has few distinct values (the `CostVec::from_f64`
/// rule); every kernel runs serially.
pub(crate) struct SimRank {
    n: usize,
    k_bits: usize,
    pub(crate) amps: Vec<C64>,
    costs: CostVec,
}

impl SimRank {
    /// Rank `rank`'s `2^{n-k}`-entry slices: costs from the terms alone
    /// (§III-A locality, no communication) and amplitudes of `|+⟩^{⊗n}`.
    pub(crate) fn init(poly: &SpinPolynomial, rank: usize, n_ranks: usize) -> SimRank {
        let n = poly.n_vars();
        let k_bits = n_ranks.trailing_zeros() as usize;
        let local_n = n - k_bits;
        let slice_len = 1usize << local_n;
        let amp0 = (1.0 / (1u64 << n) as f64).sqrt();
        let start = (rank << local_n) as u64;
        let mut costs = vec![0.0f64; slice_len];
        fill_direct_slice(poly, start, &mut costs);
        SimRank {
            n,
            k_bits,
            amps: vec![C64::from_re(amp0); slice_len],
            costs: CostVec::from_f64(costs),
        }
    }

    /// Amplitudes in this rank's slice, `2^{n-k}`.
    fn slice_len(&self) -> usize {
        1 << (self.n - self.k_bits)
    }

    /// The local half of a layer: phase, then the mixer on local qubits.
    pub(crate) fn layer_local(&mut self, gamma: f64, beta: f64) {
        let local_n = self.n - self.k_bits;
        let u = Mat2::rx(beta);
        self.costs
            .apply_phase(&mut self.amps, gamma, ExecPolicy::serial());
        for qb in 0..local_n {
            apply_mat2_serial(&mut self.amps, qb, &u);
        }
    }

    /// The mixer on the former-global qubits, local after the transpose.
    pub(crate) fn mix_high(&mut self, beta: f64) {
        let local_n = self.n - self.k_bits;
        let u = Mat2::rx(beta);
        for qb in local_n - self.k_bits..local_n {
            apply_mat2_serial(&mut self.amps, qb, &u);
        }
    }

    /// Local expectation and local cost minimum.
    pub(crate) fn reduce(&self) -> (f64, f64) {
        (
            self.costs.expectation(&self.amps, ExecPolicy::serial()),
            self.costs.extrema().0,
        )
    }

    /// Local probability mass on costs within `1e-9` of `min_cost`.
    pub(crate) fn overlap(&self, min_cost: f64) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .filter(|&(x, _)| self.costs.value(x) <= min_cost + 1e-9)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }
}

fn sweep_runner_for(poly: &SpinPolynomial, spec: SweepSimSpec) -> SweepRunner {
    // Serial kernels: exactly the per-point inner policy of a
    // points-parallel sweep, so energies are bit-identical to one (and to
    // `DistSweepRunner::try_scan`'s shared-simulator ranks running it)
    // regardless of which transport ran them.
    let exec = ExecPolicy::serial();
    let sim = FurSimulator::with_options(
        poly,
        SimOptions {
            mixer: Mixer::X,
            exec,
            precompute: spec.precompute,
            quantize_u16: spec.quantize_u16,
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

/// Executes one request against a rank's state — the single dispatch both
/// transports share. Protocol misuse (a chunk before its init, a sim step
/// on the wrong workload, a slice of the wrong length, a step on a taken
/// slice) and a polynomial over `MAX_QUBITS` return
/// [`Response::Error`]; per-point panics are contained and reported
/// in-band.
pub fn handle(state: &mut WorkerState, req: Request) -> Response {
    match req {
        Request::Nop | Request::Shutdown => Response::Ok,
        Request::SweepInit { poly, spec } => {
            let n = poly.n_vars();
            if n > MAX_QUBITS {
                return Response::Error(DistError::TooManyQubits { n }.to_string());
            }
            state.sweep = Some(sweep_runner_for(&poly, spec));
            Response::Ok
        }
        Request::SweepChunk { points } => match &state.sweep {
            None => Response::Error("SweepChunk before SweepInit".into()),
            Some(runner) => Response::Energies(
                runner
                    .energies_checked(&points)
                    .into_iter()
                    .map(|r| {
                        r.map_err(|e| match e {
                            SweepError::PointPanicked { message, .. } => message,
                            other => other.to_string(),
                        })
                    })
                    .collect(),
            ),
        },
        Request::SimInit { poly, n_ranks } => {
            if let Err(e) = rank_bits(poly.n_vars(), n_ranks) {
                return Response::Error(e.to_string());
            }
            if state.rank >= n_ranks {
                return Response::Error(format!(
                    "rank {} is out of range for {n_ranks} ranks",
                    state.rank
                ));
            }
            state.sim = Some(SimRank::init(&poly, state.rank, n_ranks));
            Response::Ok
        }
        Request::SimLayerLocal { gamma, beta } => with_slice(state, "SimLayerLocal", |sim| {
            sim.layer_local(gamma, beta);
            Response::Ok
        }),
        Request::SimMixHigh { beta } => with_slice(state, "SimMixHigh", |sim| {
            sim.mix_high(beta);
            Response::Ok
        }),
        Request::SimTakeSlice => with_slice(state, "SimTakeSlice", |sim| {
            Response::Amps(std::mem::take(&mut sim.amps))
        }),
        Request::SimSetSlice { amps } => match &mut state.sim {
            None => Response::Error("SimSetSlice before SimInit".into()),
            Some(sim) if amps.len() != sim.slice_len() => Response::Error(format!(
                "SimSetSlice of {} amplitudes; this rank's slice holds 2^(n-k) = {}",
                amps.len(),
                sim.slice_len()
            )),
            Some(sim) => {
                sim.amps = amps;
                Response::Ok
            }
        },
        Request::SimReduce => with_slice(state, "SimReduce", |sim| {
            let (exp, lmin) = sim.reduce();
            Response::Scalar2(exp, lmin)
        }),
        Request::SimOverlap { min_cost } => with_slice(state, "SimOverlap", |sim| {
            Response::Scalar(sim.overlap(min_cost))
        }),
    }
}

/// Runs `step` on the rank's amplitude slice, or answers an error before
/// `SimInit` and while the slice is taken (after `SimTakeSlice`, until
/// `SimSetSlice`): the step's kernels would panic on a slice of the wrong
/// length, and a worker process would die of it.
fn with_slice(
    state: &mut WorkerState,
    name: &str,
    step: impl FnOnce(&mut SimRank) -> Response,
) -> Response {
    match &mut state.sim {
        None => Response::Error(format!("{name} before SimInit")),
        Some(sim) if sim.amps.is_empty() => Response::Error(format!("{name} on a taken slice")),
        Some(sim) => step(sim),
    }
}

/// The spawn-self worker entry. Returns `false` immediately when
/// [`WORKER_ADDR_ENV`] is unset (the process is not a worker); otherwise
/// connects back to the driver, serves requests until `Shutdown` or
/// disconnect, and **exits the process** (never returns).
pub fn maybe_run_from_env() -> bool {
    let Ok(addr) = std::env::var(WORKER_ADDR_ENV) else {
        return false;
    };
    let rank: usize = std::env::var(WORKER_RANK_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let stall = std::env::var(WORKER_STALL_ENV)
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Duration::from_millis);
    let code = match run_worker(&addr, rank, stall) {
        Ok(()) => 0,
        Err(_) => 1,
    };
    std::process::exit(code);
}

fn run_worker(addr: &str, rank: usize, stall: Option<Duration>) -> std::io::Result<()> {
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    // Handshake: announce the rank so the driver can map accepted
    // connections back to rank order regardless of connect timing.
    write_frame(&mut stream, &(rank as u64).to_le_bytes())?;
    let mut state = WorkerState::new(rank);
    loop {
        let (payload, _) = read_frame(&mut stream).map_err(io_error)?;
        if let Some(d) = stall {
            std::thread::sleep(d);
        }
        let req = decode_or_bail(&payload)?;
        let shutdown = matches!(req, Request::Shutdown);
        let resp = handle(&mut state, req);
        write_frame(&mut stream, &wire::encode_response(&resp))?;
        if shutdown {
            return Ok(());
        }
    }
}

fn decode_or_bail(payload: &[u8]) -> std::io::Result<Request> {
    wire::decode_request(payload)
        .map_err(|e: WireError| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn io_error(e: wire::FrameReadError) -> std::io::Error {
    match e {
        wire::FrameReadError::Io(e) => e,
        wire::FrameReadError::Wire(w) => {
            std::io::Error::new(std::io::ErrorKind::InvalidData, w.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::Term;

    fn sim_init(rank: usize, n_ranks: usize) -> Response {
        let mut state = WorkerState::new(rank);
        let poly = labs_terms(6);
        handle(&mut state, Request::SimInit { poly, n_ranks })
    }

    /// An `n`-variable polynomial with one `Z_0 Z_1` term: valid on the
    /// wire for every `n ≤ 64`, whatever `MAX_QUBITS` allows.
    fn wide_poly(n: usize) -> SpinPolynomial {
        SpinPolynomial::new(
            n,
            vec![Term {
                weight: 1.0,
                mask: 0b11,
            }],
        )
    }

    #[test]
    fn sim_init_rejects_bad_rank_shapes() {
        assert!(matches!(sim_init(0, 4), Response::Ok));
        assert!(matches!(sim_init(7, 8), Response::Ok));
        // Not a power of two.
        assert!(matches!(sim_init(0, 3), Response::Error(e) if e.contains("power of two")));
        assert!(matches!(sim_init(0, 0), Response::Error(_)));
        // 2k > n: K = 16 needs n >= 8, and n = 6 would underflow `mix_high`.
        assert!(matches!(sim_init(0, 16), Response::Error(e) if e.contains("2k ≤ n")));
        // Rank outside [0, n_ranks).
        assert!(matches!(sim_init(4, 4), Response::Error(e) if e.contains("out of range")));
        // More qubits than any state may hold: n = 41 would try to
        // allocate a 2^39-amplitude slice, and at n = 64 `1 << local_n`
        // would wrap. Each frame is refused before anything is built, and
        // the same state then takes a valid init.
        let request = |poly: SpinPolynomial, sweep: bool| match sweep {
            true => Request::SweepInit {
                poly,
                spec: wire::spec_from_byte(0),
            },
            false => Request::SimInit { poly, n_ranks: 4 },
        };
        let mut state = WorkerState::new(0);
        for (n, sweep) in [(41usize, false), (64, false), (41, true)] {
            let want = format!("n = {n} exceeds MAX_QUBITS");
            let got = handle(&mut state, request(wide_poly(n), sweep));
            assert!(
                matches!(&got, Response::Error(e) if e.contains(&want)),
                "n = {n}, sweep = {sweep}: {got:?}"
            );
            assert!(state.sim.is_none() && state.sweep.is_none(), "n = {n}");
            let ok = handle(&mut state, request(labs_terms(6), sweep));
            assert!(
                matches!(ok, Response::Ok),
                "n = {n}, sweep = {sweep}: {ok:?}"
            );
            (state.sim, state.sweep) = (None, None);
        }
    }

    #[test]
    fn bad_slice_frames_are_errors_not_panics() {
        // labs(6) at 4 ranks: every slice holds 2^(6-2) = 16 amplitudes.
        let mut state = WorkerState::new(0);
        let init = Request::SimInit {
            poly: labs_terms(6),
            n_ranks: 4,
        };
        assert!(matches!(handle(&mut state, init), Response::Ok));
        let layer = || Request::SimLayerLocal {
            gamma: 0.3,
            beta: 0.2,
        };
        let set = |len: usize| Request::SimSetSlice {
            amps: vec![C64::from_re(0.25); len],
        };
        // A one-amplitude slice is refused and the rank keeps its own.
        let got = handle(&mut state, set(1));
        assert!(
            matches!(&got, Response::Error(e) if e.contains("SimSetSlice of 1 amplitudes")),
            "{got:?}"
        );
        assert!(matches!(handle(&mut state, layer()), Response::Ok));
        // After a take, every step that reads the slice is refused until a
        // slice of the right length is set again.
        assert!(
            matches!(handle(&mut state, Request::SimTakeSlice), Response::Amps(a) if a.len() == 16)
        );
        for (name, req) in [
            ("SimLayerLocal", layer()),
            ("SimMixHigh", Request::SimMixHigh { beta: 0.2 }),
            ("SimReduce", Request::SimReduce),
            ("SimOverlap", Request::SimOverlap { min_cost: 0.0 }),
            ("SimTakeSlice", Request::SimTakeSlice),
        ] {
            let got = handle(&mut state, req);
            let want = format!("{name} on a taken slice");
            assert!(matches!(&got, Response::Error(e) if *e == want), "{got:?}");
        }
        assert!(matches!(handle(&mut state, set(17)), Response::Error(_)));
        assert!(matches!(handle(&mut state, set(16)), Response::Ok));
        assert!(matches!(handle(&mut state, layer()), Response::Ok));
        assert!(matches!(
            handle(&mut state, Request::SimMixHigh { beta: 0.2 }),
            Response::Ok
        ));
        assert!(matches!(
            handle(&mut state, Request::SimReduce),
            Response::Scalar2(..)
        ));
    }
}
