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

use crate::dist_sim::rank_bits;
use crate::wire::{self, read_frame, write_frame, Request, Response, SweepSimSpec, WireError};
use qokit_core::batch::{SweepError, SweepNesting, SweepOptions, SweepRunner};
use qokit_core::lightcone::cone_zz;
use qokit_core::simulator::{FurSimulator, InitialState, SimOptions};
use qokit_core::Mixer;
use qokit_costvec::{fill_direct_slice, snap_to_grid, CostVec};
use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::su2::apply_mat2_serial;
use qokit_statevec::{Backend, Mat2, C64};
use qokit_terms::SpinPolynomial;
use std::panic::{self, AssertUnwindSafe};
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
    sweep: Option<SweepRunner>,
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
/// level-coded when it has few distinct values, and always after
/// [`quant_commit`](Self::quant_commit) puts it on the §V-B grid; every
/// kernel runs serially.
pub(crate) struct SimRank {
    n: usize,
    k_bits: usize,
    pub(crate) amps: Vec<C64>,
    costs: CostVec,
    quantized: bool,
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
            quantized: false,
        }
    }

    /// Local cost extrema.
    pub(crate) fn extrema(&self) -> (f64, f64) {
        self.costs.extrema()
    }

    /// `1.0` when every local cost is on the global integer grid from
    /// `gmin` and the global span `fits` 65536 grid points, else `0.0`
    /// (min-reduced by the caller).
    pub(crate) fn quant_check(&self, gmin: f64, fits: bool) -> f64 {
        let integral =
            (0..self.costs.len()).all(|x| snap_to_grid(self.costs.value(x), gmin, 1.0).is_some());
        if integral && fits {
            1.0
        } else {
            0.0
        }
    }

    /// Re-stores the cost slice on the agreed grid `gmin + k`, level-coded.
    /// `false`, with the slice untouched, when a local cost is off that grid
    /// or more than 65536 grid points occur (a commit `quant_check` would
    /// have refused).
    pub(crate) fn quant_commit(&mut self, gmin: f64) -> bool {
        let costs = (0..self.costs.len()).map(|x| self.costs.value(x));
        let Some(costs) = CostVec::on_grid(costs, gmin, 1.0) else {
            return false;
        };
        self.costs = costs;
        self.quantized = true;
        true
    }

    /// `true` once the cost slice is on the §V-B grid.
    pub(crate) fn quantized(&self) -> bool {
        self.quantized
    }

    /// The local half of a layer: phase, then the mixer on local qubits.
    pub(crate) fn layer_local(&mut self, gamma: f64, beta: f64) {
        let local_n = self.n - self.k_bits;
        let u = Mat2::rx(beta);
        self.costs
            .apply_phase(&mut self.amps, gamma, Backend::Serial);
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
            self.costs.expectation(&self.amps, Backend::Serial),
            self.extrema().0,
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
    // Serial kernels: exactly the per-point inner policy the in-process
    // lane engine uses, so energies are bit-identical to a points-parallel
    // sweep regardless of which transport ran them.
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

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes one request against a rank's state — the single dispatch both
/// transports share. Protocol misuse (a chunk before its init, a sim step
/// on the wrong workload) returns [`Response::Error`]; per-point and
/// per-cone panics are contained and reported in-band.
pub fn handle(state: &mut WorkerState, req: Request) -> Response {
    match req {
        Request::Nop | Request::Shutdown => Response::Ok,
        Request::SweepInit { poly, spec } => {
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
        Request::ConeShard {
            cones,
            gammas,
            betas,
        } => {
            let mut values = Vec::with_capacity(cones.len());
            for (edge, ego) in &cones {
                let outcome =
                    panic::catch_unwind(AssertUnwindSafe(|| cone_zz(ego, &gammas, &betas)));
                match outcome {
                    Ok(zz) => values.push(zz),
                    Err(payload) => {
                        return Response::ZzValues(Err((*edge, panic_message(payload))))
                    }
                }
            }
            Response::ZzValues(Ok(values))
        }
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
        Request::SimExtrema => match &state.sim {
            None => Response::Error("SimExtrema before SimInit".into()),
            Some(sim) => {
                let (lo, hi) = sim.extrema();
                Response::Scalar2(lo, hi)
            }
        },
        Request::SimQuantCheck { gmin, fits } => match &state.sim {
            None => Response::Error("SimQuantCheck before SimInit".into()),
            Some(sim) => Response::Scalar(sim.quant_check(gmin, fits)),
        },
        Request::SimQuantCommit { gmin } => match &mut state.sim {
            None => Response::Error("SimQuantCommit before SimInit".into()),
            Some(sim) => {
                if sim.quant_commit(gmin) {
                    Response::Ok
                } else {
                    Response::Error(format!("a cost is off the grid {gmin} + k"))
                }
            }
        },
        Request::SimLayerLocal { gamma, beta } => match &mut state.sim {
            None => Response::Error("SimLayerLocal before SimInit".into()),
            Some(sim) => {
                sim.layer_local(gamma, beta);
                Response::Ok
            }
        },
        Request::SimMixHigh { beta } => match &mut state.sim {
            None => Response::Error("SimMixHigh before SimInit".into()),
            Some(sim) => {
                sim.mix_high(beta);
                Response::Ok
            }
        },
        Request::SimTakeSlice => match &mut state.sim {
            None => Response::Error("SimTakeSlice before SimInit".into()),
            Some(sim) => Response::Amps(std::mem::take(&mut sim.amps)),
        },
        Request::SimSetSlice { amps } => match &mut state.sim {
            None => Response::Error("SimSetSlice before SimInit".into()),
            Some(sim) => {
                sim.amps = amps;
                Response::Ok
            }
        },
        Request::SimReduce => match &state.sim {
            None => Response::Error("SimReduce before SimInit".into()),
            Some(sim) => {
                let (exp, lmin) = sim.reduce();
                Response::Scalar2(exp, lmin)
            }
        },
        Request::SimOverlap { min_cost } => match &state.sim {
            None => Response::Error("SimOverlap before SimInit".into()),
            Some(sim) => Response::Scalar(sim.overlap(min_cost)),
        },
        Request::SimGather => match &state.sim {
            None => Response::Error("SimGather before SimInit".into()),
            Some(sim) => Response::Amps(sim.amps.clone()),
        },
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

    fn sim_init(rank: usize, n_ranks: usize) -> Response {
        let mut state = WorkerState::new(rank);
        let poly = labs_terms(6);
        handle(&mut state, Request::SimInit { poly, n_ranks })
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
    }

    #[test]
    fn quant_commit_off_the_grid_is_an_error_not_a_panic() {
        let mut state = WorkerState::new(0);
        let poly = labs_terms(6);
        handle(&mut state, Request::SimInit { poly, n_ranks: 2 });
        for gmin in [0.5, f64::NAN, f64::INFINITY] {
            let resp = handle(&mut state, Request::SimQuantCommit { gmin });
            assert!(matches!(resp, Response::Error(e) if e.contains("off the grid")));
        }
        assert!(!state.sim.as_ref().unwrap().quantized());
        // The integer LABS slice is on the grid from any integer offset.
        let resp = handle(&mut state, Request::SimQuantCommit { gmin: -3.0 });
        assert!(matches!(resp, Response::Ok));
        assert!(state.sim.as_ref().unwrap().quantized());
    }
}
