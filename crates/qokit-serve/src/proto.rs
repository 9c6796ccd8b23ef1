//! Serve-protocol messages and their byte codec.
//!
//! The serving layer reuses the workspace frame format
//! ([`qokit_dist::frame`]: magic + u32 length + 64-bit checksum) and
//! the domain value codecs of [`qokit_dist::wire`] (polynomials travel as
//! `(n_vars, (weight, mask)*)`, every `f64` as its exact IEEE-754 bits) —
//! only the message set is new. One connection carries a sequence of
//! client frames ([`ServeRequest`]) answered by server frames
//! ([`ServeResponse`]); a submitted job may stream any number of
//! [`ServeResponse::Progress`] frames before its terminal frame
//! (`*Done`, `Cancelled`, or `Error`).

use qokit_dist::frame::{ByteReader, ByteWriter, WireError};
use qokit_dist::wire::{get_poly, put_poly, spec_byte, spec_from_byte, SweepSimSpec};
use qokit_dist::{Axis, Grid2d};
use qokit_terms::SpinPolynomial;

/// A landscape-scan job: evaluate a `(γ, β)` grid through a cached
/// simulator and return the [`LandscapeAggregator`] summary.
///
/// [`LandscapeAggregator`]: qokit_core::landscape::LandscapeAggregator
#[derive(Clone, Debug, PartialEq)]
pub struct SweepJob {
    /// Cost polynomial (the cache key, together with `spec`).
    pub poly: SpinPolynomial,
    /// Simulator construction knobs (second cache-key component).
    pub spec: SweepSimSpec,
    /// The depth-1 scan grid.
    pub grid: Grid2d,
    /// Leaderboard size kept by the aggregator.
    pub top_k: usize,
    /// Points per batched dispatch (also the cancellation granularity).
    pub chunk: usize,
    /// Wall-clock budget in milliseconds; `0` means no deadline.
    pub deadline_ms: u64,
    /// Points between streamed [`ServeResponse::Progress`] frames; `0`
    /// disables streaming.
    pub progress_every: u64,
}

/// A multi-restart optimization job over a cached simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiStartJob {
    /// Cost polynomial (cache key, with `spec`).
    pub poly: SpinPolynomial,
    /// Simulator construction knobs.
    pub spec: SweepSimSpec,
    /// QAOA depth `p`; the search space is `2p`-dimensional (γ then β).
    pub depth: usize,
    /// Number of Nelder–Mead restarts.
    pub restarts: usize,
    /// Master seed for starting points.
    pub seed: u64,
    /// Per-coordinate sampling box, length `2 * depth`.
    pub bounds: Vec<(f64, f64)>,
    /// Wall-clock budget in milliseconds; `0` means no deadline.
    pub deadline_ms: u64,
}

/// A light-cone MaxCut energy job (huge sparse graphs). Its cone plan is
/// cached, keyed by the exact edge list, the depth and `max_cone_qubits`,
/// so a repeated graph runs only the cone simulations.
#[derive(Clone, Debug, PartialEq)]
pub struct LightConeJob {
    /// Vertex count of the problem graph.
    pub n_vertices: usize,
    /// Weighted edge list.
    pub edges: Vec<(usize, usize, f64)>,
    /// Per-layer γ.
    pub gammas: Vec<f64>,
    /// Per-layer β.
    pub betas: Vec<f64>,
    /// Refuse cones larger than this many qubits.
    pub max_cone_qubits: usize,
    /// Wall-clock budget in milliseconds; `0` means no deadline.
    pub deadline_ms: u64,
}

/// One client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeRequest {
    /// Liveness probe; answered with [`ServeResponse::Pong`].
    Ping,
    /// Report precompute-cache statistics.
    CacheStats,
    /// Begin server shutdown (drain queued jobs, then stop accepting).
    Shutdown,
    /// Cancel the in-flight job on this connection (valid only while a
    /// submitted job has not reached its terminal frame).
    Cancel,
    /// Submit a landscape scan.
    Sweep(SweepJob),
    /// Submit a multi-restart optimization.
    MultiStart(MultiStartJob),
    /// Submit a light-cone energy evaluation.
    LightCone(LightConeJob),
}

/// Precompute-cache counters, as reported by
/// [`ServeResponse::CacheStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStatsView {
    /// Resident entries: cost diagonals and light-cone plans.
    pub entries: u64,
    /// Priced bytes of the resident entries: each diagonal's cost-vector
    /// bytes and each plan's group index and cone nets (keys are not
    /// priced).
    pub bytes: u64,
    /// Byte budget evictions keep the cache under.
    pub capacity_bytes: u64,
    /// Diagonal lookups (sweep and multi-start jobs) served from a
    /// resident entry.
    pub hits: u64,
    /// Diagonal lookups that had to build the simulator.
    pub misses: u64,
    /// Light-cone jobs whose plan was resident.
    pub plan_hits: u64,
    /// Light-cone jobs that had to plan (refused plans included).
    pub plan_misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
}

/// Terminal summary of a sweep job: the aggregator's snapshot plus
/// whether the precompute was served from cache. `min_energy` is NaN and
/// `argmin` is `u64::MAX` when the grid was empty.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSummary {
    /// Points evaluated.
    pub evaluated: u64,
    /// Running energy sum.
    pub sum: f64,
    /// Minimum energy seen.
    pub min_energy: f64,
    /// Global point index of the minimum.
    pub argmin: u64,
    /// The `(index, energy)` leaderboard, best first.
    pub top_k: Vec<(u64, f64)>,
    /// `true` when the simulator came from the precompute cache.
    pub cache_hit: bool,
}

/// Terminal summary of a multi-start job.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiStartSummary {
    /// Winning restart index.
    pub best_restart: u64,
    /// Winning objective value.
    pub best_f: f64,
    /// Winning parameter vector (γ then β).
    pub best_x: Vec<f64>,
    /// Every restart's best objective value, in restart order.
    pub restart_best_fs: Vec<f64>,
    /// `true` when the simulator came from the precompute cache.
    pub cache_hit: bool,
}

/// Terminal summary of a light-cone job.
#[derive(Clone, Debug, PartialEq)]
pub struct LightConeSummary {
    /// The QAOA energy `⟨C⟩`.
    pub energy: f64,
    /// Edges in the problem graph.
    pub edges: u64,
    /// Distinct cones actually simulated.
    pub unique_cones: u64,
    /// Edges served from the cone-isomorphism cache.
    pub cache_hits: u64,
}

/// One server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeResponse {
    /// Liveness answer.
    Pong,
    /// Generic acknowledgement (shutdown accepted).
    Ok,
    /// Admission control refused the job: the server already holds
    /// `outstanding` jobs against a budget of `capacity`. Resubmit later.
    Rejected {
        /// Jobs queued or running at the time of the submission.
        outstanding: u64,
        /// The server's outstanding-job budget (`QOKIT_SERVE_QUEUE`).
        capacity: u64,
    },
    /// Streaming aggregator snapshot for an in-flight sweep. `min_energy`
    /// is NaN / `argmin` is `u64::MAX` until a point has been observed.
    Progress {
        /// Points evaluated so far.
        evaluated: u64,
        /// Running energy sum.
        sum: f64,
        /// Minimum energy so far.
        min_energy: f64,
        /// Global point index of the minimum so far.
        argmin: u64,
    },
    /// Sweep terminal frame.
    SweepDone(SweepSummary),
    /// Multi-start terminal frame.
    MultiStartDone(MultiStartSummary),
    /// Light-cone terminal frame.
    LightConeDone(LightConeSummary),
    /// The job was cancelled (explicit [`ServeRequest::Cancel`], deadline
    /// expiry, or client disconnect) after `evaluated` units of work.
    Cancelled {
        /// Sweep points (or restarts) completed before the cancellation.
        evaluated: u64,
    },
    /// Cache statistics answer.
    CacheStats(CacheStatsView),
    /// The job (or request) failed; the job's lane stays serviceable.
    Error(String),
}

const REQ_PING: u8 = 0;
const REQ_CACHE_STATS: u8 = 1;
const REQ_SHUTDOWN: u8 = 2;
const REQ_CANCEL: u8 = 3;
const REQ_SWEEP: u8 = 4;
const REQ_MULTISTART: u8 = 5;
const REQ_LIGHTCONE: u8 = 6;

const RESP_PONG: u8 = 0;
const RESP_OK: u8 = 1;
const RESP_REJECTED: u8 = 2;
const RESP_PROGRESS: u8 = 3;
const RESP_SWEEP_DONE: u8 = 4;
const RESP_MULTISTART_DONE: u8 = 5;
const RESP_LIGHTCONE_DONE: u8 = 6;
const RESP_CANCELLED: u8 = 7;
const RESP_CACHE_STATS: u8 = 8;
const RESP_ERROR: u8 = 9;

fn put_axis(w: &mut ByteWriter, a: &Axis) {
    w.f64(a.lo);
    w.f64(a.hi);
    w.usize(a.steps);
}

fn get_axis(r: &mut ByteReader<'_>) -> Result<Axis, WireError> {
    let lo = r.f64()?;
    let hi = r.f64()?;
    let steps = r.usize()?;
    if steps < 2 {
        // `Axis::new` asserts `steps >= 2`; corrupt input must not panic.
        return Err(WireError::Invalid(format!(
            "a grid axis needs at least 2 steps, got {steps}"
        )));
    }
    Ok(Axis::new(lo, hi, steps))
}

fn put_bounds(w: &mut ByteWriter, bounds: &[(f64, f64)]) {
    w.usize(bounds.len());
    for &(lo, hi) in bounds {
        w.f64(lo);
        w.f64(hi);
    }
}

fn get_bounds(r: &mut ByteReader<'_>) -> Result<Vec<(f64, f64)>, WireError> {
    let n = r.len_prefix(16)?;
    (0..n)
        .map(|_| {
            let lo = r.f64()?;
            let hi = r.f64()?;
            Ok((lo, hi))
        })
        .collect()
}

/// Encodes a [`ServeRequest`] payload (frame it with
/// [`qokit_dist::frame::encode_frame`]).
pub fn encode_request(req: &ServeRequest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match req {
        ServeRequest::Ping => w.u8(REQ_PING),
        ServeRequest::CacheStats => w.u8(REQ_CACHE_STATS),
        ServeRequest::Shutdown => w.u8(REQ_SHUTDOWN),
        ServeRequest::Cancel => w.u8(REQ_CANCEL),
        ServeRequest::Sweep(job) => {
            w.u8(REQ_SWEEP);
            w.u8(spec_byte(&job.spec));
            put_poly(&mut w, &job.poly);
            put_axis(&mut w, &job.grid.gamma);
            put_axis(&mut w, &job.grid.beta);
            w.usize(job.top_k);
            w.usize(job.chunk);
            w.u64(job.deadline_ms);
            w.u64(job.progress_every);
        }
        ServeRequest::MultiStart(job) => {
            w.u8(REQ_MULTISTART);
            w.u8(spec_byte(&job.spec));
            put_poly(&mut w, &job.poly);
            w.usize(job.depth);
            w.usize(job.restarts);
            w.u64(job.seed);
            put_bounds(&mut w, &job.bounds);
            w.u64(job.deadline_ms);
        }
        ServeRequest::LightCone(job) => {
            w.u8(REQ_LIGHTCONE);
            w.usize(job.n_vertices);
            w.usize(job.edges.len());
            for &(u, v, weight) in &job.edges {
                w.usize(u);
                w.usize(v);
                w.f64(weight);
            }
            w.f64s(&job.gammas);
            w.f64s(&job.betas);
            w.usize(job.max_cone_qubits);
            w.u64(job.deadline_ms);
        }
    }
    w.into_vec()
}

/// Decodes a [`ServeRequest`] payload.
pub fn decode_request(payload: &[u8]) -> Result<ServeRequest, WireError> {
    let mut r = ByteReader::new(payload);
    let req = match r.u8()? {
        REQ_PING => ServeRequest::Ping,
        REQ_CACHE_STATS => ServeRequest::CacheStats,
        REQ_SHUTDOWN => ServeRequest::Shutdown,
        REQ_CANCEL => ServeRequest::Cancel,
        REQ_SWEEP => {
            let spec = spec_from_byte(r.u8()?);
            let poly = get_poly(&mut r)?;
            let gamma = get_axis(&mut r)?;
            let beta = get_axis(&mut r)?;
            let top_k = r.usize()?;
            let chunk = r.usize()?;
            let deadline_ms = r.u64()?;
            let progress_every = r.u64()?;
            ServeRequest::Sweep(SweepJob {
                poly,
                spec,
                grid: Grid2d::new(gamma, beta),
                top_k,
                chunk,
                deadline_ms,
                progress_every,
            })
        }
        REQ_MULTISTART => {
            let spec = spec_from_byte(r.u8()?);
            let poly = get_poly(&mut r)?;
            let depth = r.usize()?;
            let restarts = r.usize()?;
            let seed = r.u64()?;
            let bounds = get_bounds(&mut r)?;
            let deadline_ms = r.u64()?;
            ServeRequest::MultiStart(MultiStartJob {
                poly,
                spec,
                depth,
                restarts,
                seed,
                bounds,
                deadline_ms,
            })
        }
        REQ_LIGHTCONE => {
            let n_vertices = r.usize()?;
            let n_edges = r.len_prefix(24)?;
            let mut edges = Vec::with_capacity(n_edges);
            for _ in 0..n_edges {
                let u = r.usize()?;
                let v = r.usize()?;
                let weight = r.f64()?;
                edges.push((u, v, weight));
            }
            let gammas = r.f64s()?;
            let betas = r.f64s()?;
            let max_cone_qubits = r.usize()?;
            let deadline_ms = r.u64()?;
            ServeRequest::LightCone(LightConeJob {
                n_vertices,
                edges,
                gammas,
                betas,
                max_cone_qubits,
                deadline_ms,
            })
        }
        t => return Err(WireError::BadTag(t)),
    };
    if !r.is_exhausted() {
        return Err(WireError::Truncated);
    }
    Ok(req)
}

fn put_top_k(w: &mut ByteWriter, top_k: &[(u64, f64)]) {
    w.usize(top_k.len());
    for &(i, e) in top_k {
        w.u64(i);
        w.f64(e);
    }
}

fn get_top_k(r: &mut ByteReader<'_>) -> Result<Vec<(u64, f64)>, WireError> {
    let n = r.len_prefix(16)?;
    (0..n)
        .map(|_| {
            let i = r.u64()?;
            let e = r.f64()?;
            Ok((i, e))
        })
        .collect()
}

/// Encodes a [`ServeResponse`] payload.
pub fn encode_response(resp: &ServeResponse) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match resp {
        ServeResponse::Pong => w.u8(RESP_PONG),
        ServeResponse::Ok => w.u8(RESP_OK),
        ServeResponse::Rejected {
            outstanding,
            capacity,
        } => {
            w.u8(RESP_REJECTED);
            w.u64(*outstanding);
            w.u64(*capacity);
        }
        ServeResponse::Progress {
            evaluated,
            sum,
            min_energy,
            argmin,
        } => {
            w.u8(RESP_PROGRESS);
            w.u64(*evaluated);
            w.f64(*sum);
            w.f64(*min_energy);
            w.u64(*argmin);
        }
        ServeResponse::SweepDone(s) => {
            w.u8(RESP_SWEEP_DONE);
            w.u64(s.evaluated);
            w.f64(s.sum);
            w.f64(s.min_energy);
            w.u64(s.argmin);
            put_top_k(&mut w, &s.top_k);
            w.u8(s.cache_hit as u8);
        }
        ServeResponse::MultiStartDone(s) => {
            w.u8(RESP_MULTISTART_DONE);
            w.u64(s.best_restart);
            w.f64(s.best_f);
            w.f64s(&s.best_x);
            w.f64s(&s.restart_best_fs);
            w.u8(s.cache_hit as u8);
        }
        ServeResponse::LightConeDone(s) => {
            w.u8(RESP_LIGHTCONE_DONE);
            w.f64(s.energy);
            w.u64(s.edges);
            w.u64(s.unique_cones);
            w.u64(s.cache_hits);
        }
        ServeResponse::Cancelled { evaluated } => {
            w.u8(RESP_CANCELLED);
            w.u64(*evaluated);
        }
        ServeResponse::CacheStats(s) => {
            w.u8(RESP_CACHE_STATS);
            w.u64(s.entries);
            w.u64(s.bytes);
            w.u64(s.capacity_bytes);
            w.u64(s.hits);
            w.u64(s.misses);
            w.u64(s.plan_hits);
            w.u64(s.plan_misses);
            w.u64(s.evictions);
        }
        ServeResponse::Error(msg) => {
            w.u8(RESP_ERROR);
            w.string(msg);
        }
    }
    w.into_vec()
}

/// Decodes a [`ServeResponse`] payload.
pub fn decode_response(payload: &[u8]) -> Result<ServeResponse, WireError> {
    let mut r = ByteReader::new(payload);
    let resp = match r.u8()? {
        RESP_PONG => ServeResponse::Pong,
        RESP_OK => ServeResponse::Ok,
        RESP_REJECTED => {
            let outstanding = r.u64()?;
            let capacity = r.u64()?;
            ServeResponse::Rejected {
                outstanding,
                capacity,
            }
        }
        RESP_PROGRESS => {
            let evaluated = r.u64()?;
            let sum = r.f64()?;
            let min_energy = r.f64()?;
            let argmin = r.u64()?;
            ServeResponse::Progress {
                evaluated,
                sum,
                min_energy,
                argmin,
            }
        }
        RESP_SWEEP_DONE => {
            let evaluated = r.u64()?;
            let sum = r.f64()?;
            let min_energy = r.f64()?;
            let argmin = r.u64()?;
            let top_k = get_top_k(&mut r)?;
            let cache_hit = r.u8()? != 0;
            ServeResponse::SweepDone(SweepSummary {
                evaluated,
                sum,
                min_energy,
                argmin,
                top_k,
                cache_hit,
            })
        }
        RESP_MULTISTART_DONE => {
            let best_restart = r.u64()?;
            let best_f = r.f64()?;
            let best_x = r.f64s()?;
            let restart_best_fs = r.f64s()?;
            let cache_hit = r.u8()? != 0;
            ServeResponse::MultiStartDone(MultiStartSummary {
                best_restart,
                best_f,
                best_x,
                restart_best_fs,
                cache_hit,
            })
        }
        RESP_LIGHTCONE_DONE => {
            let energy = r.f64()?;
            let edges = r.u64()?;
            let unique_cones = r.u64()?;
            let cache_hits = r.u64()?;
            ServeResponse::LightConeDone(LightConeSummary {
                energy,
                edges,
                unique_cones,
                cache_hits,
            })
        }
        RESP_CANCELLED => ServeResponse::Cancelled {
            evaluated: r.u64()?,
        },
        RESP_CACHE_STATS => {
            let entries = r.u64()?;
            let bytes = r.u64()?;
            let capacity_bytes = r.u64()?;
            let hits = r.u64()?;
            let misses = r.u64()?;
            let plan_hits = r.u64()?;
            let plan_misses = r.u64()?;
            let evictions = r.u64()?;
            ServeResponse::CacheStats(CacheStatsView {
                entries,
                bytes,
                capacity_bytes,
                hits,
                misses,
                plan_hits,
                plan_misses,
                evictions,
            })
        }
        RESP_ERROR => ServeResponse::Error(r.string()?),
        t => return Err(WireError::BadTag(t)),
    };
    if !r.is_exhausted() {
        return Err(WireError::Truncated);
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_costvec::PrecomputeMethod;
    use qokit_statevec::exec::Layout;
    use qokit_terms::labs::labs_terms;

    fn roundtrip_req(req: ServeRequest) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: ServeResponse) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    fn spec() -> SweepSimSpec {
        SweepSimSpec {
            precompute: PrecomputeMethod::Fwht,
            quantize_u16: false,
            layout: Layout::Interleaved,
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(ServeRequest::Ping);
        roundtrip_req(ServeRequest::CacheStats);
        roundtrip_req(ServeRequest::Shutdown);
        roundtrip_req(ServeRequest::Cancel);
        roundtrip_req(ServeRequest::Sweep(SweepJob {
            poly: labs_terms(7),
            spec: spec(),
            grid: Grid2d::new(Axis::new(0.0, 1.0, 8), Axis::new(-0.5, 0.5, 4)),
            top_k: 5,
            chunk: 16,
            deadline_ms: 2500,
            progress_every: 10,
        }));
        roundtrip_req(ServeRequest::MultiStart(MultiStartJob {
            poly: labs_terms(6),
            spec: spec(),
            depth: 2,
            restarts: 4,
            seed: 99,
            bounds: vec![(0.0, 1.0); 4],
            deadline_ms: 0,
        }));
        roundtrip_req(ServeRequest::LightCone(LightConeJob {
            n_vertices: 10,
            edges: vec![(0, 1, 1.0), (1, 2, -0.5)],
            gammas: vec![0.3],
            betas: vec![0.4],
            max_cone_qubits: 20,
            deadline_ms: 100,
        }));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(ServeResponse::Pong);
        roundtrip_resp(ServeResponse::Ok);
        roundtrip_resp(ServeResponse::Rejected {
            outstanding: 3,
            capacity: 2,
        });
        roundtrip_resp(ServeResponse::Progress {
            evaluated: 640,
            sum: -12.5,
            min_energy: -3.25,
            argmin: 17,
        });
        roundtrip_resp(ServeResponse::SweepDone(SweepSummary {
            evaluated: 1024,
            sum: 3.5,
            min_energy: -8.0,
            argmin: 700,
            top_k: vec![(700, -8.0), (3, -7.5)],
            cache_hit: true,
        }));
        roundtrip_resp(ServeResponse::MultiStartDone(MultiStartSummary {
            best_restart: 2,
            best_f: -1.5,
            best_x: vec![0.1, 0.2, 0.3, 0.4],
            restart_best_fs: vec![-1.0, -0.5, -1.5],
            cache_hit: false,
        }));
        roundtrip_resp(ServeResponse::LightConeDone(LightConeSummary {
            energy: 13.75,
            edges: 3000,
            unique_cones: 12,
            cache_hits: 2988,
        }));
        roundtrip_resp(ServeResponse::Cancelled { evaluated: 48 });
        roundtrip_resp(ServeResponse::CacheStats(CacheStatsView {
            entries: 2,
            bytes: 1 << 20,
            capacity_bytes: 1 << 28,
            hits: 10,
            misses: 3,
            plan_hits: 7,
            plan_misses: 2,
            evictions: 1,
        }));
        roundtrip_resp(ServeResponse::Error("lane panicked".into()));
    }

    #[test]
    fn truncated_request_is_an_error_not_a_panic() {
        let payload = encode_request(&ServeRequest::Sweep(SweepJob {
            poly: labs_terms(5),
            spec: spec(),
            grid: Grid2d::new(Axis::new(0.0, 1.0, 2), Axis::new(0.0, 1.0, 2)),
            top_k: 1,
            chunk: 4,
            deadline_ms: 0,
            progress_every: 0,
        }));
        for cut in 0..payload.len() {
            assert!(decode_request(&payload[..cut]).is_err(), "cut = {cut}");
        }
        let mut padded = payload;
        padded.push(0);
        assert!(decode_request(&padded).is_err());
    }

    #[test]
    fn invalid_sweep_polynomial_is_an_error_not_a_panic() {
        // 18 bytes: tag, spec, n_vars = 70, zero terms.
        let mut w = ByteWriter::new();
        w.u8(REQ_SWEEP);
        w.u8(0);
        w.usize(70);
        w.usize(0);
        let too_many_vars = w.into_vec();
        assert_eq!(too_many_vars.len(), 18);
        // A term on variable 5 of a 2-variable polynomial.
        let mut w = ByteWriter::new();
        w.u8(REQ_SWEEP);
        w.u8(0);
        w.usize(2);
        w.usize(1);
        w.f64(1.0);
        w.u64(1 << 5);
        let mask_out_of_range = w.into_vec();
        for payload in [too_many_vars, mask_out_of_range] {
            let got = decode_request(&payload);
            assert!(matches!(got, Err(WireError::Invalid(_))), "{got:?}");
        }
    }

    #[test]
    fn short_grid_axis_is_invalid_not_truncated() {
        for steps in [0, 1] {
            let mut w = ByteWriter::new();
            w.u8(REQ_SWEEP);
            w.u8(0);
            put_poly(&mut w, &labs_terms(3));
            // A γ axis over [0, 1] with too few steps.
            w.f64(0.0);
            w.f64(1.0);
            w.usize(steps);
            let got = decode_request(&w.into_vec());
            assert!(matches!(got, Err(WireError::Invalid(_))), "{got:?}");
        }
    }
}
