//! Message codec for the rank-transport layer ([`crate::transport`]),
//! built on the shared frame codec in [`crate::frame`] (magic + u32
//! length + FNV-1a-64 checksum; see that module for the byte layout).
//! This module owns only the *messages*: the [`Request`]/[`Response`]
//! enums and the domain value codecs (polynomials, sweep points,
//! amplitude slices, ego nets) they are built from. The serve layer
//! (`qokit-serve`) reuses the same frames and domain codecs for its own
//! message set.

use qokit_core::batch::SweepPoint;
use qokit_costvec::PrecomputeMethod;
use qokit_statevec::exec::Layout;
use qokit_statevec::C64;
use qokit_terms::graphs::{EgoNet, Graph};
use qokit_terms::{SpinPolynomial, Term};

pub use crate::frame::{
    check_payload, decode_header, encode_frame, fnv1a64, read_frame, write_frame, ByteReader,
    ByteWriter, FrameReadError, WireError, MAGIC, MAX_PAYLOAD,
};

/// Encodes a [`SpinPolynomial`] (vars, then `(weight, mask)` terms).
pub fn put_poly(w: &mut ByteWriter, p: &SpinPolynomial) {
    w.usize(p.n_vars());
    w.usize(p.num_terms());
    for t in p.terms() {
        w.f64(t.weight);
        w.u64(t.mask);
    }
}

/// Decodes a [`SpinPolynomial`] written by [`put_poly`]. Out-of-range
/// variable counts and term masks are [`WireError::Invalid`], not panics.
pub fn get_poly(r: &mut ByteReader<'_>) -> Result<SpinPolynomial, WireError> {
    let n_vars = r.usize()?;
    let n_terms = r.len_prefix(16)?;
    let mut terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        let weight = r.f64()?;
        let mask = r.u64()?;
        terms.push(Term { weight, mask });
    }
    SpinPolynomial::try_new(n_vars, terms).map_err(WireError::Invalid)
}

/// Encodes a [`SweepPoint`] (per-layer γ then β).
pub fn put_point(w: &mut ByteWriter, p: &SweepPoint) {
    w.f64s(&p.gammas);
    w.f64s(&p.betas);
}

/// Decodes a [`SweepPoint`] written by [`put_point`].
pub fn get_point(r: &mut ByteReader<'_>) -> Result<SweepPoint, WireError> {
    let gammas = r.f64s()?;
    let betas = r.f64s()?;
    Ok(SweepPoint::new(gammas, betas))
}

fn put_amps(w: &mut ByteWriter, v: &[C64]) {
    w.usize(v.len());
    for a in v {
        w.f64(a.re);
        w.f64(a.im);
    }
}

fn get_amps(r: &mut ByteReader<'_>) -> Result<Vec<C64>, WireError> {
    let n = r.len_prefix(16)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let re = r.f64()?;
        let im = r.f64()?;
        v.push(C64::new(re, im));
    }
    Ok(v)
}

fn put_ego(w: &mut ByteWriter, e: &EgoNet) {
    let g = e.graph();
    w.usize(g.n_vertices());
    w.usize(g.n_edges());
    for &(u, v, weight) in g.edges() {
        w.usize(u);
        w.usize(v);
        w.f64(weight);
    }
    w.usizes(e.vertices());
    w.usizes(e.distances());
    w.usize(e.radius());
}

/// Decodes an [`EgoNet`] written by [`put_ego`]. A bad edge list or
/// mismatched vertex/distance maps are [`WireError::Invalid`], not panics.
fn get_ego(r: &mut ByteReader<'_>) -> Result<EgoNet, WireError> {
    let n = r.usize()?;
    let n_edges = r.len_prefix(24)?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let u = r.usize()?;
        let v = r.usize()?;
        let w = r.f64()?;
        edges.push((u, v, w));
    }
    let graph = Graph::try_new(n, edges).map_err(WireError::Invalid)?;
    let vertices = r.usizes()?;
    let dist = r.usizes()?;
    let radius = r.usize()?;
    EgoNet::try_from_parts(graph, vertices, dist, radius).map_err(WireError::Invalid)
}

/// How the worker should quantize/precompute the cost diagonal of a sweep
/// simulator — the subset of `SimOptions` that crosses the wire. Only the
/// X mixer and the `Auto` initial state are supported over transports
/// (every distributed workload in this crate uses them).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SweepSimSpec {
    /// Cost-vector precompute algorithm.
    pub precompute: PrecomputeMethod,
    /// §V-B integer-grid cost diagonal (`SimOptions::quantize_u16`).
    pub quantize_u16: bool,
    /// Requested amplitude layout. Kept in the wire byte for
    /// compatibility; sweep points run on split planes whatever it says.
    pub layout: Layout,
}

/// One driver→worker message. See [`crate::worker::handle`] for the
/// dispatch semantics of each variant.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// No work this superstep (the rank's shard is exhausted).
    Nop,
    /// Tear down and exit the worker loop.
    Shutdown,
    /// Build the rank-local sweep runner for `poly`.
    SweepInit {
        /// Cost polynomial (the cost diagonal is precomputed worker-side).
        poly: SpinPolynomial,
        /// Simulator construction knobs.
        spec: SweepSimSpec,
    },
    /// Evaluate one chunk of sweep points, returning per-point energies.
    SweepChunk {
        /// The points of this superstep, in global-index order.
        points: Vec<SweepPoint>,
    },
    /// Simulate a shard of light cones, returning `⟨ZZ⟩` per cone.
    ConeShard {
        /// `(representative edge, cone)` pairs in plan order.
        cones: Vec<(u64, EgoNet)>,
        /// Per-layer γ.
        gammas: Vec<f64>,
        /// Per-layer β.
        betas: Vec<f64>,
    },
    /// Initialize this rank's Algorithm-4 state slice for `poly`.
    SimInit {
        /// Cost polynomial.
        poly: SpinPolynomial,
        /// Total rank count K (the worker knows its own rank).
        n_ranks: usize,
    },
    /// Report this rank's local cost extrema `(min, max)`.
    SimExtrema,
    /// Check §V-B quantizability against the global grid: returns `1.0`
    /// when the local slice is integral on `gmin + k` **and** the global
    /// range fits, else `0.0`.
    SimQuantCheck {
        /// Globally agreed offset (global cost minimum).
        gmin: f64,
        /// Whether the global span fits 65536 grid points.
        fits: bool,
    },
    /// Commit to the quantized representation (all ranks voted yes).
    SimQuantCommit {
        /// Globally agreed offset.
        gmin: f64,
    },
    /// One layer's local work: phase + mixer gates on local qubits.
    SimLayerLocal {
        /// Phase angle γ.
        gamma: f64,
        /// Mixer angle β.
        beta: f64,
    },
    /// Mixer gates on the former-global qubits (post-transpose positions).
    SimMixHigh {
        /// Mixer angle β.
        beta: f64,
    },
    /// Move the amplitude slice to the driver (for the all-to-all).
    SimTakeSlice,
    /// Install a transposed amplitude slice from the driver.
    SimSetSlice {
        /// The rank's new slice.
        amps: Vec<C64>,
    },
    /// Report `(⟨ψ|Ĉ|ψ⟩ local part, local min cost)`.
    SimReduce,
    /// Report the local ground-state overlap against `min_cost`.
    SimOverlap {
        /// Global minimum cost.
        min_cost: f64,
    },
    /// Return the rank's amplitude slice (final gather).
    SimGather,
}

/// One worker→driver reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Acknowledgement with no payload.
    Ok,
    /// One scalar.
    Scalar(f64),
    /// Two scalars.
    Scalar2(f64, f64),
    /// Per-point sweep energies; `Err` carries a poisoned point's panic
    /// message (slot order matches the request's point order).
    Energies(Vec<Result<f64, String>>),
    /// Cone-shard `⟨ZZ⟩` values, or the first poisoned cone as
    /// `(representative edge, panic message)`.
    ZzValues(Result<Vec<f64>, (u64, String)>),
    /// An amplitude slice.
    Amps(Vec<C64>),
    /// The worker rejected the request (protocol misuse, e.g. a chunk
    /// before its init).
    Error(String),
}

const REQ_NOP: u8 = 0;
const REQ_SHUTDOWN: u8 = 1;
const REQ_SWEEP_INIT: u8 = 2;
const REQ_SWEEP_CHUNK: u8 = 3;
const REQ_CONE_SHARD: u8 = 4;
const REQ_SIM_INIT: u8 = 5;
const REQ_SIM_EXTREMA: u8 = 6;
const REQ_SIM_QUANT_CHECK: u8 = 7;
const REQ_SIM_QUANT_COMMIT: u8 = 8;
const REQ_SIM_LAYER_LOCAL: u8 = 9;
const REQ_SIM_MIX_HIGH: u8 = 10;
const REQ_SIM_TAKE_SLICE: u8 = 11;
const REQ_SIM_SET_SLICE: u8 = 12;
const REQ_SIM_REDUCE: u8 = 13;
const REQ_SIM_OVERLAP: u8 = 14;
const REQ_SIM_GATHER: u8 = 15;

const RESP_OK: u8 = 0;
const RESP_SCALAR: u8 = 1;
const RESP_SCALAR2: u8 = 2;
const RESP_ENERGIES: u8 = 3;
const RESP_ZZ: u8 = 4;
const RESP_AMPS: u8 = 5;
const RESP_ERROR: u8 = 6;

/// Packs a [`SweepSimSpec`] into its one wire byte (precompute ∥ quantize
/// ∥ layout) — with the layout fixed, also the spec component of
/// `qokit-serve` cache keys.
pub fn spec_byte(spec: &SweepSimSpec) -> u8 {
    let mut b = 0u8;
    if matches!(spec.precompute, PrecomputeMethod::Fwht) {
        b |= 1;
    }
    if spec.quantize_u16 {
        b |= 2;
    }
    if matches!(spec.layout, Layout::Split) {
        b |= 4;
    }
    b
}

/// Inverse of [`spec_byte`].
pub fn spec_from_byte(b: u8) -> SweepSimSpec {
    SweepSimSpec {
        precompute: if b & 1 != 0 {
            PrecomputeMethod::Fwht
        } else {
            PrecomputeMethod::Direct
        },
        quantize_u16: b & 2 != 0,
        layout: if b & 4 != 0 {
            Layout::Split
        } else {
            Layout::Interleaved
        },
    }
}

/// Encodes a [`Request`] payload (frame it with [`encode_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match req {
        Request::Nop => w.u8(REQ_NOP),
        Request::Shutdown => w.u8(REQ_SHUTDOWN),
        Request::SweepInit { poly, spec } => {
            w.u8(REQ_SWEEP_INIT);
            w.u8(spec_byte(spec));
            put_poly(&mut w, poly);
        }
        Request::SweepChunk { points } => {
            w.u8(REQ_SWEEP_CHUNK);
            w.usize(points.len());
            for p in points {
                put_point(&mut w, p);
            }
        }
        Request::ConeShard {
            cones,
            gammas,
            betas,
        } => {
            w.u8(REQ_CONE_SHARD);
            w.usize(cones.len());
            for (edge, ego) in cones {
                w.u64(*edge);
                put_ego(&mut w, ego);
            }
            w.f64s(gammas);
            w.f64s(betas);
        }
        Request::SimInit { poly, n_ranks } => {
            w.u8(REQ_SIM_INIT);
            w.usize(*n_ranks);
            put_poly(&mut w, poly);
        }
        Request::SimExtrema => w.u8(REQ_SIM_EXTREMA),
        Request::SimQuantCheck { gmin, fits } => {
            w.u8(REQ_SIM_QUANT_CHECK);
            w.f64(*gmin);
            w.u8(*fits as u8);
        }
        Request::SimQuantCommit { gmin } => {
            w.u8(REQ_SIM_QUANT_COMMIT);
            w.f64(*gmin);
        }
        Request::SimLayerLocal { gamma, beta } => {
            w.u8(REQ_SIM_LAYER_LOCAL);
            w.f64(*gamma);
            w.f64(*beta);
        }
        Request::SimMixHigh { beta } => {
            w.u8(REQ_SIM_MIX_HIGH);
            w.f64(*beta);
        }
        Request::SimTakeSlice => w.u8(REQ_SIM_TAKE_SLICE),
        Request::SimSetSlice { amps } => {
            w.u8(REQ_SIM_SET_SLICE);
            put_amps(&mut w, amps);
        }
        Request::SimReduce => w.u8(REQ_SIM_REDUCE),
        Request::SimOverlap { min_cost } => {
            w.u8(REQ_SIM_OVERLAP);
            w.f64(*min_cost);
        }
        Request::SimGather => w.u8(REQ_SIM_GATHER),
    }
    w.into_vec()
}

/// Decodes a [`Request`] payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = ByteReader::new(payload);
    let req = match r.u8()? {
        REQ_NOP => Request::Nop,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_SWEEP_INIT => {
            let spec = spec_from_byte(r.u8()?);
            let poly = get_poly(&mut r)?;
            Request::SweepInit { poly, spec }
        }
        REQ_SWEEP_CHUNK => {
            let n = r.len_prefix(16)?;
            let points = (0..n)
                .map(|_| get_point(&mut r))
                .collect::<Result<_, _>>()?;
            Request::SweepChunk { points }
        }
        REQ_CONE_SHARD => {
            let n = r.len_prefix(8)?;
            let mut cones = Vec::with_capacity(n);
            for _ in 0..n {
                let edge = r.u64()?;
                let ego = get_ego(&mut r)?;
                cones.push((edge, ego));
            }
            let gammas = r.f64s()?;
            let betas = r.f64s()?;
            Request::ConeShard {
                cones,
                gammas,
                betas,
            }
        }
        REQ_SIM_INIT => {
            let n_ranks = r.usize()?;
            let poly = get_poly(&mut r)?;
            Request::SimInit { poly, n_ranks }
        }
        REQ_SIM_EXTREMA => Request::SimExtrema,
        REQ_SIM_QUANT_CHECK => {
            let gmin = r.f64()?;
            let fits = r.u8()? != 0;
            Request::SimQuantCheck { gmin, fits }
        }
        REQ_SIM_QUANT_COMMIT => Request::SimQuantCommit { gmin: r.f64()? },
        REQ_SIM_LAYER_LOCAL => {
            let gamma = r.f64()?;
            let beta = r.f64()?;
            Request::SimLayerLocal { gamma, beta }
        }
        REQ_SIM_MIX_HIGH => Request::SimMixHigh { beta: r.f64()? },
        REQ_SIM_TAKE_SLICE => Request::SimTakeSlice,
        REQ_SIM_SET_SLICE => Request::SimSetSlice {
            amps: get_amps(&mut r)?,
        },
        REQ_SIM_REDUCE => Request::SimReduce,
        REQ_SIM_OVERLAP => Request::SimOverlap { min_cost: r.f64()? },
        REQ_SIM_GATHER => Request::SimGather,
        t => return Err(WireError::BadTag(t)),
    };
    if !r.is_exhausted() {
        return Err(WireError::Truncated);
    }
    Ok(req)
}

/// Encodes a [`Response`] payload (frame it with [`encode_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match resp {
        Response::Ok => w.u8(RESP_OK),
        Response::Scalar(x) => {
            w.u8(RESP_SCALAR);
            w.f64(*x);
        }
        Response::Scalar2(a, b) => {
            w.u8(RESP_SCALAR2);
            w.f64(*a);
            w.f64(*b);
        }
        Response::Energies(slots) => {
            w.u8(RESP_ENERGIES);
            w.usize(slots.len());
            for slot in slots {
                match slot {
                    Ok(e) => {
                        w.u8(0);
                        w.f64(*e);
                    }
                    Err(msg) => {
                        w.u8(1);
                        w.string(msg);
                    }
                }
            }
        }
        Response::ZzValues(result) => {
            w.u8(RESP_ZZ);
            match result {
                Ok(values) => {
                    w.u8(0);
                    w.f64s(values);
                }
                Err((edge, msg)) => {
                    w.u8(1);
                    w.u64(*edge);
                    w.string(msg);
                }
            }
        }
        Response::Amps(amps) => {
            w.u8(RESP_AMPS);
            put_amps(&mut w, amps);
        }
        Response::Error(msg) => {
            w.u8(RESP_ERROR);
            w.string(msg);
        }
    }
    w.into_vec()
}

/// Decodes a [`Response`] payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = ByteReader::new(payload);
    let resp = match r.u8()? {
        RESP_OK => Response::Ok,
        RESP_SCALAR => Response::Scalar(r.f64()?),
        RESP_SCALAR2 => {
            let a = r.f64()?;
            let b = r.f64()?;
            Response::Scalar2(a, b)
        }
        RESP_ENERGIES => {
            let n = r.len_prefix(9)?;
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                slots.push(match r.u8()? {
                    0 => Ok(r.f64()?),
                    _ => Err(r.string()?),
                });
            }
            Response::Energies(slots)
        }
        RESP_ZZ => Response::ZzValues(match r.u8()? {
            0 => Ok(r.f64s()?),
            _ => {
                let edge = r.u64()?;
                let msg = r.string()?;
                Err((edge, msg))
            }
        }),
        RESP_AMPS => Response::Amps(get_amps(&mut r)?),
        RESP_ERROR => Response::Error(r.string()?),
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
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut;

    fn roundtrip_req(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Nop);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::SweepInit {
            poly: labs_terms(6),
            spec: SweepSimSpec {
                precompute: PrecomputeMethod::Fwht,
                quantize_u16: true,
                layout: Layout::Split,
            },
        });
        roundtrip_req(Request::SweepChunk {
            points: vec![
                SweepPoint::p1(0.25, -0.5),
                SweepPoint::new(vec![0.1, 0.2], vec![0.3, -0.4]),
            ],
        });
        let g = Graph::ring(8, 1.0);
        let adj = g.adjacency();
        let ego = adj.edge_ego(0, 1, 2);
        roundtrip_req(Request::ConeShard {
            cones: vec![(0, ego.clone()), (3, ego)],
            gammas: vec![0.3, 0.1],
            betas: vec![0.5, -0.2],
        });
        roundtrip_req(Request::SimInit {
            poly: maxcut::maxcut_polynomial(&Graph::ring(6, 1.0)),
            n_ranks: 4,
        });
        roundtrip_req(Request::SimQuantCheck {
            gmin: -12.5,
            fits: true,
        });
        roundtrip_req(Request::SimLayerLocal {
            gamma: 0.7,
            beta: -0.3,
        });
        roundtrip_req(Request::SimSetSlice {
            amps: vec![C64::new(0.1, -0.2), C64::new(f64::MIN_POSITIVE, 1e300)],
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Scalar(std::f64::consts::PI));
        roundtrip_resp(Response::Scalar2(-1.0, f64::INFINITY));
        roundtrip_resp(Response::Energies(vec![
            Ok(1.25),
            Err("point panicked".into()),
            Ok(-3.5),
        ]));
        roundtrip_resp(Response::ZzValues(Ok(vec![0.5, -0.5])));
        roundtrip_resp(Response::ZzValues(Err((7, "cone panicked".into()))));
        roundtrip_resp(Response::Amps(vec![C64::new(0.0, -0.0)]));
        roundtrip_resp(Response::Error("no runner".into()));
    }

    #[test]
    fn f64_crosses_bit_exactly() {
        for v in [0.1 + 0.2, -0.0, f64::MAX, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let payload = encode_response(&Response::Scalar(v));
            match decode_response(&payload).unwrap() {
                Response::Scalar(got) => assert_eq!(got.to_bits(), v.to_bits()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let payload = encode_request(&Request::SweepChunk {
            points: vec![SweepPoint::p1(0.1, 0.2)],
        });
        for cut in 0..payload.len() {
            // Every prefix must decode to a clean error.
            assert!(decode_request(&payload[..cut]).is_err(), "cut = {cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = payload;
        padded.push(0);
        assert!(decode_request(&padded).is_err());
    }

    #[test]
    fn invalid_polynomial_is_an_error_not_a_panic() {
        for (n_vars, mask) in [(70usize, 0b11u64), (2, 1 << 5)] {
            let mut w = ByteWriter::new();
            w.u8(super::REQ_SWEEP_INIT);
            w.u8(0);
            w.usize(n_vars);
            w.usize(1);
            w.f64(1.0);
            w.u64(mask);
            let got = decode_request(&w.into_vec());
            assert!(
                matches!(got, Err(WireError::Invalid(_))),
                "n = {n_vars}, mask = {mask:#b}: {got:?}"
            );
        }
    }

    #[test]
    fn invalid_ego_net_is_an_error_not_a_panic() {
        let ego = Graph::ring(8, 1.0).adjacency().edge_ego(0, 1, 1);
        let (n, edges) = (ego.graph().n_vertices(), ego.graph().edges().to_vec());
        let shard = |n: usize, edges: &[(usize, usize, f64)], vertices: &[usize]| {
            let mut w = ByteWriter::new();
            w.u8(super::REQ_CONE_SHARD);
            w.usize(1);
            w.u64(0);
            w.usize(n);
            w.usize(edges.len());
            for &(u, v, weight) in edges {
                w.usize(u);
                w.usize(v);
                w.f64(weight);
            }
            w.usizes(vertices);
            w.usizes(ego.distances());
            w.usize(ego.radius());
            w.f64s(&[0.3]);
            w.f64s(&[0.5]);
            decode_request(&w.into_vec())
        };
        // The honest encoding decodes.
        assert!(shard(n, &edges, ego.vertices()).is_ok());
        let mut out_of_range = edges.clone();
        out_of_range[0].1 = n;
        let mut duplicated = edges.clone();
        duplicated.push(edges[0]);
        let short_map = &ego.vertices()[1..];
        for (what, got) in [
            ("edge out of range", shard(n, &out_of_range, ego.vertices())),
            ("duplicate edge", shard(n, &duplicated, ego.vertices())),
            ("vertex map too short", shard(n, &edges, short_map)),
        ] {
            assert!(matches!(got, Err(WireError::Invalid(_))), "{what}: {got:?}");
        }
    }

    #[test]
    fn corrupt_length_prefixes_do_not_allocate() {
        // A u64::MAX length prefix for the point list must be rejected by
        // the remaining-bytes bound, not attempted as an allocation.
        let mut w = ByteWriter::new();
        w.u8(super::REQ_SWEEP_CHUNK);
        w.u64(u64::MAX);
        assert_eq!(decode_request(&w.into_vec()), Err(WireError::Truncated));
    }
}
