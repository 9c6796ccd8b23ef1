//! Fuzzes the socket decoders: the rank-transport codec
//! (`qokit_dist::wire`) and the serve-protocol codec (`qokit_serve::proto`).
//!
//! Every payload a peer can send reaches one of four decoders. Whatever
//! the bytes, each must return `Ok` or `Err`, never panic. All four are fed
//! random byte vectors, every strict prefix of each round-trip fixture, and
//! every single-byte mutation of each fixture. The fixtures are the
//! variable-length messages: length prefixes and validated domain values
//! (polynomials, edge lists, grid axes) are where a bad byte could bite.

use proptest::prelude::*;
use qokit::core::batch::SweepPoint;
use qokit::dist::wire::{self, Request, Response};
use qokit::dist::{Axis, Grid2d};
use qokit::serve::proto::{self, LightConeJob, MultiStartJob, ServeRequest, ServeResponse};
use qokit::serve::proto::{MultiStartSummary, SweepJob, SweepSummary};
use qokit::statevec::C64;
use qokit::terms::labs::labs_terms;

/// Runs every decoder on `payload`; a panic fails the calling test.
fn decode_all(payload: &[u8]) {
    let _ = wire::decode_request(payload);
    let _ = wire::decode_response(payload);
    let _ = proto::decode_request(payload);
    let _ = proto::decode_response(payload);
}

fn fixtures() -> Vec<Vec<u8>> {
    let spec = wire::spec_from_byte(0b111);
    let dist_requests = [
        Request::SweepInit {
            poly: labs_terms(5),
            spec,
        },
        Request::SweepChunk {
            points: vec![SweepPoint::new(vec![0.1, 0.2], vec![0.3, -0.4])],
        },
        Request::SimInit {
            poly: labs_terms(6),
            n_ranks: 4,
        },
        Request::SimSetSlice {
            amps: vec![C64::new(0.1, -0.2)],
        },
    ];
    let dist_responses = [
        Response::Energies(vec![Ok(1.25), Err("point panicked".into())]),
        Response::Amps(vec![C64::new(0.5, -0.5)]),
    ];
    let serve_requests = [
        ServeRequest::Sweep(SweepJob {
            poly: labs_terms(5),
            spec,
            grid: Grid2d::new(Axis::new(0.0, 1.0, 8), Axis::new(-0.5, 0.5, 4)),
            top_k: 5,
            chunk: 16,
            deadline_ms: 2500,
            progress_every: 10,
        }),
        ServeRequest::MultiStart(MultiStartJob {
            poly: labs_terms(4),
            spec,
            depth: 1,
            restarts: 4,
            seed: 99,
            bounds: vec![(0.0, 1.0); 2],
            deadline_ms: 0,
        }),
        ServeRequest::LightCone(LightConeJob {
            n_vertices: 10,
            edges: vec![(0, 1, 1.0), (1, 2, -0.5)],
            gammas: vec![0.3],
            betas: vec![0.4],
            max_cone_qubits: 20,
            deadline_ms: 100,
        }),
    ];
    let serve_responses = [
        ServeResponse::SweepDone(SweepSummary {
            evaluated: 1024,
            sum: 3.5,
            min_energy: -8.0,
            argmin: 700,
            top_k: vec![(700, -8.0), (3, -7.5)],
            cache_hit: true,
        }),
        ServeResponse::MultiStartDone(MultiStartSummary {
            best_restart: 2,
            best_f: -1.5,
            best_x: vec![0.1, 0.2],
            restart_best_fs: vec![-1.0, -1.5],
            cache_hit: false,
        }),
        ServeResponse::Error("lane panicked".into()),
    ];
    let mut out: Vec<Vec<u8>> = dist_requests.iter().map(wire::encode_request).collect();
    out.extend(dist_responses.iter().map(wire::encode_response));
    out.extend(serve_requests.iter().map(proto::encode_request));
    out.extend(serve_responses.iter().map(proto::encode_response));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random bytes behind a tag every decoder knows, so the variant
    /// bodies are exercised and not only the tag check.
    #[test]
    fn random_bytes_never_panic((tag, body) in (0u8..16, prop::collection::vec(0u8..=255, 0..128))) {
        let mut payload = vec![tag];
        payload.extend_from_slice(&body);
        decode_all(&payload);
    }
}

#[test]
fn every_truncation_of_every_fixture_decodes_or_errs() {
    for payload in fixtures() {
        for cut in 0..payload.len() {
            decode_all(&payload[..cut]);
        }
    }
}

#[test]
fn every_single_byte_mutation_of_every_fixture_decodes_or_errs() {
    for payload in fixtures() {
        let mut mutated = payload.clone();
        for pos in 0..payload.len() {
            for byte in 0..=255u8 {
                mutated[pos] = byte;
                decode_all(&mutated);
            }
            mutated[pos] = payload[pos];
        }
    }
}
