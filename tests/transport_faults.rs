//! Transport fault injection over real worker processes: a dead peer, a
//! stalled peer, or a corrupt frame must surface as a rank-tagged
//! [`TransportError`](qokit::dist::TransportError) *within the configured
//! deadline* — never a hang — and the distributed statevector run over
//! TCP must stay bit-identical to the in-process engine when nothing
//! fails.
//!
//! Every TCP test here spawns this very binary as its workers (libtest
//! filter `tcp_worker_entry --exact`), so the suite is self-contained.

use qokit::dist::wire::{encode_frame, encode_response, Request, Response};
use qokit::dist::worker::WORKER_STALL_ENV;
use qokit::dist::{
    DistSimulator, InProcessTransport, TcpTransport, Transport, TransportErrorKind, WorkerSpawn,
};
use qokit::terms::labs::labs_terms;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Spawn-self worker entry: a no-op in a normal test run, the worker
/// loop when the TCP transport launches this binary with
/// `QOKIT_WORKER_ADDR` set.
#[test]
fn tcp_worker_entry() {
    qokit::dist::worker::maybe_run_from_env();
}

fn worker_spawn() -> WorkerSpawn {
    WorkerSpawn::test_entry("tcp_worker_entry").expect("current_exe")
}

fn nops(k: usize) -> Vec<Request> {
    (0..k).map(|_| Request::Nop).collect()
}

/// Killing a worker mid-conversation turns the next collective into a
/// rank-tagged error on the dead rank, well inside the deadline.
#[test]
fn killed_worker_is_a_rank_tagged_error_not_a_hang() {
    let deadline = Duration::from_secs(10);
    let mut tcp =
        TcpTransport::spawn_with_deadline(2, &worker_spawn(), deadline).expect("spawn workers");
    // A healthy round first: both ranks answer.
    let responses = tcp.exchange(nops(2)).expect("healthy exchange");
    assert!(responses.iter().all(|r| matches!(r, Response::Ok)));

    tcp.kill_worker(1);
    let started = Instant::now();
    let err = tcp.exchange(nops(2)).expect_err("dead rank must fail");
    assert_eq!(err.rank, 1, "error must name the dead rank: {err}");
    assert!(
        matches!(
            err.kind,
            TransportErrorKind::Io(_) | TransportErrorKind::Deadline { .. }
        ),
        "unexpected kind: {err}"
    );
    assert!(
        started.elapsed() < deadline + Duration::from_secs(5),
        "took {:?} — the failure leaked past the deadline",
        started.elapsed()
    );
}

/// A worker that goes silent (the `QOKIT_WORKER_STALL_MS` hook sleeps
/// before answering) trips the per-collective deadline, reporting the
/// configured limit and the stalled rank.
#[test]
fn stalled_worker_hits_the_deadline() {
    let spawn = worker_spawn().with_env(WORKER_STALL_ENV, "30000");
    let deadline = Duration::from_millis(500);
    let mut tcp = TcpTransport::spawn_with_deadline(2, &spawn, deadline).expect("spawn workers");
    let started = Instant::now();
    let err = tcp
        .exchange(nops(2))
        .expect_err("stalled rank must time out");
    assert!(
        matches!(err.kind, TransportErrorKind::Deadline { limit_ms: 500 }),
        "unexpected kind: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "took {:?} — deadline did not bound the wait",
        started.elapsed()
    );
}

/// A peer that answers with a corrupted frame (checksum mismatch) is a
/// `Corrupt` error on that rank, not a decoded garbage response.
#[test]
fn corrupt_frame_is_flagged_with_the_guilty_rank() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        // Read and discard the driver's request frame, then reply with a
        // well-formed header whose payload has one bit flipped after the
        // checksum was computed.
        let mut frame = encode_frame(&encode_response(&Response::Ok));
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut header = [0u8; 16];
        sock.read_exact(&mut header).unwrap();
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        std::io::copy(&mut (&mut sock).take(len as u64), &mut std::io::sink()).unwrap();
        sock.write_all(&frame).unwrap();
        sock.flush().unwrap();
    });
    let conn = std::net::TcpStream::connect(addr).unwrap();
    let mut tcp = TcpTransport::from_streams(vec![conn], Duration::from_secs(10));
    let err = tcp.exchange(nops(1)).expect_err("corrupt frame must fail");
    assert_eq!(err.rank, 0);
    assert!(
        matches!(err.kind, TransportErrorKind::Corrupt(_)),
        "unexpected kind: {err}"
    );
    peer.join().unwrap();
}

/// Algorithm 4 over real worker processes: state slices cross the wire
/// through the driver-routed alltoall and every output — state bits,
/// expectation, overlap, min cost — matches the in-process engine
/// exactly, at 2 and 4 ranks.
#[test]
fn dist_sim_over_tcp_is_bit_identical() {
    let poly = labs_terms(7);
    let (gammas, betas) = (&[0.35, -0.6][..], &[0.8, 0.25][..]);
    let spawn = worker_spawn();
    for ranks in [2usize, 4] {
        let sim = DistSimulator::new(poly.clone(), ranks).unwrap();
        let plain = sim.simulate_qaoa(gammas, betas);

        let mut tcp = TcpTransport::spawn(ranks, &spawn).expect("spawn workers");
        let over_tcp = sim.simulate_qaoa_on(&mut tcp, gammas, betas).unwrap();
        assert_eq!(over_tcp.expectation.to_bits(), plain.expectation.to_bits());
        assert_eq!(over_tcp.overlap.to_bits(), plain.overlap.to_bits());
        assert_eq!(over_tcp.min_cost.to_bits(), plain.min_cost.to_bits());
        assert_eq!(over_tcp.state.max_abs_diff(&plain.state), 0.0, "K={ranks}");
        assert!(tcp.stats().total_bytes() > 0);
        assert_eq!(over_tcp.comm.alltoall_calls, plain.comm.alltoall_calls);
    }
}

/// The transport survives a failed collective: after an in-process run,
/// the same spawned pool serves further work (connections are not
/// poisoned by an earlier *successful* exchange — regression guard for
/// leftover buffered state).
#[test]
fn transport_is_reusable_across_engines() {
    let poly = labs_terms(6);
    let spawn = worker_spawn();
    let mut tcp = TcpTransport::spawn(2, &spawn).expect("spawn workers");
    let sim = DistSimulator::new(poly.clone(), 2).unwrap();
    let first = sim.simulate_qaoa_on(&mut tcp, &[0.4], &[0.7]).unwrap();
    let second = sim.simulate_qaoa_on(&mut tcp, &[0.4], &[0.7]).unwrap();
    assert_eq!(first.expectation.to_bits(), second.expectation.to_bits());
    assert_eq!(first.state.max_abs_diff(&second.state), 0.0);

    // And the in-process transport gives the same bits as both.
    let mut inproc = InProcessTransport::new(2);
    let local = sim.simulate_qaoa_on(&mut inproc, &[0.4], &[0.7]).unwrap();
    assert_eq!(local.expectation.to_bits(), first.expectation.to_bits());
}
