//! Transports: how ranks exchange superstep payloads.
//!
//! A [`Transport`] runs one BSP **scatter/gather superstep** per
//! [`exchange`](Transport::exchange) call: the driver hands it one
//! [`Request`] per rank, every rank executes its request through the
//! shared [`worker::handle`] dispatch, and the
//! responses come back in rank order. Two implementations:
//!
//! - [`InProcessTransport`] — ranks are work-stealing-pool tasks in this
//!   process (the schedule of the direct `dist_sim` engine;
//!   [`DistSweepRunner::try_scan`](crate::DistSweepRunner::try_scan) runs
//!   on it); requests and responses are passed by value, nothing is
//!   serialized.
//! - [`TcpTransport`] — ranks are **spawned worker processes** connected
//!   over loopback TCP. Every message is a checksummed frame (see
//!   [`crate::wire`]), every collective runs under a deadline, and the
//!   payloads genuinely leave the process — [`CommStats`] then counts real
//!   bytes on a wire.
//!
//! Both transports run identical per-rank code, and `f64` values cross the
//! wire as exact bit patterns, so results are **bit-identical** between
//! them (pinned by `tests/dist_sweep_equivalence.rs`).
//!
//! # Failure semantics
//!
//! A dead peer, a malformed frame, or an expired deadline yields a
//! rank-tagged [`TransportError`] — never a hang: every socket read and
//! write is bounded by the per-collective deadline
//! ([`TcpTransport::with_deadline`]).

use crate::comm::{BspComm, CommStats};
use crate::wire::{self, read_frame, write_frame, FrameReadError, Request, Response};
use crate::worker::{self, WorkerState, WORKER_ADDR_ENV, WORKER_RANK_ENV};
use qokit_core::batch::SweepRunner;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// What went wrong on a transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// The connection failed (EOF from a dead worker, reset, refused...).
    Io(String),
    /// The per-collective deadline expired with the peer silent.
    Deadline {
        /// The deadline that was exceeded.
        limit_ms: u64,
    },
    /// The peer sent bytes that fail frame validation (bad magic, bad
    /// checksum, truncated or over-long payload, unknown tag).
    Corrupt(String),
    /// A worker process could not be spawned or never completed the rank
    /// handshake.
    Spawn(String),
    /// The peer answered with the wrong message for the protocol step.
    Protocol(String),
}

/// A transport failure, tagged with the rank whose connection it hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// Rank whose link failed.
    pub rank: usize,
    /// Failure classification.
    pub kind: TransportErrorKind,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            TransportErrorKind::Io(m) => write!(f, "rank {}: transport I/O failed: {m}", self.rank),
            TransportErrorKind::Deadline { limit_ms } => write!(
                f,
                "rank {}: collective deadline of {limit_ms} ms expired",
                self.rank
            ),
            TransportErrorKind::Corrupt(m) => {
                write!(f, "rank {}: corrupt frame: {m}", self.rank)
            }
            TransportErrorKind::Spawn(m) => {
                write!(f, "rank {}: worker spawn failed: {m}", self.rank)
            }
            TransportErrorKind::Protocol(m) => {
                write!(f, "rank {}: protocol violation: {m}", self.rank)
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// How ranks exchange superstep payloads. One `exchange` call is one BSP
/// scatter/gather superstep; responses come back in rank order.
pub trait Transport {
    /// Number of ranks K.
    fn size(&self) -> usize;

    /// Scatters `requests[r]` to rank `r`, runs every rank's dispatch, and
    /// gathers the responses in rank order. `requests.len()` must equal
    /// [`size`](Transport::size) (pad idle ranks with [`Request::Nop`]).
    fn exchange(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError>;

    /// Bytes this transport has put on a wire so far, per rank (header +
    /// payload, both directions). Zero for in-process exchange.
    fn stats(&self) -> CommStats;
}

/// Transport selector, resolved from the `QOKIT_TRANSPORT` environment
/// variable by [`TransportKind::from_env`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Ranks as pool tasks in this process ([`InProcessTransport`]).
    #[default]
    InProcess,
    /// Ranks as spawned worker processes over loopback TCP
    /// ([`TcpTransport`]).
    Tcp,
}

impl TransportKind {
    /// Reads `QOKIT_TRANSPORT`: `tcp` (case-insensitive) selects
    /// [`TransportKind::Tcp`]; anything else — including unset — selects
    /// [`TransportKind::InProcess`]. Read on every call (not cached).
    pub fn from_env() -> TransportKind {
        match std::env::var("QOKIT_TRANSPORT") {
            Ok(v) if v.eq_ignore_ascii_case("tcp") => TransportKind::Tcp,
            _ => TransportKind::InProcess,
        }
    }
}

/// Impl #1: the in-process pool engine. Ranks are [`WorkerState`]s driven
/// through one [`BspComm::superstep_map`] per exchange — the same
/// work-stealing-pool schedule the direct (non-transport) code paths use,
/// with no serialization anywhere.
pub struct InProcessTransport {
    comm: BspComm,
    workers: Vec<WorkerState>,
}

impl InProcessTransport {
    /// A transport over `ranks` in-process ranks.
    ///
    /// # Panics
    /// If `ranks` is zero.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        InProcessTransport {
            comm: BspComm::new(ranks),
            workers: (0..ranks).map(WorkerState::new).collect(),
        }
    }

    /// In-process ranks that start with a sweep runner already in place,
    /// `runner()` called once per rank, so `SweepChunk`s need no
    /// `SweepInit` first.
    pub(crate) fn with_sweep_runners(ranks: usize, runner: impl Fn() -> SweepRunner) -> Self {
        let mut t = Self::new(ranks);
        for w in &mut t.workers {
            w.sweep = Some(runner());
        }
        t
    }
}

impl Transport for InProcessTransport {
    fn size(&self) -> usize {
        self.workers.len()
    }

    fn exchange(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        assert_eq!(
            requests.len(),
            self.workers.len(),
            "one request per rank (pad with Request::Nop)"
        );
        let mut slots: Vec<(WorkerState, Option<Request>)> = std::mem::take(&mut self.workers)
            .into_iter()
            .zip(requests)
            .map(|(state, req)| (state, Some(req)))
            .collect();
        let responses = self.comm.superstep_map(&mut slots, |_, (state, req)| {
            worker::handle(state, req.take().expect("request consumed once"))
        });
        self.workers = slots.into_iter().map(|(state, _)| state).collect();
        Ok(responses)
    }

    fn stats(&self) -> CommStats {
        CommStats {
            bytes_sent_per_rank: vec![0; self.workers.len()],
            alltoall_calls: 0,
        }
    }
}

/// How [`TcpTransport::spawn`] launches a worker process. The default is
/// the **spawn-self** pattern: re-run the current executable, which calls
/// [`worker::maybe_run_from_env`] early and becomes a worker.
#[derive(Clone, Debug)]
pub struct WorkerSpawn {
    /// Executable to launch.
    pub program: PathBuf,
    /// Arguments (test binaries pass `[<entry test name>, "--exact"]` so
    /// the libtest child runs only the worker-entry guard).
    pub args: Vec<String>,
    /// Extra environment for the child (on top of the inherited one; the
    /// transport adds [`WORKER_ADDR_ENV`]/[`WORKER_RANK_ENV`] itself).
    pub envs: Vec<(String, String)>,
}

impl WorkerSpawn {
    /// Spawn-self with no arguments — for binaries (benches, examples)
    /// that call [`worker::maybe_run_from_env`] at the top of `main`.
    pub fn current_exe() -> std::io::Result<Self> {
        Ok(WorkerSpawn {
            program: std::env::current_exe()?,
            args: Vec::new(),
            envs: Vec::new(),
        })
    }

    /// Spawn-self through a libtest harness: the child runs exactly the
    /// named `#[test]` function, which must call
    /// [`worker::maybe_run_from_env`].
    pub fn test_entry(test_name: &str) -> std::io::Result<Self> {
        Ok(WorkerSpawn {
            program: std::env::current_exe()?,
            args: vec![test_name.to_string(), "--exact".to_string()],
            envs: Vec::new(),
        })
    }

    /// Adds an environment variable for the children.
    pub fn with_env(mut self, key: &str, value: &str) -> Self {
        self.envs.push((key.to_string(), value.to_string()));
        self
    }
}

/// Impl #2: spawned worker processes over loopback TCP — work genuinely
/// leaves the process. See the [module docs](self) for framing and
/// failure semantics.
pub struct TcpTransport {
    conns: Vec<TcpStream>,
    children: Vec<Option<Child>>,
    bytes: Vec<u64>,
    deadline: Duration,
}

impl TcpTransport {
    /// Default per-collective deadline.
    pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(120);

    /// Binds a loopback listener, spawns `ranks` worker processes per
    /// `spawn`, and completes the rank handshake with each. Workers
    /// inherit this process's environment plus `spawn.envs` plus the
    /// [`WORKER_ADDR_ENV`]/[`WORKER_RANK_ENV`] coordinates.
    pub fn spawn(ranks: usize, spawn: &WorkerSpawn) -> Result<Self, TransportError> {
        Self::spawn_with_deadline(ranks, spawn, Self::DEFAULT_DEADLINE)
    }

    /// As [`spawn`](Self::spawn) with an explicit per-collective deadline
    /// (also bounds the spawn handshake itself).
    pub fn spawn_with_deadline(
        ranks: usize,
        spawn: &WorkerSpawn,
        deadline: Duration,
    ) -> Result<Self, TransportError> {
        assert!(ranks > 0, "need at least one rank");
        let spawn_err = |rank: usize, m: String| TransportError {
            rank,
            kind: TransportErrorKind::Spawn(m),
        };
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| spawn_err(0, format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| spawn_err(0, format!("local_addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| spawn_err(0, format!("set_nonblocking failed: {e}")))?;

        let mut children: Vec<Option<Child>> = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let mut cmd = Command::new(&spawn.program);
            cmd.args(&spawn.args)
                .env(WORKER_ADDR_ENV, addr.to_string())
                .env(WORKER_RANK_ENV, rank.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            for (k, v) in &spawn.envs {
                cmd.env(k, v);
            }
            match cmd.spawn() {
                Ok(child) => children.push(Some(child)),
                Err(e) => {
                    let mut failed = TcpTransport {
                        conns: Vec::new(),
                        children,
                        bytes: vec![0; ranks],
                        deadline,
                    };
                    failed.reap();
                    return Err(spawn_err(rank, format!("spawn failed: {e}")));
                }
            }
        }

        // Accept + handshake: children may connect in any order, so the
        // first frame each sends is its rank id.
        let give_up = Instant::now() + deadline;
        let mut conns: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
        let mut pending = ranks;
        while pending > 0 {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nodelay(true).ok();
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| spawn_err(0, format!("stream mode: {e}")))?;
                    stream
                        .set_read_timeout(Some(remaining_or_floor(give_up)))
                        .ok();
                    let (payload, _) = read_frame(&mut stream)
                        .map_err(|e| spawn_err(0, format!("rank handshake failed: {e}")))?;
                    let payload: [u8; 8] = payload
                        .as_slice()
                        .try_into()
                        .map_err(|_| spawn_err(0, "malformed handshake".to_string()))?;
                    let rank = u64::from_le_bytes(payload) as usize;
                    if rank >= ranks || conns[rank].is_some() {
                        return Err(spawn_err(
                            rank.min(ranks - 1),
                            "duplicate or out-of-range rank in handshake".to_string(),
                        ));
                    }
                    conns[rank] = Some(stream);
                    pending -= 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= give_up {
                        let rank = conns.iter().position(Option::is_none).unwrap_or(0);
                        let mut failed = TcpTransport {
                            conns: Vec::new(),
                            children,
                            bytes: vec![0; ranks],
                            deadline,
                        };
                        failed.reap();
                        return Err(spawn_err(
                            rank,
                            "worker never connected before the deadline".to_string(),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(spawn_err(0, format!("accept failed: {e}"))),
            }
        }
        Ok(TcpTransport {
            conns: conns.into_iter().map(Option::unwrap).collect(),
            children,
            bytes: vec![0; ranks],
            deadline,
        })
    }

    /// Wraps pre-connected streams (rank = slot index) without spawning —
    /// the hook fault-injection tests use to stand up misbehaving peers.
    #[doc(hidden)]
    pub fn from_streams(conns: Vec<TcpStream>, deadline: Duration) -> Self {
        let ranks = conns.len();
        TcpTransport {
            conns,
            children: Vec::new(),
            bytes: vec![0; ranks],
            deadline,
        }
    }

    /// Returns the transport with a different per-collective deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Kills rank `rank`'s worker process — the fault-injection hook for
    /// "worker dies mid-superstep". The next exchange touching that rank
    /// reports a rank-tagged error instead of hanging.
    pub fn kill_worker(&mut self, rank: usize) {
        if let Some(child) = self.children.get_mut(rank).and_then(Option::as_mut) {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(child) = self.children.get_mut(rank) {
            *child = None;
        }
    }

    fn reap(&mut self) {
        // Best-effort graceful shutdown: ask every live worker to exit...
        let shutdown = wire::encode_request(&Request::Shutdown);
        for conn in &mut self.conns {
            conn.set_write_timeout(Some(Duration::from_millis(200)))
                .ok();
            let _ = write_frame(conn, &shutdown);
        }
        // ...give the cohort a short grace period, then force-kill. `wait`
        // always runs so no zombie outlives the transport.
        let grace = Instant::now() + Duration::from_secs(2);
        for child in self.children.iter_mut().filter_map(Option::as_mut) {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < grace => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        self.children.clear();
    }

    fn deadline_error(&self, rank: usize) -> TransportError {
        TransportError {
            rank,
            kind: TransportErrorKind::Deadline {
                limit_ms: self.deadline.as_millis() as u64,
            },
        }
    }
}

fn protocol_error(rank: usize, resp: &Response, wanted: &str) -> TransportError {
    let kind = match resp {
        Response::Error(m) => TransportErrorKind::Protocol(m.clone()),
        other => TransportErrorKind::Protocol(format!("expected {wanted}, got {other:?}")),
    };
    TransportError { rank, kind }
}

pub(crate) fn expect_ok(rank: usize, resp: Response) -> Result<(), TransportError> {
    match resp {
        Response::Ok => Ok(()),
        other => Err(protocol_error(rank, &other, "Ok")),
    }
}

pub(crate) fn expect_scalar(rank: usize, resp: Response) -> Result<f64, TransportError> {
    match resp {
        Response::Scalar(v) => Ok(v),
        other => Err(protocol_error(rank, &other, "Scalar")),
    }
}

pub(crate) fn expect_scalar2(rank: usize, resp: Response) -> Result<(f64, f64), TransportError> {
    match resp {
        Response::Scalar2(a, b) => Ok((a, b)),
        other => Err(protocol_error(rank, &other, "Scalar2")),
    }
}

pub(crate) fn expect_amps(
    rank: usize,
    resp: Response,
) -> Result<Vec<qokit_statevec::C64>, TransportError> {
    match resp {
        Response::Amps(v) => Ok(v),
        other => Err(protocol_error(rank, &other, "Amps")),
    }
}

pub(crate) fn expect_energies(
    rank: usize,
    resp: Response,
) -> Result<Vec<Result<f64, String>>, TransportError> {
    match resp {
        Response::Energies(v) => Ok(v),
        other => Err(protocol_error(rank, &other, "Energies")),
    }
}

/// Time left until `deadline`, floored at 1 ms (`set_read_timeout`
/// rejects a zero duration).
fn remaining_or_floor(deadline: Instant) -> Duration {
    deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

impl Transport for TcpTransport {
    fn size(&self) -> usize {
        self.conns.len()
    }

    fn exchange(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        assert_eq!(
            requests.len(),
            self.conns.len(),
            "one request per rank (pad with Request::Nop)"
        );
        let give_up = Instant::now() + self.deadline;
        // Scatter. Workers read their whole request before replying, so
        // writing all requests before reading any response cannot
        // deadlock: a worker blocked writing a large response never
        // blocks the driver's writes to *other* workers.
        for (rank, req) in requests.iter().enumerate() {
            if Instant::now() >= give_up {
                return Err(self.deadline_error(rank));
            }
            let payload = wire::encode_request(req);
            self.conns[rank]
                .set_write_timeout(Some(remaining_or_floor(give_up)))
                .ok();
            match write_frame(&mut self.conns[rank], &payload) {
                Ok(n) => self.bytes[rank] += n as u64,
                Err(e) if is_timeout(&e) => return Err(self.deadline_error(rank)),
                Err(e) => {
                    return Err(TransportError {
                        rank,
                        kind: TransportErrorKind::Io(e.to_string()),
                    })
                }
            }
        }
        // Gather in rank order.
        let mut responses = Vec::with_capacity(self.conns.len());
        for rank in 0..self.conns.len() {
            if Instant::now() >= give_up {
                return Err(self.deadline_error(rank));
            }
            self.conns[rank]
                .set_read_timeout(Some(remaining_or_floor(give_up)))
                .ok();
            match read_frame(&mut self.conns[rank]) {
                Ok((payload, n)) => {
                    self.bytes[rank] += n as u64;
                    let resp = wire::decode_response(&payload).map_err(|e| TransportError {
                        rank,
                        kind: TransportErrorKind::Corrupt(e.to_string()),
                    })?;
                    responses.push(resp);
                }
                Err(FrameReadError::Io(e)) if is_timeout(&e) => {
                    return Err(self.deadline_error(rank))
                }
                Err(FrameReadError::Io(e)) => {
                    return Err(TransportError {
                        rank,
                        kind: TransportErrorKind::Io(e.to_string()),
                    })
                }
                Err(FrameReadError::Wire(e)) => {
                    return Err(TransportError {
                        rank,
                        kind: TransportErrorKind::Corrupt(e.to_string()),
                    })
                }
            }
        }
        Ok(responses)
    }

    fn stats(&self) -> CommStats {
        CommStats {
            bytes_sent_per_rank: self.bytes.clone(),
            alltoall_calls: 0,
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn in_process_exchange_runs_every_rank() {
        let mut t = InProcessTransport::new(3);
        let resps = t
            .exchange(vec![Request::Nop, Request::Nop, Request::Nop])
            .unwrap();
        assert_eq!(resps, vec![Response::Ok; 3]);
        assert_eq!(t.stats().total_bytes(), 0);
    }

    /// Drives one `exchange` against a fake rank-0 peer running `peer` on
    /// the far side of a real loopback socket.
    fn exchange_against(
        deadline: Duration,
        peer: impl FnOnce(TcpStream) + Send + 'static,
    ) -> Result<Vec<Response>, TransportError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            peer(stream);
        });
        let (conn, _) = listener.accept().unwrap();
        let mut t = TcpTransport::from_streams(vec![conn], deadline);
        let result = t.exchange(vec![Request::Nop]);
        handle.join().unwrap();
        result
    }

    #[test]
    fn truncated_frame_is_a_rank_tagged_io_error() {
        let err = exchange_against(Duration::from_secs(5), |mut stream| {
            let (payload, _) = read_frame(&mut stream).unwrap(); // consume the request
            let _ = wire::decode_request(&payload).unwrap();
            // Answer with half a frame, then hang up.
            let frame = wire::encode_frame(&wire::encode_response(&Response::Ok));
            stream.write_all(&frame[..frame.len() / 2]).unwrap();
        })
        .unwrap_err();
        assert_eq!(err.rank, 0);
        assert!(
            matches!(err.kind, TransportErrorKind::Io(_)),
            "{:?}",
            err.kind
        );
    }

    #[test]
    fn corrupt_checksum_is_detected() {
        let err = exchange_against(Duration::from_secs(5), |mut stream| {
            let _ = read_frame(&mut stream).unwrap();
            let mut frame = wire::encode_frame(&wire::encode_response(&Response::Scalar(1.0)));
            *frame.last_mut().unwrap() ^= 0xFF; // flip payload bits
            stream.write_all(&frame).unwrap();
        })
        .unwrap_err();
        assert_eq!(err.rank, 0);
        assert!(
            matches!(err.kind, TransportErrorKind::Corrupt(_)),
            "{:?}",
            err.kind
        );
    }

    #[test]
    fn silent_peer_hits_the_deadline_not_a_hang() {
        let started = Instant::now();
        let err = exchange_against(Duration::from_millis(250), |mut stream| {
            let _ = read_frame(&mut stream).unwrap();
            // Never answer; hold the socket open past the deadline.
            std::thread::sleep(Duration::from_millis(600));
        })
        .unwrap_err();
        assert_eq!(err.rank, 0);
        assert!(
            matches!(err.kind, TransportErrorKind::Deadline { limit_ms: 250 }),
            "{:?}",
            err.kind
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline must bound the wait"
        );
    }

    #[test]
    fn transport_kind_resolves_tcp_only_on_request() {
        // from_env reads live (uncached); the default is in-process.
        assert_eq!(TransportKind::default(), TransportKind::InProcess);
    }
}
