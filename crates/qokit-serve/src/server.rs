//! The long-lived serve loop: loopback-TCP accept loop, bounded job
//! queue with admission control, subset-pool lane workers, per-job
//! deadlines + cooperative cancellation, and progress streaming.
//!
//! # Architecture
//!
//! ```text
//!           accept loop (non-blocking poll)
//!                │ one thread per connection
//!                ▼
//!   connection handler ──admission──▶ bounded queue ──▶ lane workers
//!     reads frames, answers           (outstanding ≤        │ each owns a
//!     Ping/CacheStats inline,          QOKIT_SERVE_QUEUE,    │ disjoint
//!     submits jobs, then polls         else Rejected)        │ SubsetPool
//!     for Cancel / disconnect                                ▼
//!                ▲                                   run job (sweep /
//!                └────── progress + terminal frames ─ multistart /
//!                        through one shared writer    lightcone)
//! ```
//!
//! Admission counts **outstanding** jobs (queued + running), so a
//! saturated server answers `Rejected` deterministically and never
//! hangs a client. Every job carries an `Arc<AtomicBool>` cancel token:
//! an explicit `Cancel` frame, a deadline watchdog (checked in the
//! energy sink / objective), or a write failure to a disconnected
//! client all set it, and the compute layers stop at their next
//! checkpoint ([`SweepRunner::scan_into_cancellable`],
//! [`MultiStart::try_minimize_cancellable`]) — freeing the lane while
//! sibling jobs finish bit-identically.

use crate::cache::PrecomputeCache;
use crate::proto::{
    decode_request, encode_response, LightConeJob, LightConeSummary, MultiStartJob,
    MultiStartSummary, ServeRequest, ServeResponse, SweepJob, SweepSummary,
};
use qokit_core::batch::{SweepError, SweepNesting, SweepOptions, SweepPoint, SweepRunner};
use qokit_core::landscape::{EnergySink, LandscapeAggregator};
use qokit_core::lightcone::{LightConeEvaluator, LightConeOptions};
use qokit_dist::frame::{read_frame, write_frame, FrameReadError};
use qokit_dist::PointSource;
use qokit_optim::{MultiStart, MultiStartError, NelderMead, RestartMethod};
use qokit_statevec::exec::ExecPolicy;
use qokit_terms::graphs::Graph;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Listen address (`host:port`); port `0` picks a free port.
pub const SERVE_ADDR_ENV: &str = "QOKIT_SERVE_ADDR";
/// Outstanding-job budget (queued + running) for admission control.
pub const SERVE_QUEUE_ENV: &str = "QOKIT_SERVE_QUEUE";
/// Precompute-cache byte budget.
pub const SERVE_CACHE_BYTES_ENV: &str = "QOKIT_SERVE_CACHE_BYTES";

/// Poll interval of the accept loop and the mid-job Cancel/disconnect
/// poll — bounds how stale a shutdown or cancellation observation can be.
const POLL: Duration = Duration::from_millis(20);

/// Server construction knobs (each with a `QOKIT_SERVE_*` env override).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; defaults to `127.0.0.1:0` (loopback, free port).
    pub addr: String,
    /// Outstanding-job budget; submissions beyond it get
    /// [`ServeResponse::Rejected`]. Defaults to 16.
    pub queue_capacity: usize,
    /// Precompute-cache byte budget. Defaults to 256 MiB.
    pub cache_bytes: usize,
    /// Lane worker threads. With `lanes > 1` and enough pool workers,
    /// each lane pins its jobs to a disjoint [`rayon::SubsetPool`] so
    /// concurrent jobs do not steal each other's work. Defaults to 2
    /// (clamped to the pool width).
    pub lanes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 16,
            cache_bytes: 256 << 20,
            lanes: 2,
        }
    }
}

impl ServerConfig {
    /// The default configuration with `QOKIT_SERVE_ADDR` /
    /// `QOKIT_SERVE_QUEUE` / `QOKIT_SERVE_CACHE_BYTES` applied on top.
    pub fn from_env() -> Self {
        let mut cfg = ServerConfig::default();
        if let Ok(addr) = std::env::var(SERVE_ADDR_ENV) {
            cfg.addr = addr;
        }
        if let Some(cap) = env_usize(SERVE_QUEUE_ENV) {
            cfg.queue_capacity = cap.max(1);
        }
        if let Some(bytes) = env_usize(SERVE_CACHE_BYTES_ENV) {
            cfg.cache_bytes = bytes;
        }
        cfg
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
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

/// One job's write side + lifecycle flags, shared between its connection
/// handler and the lane executing it. All frames for one connection go
/// through the `stream` mutex, so lane writes (progress, terminal) and
/// handler writes can never interleave mid-frame.
struct JobConn {
    stream: Mutex<TcpStream>,
    /// Cooperative cancel token: explicit `Cancel`, deadline expiry, or
    /// client disconnect all set it.
    cancel: Arc<AtomicBool>,
    /// Set by the lane after the terminal frame is written (or the
    /// client is known dead); the handler then resumes its request loop.
    done: Arc<AtomicBool>,
}

impl JobConn {
    /// Writes one response frame; a failed write means the client is
    /// gone, which cancels the job so the lane frees itself.
    fn send(&self, resp: &ServeResponse) {
        let payload = encode_response(resp);
        let mut stream = self.stream.lock().unwrap();
        if write_frame(&mut *stream, &payload).is_err() {
            self.cancel.store(true, Ordering::Relaxed);
        }
    }
}

enum JobKind {
    Sweep(SweepJob),
    MultiStart(MultiStartJob),
    LightCone(LightConeJob),
}

struct QueuedJob {
    kind: JobKind,
    conn: Arc<JobConn>,
}

struct Queue {
    jobs: VecDeque<QueuedJob>,
    /// Queued + running jobs — the quantity admission control bounds.
    outstanding: usize,
}

struct Shared {
    cache: PrecomputeCache,
    queue: Mutex<Queue>,
    available: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread; [`Server::spawn_thread`] runs it on a background thread and
/// returns a handle (the in-process form the tests and examples use).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    lanes: usize,
}

impl Server {
    /// Binds the listen socket and builds the shared state.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cache: PrecomputeCache::new(config.cache_bytes),
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    outstanding: 0,
                }),
                available: Condvar::new(),
                capacity: config.queue_capacity.max(1),
                shutdown: AtomicBool::new(false),
            }),
            lanes: config.lanes.max(1),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends [`ServeRequest::Shutdown`]: spawns the
    /// lane workers, then accepts connections, one handler thread each.
    /// Queued jobs are drained before the lanes exit.
    pub fn run(self) {
        let width = rayon::current_num_threads().max(1);
        let lanes = self.lanes.clamp(1, width);
        // Disjoint worker subsets, one per lane, when the pool is wide
        // enough to give every lane at least one worker. A single lane
        // (or a 1-worker pool) runs jobs on the ambient pool instead.
        let subsets = if lanes > 1 {
            rayon::split_current(&vec![width / lanes; lanes])
        } else {
            Vec::new()
        };
        let mut lane_threads = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let shared = Arc::clone(&self.shared);
            let subset = subsets.get(lane).cloned();
            lane_threads.push(std::thread::spawn(move || lane_loop(shared, subset)));
        }

        while !self.shared.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    // Handler threads exit with their connection; they are
                    // not joined (a lingering idle client must not block
                    // shutdown).
                    std::thread::spawn(move || handle_connection(stream, shared));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(_) => break,
            }
        }
        // Wake idle lanes so they can observe the shutdown flag; they
        // drain any queued jobs first.
        self.shared.available.notify_all();
        for t in lane_threads {
            t.join().ok();
        }
    }

    /// Runs the server on a background thread, returning its address and
    /// a handle that joins on drop-free shutdown.
    pub fn spawn_thread(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, thread })
    }
}

/// Handle to an in-process server thread (see [`Server::spawn_thread`]).
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The server's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the serve loop to exit (after a client `Shutdown`).
    pub fn join(self) {
        self.thread.join().ok();
    }
}

/// Serves one connection: answer control requests inline, run at most
/// one job at a time, and while a job is in flight poll the socket for
/// an explicit `Cancel` frame or a disconnect (both cancel the job).
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut read_half = read_half;
    let conn_stream = Mutex::new(stream);
    // Requests that arrived during a job (a client may pipeline its next
    // submission right behind a terminal frame) — served before reading
    // from the socket again.
    let mut pending: VecDeque<ServeRequest> = VecDeque::new();

    loop {
        let req = if let Some(req) = pending.pop_front() {
            req
        } else {
            let Ok((payload, _)) = read_frame(&mut read_half) else {
                return; // disconnect or corrupt frame outside a job: drop
            };
            match decode_request(&payload) {
                Ok(req) => req,
                Err(e) => {
                    send_on(
                        &conn_stream,
                        &ServeResponse::Error(format!("bad request: {e}")),
                    );
                    continue;
                }
            }
        };
        let kind = match req {
            ServeRequest::Ping => {
                send_on(&conn_stream, &ServeResponse::Pong);
                continue;
            }
            ServeRequest::CacheStats => {
                send_on(
                    &conn_stream,
                    &ServeResponse::CacheStats(shared.cache.stats()),
                );
                continue;
            }
            ServeRequest::Shutdown => {
                shared.shutdown.store(true, Ordering::Relaxed);
                shared.available.notify_all();
                send_on(&conn_stream, &ServeResponse::Ok);
                return;
            }
            // Cancel frames never get a direct reply (a job answers with
            // its Cancelled terminal frame); one racing past a job's
            // completion is dropped rather than desyncing the stream.
            ServeRequest::Cancel => continue,
            ServeRequest::Sweep(job) => JobKind::Sweep(job),
            ServeRequest::MultiStart(job) => JobKind::MultiStart(job),
            ServeRequest::LightCone(job) => JobKind::LightCone(job),
        };

        // Admission control: bound *outstanding* (queued + running) jobs.
        // Counting from enqueue to terminal frame makes saturation
        // deterministic — a second submission while any job is in flight
        // on a capacity-1 server is always Rejected, no timing races.
        let conn = {
            let mut q = shared.queue.lock().unwrap();
            if q.outstanding >= shared.capacity {
                let outstanding = q.outstanding as u64;
                drop(q);
                send_on(
                    &conn_stream,
                    &ServeResponse::Rejected {
                        outstanding,
                        capacity: shared.capacity as u64,
                    },
                );
                continue;
            }
            q.outstanding += 1;
            let Ok(writer) = conn_stream.lock().unwrap().try_clone() else {
                q.outstanding -= 1;
                return;
            };
            let conn = Arc::new(JobConn {
                stream: Mutex::new(writer),
                cancel: Arc::new(AtomicBool::new(false)),
                done: Arc::new(AtomicBool::new(false)),
            });
            q.jobs.push_back(QueuedJob {
                kind,
                conn: Arc::clone(&conn),
            });
            shared.available.notify_one();
            conn
        };

        // Mid-job poll: watch for Cancel frames or EOF without consuming
        // partial frames (peek first, then do a blocking frame read).
        read_half.set_read_timeout(Some(POLL)).ok();
        while !conn.done.load(Ordering::Relaxed) {
            let mut probe = [0u8; 1];
            match read_half.peek(&mut probe) {
                Ok(0) => {
                    // Client hung up mid-job: cancel so the lane reaps
                    // the job, then drop the connection.
                    conn.cancel.store(true, Ordering::Relaxed);
                    return;
                }
                Ok(_) => {
                    read_half.set_read_timeout(None).ok();
                    let frame = read_frame(&mut read_half);
                    read_half.set_read_timeout(Some(POLL)).ok();
                    match frame {
                        Ok((payload, _)) => match decode_request(&payload) {
                            Ok(ServeRequest::Cancel) => conn.cancel.store(true, Ordering::Relaxed),
                            // The client's next request, pipelined behind
                            // our terminal frame — serve it after this
                            // job ends.
                            Ok(req) => pending.push_back(req),
                            Err(e) => conn.send(&ServeResponse::Error(format!("bad request: {e}"))),
                        },
                        Err(FrameReadError::Io(_)) | Err(FrameReadError::Wire(_)) => {
                            conn.cancel.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => {
                    conn.cancel.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
        read_half.set_read_timeout(None).ok();
    }
}

fn send_on(stream: &Mutex<TcpStream>, resp: &ServeResponse) {
    let payload = encode_response(resp);
    let mut s = stream.lock().unwrap();
    write_frame(&mut *s, &payload).ok();
}

/// One lane worker: pop jobs, run them (inside this lane's subset pool
/// when one was carved out), write the terminal frame, release the
/// admission slot. Panics inside a job are contained per-job — the lane
/// itself never dies.
fn lane_loop(shared: Arc<Shared>, subset: Option<rayon::SubsetPool>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        let run = || run_job(&shared, &job);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| match &subset {
            Some(s) => s.install(run),
            None => run(),
        }));
        let resp = match outcome {
            Ok(resp) => resp,
            Err(payload) => {
                ServeResponse::Error(format!("job panicked: {}", panic_message(payload)))
            }
        };
        // Ordering matters, twice. `done` before the terminal write: the
        // handler may then stop polling and block on the next request
        // while the frame is still in flight (reads and writes are
        // independent socket directions); set afterwards, a fast client's
        // next request could race into the still-polling handler. The
        // admission slot before the terminal write: a client that has
        // seen a terminal frame must never have its follow-up submission
        // rejected by a slot its own finished job still holds.
        job.conn.done.store(true, Ordering::Relaxed);
        shared.queue.lock().unwrap().outstanding -= 1;
        job.conn.send(&resp);
    }
}

fn deadline_of(deadline_ms: u64) -> Option<Instant> {
    (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms))
}

fn run_job(shared: &Shared, job: &QueuedJob) -> ServeResponse {
    match &job.kind {
        JobKind::Sweep(sweep) => run_sweep(shared, sweep, &job.conn),
        JobKind::MultiStart(ms) => run_multistart(shared, ms, &job.conn),
        JobKind::LightCone(lc) => run_lightcone(lc, &job.conn),
    }
}

/// Energy sink wrapping the [`LandscapeAggregator`]: every observation
/// checks the deadline (setting the cancel token on expiry, honored at
/// the next chunk boundary) and, every `every` points, streams a
/// snapshot frame to the client.
struct ProgressSink<'a> {
    agg: LandscapeAggregator,
    every: u64,
    next_emit: u64,
    deadline: Option<Instant>,
    conn: &'a JobConn,
}

impl ProgressSink<'_> {
    fn snapshot(&self) -> ServeResponse {
        ServeResponse::Progress {
            evaluated: self.agg.count(),
            sum: self.agg.sum(),
            min_energy: self.agg.min_energy().unwrap_or(f64::NAN),
            argmin: self.agg.argmin().unwrap_or(u64::MAX),
        }
    }
}

impl EnergySink for ProgressSink<'_> {
    fn observe(&mut self, index: u64, energy: f64) {
        self.agg.observe(index, energy);
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.conn.cancel.store(true, Ordering::Relaxed);
            }
        }
        if self.every > 0 && self.agg.count() >= self.next_emit {
            self.next_emit = self.agg.count() + self.every;
            let frame = self.snapshot();
            self.conn.send(&frame);
        }
    }
}

fn run_sweep(shared: &Shared, job: &SweepJob, conn: &JobConn) -> ServeResponse {
    let (sim, cache_hit) = shared.cache.get_or_build(&job.poly, job.spec);
    // Points-parallel with serial per-point kernels: the pinned
    // bit-identical-at-any-pool-size engine, so a serve-lane result
    // matches a one-shot `SweepRunner` scan bit for bit.
    let runner = SweepRunner::from_arc(
        sim,
        SweepOptions {
            exec: ExecPolicy::auto(),
            nested: SweepNesting::PointsParallel,
        },
    );
    let mut sink = ProgressSink {
        agg: LandscapeAggregator::new(job.top_k),
        every: job.progress_every,
        next_emit: job.progress_every.max(1),
        deadline: deadline_of(job.deadline_ms),
        conn,
    };
    let grid = job.grid;
    let points = (0..grid.len()).map(move |i| grid.point(i));
    match runner.scan_into_cancellable(points, job.chunk.max(1), &mut sink, &conn.cancel) {
        Ok(evaluated) => ServeResponse::SweepDone(SweepSummary {
            evaluated,
            sum: sink.agg.sum(),
            min_energy: sink.agg.min_energy().unwrap_or(f64::NAN),
            argmin: sink.agg.argmin().unwrap_or(u64::MAX),
            top_k: sink.agg.top_k().to_vec(),
            cache_hit,
        }),
        Err(SweepError::Cancelled { evaluated }) => ServeResponse::Cancelled { evaluated },
        Err(e) => ServeResponse::Error(e.to_string()),
    }
}

fn run_multistart(shared: &Shared, job: &MultiStartJob, conn: &JobConn) -> ServeResponse {
    if job.bounds.len() != 2 * job.depth || job.depth == 0 {
        return ServeResponse::Error(format!(
            "multistart bounds must have length 2*depth (= {}), got {}",
            2 * job.depth,
            job.bounds.len()
        ));
    }
    if job.restarts == 0 {
        return ServeResponse::Error("multistart needs at least one restart".into());
    }
    let (sim, cache_hit) = shared.cache.get_or_build(&job.poly, job.spec);
    let runner = SweepRunner::from_arc(
        sim,
        SweepOptions {
            exec: ExecPolicy::serial(),
            nested: SweepNesting::PointsParallel,
        },
    );
    let driver = MultiStart {
        method: RestartMethod::NelderMead(NelderMead::default()),
        restarts: job.restarts,
        seed: job.seed,
        bounds: job.bounds.clone(),
    };
    let p = job.depth;
    let deadline = deadline_of(job.deadline_ms);
    let cancel = &conn.cancel;
    let objective = move |x: &[f64]| {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                cancel.store(true, Ordering::Relaxed);
            }
        }
        let point = SweepPoint::new(x[..p].to_vec(), x[p..].to_vec());
        runner.energies(std::slice::from_ref(&point))[0]
    };
    match driver.try_minimize_cancellable(&objective, cancel) {
        Ok(run) => ServeResponse::MultiStartDone(MultiStartSummary {
            best_restart: run.best_restart as u64,
            best_f: run.best().best_f,
            best_x: run.best().best_x.clone(),
            restart_best_fs: run.restarts.iter().map(|r| r.best_f).collect(),
            cache_hit,
        }),
        Err(MultiStartError::Cancelled { completed }) => ServeResponse::Cancelled {
            evaluated: completed as u64,
        },
        Err(e) => ServeResponse::Error(e.to_string()),
    }
}

fn run_lightcone(job: &LightConeJob, conn: &JobConn) -> ServeResponse {
    // Light-cone evaluation has no chunk loop to checkpoint; honor a
    // cancellation or an already-expired deadline before starting (a
    // cone batch is short — bounded by `max_cone_qubits`).
    if let Some(d) = deadline_of(job.deadline_ms) {
        if Instant::now() >= d {
            conn.cancel.store(true, Ordering::Relaxed);
        }
    }
    if conn.cancel.load(Ordering::Relaxed) {
        return ServeResponse::Cancelled { evaluated: 0 };
    }
    let graph = match Graph::try_new(job.n_vertices, job.edges.clone()) {
        Ok(graph) => graph,
        Err(e) => return ServeResponse::Error(e),
    };
    let n_edges = graph.n_edges() as u64;
    let evaluator = LightConeEvaluator::with_options(
        graph,
        LightConeOptions {
            max_cone_qubits: job.max_cone_qubits,
            ..Default::default()
        },
    );
    match evaluator.try_energy(&job.gammas, &job.betas) {
        Ok(run) => ServeResponse::LightConeDone(LightConeSummary {
            energy: run.energy,
            edges: n_edges,
            unique_cones: run.stats.unique_cones as u64,
            cache_hits: run.stats.cache_hits as u64,
        }),
        Err(e) => ServeResponse::Error(e.to_string()),
    }
}
