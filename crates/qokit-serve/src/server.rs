//! The long-lived serve loop: loopback-TCP accept loop, bounded job
//! queue with admission control, lane workers on pools of their own, per-job
//! deadlines + cooperative cancellation, and progress streaming.
//!
//! # Architecture
//!
//! ```text
//!           accept loop (non-blocking poll)
//!                │ one thread per connection
//!                ▼
//!   connection handler ──admission──▶ bounded queue ─────▶ lane workers
//!     reads frames, answers           (outstanding ≤        │ each installs
//!     Ping/CacheStats inline,          QOKIT_SERVE_QUEUE,    │ into its own
//!     submits jobs, then polls         else Rejected)        │ ThreadPool
//!     for Cancel / disconnect         helper entries ──────▶ │ (popped before
//!                ▲                    (≤ lanes − 1 per       │  new jobs)
//!                │                     multi-start job) ◀─┐  ▼
//!                │                                        │ precompute cache
//!                │                                        │ (diagonal / plan,
//!                │                                        │  built on a miss)
//!                │                                        │  ▼
//!                │                                        └─ run job (sweep /
//!                └────── progress + terminal frames ──────── multistart /
//!                        through one shared writer           lightcone)
//! ```
//!
//! Every job kind looks up its angle-independent part in the shared
//! [`PrecomputeCache`] before it runs: sweep and multi-start jobs their
//! cost diagonal, light-cone jobs their cone plan. A light-cone hit runs
//! only the cone simulations and the edge-order accumulate
//! ([`ConePlan::try_evaluate`](qokit_core::lightcone::ConePlan::try_evaluate)),
//! the same evaluate step as the one-shot
//! [`LightConeEvaluator::try_energy`](qokit_core::lightcone::LightConeEvaluator::try_energy),
//! so served and one-shot energies have the same bits.
//!
//! A multi-start job does not hold its lane for all its restarts. Its
//! owning lane wraps them in one [`RestartSet`], queues at most
//! `lanes − 1` helper entries for it, and claims restarts itself; an idle
//! lane pops a helper entry before any new job and claims restarts too,
//! inside its own pool. Nobody waits: a lane that finds no restart
//! left to claim moves on, and the lane that records the last restart
//! writes the job's one terminal frame. Results stay keyed by restart
//! index, so the served run has [`MultiStart::minimize`]'s bits whichever
//! lanes ran it.
//!
//! Admission counts **outstanding** jobs (queued + running), so a
//! saturated server answers `Rejected` deterministically and never
//! hangs a client. Every job carries an `Arc<AtomicBool>` cancel token:
//! an explicit `Cancel` frame, a deadline watchdog (checked in the
//! energy sink / objective), or a write failure to a disconnected
//! client all set it, and the compute layers stop at their next
//! checkpoint ([`SweepRunner::scan_into_cancellable`], the restart claim
//! of a [`RestartSet`]) while sibling jobs finish bit-identically.

use crate::cache::PrecomputeCache;
use crate::proto::{
    decode_request, encode_response, LightConeJob, LightConeSummary, MultiStartJob,
    MultiStartSummary, ServeRequest, ServeResponse, SweepJob, SweepSummary,
};
use qokit_core::batch::{SweepError, SweepNesting, SweepOptions, SweepPoint, SweepRunner};
use qokit_core::landscape::{EnergySink, LandscapeAggregator};
use qokit_core::panic_message;
use qokit_dist::frame::{read_frame, write_frame, FrameReadError};
use qokit_dist::PointSource;
use qokit_optim::{MultiStart, MultiStartError, NelderMead, RestartMethod, RestartSet};
use qokit_statevec::exec::ExecPolicy;
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

/// Why taking the queue lock cannot fail: no code panics while holding it.
const QUEUE_LOCK: &str = "nothing panics while the job queue lock is held";

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
    /// Lane worker threads. With `lanes > 1` (clamped to the pool width
    /// `W`), the server builds one [`rayon::ThreadPool`] of `W / lanes`
    /// workers per lane for the run, so concurrent jobs do not steal each
    /// other's work; a single lane runs its jobs on the ambient pool. A
    /// multi-start job's restarts run on any lane that is free, the
    /// owning lane and up to `lanes − 1` others. Defaults to 2.
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
    /// Helper entries of running multi-start jobs, popped before `jobs`:
    /// each lets one more lane claim that job's restarts. A job queues at
    /// most `lanes − 1` of them; one popped after its job's restarts are
    /// all claimed does nothing and is dropped.
    helpers: VecDeque<Arc<MultiStartWork>>,
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
                    helpers: VecDeque::new(),
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
        // Owned for the run, dropped only after every lane has joined.
        let pools = lane_pools(width, lanes);
        std::thread::scope(|scope| {
            let lane_threads: Vec<_> = (0..lanes)
                .map(|lane| {
                    let (shared, pool) = (&*self.shared, pools.get(lane));
                    scope.spawn(move || lane_loop(shared, pool, lanes))
                })
                .collect();

            while !self.shared.shutdown.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&self.shared);
                        // Handler threads exit with their connection; they
                        // are not joined (a lingering idle client must not
                        // block shutdown).
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
        });
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

/// What a lane pops: a new job, or a helper entry of a running
/// multi-start job.
enum Task {
    Job(QueuedJob),
    Helper(Arc<MultiStartWork>),
}

/// One plain pool of `width / lanes` workers per lane, with `lanes`
/// clamped to `width`; none when that leaves a single lane, which runs its
/// jobs on the ambient pool.
fn lane_pools(width: usize, lanes: usize) -> Vec<rayon::ThreadPool> {
    let lanes = lanes.clamp(1, width.max(1));
    if lanes == 1 {
        return Vec::new();
    }
    (0..lanes)
        .map(|_| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(width / lanes)
                .build()
                .expect("thread pool construction never fails")
        })
        .collect()
}

/// One lane worker: pop tasks and run them (inside this lane's pool when
/// it has one) until shutdown leaves the queue empty. Panics inside a task
/// are contained per job — the lane itself never dies.
fn lane_loop(shared: &Shared, pool: Option<&rayon::ThreadPool>, lanes: usize) {
    while let Some(task) = next_task(shared) {
        run_task(shared, task, pool, lanes);
    }
}

/// Blocks for the next task — helper entries first, since each belongs
/// to a job that is already running — or `None` once shutdown is set and
/// nothing is queued.
fn next_task(shared: &Shared) -> Option<Task> {
    let mut q = shared.queue.lock().expect(QUEUE_LOCK);
    loop {
        if let Some(work) = q.helpers.pop_front() {
            return Some(Task::Helper(work));
        }
        if let Some(job) = q.jobs.pop_front() {
            return Some(Task::Job(job));
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return None;
        }
        q = shared.available.wait(q).expect(QUEUE_LOCK);
    }
}

/// Runs one task and, if it ended its job, does the job's terminal
/// steps. A job whose multi-start restarts other lanes are still running
/// ends on whichever lane records its last restart; this lane moves on.
fn run_task(shared: &Shared, task: Task, pool: Option<&rayon::ThreadPool>, lanes: usize) {
    let conn = match &task {
        Task::Job(job) => &job.conn,
        Task::Helper(work) => &work.conn,
    };
    let run = || match &task {
        Task::Job(job) => run_job(shared, job, lanes),
        Task::Helper(work) => work.run(),
    };
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match pool {
        Some(p) => p.install(run),
        None => run(),
    }));
    let resp = match outcome {
        Ok(Some(resp)) => resp,
        Ok(None) => return,
        Err(payload) => ServeResponse::Error(format!("job panicked: {}", panic_message(payload))),
    };
    finish_job(shared, conn, &resp);
}

/// A job's terminal steps, done at most once per job whichever lane gets
/// here (the `done` swap decides). Ordering matters, twice. `done` before
/// the terminal write: the handler may then stop polling and block on the
/// next request while the frame is still in flight (reads and writes are
/// independent socket directions); set afterwards, a fast client's next
/// request could race into the still-polling handler. The admission slot
/// before the terminal write: a client that has seen a terminal frame
/// must never have its follow-up submission rejected by a slot its own
/// finished job still holds.
///
/// `Relaxed` suffices for the swap: its atomicity alone picks one caller,
/// and the slot count it guards is behind the queue lock.
fn finish_job(shared: &Shared, conn: &JobConn, resp: &ServeResponse) {
    if conn.done.swap(true, Ordering::Relaxed) {
        return;
    }
    shared.queue.lock().expect(QUEUE_LOCK).outstanding -= 1;
    conn.send(resp);
}

fn deadline_of(deadline_ms: u64) -> Option<Instant> {
    (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms))
}

/// Runs a job on its owning lane: the terminal response, or `None` when
/// a multi-start job's last restart is left to another lane.
fn run_job(shared: &Shared, job: &QueuedJob, lanes: usize) -> Option<ServeResponse> {
    match &job.kind {
        JobKind::Sweep(sweep) => Some(run_sweep(shared, sweep, &job.conn)),
        JobKind::MultiStart(ms) => run_multistart(shared, ms, &job.conn, lanes),
        JobKind::LightCone(lc) => Some(run_lightcone(shared, lc, &job.conn)),
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

/// A running multi-start job: its [`RestartSet`] and what a restart's
/// objective needs, shared by the owning lane and the helper entries it
/// queued.
struct MultiStartWork {
    set: RestartSet,
    runner: SweepRunner,
    depth: usize,
    deadline: Option<Instant>,
    cache_hit: bool,
    conn: Arc<JobConn>,
}

impl MultiStartWork {
    /// One restart objective call: the served energy at `x = (γ, β)`,
    /// after checking the deadline (an expired one sets the cancel token,
    /// honored before the next restart is claimed).
    fn objective(&self, x: &[f64]) -> f64 {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.conn.cancel.store(true, Ordering::Relaxed);
            }
        }
        let p = self.depth;
        let point = SweepPoint::new(x[..p].to_vec(), x[p..].to_vec());
        self.runner.energies(std::slice::from_ref(&point))[0]
    }

    /// Runs restarts on the calling lane's pool until none is left to
    /// claim; the terminal response if this call recorded the last one.
    fn run(&self) -> Option<ServeResponse> {
        let outcome = self
            .set
            .run(&|x: &[f64]| self.objective(x), &self.conn.cancel)?;
        Some(match outcome {
            Ok(run) => ServeResponse::MultiStartDone(MultiStartSummary {
                best_restart: run.best_restart as u64,
                best_f: run.best().best_f,
                best_x: run.best().best_x.clone(),
                restart_best_fs: run.restarts.iter().map(|r| r.best_f).collect(),
                cache_hit: self.cache_hit,
            }),
            Err(MultiStartError::Cancelled { completed }) => ServeResponse::Cancelled {
                evaluated: completed as u64,
            },
            Err(e) => ServeResponse::Error(e.to_string()),
        })
    }
}

/// Helper entries a multi-start job queues: one per other lane, and
/// never more than the restarts left after the owning lane's first.
fn helper_count(lanes: usize, restarts: usize) -> usize {
    lanes.saturating_sub(1).min(restarts.saturating_sub(1))
}

/// Starts a multi-start job on its owning lane: queues its helper
/// entries, then claims restarts itself without waiting for the helpers.
fn run_multistart(
    shared: &Shared,
    job: &MultiStartJob,
    conn: &Arc<JobConn>,
    lanes: usize,
) -> Option<ServeResponse> {
    if job.bounds.len() != 2 * job.depth || job.depth == 0 {
        return Some(ServeResponse::Error(format!(
            "multistart bounds must have length 2*depth (= {}), got {}",
            2 * job.depth,
            job.bounds.len()
        )));
    }
    if job.restarts == 0 {
        return Some(ServeResponse::Error(
            "multistart needs at least one restart".into(),
        ));
    }
    let set = match RestartSet::new(MultiStart {
        method: RestartMethod::NelderMead(NelderMead::default()),
        restarts: job.restarts,
        seed: job.seed,
        bounds: job.bounds.clone(),
    }) {
        Ok(set) => set,
        Err(e) => return Some(ServeResponse::Error(e.to_string())),
    };
    let (sim, cache_hit) = shared.cache.get_or_build(&job.poly, job.spec);
    let work = Arc::new(MultiStartWork {
        set,
        runner: SweepRunner::from_arc(
            sim,
            SweepOptions {
                exec: ExecPolicy::serial(),
                nested: SweepNesting::PointsParallel,
            },
        ),
        depth: job.depth,
        deadline: deadline_of(job.deadline_ms),
        cache_hit,
        conn: Arc::clone(conn),
    });
    let helpers = helper_count(lanes, job.restarts);
    if helpers > 0 {
        let mut q = shared.queue.lock().expect(QUEUE_LOCK);
        q.helpers
            .extend(std::iter::repeat_with(|| Arc::clone(&work)).take(helpers));
        drop(q);
        for _ in 0..helpers {
            shared.available.notify_one();
        }
    }
    work.run()
}

fn run_lightcone(shared: &Shared, job: &LightConeJob, conn: &JobConn) -> ServeResponse {
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
    let cached = match shared.cache.get_or_plan(job) {
        Ok((cached, _)) => cached,
        Err(e) => return ServeResponse::Error(e),
    };
    let (plan, edges) = (cached.plan(), cached.edges());
    match plan.try_evaluate(edges, &job.gammas, &job.betas, ExecPolicy::auto()) {
        Ok(run) => ServeResponse::LightConeDone(LightConeSummary {
            energy: run.energy,
            edges: run.stats.edges as u64,
            unique_cones: run.stats.unique_cones as u64,
            cache_hits: run.stats.cache_hits as u64,
        }),
        Err(e) => ServeResponse::Error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::decode_response;
    use qokit_costvec::PrecomputeMethod;
    use qokit_dist::wire::SweepSimSpec;
    use qokit_statevec::exec::Layout;
    use qokit_terms::labs::labs_terms;
    use rayon::prelude::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    fn shared() -> Shared {
        Shared {
            cache: PrecomputeCache::new(1 << 20),
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                helpers: VecDeque::new(),
                outstanding: 0,
            }),
            available: Condvar::new(),
            capacity: 1,
            shutdown: AtomicBool::new(false),
        }
    }

    /// A job connection on loopback, and the client end of its socket.
    fn job_conn() -> (Arc<JobConn>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        let conn = Arc::new(JobConn {
            stream: Mutex::new(server_end),
            cancel: Arc::new(AtomicBool::new(false)),
            done: Arc::new(AtomicBool::new(false)),
        });
        (conn, client)
    }

    /// Every frame that reaches the client end within a short wait.
    fn frames(client: &mut TcpStream) -> Vec<ServeResponse> {
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut out = Vec::new();
        while let Ok((payload, _)) = read_frame(client) {
            out.push(decode_response(&payload).unwrap());
        }
        out
    }

    fn multistart_job(restarts: usize) -> MultiStartJob {
        MultiStartJob {
            poly: labs_terms(5),
            spec: SweepSimSpec {
                precompute: PrecomputeMethod::Direct,
                quantize_u16: false,
                layout: Layout::Split,
            },
            depth: 1,
            restarts,
            seed: 5,
            bounds: vec![(-0.5, 0.5), (-0.4, 0.4)],
            deadline_ms: 0,
        }
    }

    /// A job admitted the way the connection handler admits it.
    fn admit(shared: &Shared, kind: JobKind, conn: &Arc<JobConn>) {
        let mut q = shared.queue.lock().unwrap();
        q.outstanding += 1;
        q.jobs.push_back(QueuedJob {
            kind,
            conn: Arc::clone(conn),
        });
    }

    /// The owning lane queues at most `lanes − 1` helper entries per
    /// multi-start job, whatever the restart count. With no other lane
    /// to pop them it runs every restart itself and ends the job; each
    /// helper entry popped afterwards finds the cursor used up, does
    /// nothing, and neither writes a second terminal frame nor releases
    /// the admission slot again.
    #[test]
    fn a_job_queues_at_most_lanes_minus_one_helpers_and_used_up_ones_do_nothing() {
        for lanes in 1..=4 {
            for restarts in [1, 2, 3, 16] {
                let shared = shared();
                let (conn, mut client) = job_conn();
                admit(
                    &shared,
                    JobKind::MultiStart(multistart_job(restarts)),
                    &conn,
                );
                let Some(owner @ Task::Job(_)) = next_task(&shared) else {
                    panic!("the job is the only task")
                };
                run_task(&shared, owner, None, lanes);
                let helpers = shared.queue.lock().unwrap().helpers.len();
                assert_eq!(helpers, helper_count(lanes, restarts));
                assert!(helpers < lanes, "lanes {lanes}, restarts {restarts}");
                assert!(conn.done.load(Ordering::Relaxed));

                while let Some(task) = {
                    let mut q = shared.queue.lock().unwrap();
                    q.helpers.pop_front().map(Task::Helper)
                } {
                    run_task(&shared, task, None, lanes);
                }
                assert_eq!(shared.queue.lock().unwrap().outstanding, 0);
                match frames(&mut client).as_slice() {
                    [ServeResponse::MultiStartDone(s)] => {
                        assert_eq!(s.restart_best_fs.len(), restarts)
                    }
                    other => panic!("expected one MultiStartDone frame, got {other:?}"),
                }
            }
        }
    }

    /// A lane pool per lane of `width / lanes` workers, none for one lane;
    /// two lanes installing at once each see their own width and run on
    /// disjoint threads.
    #[test]
    fn lane_pools_split_the_width_and_run_side_by_side() {
        let widths = |width, lanes| -> Vec<usize> {
            lane_pools(width, lanes)
                .iter()
                .map(|p| p.current_num_threads())
                .collect()
        };
        assert_eq!(widths(4, 2), [2, 2]);
        assert_eq!(widths(3, 2), [1, 1]);
        assert_eq!(widths(1, 2), [0usize; 0]);
        assert_eq!(widths(2, 1), [0usize; 0]);

        let pools = lane_pools(4, 2);
        let barrier = &Barrier::new(2);
        let seen: Vec<(usize, HashSet<ThreadId>)> = std::thread::scope(|scope| {
            let lanes: Vec<_> = pools
                .iter()
                .map(|pool| {
                    scope.spawn(move || {
                        pool.install(|| {
                            // Both lanes are inside their pools from here on.
                            barrier.wait();
                            let ids: Vec<ThreadId> = (0..64)
                                .into_par_iter()
                                .with_min_len(1)
                                .map(|_| std::thread::current().id())
                                .collect();
                            (rayon::current_num_threads(), ids.into_iter().collect())
                        })
                    })
                })
                .collect();
            lanes.into_iter().map(|l| l.join().unwrap()).collect()
        });
        assert_eq!(seen[0].0, 2);
        assert_eq!(seen[1].0, 2);
        assert!(seen[0].1.is_disjoint(&seen[1].1));
    }

    /// A job's terminal steps run once even when two lanes reach them.
    #[test]
    fn terminal_steps_run_once_per_job() {
        let shared = shared();
        let (conn, mut client) = job_conn();
        shared.queue.lock().unwrap().outstanding = 1;
        finish_job(&shared, &conn, &ServeResponse::Cancelled { evaluated: 1 });
        finish_job(&shared, &conn, &ServeResponse::Error("second".into()));
        assert_eq!(shared.queue.lock().unwrap().outstanding, 0);
        assert_eq!(
            frames(&mut client),
            vec![ServeResponse::Cancelled { evaluated: 1 }]
        );
    }
}
