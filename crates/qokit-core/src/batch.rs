//! Batched `(γ, β)` parameter sweeps on the work-stealing pool.
//!
//! The paper's headline use case is parameter *optimization* (Fig. 1): the
//! simulator is called thousands of times over one fixed cost vector while
//! only the angles change. A [`SweepRunner`] exploits that shape directly —
//! the precomputed [`CostVec`](qokit_costvec::CostVec) is shared across
//! workers through one [`Arc`]`<`[`FurSimulator`]`>`, split-plane state
//! buffers are recycled through a per-worker pool instead of being
//! reallocated per point, and the points of a batch run as pool tasks under
//! an [`ExecPolicy`]. Each batch fills its initial planes once; every point
//! copies them into a recycled buffer, evolves it, and takes the split
//! objective, so an energy never transposes or allocates.
//!
//! The [`SweepNesting`] knob picks where the parallelism goes:
//!
//! * [`SweepNesting::PointsParallel`] — one point per pool task, kernels
//!   inside each evaluation strictly serial. Energies are **bit-identical**
//!   to a serial sequential loop, regardless of pool size — the mode
//!   deterministic optimizer drivers rely on.
//! * [`SweepNesting::KernelsParallel`] — points evaluated one at a time,
//!   each with fully parallel kernels. The right mode when points are few
//!   and states are large.
//! * [`SweepNesting::Split`] — point×kernel nesting between the two
//!   extremes: the pool is carved into disjoint worker subsets
//!   ([`rayon::SubsetPool`]), one lane per concurrent point, each lane's
//!   kernels parallel within its own subset — e.g. 4 points × 4 kernel
//!   workers on a 16-worker pool.
//! * [`SweepNesting::Auto`] — picks among the three from batch size,
//!   state size `2^n`, and pool width.
//!
//! ```
//! use qokit_core::batch::{SweepPoint, SweepRunner};
//! use qokit_core::FurSimulator;
//! use qokit_terms::maxcut::all_to_all_terms;
//!
//! let sim = FurSimulator::new(&all_to_all_terms(8, 0.5));
//! let runner = SweepRunner::new(sim);
//! // A 3-point sweep of the p = 1 (γ, β) plane.
//! let energies = runner.energies_p1(&[(0.1, 0.4), (0.2, 0.4), (0.3, 0.4)]);
//! assert_eq!(energies.len(), 3);
//! assert!(energies.iter().all(|e| e.is_finite()));
//! ```

use crate::landscape::EnergySink;
use crate::simulator::{FurSimulator, QaoaSimulator};
use qokit_statevec::exec::{Backend, ExecPolicy};
use qokit_statevec::{SplitStateVec, StateVec};
use rayon::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One evaluation point of a sweep: the `p`-layer angle schedules.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Phase angles `γ_1..γ_p`.
    pub gammas: Vec<f64>,
    /// Mixer angles `β_1..β_p`.
    pub betas: Vec<f64>,
}

impl SweepPoint {
    /// A point with explicit schedules (lengths are validated at
    /// evaluation time, where a mismatch poisons only this point).
    pub fn new(gammas: Vec<f64>, betas: Vec<f64>) -> Self {
        SweepPoint { gammas, betas }
    }

    /// A depth-1 point — the `(γ, β)` plane of grid searches.
    pub fn p1(gamma: f64, beta: f64) -> Self {
        SweepPoint {
            gammas: vec![gamma],
            betas: vec![beta],
        }
    }

    /// Circuit depth `p` of this point.
    pub fn depth(&self) -> usize {
        self.gammas.len()
    }
}

/// Where a batched sweep puts its parallelism (the `nested` knob).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SweepNesting {
    /// One point per pool task; kernels inside each evaluation run
    /// serially. Deterministic: results are bit-identical to a serial
    /// sequential loop for any pool size.
    ///
    /// ```
    /// use qokit_core::batch::{SweepNesting, SweepOptions, SweepPoint, SweepRunner};
    /// use qokit_core::{FurSimulator, QaoaSimulator};
    /// use qokit_statevec::ExecPolicy;
    /// use qokit_terms::labs::labs_terms;
    ///
    /// let runner = SweepRunner::with_options(
    ///     FurSimulator::new(&labs_terms(5)),
    ///     SweepOptions {
    ///         exec: ExecPolicy::rayon().with_threads(2), // 2-worker pool
    ///         nested: SweepNesting::PointsParallel,
    ///     },
    /// );
    /// let points: Vec<SweepPoint> =
    ///     (0..4).map(|i| SweepPoint::p1(0.1 * i as f64, 0.4)).collect();
    /// // Serial kernels inside each point: bit-identical to solo calls.
    /// for (p, e) in points.iter().zip(runner.energies(&points)) {
    ///     let solo = runner.simulator().objective(&p.gammas, &p.betas);
    ///     assert_eq!(e.to_bits(), solo.to_bits());
    /// }
    /// ```
    PointsParallel,
    /// Points evaluated one at a time, each with parallel kernels —
    /// preferable for few points over large states.
    ///
    /// ```
    /// use qokit_core::batch::{SweepNesting, SweepOptions, SweepPoint, SweepRunner};
    /// use qokit_core::{FurSimulator, QaoaSimulator};
    /// use qokit_statevec::ExecPolicy;
    /// use qokit_terms::labs::labs_terms;
    ///
    /// let runner = SweepRunner::with_options(
    ///     FurSimulator::new(&labs_terms(6)),
    ///     SweepOptions {
    ///         // min_len 1 forces the parallel kernel path even at n = 6.
    ///         exec: ExecPolicy::rayon().with_threads(2).with_min_len(1),
    ///         nested: SweepNesting::KernelsParallel,
    ///     },
    /// );
    /// let point = SweepPoint::p1(0.2, 0.5);
    /// let batched = runner.energies(std::slice::from_ref(&point))[0];
    /// let solo = runner.simulator().objective(&point.gammas, &point.betas);
    /// assert!((batched - solo).abs() < 1e-12);
    /// ```
    KernelsParallel,
    /// Point×kernel nesting between the two extremes: the pool is split
    /// into `points` disjoint worker subsets
    /// ([`rayon::SubsetPool`]) of `kernels_per_point` workers each;
    /// every subset evaluates a strided share of the batch with kernels
    /// parallel *within its subset only*. The right shape for mid-size
    /// batches of large states — e.g. 4 points × 4 kernel workers on a
    /// 16-worker pool. Shapes that don't fit the pool are clamped (never
    /// an error): lanes cap at `min(batch, width)` and workers per lane
    /// at `width / lanes`, so any `(points, kernels_per_point)` is valid
    /// at any pool size, degenerating to a sequential kernels-parallel
    /// loop on one worker.
    ///
    /// ```
    /// use qokit_core::batch::{SweepNesting, SweepOptions, SweepPoint, SweepRunner};
    /// use qokit_core::{FurSimulator, QaoaSimulator};
    /// use qokit_statevec::ExecPolicy;
    /// use qokit_terms::labs::labs_terms;
    ///
    /// // A 2-worker pool carved into 2 lanes x 1 kernel worker each.
    /// let runner = SweepRunner::with_options(
    ///     FurSimulator::new(&labs_terms(6)),
    ///     SweepOptions {
    ///         exec: ExecPolicy::rayon().with_threads(2).with_min_len(1),
    ///         nested: SweepNesting::Split { points: 2, kernels_per_point: 1 },
    ///     },
    /// );
    /// let points: Vec<SweepPoint> =
    ///     (0..5).map(|i| SweepPoint::p1(0.1 * i as f64, 0.3)).collect();
    /// for (p, e) in points.iter().zip(runner.energies(&points)) {
    ///     let solo = runner.simulator().objective(&p.gammas, &p.betas);
    ///     assert!((e - solo).abs() < 1e-12);
    /// }
    /// ```
    Split {
        /// Number of concurrent evaluation lanes (worker subsets).
        points: usize,
        /// Pool workers owned by each lane's kernels.
        kernels_per_point: usize,
    },
    /// Heuristic pick from batch size, state size `2^n`, and pool width:
    /// [`PointsParallel`](SweepNesting::PointsParallel) when the batch
    /// saturates the pool (or states are too small to split profitably),
    /// [`KernelsParallel`](SweepNesting::KernelsParallel) for a lone
    /// point, and [`Split`](SweepNesting::Split) in between, with lanes =
    /// batch size and the remaining workers shared per lane.
    ///
    /// ```
    /// use qokit_core::batch::{SweepNesting, SweepOptions, SweepPoint, SweepRunner};
    /// use qokit_core::FurSimulator;
    /// use qokit_statevec::ExecPolicy;
    /// use qokit_terms::labs::labs_terms;
    ///
    /// let runner = SweepRunner::with_options(
    ///     FurSimulator::new(&labs_terms(5)),
    ///     SweepOptions {
    ///         exec: ExecPolicy::rayon().with_threads(2),
    ///         nested: SweepNesting::Auto, // resolved per batch, inside the pool
    ///     },
    /// );
    /// let energies = runner.energies_p1(&[(0.1, 0.4), (0.2, 0.3), (0.3, 0.2)]);
    /// assert_eq!(energies.len(), 3);
    /// assert!(energies.iter().all(|e| e.is_finite()));
    /// ```
    Auto,
}

/// Configuration for a [`SweepRunner`].
#[derive(Copy, Clone, Debug)]
pub struct SweepOptions {
    /// Pool policy the sweep executes under. With a serial backend the
    /// whole batch degenerates to a plain sequential loop (the reference
    /// semantics every other mode is pinned against).
    pub exec: ExecPolicy,
    /// Parallelism placement.
    pub nested: SweepNesting,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            exec: ExecPolicy::auto(),
            nested: SweepNesting::Auto,
        }
    }
}

/// Error from a batched evaluation: the failing point's index and the
/// panic message it produced, or a cooperative cancellation. A panic
/// poisons only its own point — the rest of the batch completes and the
/// pool stays reusable; a cancellation stops cleanly at the next chunk
/// boundary with the pool equally reusable.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepError {
    /// One point's evaluation panicked.
    PointPanicked {
        /// Index of the poisoned point within the batch.
        index: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The scan's cancel flag was observed set at a chunk boundary
    /// ([`SweepRunner::scan_into_cancellable`]). Points `0..evaluated`
    /// were fully evaluated and observed by the sink; later points were
    /// never started.
    Cancelled {
        /// Number of points evaluated before the scan stopped.
        evaluated: u64,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::PointPanicked { index, message } => {
                write!(f, "sweep point {index} panicked: {message}")
            }
            SweepError::Cancelled { evaluated } => {
                write!(f, "sweep cancelled after {evaluated} points")
            }
        }
    }
}

impl std::error::Error for SweepError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Recycled plane buffers, sharded by pool-worker index so concurrent
/// tasks rarely contend on one lock. Shard 0 serves threads outside any
/// pool; worker `i` maps to shard `1 + i mod (shards − 1)`.
#[derive(Debug)]
struct BufferPool {
    shards: Vec<Mutex<Vec<SplitStateVec>>>,
}

impl BufferPool {
    fn new() -> Self {
        // Sized past the ambient pool (floored at 8) so sweeps later
        // installed into a larger explicit `with_threads` pool keep low
        // shard contention: workers beyond the shard count share shards
        // via the modulo in `shard()` (contention, never corruption), and
        // empty spare shards cost one Mutex each.
        let shards = rayon::current_num_threads().max(8) + 1;
        BufferPool {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn shard(&self) -> &Mutex<Vec<SplitStateVec>> {
        let idx =
            rayon::current_thread_index().map_or(0, |i| 1 + i % (self.shards.len() - 1).max(1));
        &self.shards[idx.min(self.shards.len() - 1)]
    }

    /// A buffer of the right dimension; contents are unspecified (every
    /// evaluation overwrites it with the initial state first).
    fn checkout(&self, n_qubits: usize) -> SplitStateVec {
        let recycled = Self::lock_recovering(self.shard()).pop();
        match recycled {
            Some(buf) if buf.n_qubits() == n_qubits => buf,
            _ => SplitStateVec::zero_state(n_qubits),
        }
    }

    fn checkin(&self, buf: SplitStateVec) {
        Self::lock_recovering(self.shard()).push(buf);
    }

    /// Locks a shard, recovering from poison: a panic while a shard lock
    /// was held (e.g. an allocation failure inside `push`) must not make
    /// the *next* sweep panic in the recycler — pools stay reusable. The
    /// shard is cleared on recovery; recycled buffers are pure caches
    /// (contents are unspecified by contract), so dropping them is always
    /// sound and re-checkouts simply allocate fresh.
    fn lock_recovering(
        shard: &Mutex<Vec<SplitStateVec>>,
    ) -> std::sync::MutexGuard<'_, Vec<SplitStateVec>> {
        shard.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        })
    }
}

/// Batched evaluator of many `(γ, β)` points over one shared simulator.
///
/// Results are always **keyed by point index** — slot `i` of the output
/// holds point `i`'s value no matter which worker computed it or in what
/// order tasks completed.
///
/// ```
/// use qokit_core::batch::{SweepNesting, SweepOptions, SweepPoint, SweepRunner};
/// use qokit_core::{FurSimulator, QaoaSimulator};
/// use qokit_statevec::ExecPolicy;
/// use qokit_terms::labs::labs_terms;
///
/// let sim = FurSimulator::new(&labs_terms(7));
/// let runner = SweepRunner::with_options(
///     sim,
///     SweepOptions {
///         exec: ExecPolicy::rayon(),
///         nested: SweepNesting::PointsParallel,
///     },
/// );
/// let points: Vec<SweepPoint> = (0..8)
///     .map(|i| SweepPoint::p1(0.05 * i as f64, 0.4))
///     .collect();
/// // Batched energies match one-at-a-time objective calls.
/// let batched = runner.energies(&points);
/// for (p, e) in points.iter().zip(&batched) {
///     let solo = runner.simulator().objective(&p.gammas, &p.betas);
///     assert!((e - solo).abs() < 1e-12);
/// }
/// ```
#[derive(Debug)]
pub struct SweepRunner {
    sim: Arc<FurSimulator>,
    opts: SweepOptions,
    buffers: BufferPool,
}

impl SweepRunner {
    /// Wraps a simulator with default sweep options
    /// ([`ExecPolicy::auto`], [`SweepNesting::Auto`]).
    pub fn new(sim: FurSimulator) -> Self {
        Self::with_options(sim, SweepOptions::default())
    }

    /// Wraps a simulator with explicit sweep options.
    pub fn with_options(sim: FurSimulator, opts: SweepOptions) -> Self {
        Self::from_arc(Arc::new(sim), opts)
    }

    /// Builds a runner on an already-shared simulator — several runners
    /// (or a runner plus direct callers) can reference one cost vector
    /// without duplicating the `2^n` diagonal.
    pub fn from_arc(sim: Arc<FurSimulator>, opts: SweepOptions) -> Self {
        SweepRunner {
            sim,
            opts,
            buffers: BufferPool::new(),
        }
    }

    /// The shared simulator (and, through it, the shared cost vector).
    pub fn simulator(&self) -> &Arc<FurSimulator> {
        &self.sim
    }

    /// The configured sweep options.
    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// Test hook: poisons the calling thread's recycler shard by panicking
    /// while its lock is held. Exists to pin the poison-recovery contract
    /// (a poisoned shard must not panic later sweeps); not part of the
    /// public API.
    #[doc(hidden)]
    pub fn debug_poison_recycler(&self) {
        let shard = self.buffers.shard();
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = shard.lock().unwrap_or_else(|e| e.into_inner());
                panic!("poisoning the recycler shard");
            });
            assert!(handle.join().is_err());
        });
        assert!(shard.is_poisoned(), "shard must be poisoned for the test");
    }

    /// Evaluates every point, extracting a value from each evolved state
    /// with `eval`. The closure receives the shared simulator, the evolved
    /// state, and the kernel policy the point ran under (serial in
    /// points-parallel mode — reductions inside `eval` must honor it for
    /// the sweep to stay deterministic across pool sizes). Points evolve on
    /// split planes; each is interleaved once into the `StateVec` handed
    /// to `eval`.
    pub fn evaluate_with<R, F>(&self, points: &[SweepPoint], eval: F) -> Vec<Result<R, SweepError>>
    where
        R: Send,
        F: Fn(&FurSimulator, &StateVec, ExecPolicy) -> R + Sync,
    {
        self.evaluate_planes(points, |sim, planes, policy| {
            eval(sim, &planes.to_state_vec(), policy)
        })
    }

    /// [`evaluate_with`](Self::evaluate_with) on the evolved planes
    /// themselves: the engine every batched evaluation runs.
    fn evaluate_planes<R, F>(&self, points: &[SweepPoint], eval: F) -> Vec<Result<R, SweepError>>
    where
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let policy = self.opts.exec;
        if matches!(policy.backend, Backend::Serial) {
            // Keep the thresholds — only force one worker.
            return self.run_sequential(
                points,
                ExecPolicy {
                    threads: 0,
                    ..policy
                },
                &eval,
            );
        }
        policy.install(|| match self.resolve_nesting(points.len()) {
            SweepNesting::PointsParallel => self.run_points_parallel(points, &eval),
            SweepNesting::Split {
                points: lanes,
                kernels_per_point,
            } => self.run_split(points, lanes, kernels_per_point, policy, &eval),
            _ => self.run_sequential(
                points,
                ExecPolicy {
                    threads: 0,
                    ..policy
                },
                &eval,
            ),
        })
    }

    /// Batched QAOA energies `⟨ψ(γ,β)|Ĉ|ψ(γ,β)⟩`, one per point, keyed by
    /// point index.
    ///
    /// # Panics
    /// If a point's evaluation panicked (with that point's message); use
    /// [`try_energies`](Self::try_energies) for the recoverable form.
    pub fn energies(&self, points: &[SweepPoint]) -> Vec<f64> {
        self.try_energies(points).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Batched energies, or the first (lowest-index) failure as a clean
    /// error. The remaining points still evaluate and the pool remains
    /// reusable afterwards.
    pub fn try_energies(&self, points: &[SweepPoint]) -> Result<Vec<f64>, SweepError> {
        self.energies_checked(points).into_iter().collect()
    }

    /// Per-point energies with per-point failure: slot `i` is `Err` iff
    /// point `i` panicked.
    pub fn energies_checked(&self, points: &[SweepPoint]) -> Vec<Result<f64, SweepError>> {
        self.evaluate_planes(points, |sim, state, policy| {
            let (re, im) = state.planes();
            sim.cost_diagonal().expectation_split(re, im, policy)
        })
    }

    /// Depth-1 convenience: energies over `(γ, β)` pairs — the shape grid
    /// and random searches consume.
    pub fn energies_p1(&self, points: &[(f64, f64)]) -> Vec<f64> {
        let points: Vec<SweepPoint> = points.iter().map(|&(g, b)| SweepPoint::p1(g, b)).collect();
        self.energies(&points)
    }

    /// Evaluates one batch and folds every energy into `sink` in
    /// point-index order (global indices `base..base + points.len()`),
    /// instead of returning a vector — the aggregator-sink form landscape
    /// scans use so a huge sweep never materializes more than one batch of
    /// energies. Every non-poisoned point is observed even when one point
    /// panics; the error (carrying the *global* index of the lowest
    /// poisoned point) is returned after the batch completed.
    pub fn fold_energies_into<S: EnergySink>(
        &self,
        base: u64,
        points: &[SweepPoint],
        sink: &mut S,
    ) -> Result<(), SweepError> {
        let mut first_err = None;
        for (i, result) in self.energies_checked(points).into_iter().enumerate() {
            match result {
                Ok(e) => sink.observe(base + i as u64, e),
                Err(SweepError::PointPanicked { message, .. }) => {
                    if first_err.is_none() {
                        first_err = Some(SweepError::PointPanicked {
                            index: base as usize + i,
                            message,
                        });
                    }
                }
                // Per-point evaluation never reports a cancellation (that
                // is a scan-loop concern); keep any such error as-is.
                Err(other) => {
                    if first_err.is_none() {
                        first_err = Some(other);
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Streams an arbitrarily long point sequence through `sink`, `chunk`
    /// points per batched dispatch, reusing one chunk buffer — peak memory
    /// is O(`chunk`) regardless of scan length, and the observation order
    /// (strict point-index order) is independent of `chunk`. Returns the
    /// number of points evaluated, or the first poisoned point's error
    /// (with its global index; later chunks are not started).
    ///
    /// ```
    /// use qokit_core::batch::{SweepPoint, SweepRunner};
    /// use qokit_core::landscape::LandscapeAggregator;
    /// use qokit_core::FurSimulator;
    /// use qokit_terms::labs::labs_terms;
    ///
    /// let runner = SweepRunner::new(FurSimulator::new(&labs_terms(6)));
    /// let mut agg = LandscapeAggregator::new(4);
    /// let n = runner
    ///     .scan_into(
    ///         (0..100).map(|i| SweepPoint::p1(0.01 * i as f64, 0.4)),
    ///         16, // 7 chunks — same observations as any other chunking
    ///         &mut agg,
    ///     )
    ///     .unwrap();
    /// assert_eq!(n, 100);
    /// assert_eq!(agg.count(), 100);
    /// assert!(agg.argmin().is_some());
    /// ```
    pub fn scan_into<I, S>(&self, points: I, chunk: usize, sink: &mut S) -> Result<u64, SweepError>
    where
        I: IntoIterator<Item = SweepPoint>,
        S: EnergySink,
    {
        static NEVER: AtomicBool = AtomicBool::new(false);
        self.scan_into_cancellable(points, chunk, sink, &NEVER)
    }

    /// [`scan_into`](Self::scan_into) with a cooperative cancellation
    /// checkpoint at every chunk boundary: before dispatching a chunk the
    /// scan loads `cancel` (`Relaxed`; any store made before the load is
    /// honored) and, when set, stops with [`SweepError::Cancelled`]
    /// carrying the number of points already evaluated — which is always a
    /// multiple of `chunk` boundaries, so every observed point was folded
    /// completely and in order. The runner, its buffers, and the pool stay
    /// fully reusable afterwards; a scan that was never cancelled is
    /// bit-identical to [`scan_into`](Self::scan_into).
    ///
    /// Deadlines compose on top: a watchdog (or the sink itself) sets the
    /// flag and the scan stops within one chunk of work.
    ///
    /// ```
    /// use qokit_core::batch::{SweepError, SweepPoint, SweepRunner};
    /// use qokit_core::landscape::LandscapeAggregator;
    /// use qokit_core::FurSimulator;
    /// use qokit_terms::labs::labs_terms;
    /// use std::sync::atomic::AtomicBool;
    ///
    /// let runner = SweepRunner::new(FurSimulator::new(&labs_terms(6)));
    /// let mut agg = LandscapeAggregator::new(4);
    /// let cancel = AtomicBool::new(true); // already cancelled
    /// let r = runner.scan_into_cancellable(
    ///     (0..100).map(|i| SweepPoint::p1(0.01 * i as f64, 0.4)),
    ///     16,
    ///     &mut agg,
    ///     &cancel,
    /// );
    /// assert_eq!(r, Err(SweepError::Cancelled { evaluated: 0 }));
    /// assert_eq!(agg.count(), 0);
    /// ```
    pub fn scan_into_cancellable<I, S>(
        &self,
        points: I,
        chunk: usize,
        sink: &mut S,
        cancel: &AtomicBool,
    ) -> Result<u64, SweepError>
    where
        I: IntoIterator<Item = SweepPoint>,
        S: EnergySink,
    {
        assert!(chunk > 0, "chunk size must be at least 1");
        let mut iter = points.into_iter();
        let mut buf: Vec<SweepPoint> = Vec::with_capacity(chunk);
        let mut base = 0u64;
        loop {
            if cancel.load(Ordering::Relaxed) {
                return Err(SweepError::Cancelled { evaluated: base });
            }
            buf.clear();
            buf.extend(iter.by_ref().take(chunk));
            if buf.is_empty() {
                return Ok(base);
            }
            self.fold_energies_into(base, &buf, sink)?;
            base += buf.len() as u64;
        }
    }

    /// Resolves `Auto` into a concrete mode. Must run inside the sweep
    /// policy's `install`, where `rayon::current_num_threads()` is the
    /// width of the pool the batch will actually execute on.
    fn resolve_nesting(&self, n_points: usize) -> SweepNesting {
        match self.opts.nested {
            SweepNesting::Auto => {
                let width = rayon::current_num_threads().max(1);
                let n = self.sim.n_qubits();
                // States too small for the kernels' parallel path (per the
                // policy's own min_len gate) make kernel workers useless.
                let kernels_can_split =
                    n < usize::BITS as usize && (1usize << n) >= self.opts.exec.min_len;
                if n_points >= width || !kernels_can_split {
                    SweepNesting::PointsParallel
                } else if n_points <= 1 || width == 1 {
                    SweepNesting::KernelsParallel
                } else {
                    // Mid-size batch of large states: one lane per point,
                    // leftover workers shared evenly among the lanes.
                    let lanes = n_points;
                    let kernels_per_point = width / lanes;
                    if kernels_per_point <= 1 {
                        SweepNesting::PointsParallel
                    } else {
                        SweepNesting::Split {
                            points: lanes,
                            kernels_per_point,
                        }
                    }
                }
            }
            mode => mode,
        }
    }

    /// Point×kernel nesting via [`rayon::strided_lanes`]: `lanes` worker
    /// subsets of `kernels_per_point` workers each, every lane evaluating a
    /// strided share of the batch with kernels parallel inside its own
    /// subset (one `install` per lane, not per point). Shapes are clamped
    /// to the pool (see [`SweepNesting::Split`]); results stay keyed by
    /// point index regardless of lane assignment or completion order, and
    /// a single surviving lane degenerates to exactly kernels-parallel.
    fn run_split<R, F>(
        &self,
        points: &[SweepPoint],
        lanes: usize,
        kernels_per_point: usize,
        policy: ExecPolicy,
        eval: &F,
    ) -> Vec<Result<R, SweepError>>
    where
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        // Kernels inherit each lane's ambient subset: threads must be 0 so
        // `ExecPolicy::install` inside the evaluation is a no-op rather
        // than an escape into a differently-sized pool.
        let inner = ExecPolicy {
            threads: 0,
            ..policy
        };
        let init = self.sim.initial_planes();
        // eval_one contains each point's panic, so one poisoned point
        // cannot abort its lane.
        rayon::strided_lanes(points.len(), lanes, kernels_per_point, |index| {
            self.eval_one(index, &points[index], &init, inner, eval)
        })
    }

    /// One point per pool task, serial kernels inside.
    fn run_points_parallel<R, F>(
        &self,
        points: &[SweepPoint],
        eval: &F,
    ) -> Vec<Result<R, SweepError>>
    where
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let init = self.sim.initial_planes();
        let inner = ExecPolicy::serial();
        // The position-preserving parallel collect keeps slot i = point i.
        points
            .par_iter()
            .with_min_len(1)
            .enumerate()
            .map(|(index, point)| self.eval_one(index, point, &init, inner, eval))
            .collect()
    }

    /// Sequential outer loop; kernels run under `inner` (parallel in
    /// kernels-parallel mode, serial when the whole runner is serial).
    fn run_sequential<R, F>(
        &self,
        points: &[SweepPoint],
        inner: ExecPolicy,
        eval: &F,
    ) -> Vec<Result<R, SweepError>>
    where
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let init = self.sim.initial_planes();
        points
            .iter()
            .enumerate()
            .map(|(index, point)| self.eval_one(index, point, &init, inner, eval))
            .collect()
    }

    fn eval_one<R, F>(
        &self,
        index: usize,
        point: &SweepPoint,
        init: &SplitStateVec,
        inner: ExecPolicy,
        eval: &F,
    ) -> Result<R, SweepError>
    where
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let mut buf = self.buffers.checkout(init.n_qubits());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            buf.copy_from(init);
            self.sim
                .evolve_planes(&mut buf, &point.gammas, &point.betas, inner);
            eval(&self.sim, &buf, inner)
        }));
        // A poisoned buffer is still safe to recycle: the next evaluation
        // overwrites it with the initial state before any kernel runs.
        self.buffers.checkin(buf);
        outcome.map_err(|payload| SweepError::PointPanicked {
            index,
            message: panic_message(payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::LandscapeAggregator;
    use crate::simulator::{QaoaSimulator, SimOptions};
    use crate::Mixer;
    use qokit_terms::labs::labs_terms;

    fn serial_sim(n: usize) -> FurSimulator {
        FurSimulator::with_options(
            &labs_terms(n),
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        )
    }

    fn points(k: usize) -> Vec<SweepPoint> {
        (0..k)
            .map(|i| {
                SweepPoint::new(
                    vec![0.05 * i as f64, -0.1],
                    vec![0.4 - 0.02 * i as f64, 0.2],
                )
            })
            .collect()
    }

    #[test]
    fn batched_matches_sequential_loop_bit_identically() {
        let sim = serial_sim(7);
        let reference: Vec<f64> = points(9)
            .iter()
            .map(|p| {
                let mut s = sim.initial_state();
                sim.evolve_in_place_with(&mut s, &p.gammas, &p.betas, ExecPolicy::serial());
                sim.cost_diagonal()
                    .expectation(s.amplitudes(), ExecPolicy::serial())
            })
            .collect();
        for nested in [SweepNesting::PointsParallel, SweepNesting::Auto] {
            let runner = SweepRunner::with_options(
                serial_sim(7),
                SweepOptions {
                    exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
                    nested,
                },
            );
            let got = runner.energies(&points(9));
            // Points-parallel keeps kernels serial: bit-identical results.
            if matches!(nested, SweepNesting::PointsParallel) {
                for (a, b) in reference.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{nested:?}");
                }
            } else {
                for (a, b) in reference.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-12, "{nested:?}");
                }
            }
        }
    }

    #[test]
    fn kernels_parallel_agrees_within_tolerance() {
        let runner = SweepRunner::with_options(
            serial_sim(8),
            SweepOptions {
                exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(8),
                nested: SweepNesting::KernelsParallel,
            },
        );
        let serial = SweepRunner::with_options(
            serial_sim(8),
            SweepOptions {
                exec: ExecPolicy::serial(),
                nested: SweepNesting::KernelsParallel,
            },
        );
        let pts = points(5);
        for (a, b) in runner.energies(&pts).iter().zip(serial.energies(&pts)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn serial_backend_is_a_plain_sequential_loop() {
        let runner = SweepRunner::with_options(
            serial_sim(6),
            SweepOptions {
                exec: ExecPolicy::serial(),
                nested: SweepNesting::PointsParallel,
            },
        );
        let sim = serial_sim(6);
        for (p, e) in points(4).iter().zip(runner.energies(&points(4))) {
            assert_eq!(sim.objective(&p.gammas, &p.betas).to_bits(), e.to_bits());
        }
    }

    #[test]
    fn xy_mixer_sweeps_work() {
        let sim = FurSimulator::with_options(
            &labs_terms(6),
            SimOptions {
                mixer: Mixer::XyRing,
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        );
        let reference: Vec<f64> = points(6)
            .iter()
            .map(|p| sim.objective(&p.gammas, &p.betas))
            .collect();
        let runner = SweepRunner::with_options(
            FurSimulator::with_options(
                &labs_terms(6),
                SimOptions {
                    mixer: Mixer::XyRing,
                    exec: ExecPolicy::serial(),
                    ..SimOptions::default()
                },
            ),
            SweepOptions {
                exec: ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
                nested: SweepNesting::PointsParallel,
            },
        );
        for (a, b) in reference.iter().zip(runner.energies(&points(6))) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn panicking_point_poisons_only_itself() {
        let runner = SweepRunner::new(serial_sim(5));
        let mut pts = points(5);
        // Length mismatch: evaluation of this point panics.
        pts[2] = SweepPoint::new(vec![0.1, 0.2], vec![0.3]);
        let checked = runner.energies_checked(&pts);
        for (i, r) in checked.iter().enumerate() {
            if i == 2 {
                assert!(matches!(r, Err(SweepError::PointPanicked { index: 2, .. })));
            } else {
                assert!(r.is_ok(), "point {i} must survive");
            }
        }
        let err = runner.try_energies(&pts).unwrap_err();
        assert!(err.to_string().contains("point 2"), "{err}");
        // The runner (and its pool) stays fully usable.
        let ok = runner.energies(&points(3));
        assert_eq!(ok.len(), 3);
    }

    #[test]
    fn evaluate_with_extracts_custom_outputs() {
        let runner = SweepRunner::new(serial_sim(6));
        let overlaps: Vec<f64> = runner
            .evaluate_with(&points(4), |sim, state, _| {
                sim.cost_diagonal().overlap(state.amplitudes())
            })
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert!(overlaps.iter().all(|&o| (0.0..=1.0).contains(&o)));
    }

    #[test]
    fn empty_batch_is_empty() {
        let runner = SweepRunner::new(serial_sim(4));
        assert!(runner.energies(&[]).is_empty());
    }

    #[test]
    fn shared_arc_does_not_clone_the_cost_vector() {
        let sim = Arc::new(serial_sim(6));
        let runner = SweepRunner::from_arc(Arc::clone(&sim), SweepOptions::default());
        assert_eq!(Arc::strong_count(&sim), 2);
        assert!(std::ptr::eq(
            sim.cost_diagonal(),
            runner.simulator().cost_diagonal()
        ));
    }

    #[test]
    fn split_mode_matches_sequential_for_any_shape() {
        let sim = serial_sim(7);
        let pts = points(9);
        let reference: Vec<f64> = pts
            .iter()
            .map(|p| {
                let mut s = sim.initial_state();
                sim.evolve_in_place_with(&mut s, &p.gammas, &p.betas, ExecPolicy::serial());
                sim.cost_diagonal()
                    .expectation(s.amplitudes(), ExecPolicy::serial())
            })
            .collect();
        // Every shape — fitting, oversized, degenerate — must clamp to the
        // pool and agree with the sequential loop.
        for (p, k) in [(2, 2), (4, 1), (1, 4), (3, 2), (16, 16), (9, 1)] {
            let runner = SweepRunner::with_options(
                serial_sim(7),
                SweepOptions {
                    exec: ExecPolicy::rayon()
                        .with_threads(4)
                        .with_min_len(1)
                        .with_min_chunk(4),
                    nested: SweepNesting::Split {
                        points: p,
                        kernels_per_point: k,
                    },
                },
            );
            let got = runner.energies(&pts);
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "shape {p}x{k}, point {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn auto_heuristic_picks_by_batch_state_and_width() {
        // min_len = 1 makes any state size "large enough to split".
        let wide = SweepRunner::with_options(
            serial_sim(6),
            SweepOptions {
                exec: ExecPolicy::rayon()
                    .with_threads(4)
                    .with_min_len(1)
                    .with_min_chunk(4),
                nested: SweepNesting::Auto,
            },
        );
        let resolved = wide.opts.exec.install(|| {
            (
                wide.resolve_nesting(8), // batch >= width
                wide.resolve_nesting(2), // mid-size: 2 lanes x 2 workers
                wide.resolve_nesting(1), // lone point
            )
        });
        assert_eq!(resolved.0, SweepNesting::PointsParallel);
        assert_eq!(
            resolved.1,
            SweepNesting::Split {
                points: 2,
                kernels_per_point: 2
            }
        );
        assert_eq!(resolved.2, SweepNesting::KernelsParallel);

        // Default min_len: a 2^6 state can't split, so small batches still
        // go points-parallel rather than waste kernel workers.
        let small_state = SweepRunner::with_options(
            serial_sim(6),
            SweepOptions {
                exec: ExecPolicy::rayon().with_threads(4),
                nested: SweepNesting::Auto,
            },
        );
        let resolved = small_state
            .opts
            .exec
            .install(|| small_state.resolve_nesting(2));
        assert_eq!(resolved, SweepNesting::PointsParallel);
    }

    #[test]
    fn split_mode_poisons_only_the_failing_point() {
        let runner = SweepRunner::with_options(
            serial_sim(5),
            SweepOptions {
                exec: ExecPolicy::rayon()
                    .with_threads(4)
                    .with_min_len(1)
                    .with_min_chunk(4),
                nested: SweepNesting::Split {
                    points: 2,
                    kernels_per_point: 2,
                },
            },
        );
        let mut pts = points(6);
        pts[4] = SweepPoint::new(vec![0.1], vec![0.2, 0.3]); // length mismatch
        let checked = runner.energies_checked(&pts);
        for (i, r) in checked.iter().enumerate() {
            if i == 4 {
                assert!(matches!(r, Err(SweepError::PointPanicked { index: 4, .. })));
            } else {
                assert!(r.is_ok(), "point {i} must survive a sibling's panic");
            }
        }
        // Runner and pool stay reusable after the subset-pool panic.
        assert_eq!(runner.energies(&points(4)).len(), 4);
    }

    #[test]
    fn p1_convenience_matches_general_points() {
        let runner = SweepRunner::new(serial_sim(6));
        let pairs = [(0.1, 0.5), (0.2, 0.3)];
        let a = runner.energies_p1(&pairs);
        let b = runner.energies(&[SweepPoint::p1(0.1, 0.5), SweepPoint::p1(0.2, 0.3)]);
        assert_eq!(a, b);
    }

    /// Sink that sets a shared cancel flag once it has observed `limit`
    /// energies — the shape a deadline watchdog or a progress callback
    /// takes in the serve layer.
    struct CancellingSink<'a> {
        agg: LandscapeAggregator,
        limit: u64,
        cancel: &'a AtomicBool,
    }

    impl EnergySink for CancellingSink<'_> {
        fn observe(&mut self, index: u64, energy: f64) {
            self.agg.observe(index, energy);
            if self.agg.count() >= self.limit {
                self.cancel.store(true, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn cancelled_scan_stops_at_the_next_chunk_boundary() {
        let runner = SweepRunner::new(serial_sim(5));
        let cancel = AtomicBool::new(false);
        let mut sink = CancellingSink {
            agg: LandscapeAggregator::new(2),
            limit: 10, // fires inside the second 8-point chunk
            cancel: &cancel,
        };
        let r = runner.scan_into_cancellable(
            (0..100).map(|i| SweepPoint::p1(0.01 * i as f64, 0.3)),
            8,
            &mut sink,
            &cancel,
        );
        // The flag fired mid-chunk; the running chunk completes (16 points
        // observed) and the third chunk is never started.
        assert_eq!(r, Err(SweepError::Cancelled { evaluated: 16 }));
        assert_eq!(sink.agg.count(), 16);

        // Runner and flag are reusable: clearing the flag resumes cleanly.
        cancel.store(false, Ordering::Relaxed);
        let mut agg = LandscapeAggregator::new(2);
        let n = runner
            .scan_into_cancellable(
                (0..20).map(|i| SweepPoint::p1(0.01 * i as f64, 0.3)),
                8,
                &mut agg,
                &cancel,
            )
            .unwrap();
        assert_eq!(n, 20);
        assert_eq!(agg.count(), 20);
    }

    #[test]
    fn uncancelled_scan_is_bit_identical_to_scan_into() {
        let runner = SweepRunner::new(serial_sim(6));
        let cancel = AtomicBool::new(false);
        let points = || (0..40).map(|i| SweepPoint::p1(0.02 * i as f64, -0.4));
        let mut a = LandscapeAggregator::new(4);
        let mut b = LandscapeAggregator::new(4);
        runner.scan_into(points(), 7, &mut a).unwrap();
        runner
            .scan_into_cancellable(points(), 7, &mut b, &cancel)
            .unwrap();
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum().to_bits(), b.sum().to_bits());
        assert_eq!(a.argmin(), b.argmin());
        assert_eq!(a.top_k(), b.top_k());
    }
}
