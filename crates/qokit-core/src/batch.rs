//! Batched `(γ, β)` parameter sweeps on the work-stealing pool.
//!
//! The paper's headline use case is parameter *optimization* (Fig. 1): the
//! simulator is called thousands of times over one fixed cost vector while
//! only the angles change. A [`SweepRunner`] exploits that shape directly —
//! the precomputed [`CostVec`](qokit_costvec::CostVec) is shared across
//! workers through one [`Arc`]`<`[`FurSimulator`]`>`, split-plane state
//! buffers are recycled through a per-worker pool instead of being
//! reallocated per point, and the points of a batch run as pool tasks under
//! an [`ExecPolicy`]. Each batch is cut into *runs*: maximal stretches of
//! consecutive points whose first γ has the same bits, such as one row of
//! a row-major `(γ, β)` grid. The state after the first phase depends on
//! γ₁ alone, so a run of two or more points writes one phased start
//! state; each point copies it into a recycled buffer, or, in a run of
//! one, writes its own start there, evolves the rest of its schedule, and
//! takes the split objective, so an energy never transposes or allocates.
//! Starts come from the simulator's one start path: from `|+⟩` one
//! write-only pass with the first phase folded in, so a batch fills no
//! initial state; any other initial state is filled once per batch and
//! copied. Every point sees the same IEEE operations in the same order
//! either way, so sharing a start never changes a bit.
//!
//! The engine reads a batch through one private accessor, a point's
//! `(γ, β)` schedules by index, so a slice of [`SweepPoint`]s, a slice of
//! depth-1 pairs and a scan chunk run the same code. A scan chunk holds
//! per point only its angles, copied into one flat vector, and one result
//! slot; both vectors are reused from chunk to chunk of a scan, and each
//! caller point is dropped as soon as its angles are copied.
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
//! * [`SweepNesting::Auto`] — picks between the two from batch size,
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
use crate::panic_message;
use crate::simulator::{FurSimulator, QaoaSimulator, Start};
use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::{SplitStateVec, StateVec};
use rayon::prelude::*;
use std::ops::Range;
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
    /// Heuristic pick from batch size, state size `2^n`, and pool width:
    /// [`PointsParallel`](SweepNesting::PointsParallel) when the batch
    /// fills the pool (or states are too small for parallel kernels),
    /// [`KernelsParallel`](SweepNesting::KernelsParallel) otherwise.
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
    /// Pool policy the sweep executes under. With `threads == 1` the
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

/// One point's result slot in a batch; `None` until the point is
/// evaluated. The error is boxed, so an energy slot is 16 bytes, not the
/// 32 of `Result<f64, SweepError>`: with the chunk's angles, a scan's
/// result slots set its peak memory.
type Slot<R> = Option<Result<R, Box<SweepError>>>;

/// A filled slot's result.
fn filled<R>(slot: Slot<R>) -> Result<R, SweepError> {
    slot.expect("every point fills its slot").map_err(|e| *e)
}

/// The one accessor the engine reads a batch through: each point's angle
/// schedules by index.
trait Batch: Sync {
    /// Number of points.
    fn len(&self) -> usize;
    /// Point `i`'s `(γ, β)` schedules.
    fn schedule(&self, i: usize) -> (&[f64], &[f64]);
}

impl Batch for [SweepPoint] {
    fn len(&self) -> usize {
        <[SweepPoint]>::len(self)
    }

    fn schedule(&self, i: usize) -> (&[f64], &[f64]) {
        (&self[i].gammas, &self[i].betas)
    }
}

/// Depth-1 `(γ, β)` pairs, read in place.
impl Batch for [(f64, f64)] {
    fn len(&self) -> usize {
        <[(f64, f64)]>::len(self)
    }

    fn schedule(&self, i: usize) -> (&[f64], &[f64]) {
        let (gamma, beta) = &self[i];
        (std::slice::from_ref(gamma), std::slice::from_ref(beta))
    }
}

/// A scan chunk's angles, flat: each point's γ then its β, point after
/// point, in one vector a scan reuses from chunk to chunk. While every
/// point has its γ and β lengths from the chunk's first point, a point's
/// place follows from its index; after the first that differs, `ends`
/// holds where each point's γ and β end.
#[derive(Default)]
struct FlatChunk {
    angles: Vec<f64>,
    len: usize,
    /// The γ and β lengths of the chunk's first point.
    shape: (usize, usize),
    /// Per point, the ends of its γ and its β in `angles`; empty while
    /// every point has `shape`.
    ends: Vec<(usize, usize)>,
}

impl FlatChunk {
    /// Refills the chunk from `points`. Room is reserved by what `points`
    /// says it yields, never by the caller's chunk size alone, which may be
    /// far larger than the scan (or memory).
    fn refill(&mut self, mut points: impl Iterator<Item = SweepPoint>) {
        self.angles.clear();
        self.ends.clear();
        self.len = 0;
        let Some(first) = points.next() else {
            return;
        };
        let count = points.size_hint().0.saturating_add(1);
        self.angles
            .reserve(count.saturating_mul(first.gammas.len() + first.betas.len()));
        self.push(first);
        points.for_each(|point| self.push(point));
    }

    /// Appends a point's angles. The point is dropped here, so its two
    /// vectors are freed before the next point is made.
    fn push(&mut self, point: SweepPoint) {
        let shape = (point.gammas.len(), point.betas.len());
        if self.len == 0 {
            self.shape = shape;
        } else if self.ends.is_empty() && shape != self.shape {
            // Every earlier point has `shape`.
            let (g, b) = self.shape;
            let ends = (1..=self.len).map(|k| (k * (g + b) - b, k * (g + b)));
            self.ends.extend(ends);
        }
        self.angles.extend_from_slice(&point.gammas);
        let gammas_end = self.angles.len();
        self.angles.extend_from_slice(&point.betas);
        if !self.ends.is_empty() {
            self.ends.push((gammas_end, self.angles.len()));
        }
        self.len += 1;
    }
}

impl Batch for FlatChunk {
    fn len(&self) -> usize {
        self.len
    }

    fn schedule(&self, i: usize) -> (&[f64], &[f64]) {
        let (start, gammas_end, end) = if self.ends.is_empty() {
            let (g, b) = self.shape;
            let start = i * (g + b);
            (start, start + g, start + g + b)
        } else {
            let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev].1);
            (start, self.ends[i].0, self.ends[i].1)
        };
        (
            &self.angles[start..gammas_end],
            &self.angles[gammas_end..end],
        )
    }
}

/// The QAOA energy of an evolved state: the `eval` of energy sweeps.
fn energy(sim: &FurSimulator, state: &SplitStateVec, policy: ExecPolicy) -> f64 {
    let (re, im) = state.planes();
    sim.cost_diagonal().expectation_split(re, im, policy)
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
    /// themselves.
    fn evaluate_planes<R, F>(&self, points: &[SweepPoint], eval: F) -> Vec<Result<R, SweepError>>
    where
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let mut slots = Vec::new();
        self.evaluate_slots(points, &mut slots, eval);
        slots.into_iter().map(filled).collect()
    }

    /// The engine every batched evaluation runs. `slots` is refilled with
    /// one slot per point, and every result goes straight into its slot
    /// (slot `i` = point `i`), so a batch never holds its results twice and
    /// a scan reuses one slot vector for all its chunks.
    fn evaluate_slots<B, R, F>(&self, batch: &B, slots: &mut Vec<Slot<R>>, eval: F)
    where
        B: Batch + ?Sized,
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        slots.clear();
        slots.resize_with(batch.len(), || None);
        let policy = self.opts.exec;
        if policy.threads == 1 {
            self.run_sequential(batch, slots, policy, &eval);
        } else {
            // Kernels-parallel points keep the policy's thresholds and run
            // on the pool `install` entered; `threads: 0` stops each kernel
            // from entering its own.
            let sequential = ExecPolicy {
                threads: 0,
                ..policy
            };
            policy.install(|| match self.resolve_nesting(batch.len()) {
                SweepNesting::PointsParallel => self.run_points_parallel(batch, slots, &eval),
                _ => self.run_sequential(batch, slots, sequential, &eval),
            });
        }
    }

    /// Batched energies of any batch, or its lowest-index failure.
    fn try_energies_of<B: Batch + ?Sized>(&self, batch: &B) -> Result<Vec<f64>, SweepError> {
        let mut slots = Vec::new();
        self.evaluate_slots(batch, &mut slots, energy);
        slots.into_iter().map(filled).collect()
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
        self.try_energies_of(points)
    }

    /// Per-point energies with per-point failure: slot `i` is `Err` iff
    /// point `i` panicked.
    pub fn energies_checked(&self, points: &[SweepPoint]) -> Vec<Result<f64, SweepError>> {
        self.evaluate_planes(points, energy)
    }

    /// Depth-1 convenience: energies over `(γ, β)` pairs — the shape grid
    /// and random searches consume. The pairs are read in place, with no
    /// allocation per point.
    pub fn energies_p1(&self, points: &[(f64, f64)]) -> Vec<f64> {
        self.try_energies_of(points)
            .unwrap_or_else(|e| panic!("{e}"))
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
        self.fold_into(base, points, &mut Vec::new(), sink)
    }

    /// [`fold_energies_into`](Self::fold_energies_into) of any batch,
    /// through the caller's slot vector.
    fn fold_into<B, S>(
        &self,
        base: u64,
        batch: &B,
        slots: &mut Vec<Slot<f64>>,
        sink: &mut S,
    ) -> Result<(), SweepError>
    where
        B: Batch + ?Sized,
        S: EnergySink,
    {
        self.evaluate_slots(batch, slots, energy);
        let mut first_err = None;
        for (i, slot) in slots.drain(..).enumerate() {
            match filled(slot) {
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
    /// points per batched dispatch. A chunk holds per point only its
    /// angles (copied out of the [`SweepPoint`], which is dropped at once)
    /// and one 16-byte result slot, in two vectors reused for every chunk
    /// of the scan, so peak memory is O(`chunk`) regardless of scan length;
    /// the observation order (strict point-index order) is independent of
    /// `chunk`. Returns the number of points evaluated, or the first
    /// poisoned point's error (with its global index; later chunks are not
    /// started).
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
    /// bit-identical to [`scan_into`](Self::scan_into). A chunk holds what
    /// a [`scan_into`](Self::scan_into) chunk holds: each point's angles
    /// and one result slot.
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
        let mut batch = FlatChunk::default();
        let mut slots = Vec::new();
        let mut base = 0u64;
        loop {
            if cancel.load(Ordering::Relaxed) {
                return Err(SweepError::Cancelled { evaluated: base });
            }
            batch.refill(iter.by_ref().take(chunk));
            if batch.len() == 0 {
                return Ok(base);
            }
            self.fold_into(base, &batch, &mut slots, sink)?;
            base += batch.len() as u64;
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
                } else {
                    SweepNesting::KernelsParallel
                }
            }
            mode => mode,
        }
    }

    /// One run per pool task and, inside a run, one point per pool task;
    /// kernels serial throughout. Runs are the outer tasks, so only the
    /// runs in flight hold a start.
    fn run_points_parallel<B, R, F>(&self, batch: &B, slots: &mut [Slot<R>], eval: &F)
    where
        B: Batch + ?Sized,
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let start = self.sim.start();
        let inner = ExecPolicy::serial();
        let mut runs = Vec::new();
        let mut free = slots;
        for run in gamma_runs(batch) {
            let (run_slots, rest) = std::mem::take(&mut free).split_at_mut(run.len());
            runs.push((run, run_slots));
            free = rest;
        }
        runs.par_iter_mut()
            .with_min_len(1)
            .for_each(|(run, slots)| {
                self.eval_run(batch, run.clone(), &start, inner, eval, |point| {
                    slots
                        .par_iter_mut()
                        .with_min_len(1)
                        .enumerate()
                        .for_each(|(k, slot)| *slot = Some(point(k).map_err(Box::new)));
                });
            });
    }

    /// Sequential outer loop; kernels run under `inner` (parallel in
    /// kernels-parallel mode, serial when the whole runner is serial).
    fn run_sequential<B, R, F>(&self, batch: &B, slots: &mut [Slot<R>], inner: ExecPolicy, eval: &F)
    where
        B: Batch + ?Sized,
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let start = self.sim.start();
        for run in gamma_runs(batch) {
            let slots = &mut slots[run.clone()];
            self.eval_run(batch, run, &start, inner, eval, |point| {
                for (k, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(point(k).map_err(Box::new));
                }
            });
        }
    }

    /// Evaluates one run of [`gamma_runs`] (batch indices `run`). A run of
    /// two or more points writes one shared start phased by `γ₁` — the
    /// state after the first phase depends on `γ₁` alone — and each point
    /// copies it and evolves the rest of its schedule; a lone point runs
    /// its whole schedule from `start`. Either way a point sees the same
    /// IEEE operations in the same order, so the energies have the bits of
    /// one-at-a-time objective calls. `each` receives the per-point
    /// evaluation (argument: offset in the run) and drives it serially or
    /// in parallel.
    fn eval_run<B, R, F>(
        &self,
        batch: &B,
        run: Range<usize>,
        start: &Start,
        inner: ExecPolicy,
        eval: &F,
        each: impl FnOnce(&(dyn Fn(usize) -> Result<R, SweepError> + Sync)),
    ) where
        B: Batch + ?Sized,
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let shared = (run.len() > 1).then(|| {
            let mut phased = self.buffers.checkout(self.sim.n_qubits());
            let gamma = batch.schedule(run.start).0[0];
            self.sim.write_start(start, &mut phased, Some(gamma), inner);
            phased
        });
        let phased = shared.as_ref();
        each(&|k| self.eval_one(batch, run.start + k, start, phased, inner, eval));
        if let Some(phased) = shared {
            self.buffers.checkin(phased);
        }
    }

    /// Evaluates point `index` of `batch`: from its run's state after the
    /// first phase when `phased` holds one, else from `start`.
    fn eval_one<B, R, F>(
        &self,
        batch: &B,
        index: usize,
        start: &Start,
        phased: Option<&SplitStateVec>,
        inner: ExecPolicy,
        eval: &F,
    ) -> Result<R, SweepError>
    where
        B: Batch + ?Sized,
        R: Send,
        F: Fn(&FurSimulator, &SplitStateVec, ExecPolicy) -> R + Sync,
    {
        let mut buf = self.buffers.checkout(self.sim.n_qubits());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let (gammas, betas) = batch.schedule(index);
            match phased {
                Some(phased) => {
                    buf.copy_from(phased);
                    self.sim
                        .evolve_after_first_phase(&mut buf, gammas, betas, inner);
                }
                None => self.sim.evolve_from(start, &mut buf, gammas, betas, inner),
            }
            eval(&self.sim, &buf, inner)
        }));
        // A poisoned buffer is still safe to recycle: the next evaluation
        // overwrites it with its start state before any kernel runs.
        self.buffers.checkin(buf);
        outcome.map_err(|payload| SweepError::PointPanicked {
            index,
            message: panic_message(payload),
        })
    }
}

/// Splits a batch into runs: maximal stretches of consecutive points whose
/// first γ has the same bits (`+0.0` and `-0.0` differ; NaNs with equal
/// bits match). A point with an empty schedule is a run of its own.
fn gamma_runs<B: Batch + ?Sized>(batch: &B) -> impl Iterator<Item = Range<usize>> + '_ {
    let first_gamma = |i| batch.schedule(i).0.first().map(|g| g.to_bits());
    let mut next = 0;
    std::iter::from_fn(move || {
        let start = next;
        if start == batch.len() {
            return None;
        }
        let key = first_gamma(start);
        next += 1;
        while key.is_some() && next < batch.len() && first_gamma(next) == key {
            next += 1;
        }
        Some(start..next)
    })
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
        // 9 points on a 4-worker pool: Auto must take the deterministic
        // points-parallel path, so both arms keep kernels serial.
        for nested in [SweepNesting::PointsParallel, SweepNesting::Auto] {
            let runner = SweepRunner::with_options(
                serial_sim(7),
                SweepOptions {
                    exec: ExecPolicy::rayon()
                        .with_threads(4)
                        .with_min_len(1)
                        .with_min_chunk(4),
                    nested,
                },
            );
            let got = runner.energies(&points(9));
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "{nested:?}");
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
    fn serial_runner_keeps_serial_kernels_inside_a_pool() {
        // The sequential policy trades a parallel runner's worker count for
        // the pool `install` entered; a serial runner must keep
        // `threads: 1` in every mode, even inside a wider pool.
        for nested in [
            SweepNesting::PointsParallel,
            SweepNesting::KernelsParallel,
            SweepNesting::Auto,
        ] {
            let runner = SweepRunner::with_options(
                serial_sim(6),
                SweepOptions {
                    exec: ExecPolicy::serial(),
                    nested,
                },
            );
            let threads = ExecPolicy::rayon()
                .with_threads(2)
                .install(|| runner.evaluate_with(&points(5), |_, _, policy| policy.threads));
            assert_eq!(threads.len(), 5);
            for t in threads {
                assert_eq!(t.unwrap(), 1, "{nested:?}");
            }
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
    fn auto_heuristic_picks_by_batch_state_and_width() {
        use SweepNesting::{KernelsParallel as Kp, PointsParallel as Pp};
        // Resolves each batch size on a `threads`-wide pool at n = 6;
        // min_len = 1 makes any state size "large enough to split". The
        // pool is built directly: a `with_threads(1)` policy is serial and
        // never enters one.
        let resolve = |threads: usize, min_len: Option<usize>, batches: &[usize]| {
            let mut exec = ExecPolicy::rayon();
            if let Some(min_len) = min_len {
                exec = exec.with_min_len(min_len);
            }
            let runner = SweepRunner::with_options(
                serial_sim(6),
                SweepOptions {
                    exec,
                    nested: SweepNesting::Auto,
                },
            );
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                batches
                    .iter()
                    .map(|&b| runner.resolve_nesting(b))
                    .collect::<Vec<_>>()
            })
        };
        // Width 4: a batch that fills the pool goes points-parallel; a
        // mid-size batch and a lone point go kernels-parallel.
        assert_eq!(resolve(4, Some(1), &[8, 4, 2, 1]), [Pp, Pp, Kp, Kp]);
        // Width 2, the widest pool this rule has records for.
        assert_eq!(resolve(2, Some(1), &[0, 1, 2, 5]), [Kp, Kp, Pp, Pp]);
        // Width 1: every non-empty batch fills the pool.
        assert_eq!(resolve(1, Some(1), &[1]), [Pp]);
        // Default min_len: a 2^6 state can't split, so small batches still
        // go points-parallel rather than waste kernel workers.
        assert_eq!(resolve(4, None, &[2]), [Pp]);
        assert_eq!(resolve(2, None, &[0, 1, 2, 5]), [Pp, Pp, Pp, Pp]);
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

    fn run_lengths(points: &[SweepPoint]) -> Vec<usize> {
        gamma_runs(points).map(|run| run.len()).collect()
    }

    #[test]
    fn grid_chunk_splits_into_gamma_rows() {
        // The first 16384 points of a row-major 256 x 256 grid: 64 rows.
        let chunk: Vec<SweepPoint> = (0..16384)
            .map(|i| SweepPoint::p1(0.01 * (i / 256) as f64, 0.001 * (i % 256) as f64))
            .collect();
        assert_eq!(run_lengths(&chunk), vec![256; 64]);
    }

    #[test]
    fn runs_key_on_gamma_bits() {
        let p = |g: f64| SweepPoint::p1(g, 0.3);
        // +0.0 == -0.0 as floats, but the bits differ.
        assert_eq!(run_lengths(&[p(0.0), p(-0.0), p(-0.0)]), [1, 2]);
        // Two NaNs with equal bits share a run, though NaN != NaN.
        let nan = f64::NAN;
        assert_eq!(run_lengths(&[p(nan), p(nan), p(1.0)]), [2, 1]);
        // Only the first γ keys a run; later layers may differ.
        let deep = |g2: f64| SweepPoint::new(vec![0.1, g2], vec![0.2, 0.3]);
        assert_eq!(run_lengths(&[deep(0.4), deep(0.5), p(0.1)]), [3]);
    }

    #[test]
    fn empty_schedules_are_singleton_runs() {
        let empty = || SweepPoint::new(vec![], vec![]);
        let p = SweepPoint::p1(0.2, 0.3);
        let batch = [empty(), empty(), p.clone(), p.clone(), empty(), p];
        assert_eq!(run_lengths(&batch), [1, 1, 2, 1, 1]);
        assert_eq!(run_lengths(&[]), Vec::<usize>::new());
    }

    #[test]
    fn runs_are_cut_at_scan_chunk_boundaries() {
        // One 10-point γ row, scanned 4 points per chunk: each chunk is a
        // batch of its own, so the row splits into runs of 4, 4 and 2 —
        // with the bits of a single-chunk scan.
        let row = || (0..10).map(|i| SweepPoint::p1(0.25, 0.05 * i as f64));
        let batch: Vec<SweepPoint> = row().collect();
        let per_chunk: Vec<Vec<usize>> = batch.chunks(4).map(run_lengths).collect();
        assert_eq!(per_chunk, [vec![4], vec![4], vec![2]]);
        let runner = SweepRunner::new(serial_sim(6));
        let mut whole = LandscapeAggregator::new(3);
        let mut chunked = LandscapeAggregator::new(3);
        runner.scan_into(row(), 16, &mut whole).unwrap();
        runner.scan_into(row(), 4, &mut chunked).unwrap();
        assert_eq!(whole.sum().to_bits(), chunked.sum().to_bits());
        assert_eq!(whole.top_k(), chunked.top_k());
    }

    #[test]
    fn huge_chunk_sizes_the_buffer_by_the_scan() {
        // A chunk far past addressable memory must not be allocated up
        // front: 3 points are one batch of 3.
        let runner = SweepRunner::new(serial_sim(5));
        let points = || (0..3).map(|i| SweepPoint::p1(0.1 * i as f64, 0.3));
        let mut small = LandscapeAggregator::new(2);
        let mut huge = LandscapeAggregator::new(2);
        assert_eq!(runner.scan_into(points(), 16, &mut small), Ok(3));
        assert_eq!(runner.scan_into(points(), 1 << 40, &mut huge), Ok(3));
        assert_eq!(small.sum().to_bits(), huge.sum().to_bits());
        assert_eq!(small.argmin(), huge.argmin());
        assert_eq!(small.top_k(), huge.top_k());
    }
}
