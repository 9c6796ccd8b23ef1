//! Multi-restart local optimization on the work-stealing pool.
//!
//! QAOA landscapes are multi-modal: a single Nelder–Mead or SPSA run
//! converges to whichever basin its starting point fell into. The standard
//! cure is restarts from many starting points — embarrassingly parallel
//! work that [`MultiStart`] hands to the pool's workers through a
//! [`RestartSet`]: each worker claims the next unrun restart until none
//! is left, and a server can share one set between several lanes.
//!
//! Determinism contract: starting points are drawn *up front* from one
//! seeded RNG, each restart derives its own RNG from `(seed, restart
//! index)`, and results are keyed by restart index (never by completion
//! order). The winning restart is the lowest-index minimizer of `best_f`.
//! Run the objective with serial kernels (e.g. a points-parallel
//! `SweepRunner`, or a serial-policy simulator) and the whole driver is
//! **bit-identical for any pool size** — pinned by
//! `tests/sweep_determinism.rs`.
//!
//! [`MultiStart::minimize_batched`] composes both batching levels: the
//! restarts fan out over the pool while each restart's Nelder–Mead
//! evaluates its candidate sets through a *batch* objective — with a
//! trajectory bit-identical to the sequential driver.
//!
//! ```
//! use qokit_optim::{MultiStart, NelderMead, RestartMethod};
//!
//! let driver = MultiStart {
//!     method: RestartMethod::NelderMead(NelderMead::default()),
//!     restarts: 6,
//!     seed: 7,
//!     bounds: vec![(-2.0, 2.0), (-2.0, 2.0)],
//! };
//! // Two basins; restarts find the global one at (1, 1).
//! let run = driver.minimize(&|x: &[f64]| {
//!     let a = (x[0] - 1.0).powi(2) + (x[1] - 1.0).powi(2);
//!     let b = (x[0] + 1.0).powi(2) + (x[1] + 1.0).powi(2) + 0.5;
//!     a.min(b)
//! });
//! assert_eq!(run.restarts.len(), 6);
//! assert!(run.best().best_f < 1e-3);
//! assert!((run.best().best_x[0] - 1.0).abs() < 0.05);
//! ```

use crate::{NelderMead, OptimizeResult, Spsa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The local optimizer each restart runs.
#[derive(Clone, Debug)]
pub enum RestartMethod {
    /// Deterministic simplex descent.
    NelderMead(NelderMead),
    /// Stochastic two-evaluation descent; each restart gets its own RNG
    /// derived from the driver seed and the restart index.
    Spsa(Spsa),
}

/// Multi-restart driver configuration.
#[derive(Clone, Debug)]
pub struct MultiStart {
    /// Optimizer to run from every starting point.
    pub method: RestartMethod,
    /// Number of restarts.
    pub restarts: usize,
    /// Master seed: starting points and per-restart RNGs derive from it.
    pub seed: u64,
    /// Per-coordinate `[lo, hi)` sampling box for starting points (its
    /// length is the parameter dimension).
    pub bounds: Vec<(f64, f64)>,
}

/// Outcome of a multi-restart run, keyed by restart index.
#[derive(Clone, Debug)]
pub struct MultiStartRun {
    /// Index of the winning restart (lowest `best_f`, ties to the lowest
    /// index).
    pub best_restart: usize,
    /// Every restart's result, in restart order — the ordering is part of
    /// the determinism contract.
    pub restarts: Vec<OptimizeResult>,
}

impl MultiStartRun {
    /// The winning restart's result.
    pub fn best(&self) -> &OptimizeResult {
        &self.restarts[self.best_restart]
    }
}

/// Error from [`MultiStart::try_minimize`]: one restart's objective
/// panicked, the driver was cooperatively cancelled, or its restart count
/// does not fit in memory. Only a panicking restart is poisoned; in every
/// case the pool stays reusable.
#[derive(Clone, Debug, PartialEq)]
pub enum MultiStartError {
    /// A restart's optimizer or objective panicked.
    RestartPanicked {
        /// Index of the poisoned restart.
        restart: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The cancel flag was observed set before every restart had run
    /// ([`MultiStart::try_minimize_cancellable`]).
    Cancelled {
        /// Number of restarts that ran to completion (or panicked) before
        /// the flag was honored.
        completed: usize,
    },
    /// A buffer with one entry per restart (the starting points, the
    /// result slots) could not be allocated. Nothing ran.
    TooManyRestarts {
        /// The requested restart count.
        restarts: usize,
    },
}

impl std::fmt::Display for MultiStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiStartError::RestartPanicked { restart, message } => {
                write!(f, "restart {restart} panicked: {message}")
            }
            MultiStartError::Cancelled { completed } => {
                write!(f, "multi-start cancelled after {completed} restarts")
            }
            MultiStartError::TooManyRestarts { restarts } => {
                write!(f, "{restarts} restarts do not fit in memory")
            }
        }
    }
}

impl std::error::Error for MultiStartError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl MultiStart {
    /// The starting points the restarts will use, drawn sequentially from
    /// one RNG seeded with `seed` — independent of pool size and restart
    /// scheduling by construction.
    ///
    /// # Panics
    /// If `bounds` is empty, or the points do not fit in memory (see
    /// [`try_starting_points`](Self::try_starting_points)).
    pub fn starting_points(&self) -> Vec<Vec<f64>> {
        self.try_starting_points().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`starting_points`](Self::starting_points), with the restart-sized
    /// buffer allocated fallibly: a restart count too large for memory is
    /// [`MultiStartError::TooManyRestarts`], not an abort.
    ///
    /// # Panics
    /// If `bounds` is empty.
    pub fn try_starting_points(&self) -> Result<Vec<Vec<f64>>, MultiStartError> {
        assert!(!self.bounds.is_empty(), "need at least one dimension");
        let mut starts = self.restart_buffer()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.restarts {
            starts.push(
                self.bounds
                    .iter()
                    .map(|&(lo, hi)| rng.gen_range(lo..hi))
                    .collect(),
            );
        }
        Ok(starts)
    }

    /// An empty vector with room for one entry per restart, or
    /// [`MultiStartError::TooManyRestarts`] when that room cannot be had.
    fn restart_buffer<T>(&self) -> Result<Vec<T>, MultiStartError> {
        let mut buffer = Vec::new();
        buffer
            .try_reserve_exact(self.restarts)
            .map_err(|_| MultiStartError::TooManyRestarts {
                restarts: self.restarts,
            })?;
        Ok(buffer)
    }

    /// One empty result slot per restart, allocated fallibly.
    fn restart_slots<T>(&self) -> Result<Vec<Option<T>>, MultiStartError> {
        let mut slots = self.restart_buffer()?;
        slots.resize_with(self.restarts, || None);
        Ok(slots)
    }

    /// Runs all restarts as pool tasks and returns every result keyed by
    /// restart index.
    ///
    /// # Panics
    /// If a restart panicked (with that restart's message); use
    /// [`try_minimize`](Self::try_minimize) for the recoverable form.
    pub fn minimize<F>(&self, f: &F) -> MultiStartRun
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        self.try_minimize(f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs all restarts as pool tasks; a panicking restart yields a clean
    /// error naming the lowest poisoned index while the other restarts
    /// complete and the pool remains reusable.
    pub fn try_minimize<F>(&self, f: &F) -> Result<MultiStartRun, MultiStartError>
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        self.try_minimize_cancellable(f, &AtomicBool::new(false))
    }

    /// [`try_minimize`](Self::try_minimize) with a cooperative cancellation
    /// checkpoint before each restart: a restart claimed after `cancel` is
    /// set (`Relaxed` load) is skipped, and the driver returns
    /// [`MultiStartError::Cancelled`] counting the restarts that did run.
    /// Restarts already executing finish normally — cancellation
    /// granularity is one restart — and the pool stays reusable. With the
    /// flag never set the result is bit-identical to
    /// [`try_minimize`](Self::try_minimize) (same trajectories, same
    /// winner).
    ///
    /// This is one [`RestartSet`] drained by [`RestartSet::run`] on the
    /// calling thread's pool.
    pub fn try_minimize_cancellable<F>(
        &self,
        f: &F,
        cancel: &AtomicBool,
    ) -> Result<MultiStartRun, MultiStartError>
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        RestartSet::new(self.clone())?
            .run(f, cancel)
            .expect("a set's only run finishes its last restart")
    }

    /// As [`minimize`](Self::minimize), but each restart drives a *batch*
    /// objective through [`NelderMead::minimize_batched`] — candidate sets
    /// (initial simplex, speculative reflection+expansion pairs, shrink
    /// rows) arrive as single calls, the shape a points-parallel
    /// `SweepRunner` evaluates in one pool dispatch. The restarts
    /// themselves fan out as one pool task each (an indexed parallel
    /// iterator over the restart indices), and each restart's batch
    /// evaluations split across the same pool — restart-level ×
    /// candidate-level parallelism, balanced by work stealing.
    ///
    /// Determinism: given a batch objective that agrees pointwise with a
    /// sequential objective, the returned [`MultiStartRun`] — every
    /// restart's trajectory, `n_evals`, history, and the winning index —
    /// is **bit-identical** to [`minimize`](Self::minimize) for any pool
    /// size (each restart's trajectory is independent and results stay
    /// keyed by restart index). [`RestartMethod::Spsa`] restarts evaluate
    /// the batch objective one candidate at a time.
    ///
    /// # Panics
    /// If a restart panicked; use
    /// [`try_minimize_batched`](Self::try_minimize_batched) for the
    /// recoverable form.
    pub fn minimize_batched<F>(&self, f: &F) -> MultiStartRun
    where
        F: Fn(&[Vec<f64>]) -> Vec<f64> + Sync,
    {
        self.try_minimize_batched(f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Recoverable form of [`minimize_batched`](Self::minimize_batched): a
    /// panicking restart yields a clean error naming the lowest poisoned
    /// index while the other restarts complete and the pool stays reusable.
    pub fn try_minimize_batched<F>(&self, f: &F) -> Result<MultiStartRun, MultiStartError>
    where
        F: Fn(&[Vec<f64>]) -> Vec<f64> + Sync,
    {
        assert!(self.restarts > 0, "need at least one restart");
        let starts = self.try_starting_points()?;
        // One task per restart, results keyed by restart index.
        let slots = (0..self.restarts)
            .into_par_iter()
            .with_min_len(1)
            .map(|i| {
                panic::catch_unwind(AssertUnwindSafe(|| self.run_one_batched(i, &starts[i], f)))
                    .map_err(panic_message)
            })
            .collect();
        Self::collect_run(slots)
    }

    /// Folds the slots of a drained [`RestartSet`] into its outcome: a
    /// slot left `None` marks a restart skipped by the cancel flag, and
    /// any such slot makes the run [`MultiStartError::Cancelled`];
    /// otherwise the slots fold through [`collect_run`](Self::collect_run).
    fn finish_run(
        slots: Vec<Option<Result<OptimizeResult, String>>>,
    ) -> Result<MultiStartRun, MultiStartError> {
        if slots.iter().any(|s| s.is_none()) {
            let completed = slots.iter().filter(|s| s.is_some()).count();
            return Err(MultiStartError::Cancelled { completed });
        }
        Self::collect_run(slots.into_iter().flatten().collect())
    }

    /// Folds per-restart slots (keyed by restart index) into a
    /// [`MultiStartRun`], surfacing the lowest poisoned index — the one
    /// reduction the sequential, pool-parallel, and batched drivers
    /// all share, so winner tie-breaking cannot drift between them.
    fn collect_run(
        slots: Vec<Result<OptimizeResult, String>>,
    ) -> Result<MultiStartRun, MultiStartError> {
        let mut restarts = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Ok(r) => restarts.push(r),
                Err(message) => {
                    return Err(MultiStartError::RestartPanicked {
                        restart: i,
                        message,
                    })
                }
            }
        }
        let mut best_restart = 0;
        for (i, r) in restarts.iter().enumerate().skip(1) {
            // Strict `<`: ties resolve to the lowest restart index.
            if r.best_f < restarts[best_restart].best_f {
                best_restart = i;
            }
        }
        Ok(MultiStartRun {
            best_restart,
            restarts,
        })
    }

    fn run_one<F>(&self, index: usize, x0: &[f64], f: &F) -> OptimizeResult
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        match &self.method {
            RestartMethod::NelderMead(nm) => nm.minimize(|x| f(x), x0),
            RestartMethod::Spsa(spsa) => {
                let mut rng = StdRng::seed_from_u64(self.restart_seed(index));
                spsa.minimize(|x| f(x), x0, &mut rng)
            }
        }
    }

    fn run_one_batched<F>(&self, index: usize, x0: &[f64], f: &F) -> OptimizeResult
    where
        F: Fn(&[Vec<f64>]) -> Vec<f64> + Sync,
    {
        match &self.method {
            RestartMethod::NelderMead(nm) => nm.minimize_batched(|xs| f(xs), x0),
            RestartMethod::Spsa(spsa) => {
                // SPSA's two-sided perturbation is inherently sequential;
                // feed it the batch objective one candidate at a time (the
                // same evaluations `minimize` would make).
                let mut rng = StdRng::seed_from_u64(self.restart_seed(index));
                spsa.minimize(|x| f(std::slice::from_ref(&x.to_vec()))[0], x0, &mut rng)
            }
        }
    }

    /// Per-restart RNG seed: a SplitMix64-style mix of the master seed and
    /// the restart index, so restarts are decorrelated but reproducible.
    fn restart_seed(&self, index: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A multi-start run split into restarts that any number of threads can
/// claim: an atomic cursor hands out restart indices, each result lands
/// in the slot of its index, and a remaining-count tells the thread that
/// records the last restart that the run is over — that thread alone gets
/// the [`MultiStartRun`]. No caller waits for another: a call that finds
/// the cursor used up returns at once, even while other callers still run
/// restarts.
///
/// [`MultiStart::try_minimize_cancellable`] is one set drained by
/// [`run`](Self::run); a server can instead share one set between
/// several lanes, each calling [`run`](Self::run) inside its own thread
/// pool. Whoever ran which restart, the outcome has the bits of
/// [`MultiStart::try_minimize`]: starting points and per-restart RNGs
/// depend only on the seed and the restart index, results stay keyed by
/// index, and the winner, the cancel and the panic rules are applied once
/// to the full slot vector.
pub struct RestartSet {
    driver: MultiStart,
    starts: Vec<Vec<f64>>,
    /// The next unclaimed restart index; claims past the end find the
    /// set used up. `Relaxed` suffices: the read-modify-write alone makes
    /// each index go to one claimer, and results are handed over through
    /// `progress`'s lock, not through the cursor.
    cursor: AtomicUsize,
    progress: Mutex<Progress>,
}

/// The recorded part of a [`RestartSet`].
struct Progress {
    /// One slot per restart, keyed by index; still `None` once the set
    /// is drained means the cancel flag skipped that restart.
    slots: Vec<Option<Result<OptimizeResult, String>>>,
    /// Restarts not yet recorded (run, panicked or skipped).
    remaining: usize,
}

impl RestartSet {
    /// Draws `driver`'s starting points and makes one empty slot per
    /// restart. A restart count too large for memory is
    /// [`MultiStartError::TooManyRestarts`], and nothing runs.
    ///
    /// # Panics
    /// If `driver.restarts` is zero or `driver.bounds` is empty.
    pub fn new(driver: MultiStart) -> Result<RestartSet, MultiStartError> {
        assert!(driver.restarts > 0, "need at least one restart");
        let slots = driver.restart_slots()?;
        let starts = driver.try_starting_points()?;
        Ok(RestartSet {
            progress: Mutex::new(Progress {
                slots,
                remaining: driver.restarts,
            }),
            driver,
            starts,
            cursor: AtomicUsize::new(0),
        })
    }

    /// Claims and runs restarts on the calling thread until the cursor is
    /// used up; the run's outcome if this call recorded the set's last
    /// restart.
    fn drain<F>(&self, f: &F, cancel: &AtomicBool) -> Option<Result<MultiStartRun, MultiStartError>>
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let x0 = self.starts.get(i)?;
            let slot = (!cancel.load(Ordering::Relaxed)).then(|| {
                panic::catch_unwind(AssertUnwindSafe(|| self.driver.run_one(i, x0, f)))
                    .map_err(panic_message)
            });
            let mut progress = self
                .progress
                .lock()
                .expect("nothing panics while the progress lock is held");
            progress.slots[i] = slot;
            progress.remaining -= 1;
            if progress.remaining == 0 {
                let slots = std::mem::take(&mut progress.slots);
                drop(progress);
                return Some(MultiStart::finish_run(slots));
            }
        }
    }

    /// Claims and runs restarts on every worker of the calling thread's
    /// pool (at most one worker per restart) until the cursor is used up.
    /// A restart claimed after `cancel` is set (`Relaxed` load) is
    /// skipped; a panicking restart is caught and recorded as poisoned.
    /// Returns the run's outcome if this call recorded the set's last
    /// restart, and `None` otherwise — in particular when every restart
    /// was already claimed on entry, or when another caller's workers
    /// still run restarts this call no longer waits for.
    pub fn run<F>(
        &self,
        f: &F,
        cancel: &AtomicBool,
    ) -> Option<Result<MultiStartRun, MultiStartError>>
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        let drainers = rayon::current_num_threads().min(self.starts.len());
        if drainers <= 1 {
            return self.drain(f, cancel);
        }
        let outcomes: Vec<_> = (0..drainers)
            .into_par_iter()
            .with_min_len(1)
            .map(|_| self.drain(f, cancel))
            .collect();
        outcomes.into_iter().flatten().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_basin(x: &[f64]) -> f64 {
        let a = (x[0] - 1.0).powi(2) + (x[1] - 1.0).powi(2);
        let b = (x[0] + 1.0).powi(2) + (x[1] + 1.0).powi(2) + 0.5;
        a.min(b)
    }

    fn driver(restarts: usize) -> MultiStart {
        MultiStart {
            method: RestartMethod::NelderMead(NelderMead::default()),
            restarts,
            seed: 42,
            bounds: vec![(-2.0, 2.0), (-2.0, 2.0)],
        }
    }

    #[test]
    fn finds_global_basin_with_enough_restarts() {
        let run = driver(8).minimize(&two_basin);
        assert!(run.best().best_f < 1e-4, "f = {}", run.best().best_f);
        assert!((run.best().best_x[0] - 1.0).abs() < 0.02);
    }

    #[test]
    fn results_are_keyed_by_restart_index() {
        let run = driver(5).minimize(&two_basin);
        let starts = driver(5).starting_points();
        assert_eq!(run.restarts.len(), 5);
        // Each restart's result must descend from its own starting point.
        for (r, x0) in run.restarts.iter().zip(&starts) {
            assert!(r.best_f <= two_basin(x0) + 1e-12);
        }
    }

    #[test]
    fn deterministic_across_repeat_runs() {
        let (a, b) = (
            driver(6).minimize(&two_basin),
            driver(6).minimize(&two_basin),
        );
        assert_eq!(a.best_restart, b.best_restart);
        for (ra, rb) in a.restarts.iter().zip(&b.restarts) {
            assert_eq!(ra.best_f.to_bits(), rb.best_f.to_bits());
            assert_eq!(ra.best_x, rb.best_x);
        }
    }

    #[test]
    fn spsa_restarts_are_reproducible() {
        let d = MultiStart {
            method: RestartMethod::Spsa(Spsa {
                iterations: 80,
                ..Spsa::default()
            }),
            restarts: 4,
            seed: 3,
            bounds: vec![(-1.0, 1.0)],
        };
        let f = |x: &[f64]| (x[0] - 0.4).powi(2);
        let (a, b) = (d.minimize(&f), d.minimize(&f));
        for (ra, rb) in a.restarts.iter().zip(&b.restarts) {
            assert_eq!(ra.best_x, rb.best_x);
        }
        assert!(a.best().best_f < 0.05);
    }

    #[test]
    fn panicking_restart_reports_its_index() {
        let d = driver(4);
        let starts = d.starting_points();
        let poison = starts[2].clone();
        let err = d
            .try_minimize(&move |x: &[f64]| {
                assert!(
                    x != poison.as_slice(),
                    "injected failure at restart 2's start"
                );
                two_basin(x)
            })
            .unwrap_err();
        assert!(matches!(
            err,
            MultiStartError::RestartPanicked { restart: 2, .. }
        ));
        // The pool survives: a fresh run still works.
        assert!(d.minimize(&two_basin).best().best_f < 1e-3);
    }

    fn batch_of(f: impl Fn(&[f64]) -> f64) -> impl Fn(&[Vec<f64>]) -> Vec<f64> {
        move |xs: &[Vec<f64>]| xs.iter().map(|x| f(x)).collect()
    }

    #[test]
    fn batched_driver_is_bit_identical_to_sequential() {
        // Restart tasks × candidate batches must walk exactly the
        // trajectories the plain driver walks — winner index included.
        for restarts in [1usize, 3, 6] {
            let d = driver(restarts);
            let sequential = d.minimize(&two_basin);
            let batched = d.minimize_batched(&batch_of(two_basin));
            assert_eq!(sequential.best_restart, batched.best_restart);
            for (a, b) in sequential.restarts.iter().zip(&batched.restarts) {
                assert_eq!(a.best_f.to_bits(), b.best_f.to_bits());
                assert_eq!(a.best_x, b.best_x);
                assert_eq!(a.n_evals, b.n_evals);
                assert_eq!(a.history.len(), b.history.len());
                for (x, y) in a.history.iter().zip(&b.history) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn batched_spsa_matches_pointwise_spsa() {
        let d = MultiStart {
            method: RestartMethod::Spsa(Spsa {
                iterations: 60,
                ..Spsa::default()
            }),
            restarts: 3,
            seed: 11,
            bounds: vec![(-1.0, 1.0)],
        };
        let f = |x: &[f64]| (x[0] + 0.3).powi(2);
        let sequential = d.minimize(&f);
        let batched = d.minimize_batched(&batch_of(f));
        for (a, b) in sequential.restarts.iter().zip(&batched.restarts) {
            assert_eq!(a.best_x, b.best_x);
            assert_eq!(a.best_f.to_bits(), b.best_f.to_bits());
        }
    }

    #[test]
    fn batched_panicking_restart_reports_its_index() {
        let d = driver(4);
        let poison = d.starting_points()[2].clone();
        let err = d
            .try_minimize_batched(&move |xs: &[Vec<f64>]| {
                xs.iter()
                    .map(|x| {
                        assert!(x != &poison, "injected failure at restart 2's start");
                        two_basin(x)
                    })
                    .collect()
            })
            .unwrap_err();
        assert!(matches!(
            err,
            MultiStartError::RestartPanicked { restart: 2, .. }
        ));
        // Lanes and the pool stay reusable.
        assert!(d.minimize_batched(&batch_of(two_basin)).best().best_f < 1e-3);
    }

    #[test]
    fn pre_cancelled_driver_runs_no_restarts() {
        use std::sync::atomic::AtomicBool;
        let cancel = AtomicBool::new(true);
        let err = driver(6)
            .try_minimize_cancellable(&two_basin, &cancel)
            .unwrap_err();
        assert_eq!(err, MultiStartError::Cancelled { completed: 0 });
        // The pool stays reusable after a cancellation.
        assert!(driver(6).minimize(&two_basin).best().best_f < 1e-3);
    }

    #[test]
    fn uncancelled_driver_is_bit_identical_to_plain() {
        use std::sync::atomic::AtomicBool;
        let cancel = AtomicBool::new(false);
        let plain = driver(5).try_minimize(&two_basin).unwrap();
        let cancellable = driver(5)
            .try_minimize_cancellable(&two_basin, &cancel)
            .unwrap();
        assert_eq!(plain.best_restart, cancellable.best_restart);
        for (a, b) in plain.restarts.iter().zip(&cancellable.restarts) {
            assert_eq!(a.best_f.to_bits(), b.best_f.to_bits());
            assert_eq!(a.best_x, b.best_x);
            assert_eq!(a.n_evals, b.n_evals);
        }
    }

    /// Both outcomes of two threads that start draining `set` together.
    fn drain_from_two_threads<F>(
        set: &RestartSet,
        f: &F,
        cancel: &AtomicBool,
    ) -> Vec<Option<Result<MultiStartRun, MultiStartError>>>
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let drainers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        set.drain(f, cancel)
                    })
                })
                .collect();
            drainers.into_iter().map(|t| t.join().unwrap()).collect()
        })
    }

    /// Two threads draining one set at once get `minimize`'s bits, and
    /// exactly one of them is told it recorded the last restart.
    #[test]
    fn two_threads_draining_one_set_give_the_minimize_bits() {
        let d = driver(7);
        let oneshot = d.minimize(&two_basin);
        let set = RestartSet::new(d).unwrap();
        let cancel = AtomicBool::new(false);
        let outcomes = drain_from_two_threads(&set, &two_basin, &cancel);
        assert_eq!(outcomes.iter().filter(|o| o.is_some()).count(), 1);
        let run = outcomes.into_iter().flatten().next().unwrap().unwrap();
        assert_eq!(run.best_restart, oneshot.best_restart);
        assert_eq!(run.restarts.len(), oneshot.restarts.len());
        for (a, b) in run.restarts.iter().zip(&oneshot.restarts) {
            assert_eq!(a.best_f.to_bits(), b.best_f.to_bits());
            assert_eq!(a.best_x, b.best_x);
            assert_eq!(a.n_evals, b.n_evals);
            for (x, y) in a.history.iter().zip(&b.history) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // A drainer that arrives after the cursor is used up does nothing.
        assert!(set
            .drain(
                &|_: &[f64]| -> f64 { unreachable!("no restart is left") },
                &cancel
            )
            .is_none());
    }

    /// A poisoned restart drained from two threads ends the run once, as
    /// `RestartPanicked` for its index; a late drainer finds nothing.
    #[test]
    fn panicking_restart_in_a_shared_set_is_reported_once() {
        let d = driver(6);
        let poison = d.starting_points()[2].clone();
        let f = move |x: &[f64]| {
            assert!(
                x != poison.as_slice(),
                "injected failure at restart 2's start"
            );
            two_basin(x)
        };
        let set = RestartSet::new(d).unwrap();
        let cancel = AtomicBool::new(false);
        let outcomes = drain_from_two_threads(&set, &f, &cancel);
        assert_eq!(outcomes.iter().filter(|o| o.is_some()).count(), 1);
        let err = outcomes.into_iter().flatten().next().unwrap().unwrap_err();
        assert!(matches!(
            err,
            MultiStartError::RestartPanicked { restart: 2, .. }
        ));
        assert!(set.drain(&f, &cancel).is_none());
    }

    /// A cancel raised mid-run skips every restart claimed afterwards,
    /// whichever thread claims it, and the one outcome counts the
    /// restarts that ran.
    #[test]
    fn cancel_in_a_shared_set_skips_later_claims() {
        let cancel = AtomicBool::new(false);
        let f = |x: &[f64]| {
            cancel.store(true, Ordering::Relaxed);
            two_basin(x)
        };
        let set = RestartSet::new(driver(8)).unwrap();
        let outcomes = drain_from_two_threads(&set, &f, &cancel);
        assert_eq!(outcomes.iter().filter(|o| o.is_some()).count(), 1);
        match outcomes.into_iter().flatten().next().unwrap() {
            Err(MultiStartError::Cancelled { completed }) => {
                assert!((1..=2).contains(&completed), "completed = {completed}")
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn starting_points_depend_only_on_seed() {
        let a = driver(7).starting_points();
        let b = driver(7).starting_points();
        assert_eq!(a, b);
        let c = MultiStart {
            seed: 43,
            ..driver(7)
        }
        .starting_points();
        assert_ne!(a, c);
    }

    #[test]
    fn huge_restart_count_is_an_error_before_any_restart_runs() {
        let huge = driver(1 << 40);
        let want = MultiStartError::TooManyRestarts { restarts: 1 << 40 };
        let never = |_: &[f64]| -> f64 { unreachable!("no restart may run") };
        let never_batched = |_: &[Vec<f64>]| -> Vec<f64> { unreachable!("no restart may run") };
        let cancel = std::sync::atomic::AtomicBool::new(false);
        assert_eq!(huge.try_starting_points().unwrap_err(), want);
        assert_eq!(huge.try_minimize(&never).unwrap_err(), want);
        assert_eq!(
            huge.try_minimize_cancellable(&never, &cancel).unwrap_err(),
            want
        );
        assert_eq!(huge.try_minimize_batched(&never_batched).unwrap_err(), want);
        // The driver still runs a sane restart count afterwards.
        assert_eq!(driver(3).minimize(&two_basin).restarts.len(), 3);
    }
}
