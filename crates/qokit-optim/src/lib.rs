//! # qokit-optim
//!
//! Classical parameter-optimization substrate for QAOA — the "Optimizer"
//! box of Fig. 1 in *Fast Simulation of High-Depth QAOA Circuits*. The
//! simulator exists to make the objective `⟨γβ|Ĉ|γβ⟩` cheap to evaluate
//! inside loops like these: Nelder–Mead, SPSA, grid/random search, plus the
//! linear-ramp (TQA) initialization and INTERP depth-extension heuristics
//! used for high-depth parameter setting.
//!
//! Three batched layers sit on top, feeding the work-stealing pool:
//! [`grid_search_2d_batched`] / [`random_search_batched`] hand the whole
//! point set to one evaluator call (pair them with a `SweepRunner` from
//! `qokit-core`), [`NelderMead::minimize_batched`] evaluates candidate
//! sets — the reflection/expansion pair, the initial simplex, shrink rows
//! — as single batches with a bit-identical trajectory to the sequential
//! driver, and [`MultiStart`] runs local-optimizer restarts as pool tasks
//! with results keyed by restart index — bit-identical for any pool size
//! given a deterministic objective.
//!
//! ```
//! use qokit_optim::{NelderMead, schedules};
//!
//! let (g, b) = schedules::linear_ramp(4, 0.8);
//! let x0 = schedules::pack(&g, &b);
//! let nm = NelderMead { max_evals: 3000, ..NelderMead::default() };
//! let result = nm.minimize(
//!     |x| x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum::<f64>(),
//!     &x0,
//! );
//! assert!(result.best_f < 1e-3);
//! ```

//!
//! *Part of the qokit workspace — see the top-level `README.md` for the
//! crate-by-crate architecture table and build/test/bench instructions.*

#![warn(missing_docs)]

pub mod multistart;
pub mod nelder_mead;
pub mod schedules;
pub mod search;
pub mod spsa;

pub use multistart::{MultiStart, MultiStartError, MultiStartRun, RestartMethod, RestartSet};
pub use nelder_mead::NelderMead;
pub use search::{
    grid_points_2d, grid_search_2d, grid_search_2d_batched, random_search, random_search_batched,
};
pub use spsa::Spsa;

/// Outcome of a minimization run.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// Best parameter vector found.
    pub best_x: Vec<f64>,
    /// Objective value at `best_x`.
    pub best_f: f64,
    /// Number of objective evaluations consumed.
    pub n_evals: usize,
    /// Best-so-far objective after each evaluation (monotone non-increasing).
    pub history: Vec<f64>,
}
