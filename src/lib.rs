//! # qokit — Fast Simulation of High-Depth QAOA Circuits, in Rust
//!
//! A from-scratch reproduction of Lykov, Shaydulin, Sun, Alexeev and
//! Pistoia, *Fast Simulation of High-Depth QAOA Circuits* (SC 2023,
//! arXiv:2309.04841) — the paper behind JPMorgan Chase's QOKit framework.
//!
//! The central idea: precompute the diagonal cost Hamiltonian `Ĉ` once
//! into a `2^n` **cost vector**; every QAOA phase operator then costs one
//! elementwise product, the objective one inner product, and the mixer an
//! in-place butterfly on every qubit (Algorithms 1–3; the X mixer fuses
//! them into `⌈n/2⌉` sweeps with the same bits). The cost vector
//! distributes over K workers with zero-communication precomputation and
//! two all-to-all transposes per mixer (Algorithm 4).
//!
//! This facade re-exports the workspace crates:
//!
//! | crate | role |
//! |---|---|
//! | [`terms`] | spin polynomials (Eq. 1), graphs, MaxCut/LABS/portfolio |
//! | [`statevec`] | state vectors, SU(2)/SU(4) butterfly kernels, FWHT |
//! | [`costvec`] | cost-vector precompute (direct + FWHT), `f64` or level-coded storage (the §V-B 2-byte form, exact) |
//! | [`core`] | the fast simulator and its QOKit-style API |
//! | [`gates`] | gate-based baseline (compilation, fusion, counting) |
//! | [`tensornet`] | tensor-network amplitude engine for Fig. 3: planned contraction, slicing |
//! | [`dist`] | BSP distributed simulation (ranks as pool supersteps) + batch-sharded landscape scans + cluster model |
//! | [`optim`] | Nelder–Mead/SPSA/grid optimizers and schedules |
//! | [`serve`] | long-lived loopback-TCP job server: precompute cache, bounded queue, deadlines/cancellation |
//!
//! ## Executors and `QOKIT_THREADS`
//!
//! Every kernel runs under an [`statevec::ExecPolicy`] — worker count and
//! split thresholds in one object — and [`core::SimOptions::exec`] carries
//! it through the simulator. The worker count `threads` is the one
//! executor knob: `1` runs serial loops (`ExecPolicy::serial()`), `0` the
//! ambient pool (`ExecPolicy::rayon()`), and `k ≥ 2` a cached `k`-worker
//! pool (`with_threads(k)`), whatever the global setting. The pool is a
//! real work-stealing thread pool (the vendored `rayon`), so parallel runs
//! use every core while producing the same amplitudes as serial ones.
//!
//! The **`QOKIT_THREADS`** environment variable sizes the ambient pool:
//!
//! * unset or `0` — the hardware thread count;
//! * `k ≥ 1` — `k` workers.
//!
//! `ExecPolicy::auto()` is `serial()` on a pool one worker wide and
//! `rayon()` otherwise, so `QOKIT_THREADS=1` makes every default policy
//! serial.
//!
//! ## Batched sweeps and multi-restart optimization
//!
//! The same pool also powers coarse-grained parallelism: a
//! [`core::batch::SweepRunner`] evaluates many `(γ, β)` points as pool
//! tasks over one `Arc`-shared cost vector (with recycled per-worker state
//! buffers and a `nested` knob choosing points-parallel vs
//! kernels-parallel execution), [`optim::MultiStart`] runs
//! Nelder–Mead/SPSA restarts as pool tasks keyed by restart index (and
//! [`optim::MultiStart::minimize_batched`] runs them as *lanes* on
//! sibling subset pools, each restart evaluating candidate batches), and
//! [`optim::grid_search_2d_batched`] / [`optim::random_search_batched`]
//! drive whole search grids through one batched call.
//!
//! Landscape scans past what a collected `Vec` of energies can hold go
//! through [`dist::DistSweepRunner`]: K BSP ranks each own a contiguous
//! slice of the batch and stream it into mergeable
//! [`core::landscape::LandscapeAggregator`]s (running min/argmin, top-k,
//! optional 2-D histogram) — `O(ranks · top_k)` memory at any scan size.
//! The architecture guide for how these four parallel layers compose —
//! the work-stealing pool, subset pools, `SweepNesting`, and BSP ranks —
//! is `docs/PARALLELISM.md` at the repository root.
//!
//! ```
//! use qokit::prelude::*;
//!
//! let sim = FurSimulator::new(&qokit::terms::labs::labs_terms(8));
//! let runner = SweepRunner::new(sim);
//! let r = qokit::optim::grid_search_2d_batched(
//!     |pts| runner.energies_p1(pts),
//!     (-0.5, 0.5),
//!     (-0.5, 0.5),
//!     5,
//! );
//! assert_eq!(r.n_evals, 25);
//! assert!(r.best_f.is_finite());
//! ```
//!
//! ## Quickstart (Listing 1 of the paper)
//!
//! ```
//! use qokit::prelude::*;
//!
//! let n = 10;
//! // terms for all-to-all MaxCut with weight 0.3
//! let terms = qokit::terms::maxcut::all_to_all_terms(n, 0.3);
//! let sim = FurSimulator::new(&terms);
//! let costs = sim.cost_diagonal();              // precomputed diagonal
//! let result = sim.simulate_qaoa(&[0.2], &[0.4]);
//! let energy = sim.get_expectation(&result);
//! assert!(energy >= costs.extrema().0 - 1e-9);
//! ```

//!
//! *Part of the qokit workspace — see the top-level `README.md` for the
//! crate-by-crate architecture table and build/test/bench instructions.*

#![warn(missing_docs)]

pub use qokit_core as core;
pub use qokit_costvec as costvec;
pub use qokit_dist as dist;
pub use qokit_gates as gates;
pub use qokit_optim as optim;
pub use qokit_serve as serve;
pub use qokit_statevec as statevec;
pub use qokit_tensornet as tensornet;
pub use qokit_terms as terms;

/// The most common imports in one place.
pub mod prelude {
    pub use qokit_core::{
        choose_simulator, EnergySink, FurSimulator, HistogramSpec, InitialState,
        LandscapeAggregator, LightConeEvaluator, LightConeOptions, LightConeStats, Mixer,
        QaoaSimulator, SimOptions, SimResult, SweepNesting, SweepOptions, SweepPoint, SweepRunner,
    };
    pub use qokit_costvec::{CostVec, PrecomputeMethod};
    pub use qokit_dist::{
        Axis, DistSweepOptions, DistSweepRunner, Grid2d, InProcessTransport, PointSource,
        TcpTransport, Transport, TransportError, TransportErrorKind, TransportKind, WorkerSpawn,
    };
    pub use qokit_serve::{
        JobOutcome, LightConeJob, MultiStartJob, ServeClient, Server, ServerConfig, SweepJob,
    };
    pub use qokit_statevec::{ExecPolicy, Layout, SplitStateVec, StateVec, C64};
    pub use qokit_terms::{Graph, SpinPolynomial, Term};
}
