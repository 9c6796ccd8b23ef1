//! # qokit-dist
//!
//! Distributed QAOA simulation substrate (§III-C of *Fast Simulation of
//! High-Depth QAOA Circuits*): K ranks each own a `2^{n-k}` slice of the
//! state, precompute their cost slice locally, and apply the mixer with
//! Algorithm 4 — two `MPI_Alltoall`-style transposes around local
//! butterfly passes. Ranks run as **work-stealing-pool tasks** in a BSP
//! schedule (supersteps between driver-side collectives), so K ranks fold
//! onto however many workers `QOKIT_THREADS` provides and share the pool
//! with batched parameter sweeps. A calibrated analytic cluster model
//! regenerates the paper's 1,024-GPU weak-scaling curves (Fig. 5) beyond
//! what one machine can thread.
//!
//! The same BSP engine also shards along the *other* axis: a
//! [`DistSweepRunner`] distributes the **batch** of a huge `(γ, β)`
//! landscape scan — each rank owns a contiguous slice of the point
//! sequence, streams it through a rank-local sweep runner, and folds
//! energies into a
//! [`LandscapeAggregator`](qokit_core::landscape::LandscapeAggregator)
//! merged in rank order, so `>2^20`-point scans run in `O(ranks · top_k)`
//! memory. A [`DistLightCone`] shards the unique cones of a light-cone
//! MaxCut evaluation the same way.
//!
//! On a [`Transport`], every rank step is one [`wire::Request`] handled by
//! [`worker::handle`], whether the rank is a pool task behind an
//! [`InProcessTransport`] or a worker process behind a [`TcpTransport`],
//! so the two give the same bits. `DistLightCone` and `DistSweepRunner`
//! always run this way; [`DistSweepRunner::try_scan`]'s in-process ranks
//! share the runner's one cost vector instead of rebuilding it.
//! [`DistSimulator::simulate_qaoa`] (in-place alltoall with modeled MPI
//! byte counts, for Fig. 5) also has a direct in-process engine with the
//! same outputs. Each Algorithm-4 rank stores
//! its cost slice by the single-node `CostVec::from_f64` rule: level-coded
//! at 2 B/amp (§V-B) when the slice has few distinct costs, `f64`
//! otherwise. See `docs/PARALLELISM.md` at the repository root for how the
//! BSP layer composes with the pool, item fan-outs, and sweep nesting.
//!
//! ```
//! use qokit_dist::DistSimulator;
//! use qokit_terms::labs::labs_terms;
//!
//! let sim = DistSimulator::new(labs_terms(8), 4).unwrap();
//! let r = sim.simulate_qaoa(&[0.2], &[0.5]);
//! assert!((r.state.norm_sqr() - 1.0).abs() < 1e-9);
//! assert_eq!(r.comm.alltoall_calls, 2); // one mixer = two transposes
//! ```

//!
//! *Part of the qokit workspace — see the top-level `README.md` for the
//! crate-by-crate architecture table and build/test/bench instructions.*

#![warn(missing_docs)]

pub mod comm;
pub mod dist_sim;
pub mod dist_sweep;
pub mod frame;
pub mod lightcone;
pub mod model;
pub mod transport;
pub mod wire;
pub mod worker;

pub use comm::{BspComm, CommStats};
pub use dist_sim::{DistError, DistResult, DistSimulator};
pub use dist_sweep::{
    Axis, DistScan, DistSweepError, DistSweepOptions, DistSweepRunner, Grid2d, PointSource,
};
pub use lightcone::{DistLightCone, DistLightConeError, DistLightConeRun};
pub use model::{ClusterModel, CommBackend, ModeledLayerTime};
pub use transport::{
    InProcessTransport, TcpTransport, Transport, TransportError, TransportErrorKind, TransportKind,
    WorkerSpawn,
};
