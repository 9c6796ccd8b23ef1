//! # qokit-core
//!
//! The paper's primary contribution: a fast QAOA simulator that precomputes
//! the diagonal cost Hamiltonian once, applies each phase operator as one
//! elementwise product, evaluates the objective as one inner product, and
//! applies mixers with in-place fast uniform SU(2)/SU(4) transforms
//! (Algorithms 1–3 of *Fast Simulation of High-Depth QAOA Circuits*,
//! SC 2023).
//!
//! ```
//! use qokit_core::{FurSimulator, QaoaSimulator};
//! use qokit_terms::maxcut::all_to_all_terms;
//!
//! // Listing 1 of the paper, in Rust: weighted all-to-all MaxCut.
//! let terms = all_to_all_terms(10, 0.3);
//! let sim = FurSimulator::new(&terms);
//! let costs = sim.cost_diagonal();          // get_cost_diagonal()
//! assert_eq!(costs.len(), 1 << 10);
//! let result = sim.simulate_qaoa(&[0.2], &[0.4]);
//! let energy = sim.get_expectation(&result);
//! assert!(energy.is_finite());
//! ```

//!
//! *Part of the qokit workspace — see the top-level `README.md` for the
//! crate-by-crate architecture table and build/test/bench instructions.*

#![warn(missing_docs)]

pub mod batch;
pub mod landscape;
pub mod lightcone;
pub mod mixers;
pub mod sampling;
pub mod simulator;

pub use batch::{SweepError, SweepNesting, SweepOptions, SweepPoint, SweepRunner};
pub use landscape::{EnergySink, Histogram2d, HistogramSpec, LandscapeAggregator};
pub use lightcone::{
    cone_zz, ConePlan, LightConeError, LightConeEvaluator, LightConeOptions, LightConeRun,
    LightConeStats, PlannedCone,
};
pub use mixers::{ring_edges, Mixer};
pub use sampling::{best_sampled_cost, evolve_with_observer, sample_bitstrings, LayerSnapshot};
pub use simulator::{
    choose_simulator, choose_simulator_xycomplete, choose_simulator_xyring, FurSimulator,
    InitialState, QaoaSimulator, SimOptions, SimResult,
};

/// The text of a panic payload caught by `catch_unwind`: the `&str` or
/// `String` it carries, else `"non-string panic payload"`. Every site that
/// contains a panic and reports it in-band (sweep points, light cones,
/// distributed workers, served jobs) formats the payload with this.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
