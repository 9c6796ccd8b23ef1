//! # qokit-costvec
//!
//! Cost-vector precomputation for the QOKit reproduction (§III-A and §V-B
//! of *Fast Simulation of High-Depth QAOA Circuits*): evaluating the
//! diagonal problem Hamiltonian `Ĉ` on all `2^n` bitstrings once, storing
//! it as `f64` or level-coded (the distinct values plus a `u16` index per
//! entry: chosen by [`CostVec::from_f64`] when the values are few, and the
//! form of the §V-B integer grid, [`CostVec::quantize_exact`]), and
//! applying it as phase operator or objective with a single vector pass.
//!
//! ```
//! use qokit_costvec::{CostVec, PrecomputeMethod};
//! use qokit_statevec::{ExecPolicy, StateVec};
//! use qokit_terms::labs::labs_terms;
//!
//! let poly = labs_terms(10);
//! let costs = CostVec::from_polynomial(&poly, PrecomputeMethod::Fwht, ExecPolicy::serial());
//! let mut state = StateVec::uniform_superposition(10);
//! costs.apply_phase(state.amplitudes_mut(), 0.1, ExecPolicy::serial());
//! let energy = costs.expectation(state.amplitudes(), ExecPolicy::serial());
//! assert!(energy.is_finite());
//! ```

//!
//! *Part of the qokit workspace — see the top-level `README.md` for the
//! crate-by-crate architecture table and build/test/bench instructions.*

#![warn(missing_docs)]

pub mod costvec;
pub mod precompute;

pub use costvec::{CostVec, QuantizeError};
pub use precompute::{
    fill_direct_slice, precompute, precompute_direct, precompute_from_fn, precompute_fwht,
    PrecomputeMethod,
};
