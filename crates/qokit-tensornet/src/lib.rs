//! # qokit-tensornet
//!
//! The tensor-network **amplitude engine** of the QOKit reproduction — the
//! stand-in for cuTensorNet/QTensor in Fig. 3 of *Fast Simulation of
//! High-Depth QAOA Circuits*. Builds the amplitude network
//! `⟨x|QAOA(γ,β)|+⟩` with diagonal cost terms as hyperedge tensors (the
//! diagonal-gate trick of the paper's Ref. \[23\]) and contracts it three
//! ways:
//!
//! * [`qaoa_amplitude`] — the original greedy pairwise contraction, kept
//!   as the ablation baseline;
//! * [`ContractionPlan`] — a line-graph / min-fill ordering planned once
//!   from the network structure and replayed for every `(γ, β, x)`;
//! * [`SlicePlan`] / [`TnEngine`] — when the planned width exceeds the
//!   cap, slice legs are fixed and the `2^k` projected networks contract
//!   as pool tasks with fixed-order accumulation (bit-identical at every
//!   pool width).
//!
//! Deep LABS circuits still drive the contraction width toward `n` — the
//! paper's argument for state-vector simulation at high depth — and the
//! [`TnEngine`] surfaces that as a [`TnError::WidthExceeded`] only after
//! slicing has been exhausted.
//!
//! The crate computes amplitudes only. Fig. 3 compares the two methods on
//! per-amplitude cost; a QAOA *energy* always goes through the state-vector
//! simulator's precomputed diagonal (`qokit-core`), because summing
//! `|⟨x|ψ⟩|²·C(x)` from contractions would need all `2^n` amplitudes.
//!
//! ```
//! use qokit_tensornet::{qaoa_amplitude, TnEngine, TnOptions};
//! use qokit_terms::maxcut::maxcut_polynomial;
//! use qokit_terms::Graph;
//!
//! let poly = maxcut_polynomial(&Graph::ring(4, 1.0));
//! let (amp, width) = qaoa_amplitude(&poly, &[0.4], &[0.8], 0, 30).unwrap();
//! assert!(amp.norm_sqr() <= 1.0);
//! assert!(width <= 30);
//!
//! // Plan once, evaluate any angles at the same structure.
//! let engine = TnEngine::new(&poly, 1, TnOptions::default()).unwrap();
//! let planned = engine.amplitude(&[0.4], &[0.8], 0);
//! assert!(planned.approx_eq(amp, 1e-12));
//! ```

//!
//! *Part of the qokit workspace — see the top-level `README.md` for the
//! crate-by-crate architecture table and build/test/bench instructions.*

#![warn(missing_docs)]

pub mod engine;
pub mod network;
pub mod plan;
pub mod slice;
pub mod tensor;

pub use engine::{TnEngine, TnOptions, TnReport, DEFAULT_WIDTH_CAP};
pub use network::{build_qaoa_network, qaoa_amplitude, QaoaNetwork, TensorNetwork, TnError};
pub use plan::{ContractionPlan, PlanStep};
pub use slice::{SlicePlan, SliceStats, DEFAULT_MAX_SLICE_LEGS};
pub use tensor::Tensor;
