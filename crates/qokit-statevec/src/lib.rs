//! # qokit-statevec
//!
//! Complex state-vector substrate for the QOKit reproduction: the in-place
//! "fast uniform SU(2)/SU(4) transform" kernels of *Fast Simulation of
//! High-Depth QAOA Circuits* (Lykov et al., SC 2023, Algorithms 1–2), the
//! diagonal phase/objective kernels enabled by cost-vector precomputation,
//! and the fast Walsh–Hadamard transform.
//!
//! Every kernel runs serially or on the pool with identical index
//! arithmetic — mirroring the paper's CPU/GPU split. Which executor runs,
//! and how sweeps are split across it, is decided by the one
//! [`exec::ExecPolicy`] every kernel takes: its worker count (`1` = serial
//! loops, `0` = the ambient pool, `k` = a cached `k`-worker pool) and its
//! split thresholds. The pool is the real work-stealing pool in
//! `vendor/rayon`, sized by `QOKIT_THREADS`.
//!
//! Amplitudes come in two memory layouts. The simulators evolve
//! split-complex planes ([`split::SplitStateVec`], two bare `f64` arrays),
//! whose plane-wise kernels (`*_split`) compile to straight-line `f64`
//! loops the autovectorizer packs into SIMD lanes. Interleaved [`C64`]
//! pairs ([`StateVec`]) are the form the public state API hands out and
//! the input of the interleaved kernel twins, which give the same bits.
//!
//! ```
//! use qokit_statevec::{ExecPolicy, Mat2, StateVec};
//! use qokit_statevec::su2::apply_uniform_mat2;
//!
//! // One full transverse-field mixer pass e^{-iβ Σᵢ Xᵢ}:
//! let mut state = StateVec::uniform_superposition(10);
//! apply_uniform_mat2(state.amplitudes_mut(), &Mat2::rx(0.3), ExecPolicy::serial());
//! assert!((state.norm_sqr() - 1.0).abs() < 1e-10);
//! ```

//!
//! *Part of the qokit workspace — see the top-level `README.md` for the
//! crate-by-crate architecture table and build/test/bench instructions.*

#![warn(missing_docs)]

pub mod complex;
pub mod diag;
pub mod exec;
pub mod fwht;
pub mod matrices;
pub mod reference;
pub mod split;
pub mod state;
pub mod su2;
pub mod su4;

pub use complex::{AMP_BYTES, C64};
pub use exec::{ExecPolicy, Layout};
pub use matrices::{Mat2, Mat4};
pub use split::SplitStateVec;
pub use state::{binomial, StateVec, MAX_QUBITS};
