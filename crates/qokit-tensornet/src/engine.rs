//! The TN execution engine: plan once per `(polynomial, p)`, evaluate many.
//!
//! [`TnEngine`] is the tensor-network counterpart of the paper's
//! cost-vector precompute: the expensive, angle-independent part (the
//! contraction plan, plus slice-leg selection when the plan exceeds the
//! width cap) is built once from the network *structure*, and every
//! amplitude `⟨x|QAOA(γ,β)|+⟩` — for any angles and any basis state —
//! replays it on fresh tensor values. Amplitudes are the unit Fig. 3 of
//! the paper compares; the engine computes no energies, since an energy
//! from amplitudes would need all `2^n` of them, where the state-vector
//! simulator reads it off the cost diagonal in one inner product.

use crate::network::{build_qaoa_network, TnError};
use crate::slice::{SlicePlan, SliceStats, DEFAULT_MAX_SLICE_LEGS};
use qokit_statevec::{ExecPolicy, C64};
use qokit_terms::SpinPolynomial;

/// Default width cap: 2^28 complex entries (4 GiB) is the largest
/// intermediate a contraction may allocate before slicing kicks in.
pub const DEFAULT_WIDTH_CAP: usize = 28;

/// Knobs for [`TnEngine`].
#[derive(Clone, Debug)]
pub struct TnOptions {
    /// Maximum intermediate rank a contraction may allocate; wider plans
    /// are sliced.
    pub width_cap: usize,
    /// Slice legs tried before [`TnError::WidthExceeded`] is reported.
    pub max_slice_legs: usize,
    /// Executor for the slice fan-out. [`qokit_statevec::ExecPolicy::serial()`]
    /// keeps everything in the calling thread;
    /// [`qokit_statevec::ExecPolicy::rayon()`] uses the (possibly
    /// [`ExecPolicy::with_threads`]-sized) pool. Results are identical
    /// either way.
    pub exec: ExecPolicy,
}

impl Default for TnOptions {
    fn default() -> Self {
        TnOptions {
            width_cap: DEFAULT_WIDTH_CAP,
            max_slice_legs: DEFAULT_MAX_SLICE_LEGS,
            exec: ExecPolicy::serial(),
        }
    }
}

/// What the planner decided, for logging and the `abl_tn` ablation.
#[derive(Clone, Debug, PartialEq)]
pub struct TnReport {
    /// Qubits in the problem.
    pub n: usize,
    /// QAOA depth the plan was built for.
    pub p: usize,
    /// Tensors in the amplitude network.
    pub n_tensors: usize,
    /// Slicing outcome (slice count 1 when the plan fit the cap).
    pub slicing: SliceStats,
}

/// A planned tensor-network evaluator for one `(polynomial, p)` pair.
#[derive(Clone, Debug)]
pub struct TnEngine {
    poly: SpinPolynomial,
    p: usize,
    opts: TnOptions,
    slice_plan: SlicePlan,
    n_tensors: usize,
}

impl TnEngine {
    /// Plans the amplitude network of `poly` at depth `p`. Fails with
    /// [`TnError::WidthExceeded`] only when even
    /// [`TnOptions::max_slice_legs`] slice legs leave the contraction wider
    /// than [`TnOptions::width_cap`].
    pub fn new(poly: &SpinPolynomial, p: usize, opts: TnOptions) -> Result<TnEngine, TnError> {
        let zeros = vec![0.0; p];
        let probe = build_qaoa_network(poly, &zeros, &zeros, 0);
        let structure = probe.structure();
        let slice_plan = SlicePlan::choose(&structure, opts.width_cap, opts.max_slice_legs)?;
        Ok(TnEngine {
            poly: poly.clone(),
            p,
            opts,
            n_tensors: structure.len(),
            slice_plan,
        })
    }

    /// The depth the plan serves.
    pub fn depth(&self) -> usize {
        self.p
    }

    /// The problem polynomial.
    pub fn polynomial(&self) -> &SpinPolynomial {
        &self.poly
    }

    /// The slice plan in force.
    pub fn slice_plan(&self) -> &SlicePlan {
        &self.slice_plan
    }

    /// Planner report: widths, slice count, estimated slicing overhead.
    pub fn report(&self) -> TnReport {
        TnReport {
            n: self.poly.n_vars(),
            p: self.p,
            n_tensors: self.n_tensors,
            slicing: self.slice_plan.stats(),
        }
    }

    fn tensors_for(&self, gammas: &[f64], betas: &[f64], x: u64) -> Vec<crate::tensor::Tensor> {
        assert_eq!(gammas.len(), self.p, "engine planned for depth {}", self.p);
        assert_eq!(betas.len(), self.p, "engine planned for depth {}", self.p);
        let net = build_qaoa_network(&self.poly, gammas, betas, x);
        debug_assert_eq!(net.len(), self.n_tensors, "network structure drifted");
        net.into_tensors()
    }

    /// The amplitude `⟨x|QAOA(γ,β)|+⟩`, replaying the cached plan (sliced
    /// when the planner had to slice).
    ///
    /// # Panics
    /// If `gammas`/`betas` do not have length `p`.
    pub fn amplitude(&self, gammas: &[f64], betas: &[f64], x: u64) -> C64 {
        let tensors = self.tensors_for(gammas, betas, x);
        self.slice_plan.execute(&tensors, &self.opts.exec)
    }

    /// The unsliced serial reference for [`TnEngine::amplitude`]: one pass
    /// with the slice legs kept open, entries summed in flat order. Equal
    /// to `amplitude` bit for bit — the anchor of the differential suite.
    pub fn amplitude_unsliced(&self, gammas: &[f64], betas: &[f64], x: u64) -> C64 {
        let tensors = self.tensors_for(gammas, betas, x);
        self.slice_plan.execute_unsliced(&tensors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::qaoa_amplitude;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::Graph;

    #[test]
    fn planned_amplitudes_match_greedy() {
        let poly = maxcut_polynomial(&Graph::ring(6, 1.0));
        let engine = TnEngine::new(&poly, 2, TnOptions::default()).unwrap();
        let (g, b) = (vec![0.4, 0.2], vec![0.7, 0.3]);
        for x in [0u64, 5, 17, 63] {
            let planned = engine.amplitude(&g, &b, x);
            let (greedy, _) = qaoa_amplitude(&poly, &g, &b, x, 40).unwrap();
            assert!(planned.approx_eq(greedy, 1e-12), "x = {x}");
        }
    }

    #[test]
    fn one_plan_serves_many_angles() {
        let poly = labs_terms(5);
        let engine = TnEngine::new(&poly, 1, TnOptions::default()).unwrap();
        for (g, b) in [(0.1, 0.9), (0.5, 0.5), (1.2, 0.05)] {
            let planned = engine.amplitude(&[g], &[b], 3);
            let (greedy, _) = qaoa_amplitude(&poly, &[g], &[b], 3, 40).unwrap();
            assert!(planned.approx_eq(greedy, 1e-12), "γ = {g}, β = {b}");
        }
    }

    #[test]
    fn report_counts_slices() {
        let poly = labs_terms(6);
        let wide = TnEngine::new(&poly, 2, TnOptions::default()).unwrap();
        assert_eq!(wide.report().slicing.n_slices, 1);
        let cap = wide.slice_plan().plan().width() - 1;
        let tight = TnEngine::new(
            &poly,
            2,
            TnOptions {
                width_cap: cap,
                ..TnOptions::default()
            },
        )
        .unwrap();
        let report = tight.report();
        assert!(report.slicing.n_slices >= 2);
        assert!(report.slicing.width <= cap);
        assert!(report.slicing.overhead >= 1.0);
    }
}
