//! Tensor networks for QAOA amplitudes, with greedy contraction.
//!
//! This is the reproduction's stand-in for cuTensorNet/QTensor in Fig. 3.
//! The network computes a single amplitude `⟨x|QAOA(γ,β)|+⟩` (the paper's
//! TN timing protocol: one amplitude per contraction, total time divided
//! by `p`). Diagonal cost terms are attached as hyperedge tensors directly
//! on the qubit wires — the diagonal-gate trick of the paper's Ref. \[23\] —
//! so the phase operator adds no new wire segments; only mixers do.
//!
//! Deep LABS circuits still force the greedy contraction into
//! intermediates of rank ≈ n ("contraction width equal to n"), which is
//! exactly the observation that motivates the paper's state-vector
//! approach. A configurable width cap turns that blow-up into a reported
//! infeasibility instead of an OOM.

use crate::tensor::Tensor;
use qokit_statevec::C64;
use qokit_terms::SpinPolynomial;

/// Errors during network contraction.
#[derive(Clone, Debug, PartialEq)]
pub enum TnError {
    /// Every remaining contraction pair exceeds the width cap.
    WidthExceeded {
        /// Rank of the smallest achievable intermediate.
        rank: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for TnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TnError::WidthExceeded { rank, cap } => {
                write!(f, "contraction width {rank} exceeds cap {cap}")
            }
        }
    }
}

impl std::error::Error for TnError {}

/// A tensor network under construction / contraction.
#[derive(Clone, Debug, Default)]
pub struct TensorNetwork {
    tensors: Vec<Tensor>,
    next_leg: usize,
}

impl TensorNetwork {
    /// An empty network.
    pub fn new() -> Self {
        TensorNetwork::default()
    }

    /// Allocates a fresh leg id.
    pub fn fresh_leg(&mut self) -> usize {
        let l = self.next_leg;
        self.next_leg += 1;
        l
    }

    /// Adds a tensor.
    pub fn add(&mut self, t: Tensor) {
        self.tensors.push(t);
    }

    /// Number of tensors currently in the network.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// `true` when the network holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// The network's *structure*: each tensor's leg list, in insertion
    /// order. This is everything a [`crate::plan::ContractionPlan`] needs —
    /// tensor values play no part in planning.
    pub fn structure(&self) -> Vec<Vec<usize>> {
        self.tensors.iter().map(|t| t.legs.clone()).collect()
    }

    /// A view of the tensors, in insertion order.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Consumes the network, yielding the tensors in insertion order —
    /// aligned with [`TensorNetwork::structure`] so they can be fed to a
    /// plan built from it.
    pub fn into_tensors(self) -> Vec<Tensor> {
        self.tensors
    }

    /// Greedily contracts the whole network to a scalar: repeatedly picks
    /// the connected tensor pair whose contraction yields the smallest
    /// intermediate rank. `width_cap` bounds the intermediate rank;
    /// exceeding it aborts with [`TnError::WidthExceeded`]. Returns the
    /// scalar and the maximum intermediate rank encountered (the
    /// *contraction width*).
    pub fn contract_greedy(mut self, width_cap: usize) -> Result<(C64, usize), TnError> {
        let mut max_width = 0usize;
        while self.tensors.len() > 1 {
            // Count leg multiplicities to know which legs may be summed.
            let mut leg_count = std::collections::HashMap::<usize, usize>::new();
            for t in &self.tensors {
                for &l in &t.legs {
                    *leg_count.entry(l).or_insert(0) += 1;
                }
            }
            // Find the best pair (smallest resulting rank).
            let mut best: Option<(usize, usize, usize, Vec<usize>)> = None; // (i, j, rank, sum)
            for i in 0..self.tensors.len() {
                for j in i + 1..self.tensors.len() {
                    let (ti, tj) = (&self.tensors[i], &self.tensors[j]);
                    let shared: Vec<usize> = ti
                        .legs
                        .iter()
                        .copied()
                        .filter(|l| tj.legs.contains(l))
                        .collect();
                    if shared.is_empty() && !(ti.legs.is_empty() || tj.legs.is_empty()) {
                        continue; // only contract connected pairs (or absorb scalars)
                    }
                    // Legs summable now: shared by exactly these two tensors.
                    let sum: Vec<usize> = shared
                        .iter()
                        .copied()
                        .filter(|l| leg_count[l] == 2)
                        .collect();
                    let union: std::collections::HashSet<usize> =
                        ti.legs.iter().chain(tj.legs.iter()).copied().collect();
                    let rank = union.len() - sum.len();
                    if best.as_ref().is_none_or(|b| rank < b.2) {
                        best = Some((i, j, rank, sum));
                    }
                }
            }
            let (i, j, rank, sum) = match best {
                Some(b) => b,
                None => {
                    // Disconnected network: multiply any two scalars-to-be
                    // via an outer product of the two smallest tensors.
                    let (i, j) = (0, 1);
                    let rank = self.tensors[i].rank() + self.tensors[j].rank();
                    (i, j, rank, vec![])
                }
            };
            if rank > width_cap {
                return Err(TnError::WidthExceeded {
                    rank,
                    cap: width_cap,
                });
            }
            max_width = max_width.max(rank);
            let tj = self.tensors.swap_remove(j); // j > i, so i stays valid
            let ti = self.tensors.swap_remove(i);
            self.tensors.push(ti.contract(&tj, &sum));
        }
        let scalar = match self.tensors.pop() {
            Some(t) => {
                assert!(
                    t.legs.is_empty(),
                    "network contracted to a non-scalar (open legs remain)"
                );
                t.into_scalar()
            }
            None => C64::ONE,
        };
        Ok((scalar, max_width))
    }
}

/// Builder for QAOA amplitude networks.
pub struct QaoaNetwork {
    net: TensorNetwork,
    /// Current wire leg per qubit.
    wires: Vec<usize>,
}

impl QaoaNetwork {
    /// Starts a network with the `|+⟩^{⊗n}` input layer.
    pub fn plus_state(n: usize) -> Self {
        let mut net = TensorNetwork::new();
        let mut wires = Vec::with_capacity(n);
        let amp = C64::from_re(std::f64::consts::FRAC_1_SQRT_2);
        for _ in 0..n {
            let leg = net.fresh_leg();
            net.add(Tensor::new(vec![leg], vec![amp, amp]));
            wires.push(leg);
        }
        QaoaNetwork { net, wires }
    }

    /// Attaches one phase layer `e^{-iγĈ}`: each cost term becomes a
    /// diagonal hyperedge tensor `T[s_1…s_k] = e^{-iγ·w·(−1)^{parity}}`
    /// sitting on the wires it touches (no new legs). Constant terms
    /// multiply in as scalars.
    pub fn phase_layer(&mut self, poly: &SpinPolynomial, gamma: f64) {
        for t in poly.terms() {
            if t.is_constant() {
                self.net.add(Tensor::scalar(C64::cis(-gamma * t.weight)));
                continue;
            }
            let idx = t.indices();
            let k = idx.len();
            let legs: Vec<usize> = idx.iter().map(|&q| self.wires[q]).collect();
            let data: Vec<C64> = (0..1usize << k)
                .map(|bits| {
                    let parity = (bits.count_ones() & 1) as i32;
                    let sign = 1.0 - 2.0 * parity as f64;
                    C64::cis(-gamma * t.weight * sign)
                })
                .collect();
            self.net.add(Tensor::new(legs, data));
        }
    }

    /// Attaches one transverse-field mixer layer: a dense 2×2 tensor per
    /// qubit, advancing the wire.
    pub fn mixer_layer(&mut self, beta: f64) {
        let (s, c) = beta.sin_cos();
        // e^{-iβX} with index (out, in): row-major legs [out, in].
        let m = [
            C64::from_re(c),
            C64::new(0.0, -s),
            C64::new(0.0, -s),
            C64::from_re(c),
        ];
        for q in 0..self.wires.len() {
            let out = self.net.fresh_leg();
            self.net
                .add(Tensor::new(vec![out, self.wires[q]], m.to_vec()));
            self.wires[q] = out;
        }
    }

    /// Closes the network with `⟨x|` and returns it.
    pub fn close_with_basis_state(mut self, x: u64) -> TensorNetwork {
        for (q, &wire) in self.wires.iter().enumerate() {
            let bit = (x >> q) & 1;
            let data = if bit == 0 {
                vec![C64::ONE, C64::ZERO]
            } else {
                vec![C64::ZERO, C64::ONE]
            };
            self.net.add(Tensor::new(vec![wire], data));
        }
        self.net
    }
}

/// Builds the closed amplitude network for `⟨x|QAOA(γ,β)|+⟩` without
/// contracting it. The leg structure of the result is a pure function of
/// `(poly, p)` — neither the angles nor `x` influence leg ids — which is
/// what lets one [`crate::plan::ContractionPlan`] serve every amplitude of
/// a problem.
pub fn build_qaoa_network(
    poly: &SpinPolynomial,
    gammas: &[f64],
    betas: &[f64],
    x: u64,
) -> TensorNetwork {
    assert_eq!(gammas.len(), betas.len(), "gamma/beta length mismatch");
    let mut b = QaoaNetwork::plus_state(poly.n_vars());
    for (&g, &bt) in gammas.iter().zip(betas.iter()) {
        b.phase_layer(poly, g);
        b.mixer_layer(bt);
    }
    b.close_with_basis_state(x)
}

/// Computes the amplitude `⟨x|QAOA(γ,β)|+⟩` by building and greedily
/// contracting the network. Returns the amplitude and the contraction
/// width reached.
pub fn qaoa_amplitude(
    poly: &SpinPolynomial,
    gammas: &[f64],
    betas: &[f64],
    x: u64,
    width_cap: usize,
) -> Result<(C64, usize), TnError> {
    build_qaoa_network(poly, gammas, betas, x).contract_greedy(width_cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_core::{FurSimulator, QaoaSimulator, SimOptions};
    use qokit_statevec::ExecPolicy;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::Graph;

    fn statevector_amplitude(poly: &SpinPolynomial, g: &[f64], b: &[f64], x: u64) -> C64 {
        let sim = FurSimulator::with_options(
            poly,
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        );
        sim.simulate_qaoa(g, b).state().amplitudes()[x as usize]
    }

    #[test]
    fn p0_amplitude_is_uniform() {
        let poly = maxcut_polynomial(&Graph::ring(4, 1.0));
        let (amp, _) = qaoa_amplitude(&poly, &[], &[], 5, 30).unwrap();
        assert!(amp.approx_eq(C64::from_re(0.25), 1e-12));
    }

    #[test]
    fn maxcut_amplitudes_match_statevector() {
        let poly = maxcut_polynomial(&Graph::ring(5, 1.0));
        let (g, b) = (vec![0.4, 0.2], vec![0.7, 0.3]);
        for x in [0u64, 3, 10, 21, 31] {
            let (amp, _) = qaoa_amplitude(&poly, &g, &b, x, 30).unwrap();
            let expect = statevector_amplitude(&poly, &g, &b, x);
            assert!(amp.approx_eq(expect, 1e-10), "x = {x}: {amp} vs {expect}");
        }
    }

    #[test]
    fn labs_amplitudes_match_statevector() {
        let poly = labs_terms(6);
        let (g, b) = (vec![0.15], vec![0.55]);
        for x in [0u64, 7, 42, 63] {
            let (amp, _) = qaoa_amplitude(&poly, &g, &b, x, 30).unwrap();
            let expect = statevector_amplitude(&poly, &g, &b, x);
            assert!(amp.approx_eq(expect, 1e-10), "x = {x}");
        }
    }

    #[test]
    fn weighted_problem_amplitude() {
        let poly = qokit_terms::maxcut::all_to_all_terms(4, 0.3);
        let (g, b) = (vec![0.3], vec![0.9]);
        for x in 0u64..16 {
            let (amp, _) = qaoa_amplitude(&poly, &g, &b, x, 30).unwrap();
            let expect = statevector_amplitude(&poly, &g, &b, x);
            assert!(amp.approx_eq(expect, 1e-10), "x = {x}");
        }
    }

    #[test]
    fn probability_sums_to_one_via_tn() {
        let poly = maxcut_polynomial(&Graph::ring(4, 1.0));
        let (g, b) = (vec![0.5], vec![0.25]);
        let total: f64 = (0u64..16)
            .map(|x| qaoa_amplitude(&poly, &g, &b, x, 30).unwrap().0.norm_sqr())
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn width_cap_aborts_deep_labs() {
        // Deep LABS forces width ≈ n; a tiny cap must trip.
        let poly = labs_terms(8);
        let g = vec![0.1; 4];
        let b = vec![0.2; 4];
        let err = qaoa_amplitude(&poly, &g, &b, 0, 3).unwrap_err();
        assert!(matches!(err, TnError::WidthExceeded { .. }));
    }

    #[test]
    fn contraction_width_grows_with_connectivity() {
        let ring = maxcut_polynomial(&Graph::ring(8, 1.0));
        let (_, w_ring) = qaoa_amplitude(&ring, &[0.1], &[0.2], 0, 40).unwrap();
        let dense = labs_terms(8);
        let (_, w_dense) = qaoa_amplitude(&dense, &[0.1], &[0.2], 0, 40).unwrap();
        assert!(
            w_dense >= w_ring,
            "LABS ({w_dense}) should contract wider than a ring ({w_ring})"
        );
    }

    #[test]
    fn empty_network_contracts_to_one() {
        let (v, w) = TensorNetwork::new().contract_greedy(10).unwrap();
        assert_eq!(v, C64::ONE);
        assert_eq!(w, 0);
    }
}
