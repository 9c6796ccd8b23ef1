//! QAOA mixing operators (§III-B of the paper).
//!
//! * [`Mixer::X`] — the transverse-field mixer `e^{-iβΣᵢXᵢ}`, applied with
//!   the paper's Algorithm 2 (an in-place butterfly on every qubit). On
//!   split planes it runs the RX-specialized body (`su2::apply_x_mixer_split`,
//!   QOKit's `furx`) in `⌈n/2⌉` fused sweeps with Algorithm 2's bits; the
//!   interleaved path runs the generic `Mat2` butterfly, one pass per qubit.
//! * [`Mixer::XyRing`] / [`Mixer::XyComplete`] — the Hamming-weight-
//!   preserving XY mixers built from two-qubit `e^{-iβ(XX+YY)/2}` rotations
//!   over ring / complete-graph edges, using the SU(4) extension of
//!   Algorithms 1–2. As in QOKit's `furxy_ring`/`furxy_complete`, the mixer
//!   is *defined* as the sequential product of the two-qubit rotations in a
//!   fixed order (a first-order Trotter form of `e^{-iβΣ(XX+YY)/2}`); every
//!   factor conserves Hamming weight, hence so does the product.

use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::matrices::Mat2;
use qokit_statevec::su2::{apply_uniform_mat2, apply_x_mixer_split};
use qokit_statevec::su4::{apply_xy, apply_xy_split};
use qokit_statevec::C64;

/// The QAOA mixing operator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mixer {
    /// Transverse-field mixer `e^{-iβΣXᵢ}`.
    X,
    /// XY mixer over ring edges (parity-ordered, wrap edge last).
    XyRing,
    /// XY mixer over all `n(n−1)/2` pairs in lexicographic order.
    XyComplete,
}

impl Mixer {
    /// Applies one mixer layer with angle `beta` in place.
    pub fn apply(&self, amps: &mut [C64], beta: f64, policy: ExecPolicy) {
        match self {
            Mixer::X => apply_uniform_mat2(amps, &Mat2::rx(beta), policy),
            Mixer::XyRing => {
                let n = amps.len().trailing_zeros() as usize;
                for (a, b) in ring_edges(n) {
                    apply_xy(amps, a, b, beta, policy);
                }
            }
            Mixer::XyComplete => {
                let n = amps.len().trailing_zeros() as usize;
                for a in 0..n {
                    for b in a + 1..n {
                        apply_xy(amps, a, b, beta, policy);
                    }
                }
            }
        }
    }

    /// Split-plane twin of [`Mixer::apply`]: one mixer layer on the
    /// `re`/`im` planes of a [`qokit_statevec::SplitStateVec`], in the same
    /// gate order as the interleaved path. The results are bit-identical
    /// apart from the sign of an exact zero (`tests/planes_objective.rs`
    /// pins whole objectives to the interleaved route by `to_bits`).
    pub fn apply_split(&self, re: &mut [f64], im: &mut [f64], beta: f64, policy: ExecPolicy) {
        match self {
            Mixer::X => apply_x_mixer_split(re, im, beta, policy),
            Mixer::XyRing => {
                let n = re.len().trailing_zeros() as usize;
                for (a, b) in ring_edges(n) {
                    apply_xy_split(re, im, a, b, beta, policy);
                }
            }
            Mixer::XyComplete => {
                let n = re.len().trailing_zeros() as usize;
                for a in 0..n {
                    for b in a + 1..n {
                        apply_xy_split(re, im, a, b, beta, policy);
                    }
                }
            }
        }
    }

    /// Number of two-qubit rotations one layer costs (`n` single-qubit
    /// rotations for `X`; reported as 0 two-qubit gates).
    pub fn two_qubit_gate_count(&self, n: usize) -> usize {
        match self {
            Mixer::X => 0,
            Mixer::XyRing => ring_edges(n).len(),
            Mixer::XyComplete => n * (n - 1) / 2,
        }
    }

    /// `true` when the mixer conserves Hamming weight.
    pub fn preserves_hamming_weight(&self) -> bool {
        !matches!(self, Mixer::X)
    }
}

/// Ring edge order: even-parity nearest-neighbour pairs, then odd-parity
/// pairs, then the wrap edge `(n−1, 0)`. (For `n = 2` the single edge
/// appears once.)
pub fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    assert!(n >= 2, "XY ring mixer needs at least 2 qubits");
    let mut edges = Vec::with_capacity(n);
    let mut i = 0;
    while i + 1 < n {
        edges.push((i, i + 1));
        i += 2;
    }
    let mut i = 1;
    while i + 1 < n {
        edges.push((i, i + 1));
        i += 2;
    }
    if n > 2 {
        edges.push((n - 1, 0));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_statevec::StateVec;

    fn hamming_mass(amps: &[C64], k: u32) -> f64 {
        amps.iter()
            .enumerate()
            .filter(|(x, _)| x.count_ones() == k)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    #[test]
    fn ring_edges_cover_the_ring() {
        let edges = ring_edges(6);
        assert_eq!(edges.len(), 6);
        let mut deg = [0usize; 6];
        for &(a, b) in &edges {
            deg[a] += 1;
            deg[b] += 1;
        }
        assert!(deg.iter().all(|&d| d == 2));
    }

    #[test]
    fn ring_edges_odd_n() {
        let edges = ring_edges(5);
        assert_eq!(edges, vec![(0, 1), (2, 3), (1, 2), (3, 4), (4, 0)]);
    }

    #[test]
    fn ring_edges_two_qubits() {
        assert_eq!(ring_edges(2), vec![(0, 1)]);
    }

    #[test]
    fn x_mixer_preserves_norm_and_mixes() {
        let mut s = StateVec::basis_state(6, 0);
        Mixer::X.apply(s.amplitudes_mut(), 0.4, ExecPolicy::serial());
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
        // Some amplitude must have left |0…0⟩.
        assert!(s.amplitudes()[0].norm_sqr() < 1.0);
    }

    #[test]
    fn xy_mixers_conserve_hamming_weight() {
        for mixer in [Mixer::XyRing, Mixer::XyComplete] {
            let n = 6;
            let k = 3;
            let mut s = StateVec::dicke_state(n, k);
            mixer.apply(s.amplitudes_mut(), 0.9, ExecPolicy::serial());
            mixer.apply(s.amplitudes_mut(), 1.7, ExecPolicy::serial());
            assert!(
                (hamming_mass(s.amplitudes(), k as u32) - 1.0).abs() < 1e-10,
                "{mixer:?} leaked weight"
            );
        }
    }

    #[test]
    fn xy_complete_fixes_dicke_states() {
        // Dicke states are symmetric; the complete-graph XY product acts
        // within the symmetric sector, so the state stays normalized and in
        // its weight sector (though it may acquire phases).
        let n = 5;
        let mut s = StateVec::dicke_state(n, 2);
        Mixer::XyComplete.apply(s.amplitudes_mut(), 0.31, ExecPolicy::serial());
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
        assert!((hamming_mass(s.amplitudes(), 2) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mixers_at_zero_beta_are_identity() {
        for mixer in [Mixer::X, Mixer::XyRing, Mixer::XyComplete] {
            let mut s = StateVec::dicke_state(5, 2);
            let orig = s.clone();
            mixer.apply(s.amplitudes_mut(), 0.0, ExecPolicy::serial());
            assert!(s.max_abs_diff(&orig) < 1e-12, "{mixer:?}");
        }
    }

    #[test]
    fn serial_and_rayon_agree() {
        for mixer in [Mixer::X, Mixer::XyRing, Mixer::XyComplete] {
            let n = 13;
            let mut a = StateVec::dicke_state(n, 5);
            let mut b = a.clone();
            mixer.apply(a.amplitudes_mut(), 0.8, ExecPolicy::serial());
            mixer.apply(b.amplitudes_mut(), 0.8, ExecPolicy::rayon());
            assert!(a.max_abs_diff(&b) < 1e-12, "{mixer:?}");
        }
    }

    #[test]
    fn split_apply_matches_interleaved() {
        for mixer in [Mixer::X, Mixer::XyRing, Mixer::XyComplete] {
            let n = 7;
            let mut inter = StateVec::dicke_state(n, 3);
            let mut split = qokit_statevec::SplitStateVec::from(&inter);
            mixer.apply(inter.amplitudes_mut(), 0.67, ExecPolicy::serial());
            let (re, im) = split.planes_mut();
            mixer.apply_split(re, im, 0.67, ExecPolicy::serial());
            if mixer == Mixer::X {
                // f64 `==`: the same bits, except that +0 and −0 compare equal.
                assert_eq!(split, qokit_statevec::SplitStateVec::from(&inter));
            } else {
                assert!(
                    split.max_abs_diff_interleaved(inter.amplitudes()) < 1e-12,
                    "{mixer:?}"
                );
            }
        }
    }

    #[test]
    fn gate_counts() {
        assert_eq!(Mixer::X.two_qubit_gate_count(8), 0);
        assert_eq!(Mixer::XyRing.two_qubit_gate_count(8), 8);
        assert_eq!(Mixer::XyComplete.two_qubit_gate_count(8), 28);
    }

    #[test]
    fn x_mixer_inverse_round_trips() {
        let mut s = StateVec::dicke_state(7, 3);
        let orig = s.clone();
        Mixer::X.apply(s.amplitudes_mut(), 1.23, ExecPolicy::serial());
        Mixer::X.apply(s.amplitudes_mut(), -1.23, ExecPolicy::serial());
        assert!(s.max_abs_diff(&orig) < 1e-10);
    }
}
