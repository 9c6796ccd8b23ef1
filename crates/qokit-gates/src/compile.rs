//! Compilation of QAOA operators into gate circuits (§III of the paper:
//! "the phase operator must be compiled into gates ... the number of these
//! gates typically scales polynomially with the number of terms").

use crate::circuit::Circuit;
use crate::gate::Gate;
use qokit_statevec::matrices::Mat4;
use qokit_terms::SpinPolynomial;

/// How the diagonal phase operator is lowered to gates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PhaseStyle {
    /// Each degree-`k` term becomes a CX ladder (`2(k−1)` CNOTs) around one
    /// `Rz` — the standard compilation a gate-set-restricted simulator
    /// (Qiskit and the circuits of the paper's Ref. \[24\]) executes.
    DecomposedCx,
    /// Each term becomes one native multi-qubit `Z…Z` rotation — the
    /// diagonal-gate-aware mode (one sweep per *term* instead of per gate).
    NativeDiagonal,
}

/// Mixer selection for compiled QAOA circuits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CompiledMixer {
    /// `n` parallel `Rx(2β)` gates.
    X,
    /// XY rotations `e^{-iβ(XX+YY)/2}` over ring edges.
    XyRing,
}

/// Compiles `e^{-iγĈ}` for one layer. A degree-`k` term `w·Πs` maps to a
/// `Z^{⊗k}` rotation of angle `θ = 2γw` (`e^{-i(θ/2)Z^{⊗k}} = e^{-iγw·Πs}`);
/// constant terms become a global phase.
pub fn compile_phase(poly: &SpinPolynomial, gamma: f64, style: PhaseStyle) -> Vec<Gate> {
    let mut gates = Vec::new();
    for t in poly.terms() {
        let theta = 2.0 * gamma * t.weight;
        if t.is_constant() {
            gates.push(Gate::GlobalPhase(-gamma * t.weight));
            continue;
        }
        match style {
            PhaseStyle::NativeDiagonal => gates.push(Gate::MultiZRot(t.mask, theta)),
            PhaseStyle::DecomposedCx => {
                let idx = t.indices();
                match idx.len() {
                    1 => gates.push(Gate::Rz(idx[0], theta)),
                    2 => gates.push(Gate::Rzz(idx[0], idx[1], theta)),
                    _ => {
                        // Parity ladder: fold the parity of all qubits into
                        // the last one, rotate, unfold.
                        for w in idx.windows(2) {
                            gates.push(Gate::Cx(w[0], w[1]));
                        }
                        gates.push(Gate::Rz(*idx.last().unwrap(), theta));
                        for w in idx.windows(2).rev() {
                            gates.push(Gate::Cx(w[0], w[1]));
                        }
                    }
                }
            }
        }
    }
    gates
}

/// Compiles one mixer layer `e^{-iβM̂}`.
pub fn compile_mixer(n: usize, beta: f64, mixer: CompiledMixer) -> Vec<Gate> {
    match mixer {
        CompiledMixer::X => (0..n).map(|q| Gate::Rx(q, 2.0 * beta)).collect(),
        CompiledMixer::XyRing => qokit_core_ring_edges(n)
            .into_iter()
            .map(|(a, b)| Gate::U2(a, b, Mat4::xx_plus_yy(beta)))
            .collect(),
    }
}

// Ring-edge order identical to qokit_core::ring_edges, duplicated locally so
// this crate stays independent of the core crate (no layering cycle). The
// cross-crate equality is pinned by an integration test.
fn qokit_core_ring_edges(n: usize) -> Vec<(usize, usize)> {
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

/// State preparation for `|+⟩^{⊗n}`: a column of Hadamards.
pub fn compile_plus_state(n: usize) -> Vec<Gate> {
    (0..n).map(Gate::H).collect()
}

/// Peephole pass cancelling adjacent self-inverse gate pairs (`CX·CX = I`,
/// `H·H = I`, `X·X = I`). Consecutive parity ladders of a compiled phase
/// operator share CX prefixes, so this recovers a large part of the
/// CX-sharing the paper's ≈160n-gate figure presupposes — without changing
/// the circuit's action.
pub fn peephole_cancel(gates: &[Gate]) -> Vec<Gate> {
    let mut out: Vec<Gate> = Vec::with_capacity(gates.len());
    for g in gates {
        let cancels = matches!(
            (out.last(), g),
            (Some(Gate::Cx(a, b)), Gate::Cx(c, d)) if a == c && b == d
        ) || matches!(
            (out.last(), g),
            (Some(Gate::H(a)), Gate::H(b)) if a == b
        ) || matches!(
            (out.last(), g),
            (Some(Gate::X(a)), Gate::X(b)) if a == b
        );
        if cancels {
            out.pop();
        } else {
            out.push(g.clone());
        }
    }
    out
}

/// Compiles the full `p`-layer QAOA circuit
/// `Π_l e^{-iβ_l M̂} e^{-iγ_l Ĉ} · H^{⊗n}` starting from `|0…0⟩`.
///
/// # Panics
/// If `gammas.len() != betas.len()`.
pub fn compile_qaoa(
    poly: &SpinPolynomial,
    gammas: &[f64],
    betas: &[f64],
    style: PhaseStyle,
    mixer: CompiledMixer,
) -> Circuit {
    assert_eq!(gammas.len(), betas.len(), "gamma/beta length mismatch");
    let n = poly.n_vars();
    let mut c = Circuit::new(n);
    c.extend(compile_plus_state(n));
    for (&g, &b) in gammas.iter().zip(betas.iter()) {
        c.extend(compile_phase(poly, g, style));
        c.extend(compile_mixer(n, b, mixer));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_statevec::exec::ExecPolicy;
    use qokit_statevec::StateVec;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::{Graph, SpinPolynomial, Term};

    /// Reference: the phase operator as an explicit diagonal.
    fn phase_reference(poly: &SpinPolynomial, gamma: f64, state: &StateVec) -> StateVec {
        let mut out = state.clone();
        for (x, a) in out.amplitudes_mut().iter_mut().enumerate() {
            *a *= qokit_statevec::C64::cis(-gamma * poly.evaluate_bits(x as u64));
        }
        out
    }

    #[test]
    fn decomposed_phase_matches_diagonal_low_order() {
        let poly = SpinPolynomial::new(
            3,
            vec![
                Term::new(0.7, &[0]),
                Term::new(-1.2, &[0, 2]),
                Term::constant(0.4),
            ],
        );
        let init = StateVec::uniform_superposition(3);
        let expect = phase_reference(&poly, 0.9, &init);
        for style in [PhaseStyle::DecomposedCx, PhaseStyle::NativeDiagonal] {
            let mut s = init.clone();
            for g in compile_phase(&poly, 0.9, style) {
                g.apply(s.amplitudes_mut(), ExecPolicy::serial());
            }
            assert!(s.max_abs_diff(&expect) < 1e-12, "{style:?}");
        }
    }

    #[test]
    fn decomposed_phase_matches_diagonal_labs() {
        // LABS has 4-local terms — exercises the CX-ladder path.
        let poly = labs_terms(7);
        let init = StateVec::uniform_superposition(7);
        let expect = phase_reference(&poly, 0.31, &init);
        for style in [PhaseStyle::DecomposedCx, PhaseStyle::NativeDiagonal] {
            let mut s = init.clone();
            for g in compile_phase(&poly, 0.31, style) {
                g.apply(s.amplitudes_mut(), ExecPolicy::serial());
            }
            assert!(s.max_abs_diff(&expect) < 1e-11, "{style:?}");
        }
    }

    #[test]
    fn ladder_gate_counts() {
        // Degree-k term: 2(k−1) CX + 1 Rz in decomposed mode; 1 gate native.
        let poly = SpinPolynomial::new(5, vec![Term::new(1.0, &[0, 1, 2, 4])]);
        let dec = compile_phase(&poly, 0.5, PhaseStyle::DecomposedCx);
        assert_eq!(dec.len(), 2 * 3 + 1);
        let nat = compile_phase(&poly, 0.5, PhaseStyle::NativeDiagonal);
        assert_eq!(nat.len(), 1);
    }

    #[test]
    fn full_qaoa_circuit_structure() {
        let g = Graph::ring(5, 1.0);
        let poly = maxcut_polynomial(&g);
        let c = compile_qaoa(
            &poly,
            &[0.1, 0.2],
            &[0.3, 0.4],
            PhaseStyle::DecomposedCx,
            CompiledMixer::X,
        );
        // 5 H + 2 layers × (5 RZZ + 1 global phase + 5 RX).
        assert_eq!(c.len(), 5 + 2 * (5 + 1 + 5));
        let k = c.counts();
        assert_eq!(k.two_qubit, 10);
    }

    #[test]
    fn plus_state_preparation() {
        let mut s = StateVec::zero_state(4);
        for g in compile_plus_state(4) {
            g.apply(s.amplitudes_mut(), ExecPolicy::serial());
        }
        assert!(s.max_abs_diff(&StateVec::uniform_superposition(4)) < 1e-12);
    }

    #[test]
    fn mixer_angle_convention() {
        // compile_mixer must implement e^{-iβX} per qubit = Rx(2β).
        let n = 3;
        let beta = 0.37;
        let mut via_gates = StateVec::uniform_superposition(n);
        for g in compile_mixer(n, beta, CompiledMixer::X) {
            g.apply(via_gates.amplitudes_mut(), ExecPolicy::serial());
        }
        let mut via_kernel = StateVec::uniform_superposition(n);
        qokit_statevec::su2::apply_uniform_mat2(
            via_kernel.amplitudes_mut(),
            &qokit_statevec::Mat2::rx(beta),
            ExecPolicy::serial(),
        );
        assert!(via_gates.max_abs_diff(&via_kernel) < 1e-12);
    }

    #[test]
    fn xy_ring_mixer_compiles_to_ring_edge_gates() {
        let gates = compile_mixer(6, 0.2, CompiledMixer::XyRing);
        assert_eq!(gates.len(), 6);
        assert!(gates.iter().all(|g| matches!(g, Gate::U2(..))));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn compile_qaoa_rejects_mismatched_params() {
        let poly = labs_terms(4);
        let _ = compile_qaoa(
            &poly,
            &[0.1],
            &[],
            PhaseStyle::DecomposedCx,
            CompiledMixer::X,
        );
    }

    #[test]
    fn peephole_cancels_cascading_pairs() {
        let gates = vec![
            Gate::Cx(0, 1),
            Gate::Cx(1, 2),
            Gate::Cx(1, 2),
            Gate::Cx(0, 1),
            Gate::H(3),
        ];
        let out = peephole_cancel(&gates);
        assert_eq!(out, vec![Gate::H(3)]);
    }

    #[test]
    fn peephole_preserves_circuit_action() {
        let poly = labs_terms(7);
        let gates = compile_phase(&poly, 0.23, PhaseStyle::DecomposedCx);
        let cancelled = peephole_cancel(&gates);
        assert!(cancelled.len() < gates.len(), "ladders must share CXs");
        let mut a = StateVec::uniform_superposition(7);
        let mut b = a.clone();
        for g in &gates {
            g.apply(a.amplitudes_mut(), ExecPolicy::serial());
        }
        for g in &cancelled {
            g.apply(b.amplitudes_mut(), ExecPolicy::serial());
        }
        assert!(a.max_abs_diff(&b) < 1e-11);
    }

    #[test]
    fn peephole_keeps_non_adjacent_pairs() {
        let gates = vec![Gate::Cx(0, 1), Gate::Rz(1, 0.3), Gate::Cx(0, 1)];
        assert_eq!(peephole_cancel(&gates).len(), 3);
    }
}
