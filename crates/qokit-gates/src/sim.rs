//! The end-to-end gate-based QAOA simulator — our stand-in for Qiskit /
//! OpenQAOA / cuStateVec-in-gate-mode in the paper's comparisons.
//!
//! Honesty rules for the baseline:
//! * the phase operator is recompiled into gates **every layer** and each
//!   gate costs one state sweep (the cost structure the paper attributes
//!   to gate-based simulators);
//! * the objective is evaluated **without** the precomputed cost vector,
//!   by re-evaluating `f(x)` term-by-term under the probability sum —
//!   `O(|T|·2^n)`, which is what a generic simulator pays per expectation;
//! * kernels are shared with the fast simulator, so the measured gap is
//!   due to the algorithm (number of passes), not implementation quality.

use crate::circuit::Circuit;
use crate::compile::{compile_mixer, compile_phase, CompiledMixer, PhaseStyle};
use crate::fusion::fuse_2q;
use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::StateVec;
use qokit_terms::SpinPolynomial;
use rayon::prelude::*;

/// Configuration of the gate-based baseline.
#[derive(Clone, Debug)]
pub struct GateSimOptions {
    /// Phase-operator lowering.
    pub style: PhaseStyle,
    /// Mixer compilation.
    pub mixer: CompiledMixer,
    /// Execution policy (worker count + split thresholds).
    pub exec: ExecPolicy,
    /// Apply greedy F=2 fusion before executing each layer.
    pub fuse: bool,
}

impl Default for GateSimOptions {
    fn default() -> Self {
        GateSimOptions {
            style: PhaseStyle::DecomposedCx,
            mixer: CompiledMixer::X,
            exec: ExecPolicy::auto(),
            fuse: false,
        }
    }
}

/// Gate-based QAOA simulator.
#[derive(Clone, Debug)]
pub struct GateSimulator {
    poly: SpinPolynomial,
    options: GateSimOptions,
}

impl GateSimulator {
    /// Builds a baseline simulator for a cost polynomial.
    pub fn new(poly: SpinPolynomial, options: GateSimOptions) -> Self {
        GateSimulator { poly, options }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.poly.n_vars()
    }

    /// The cost polynomial.
    pub fn polynomial(&self) -> &SpinPolynomial {
        &self.poly
    }

    /// Gates executed for one QAOA layer (after optional fusion) — the
    /// quantity that determines the per-layer sweep count.
    pub fn gates_per_layer(&self) -> usize {
        let mut gates = compile_phase(&self.poly, 0.5, self.options.style);
        gates.extend(compile_mixer(self.n_qubits(), 0.3, self.options.mixer));
        if self.options.fuse {
            fuse_2q(&gates).len()
        } else {
            gates.len()
        }
    }

    /// Applies one QAOA layer (phase + mixer) to a state in place.
    pub fn apply_layer(&self, state: &mut StateVec, gamma: f64, beta: f64) {
        let n = self.n_qubits();
        let mut gates = compile_phase(&self.poly, gamma, self.options.style);
        gates.extend(compile_mixer(n, beta, self.options.mixer));
        let gates = if self.options.fuse {
            fuse_2q(&gates)
        } else {
            gates
        };
        for g in &gates {
            g.apply(state.amplitudes_mut(), self.options.exec);
        }
    }

    /// Simulates the full QAOA circuit from `|+⟩^{⊗n}` and returns the
    /// evolved state.
    ///
    /// # Panics
    /// If `gammas.len() != betas.len()`.
    pub fn simulate_qaoa(&self, gammas: &[f64], betas: &[f64]) -> StateVec {
        assert_eq!(gammas.len(), betas.len(), "gamma/beta length mismatch");
        let mut state = StateVec::uniform_superposition(self.n_qubits());
        for (&g, &b) in gammas.iter().zip(betas.iter()) {
            self.apply_layer(&mut state, g, b);
        }
        state
    }

    /// Compiles the complete circuit up front (prep + all layers) — used by
    /// gate-count reporting and by tests that want a `Circuit` value.
    pub fn compile_full(&self, gammas: &[f64], betas: &[f64]) -> Circuit {
        crate::compile::compile_qaoa(
            &self.poly,
            gammas,
            betas,
            self.options.style,
            self.options.mixer,
        )
    }

    /// The QAOA objective evaluated the gate-based way: re-deriving `f(x)`
    /// from the terms for every basis state under the probability sum.
    pub fn expectation(&self, state: &StateVec) -> f64 {
        let amps = state.amplitudes();
        let poly = &self.poly;
        let policy = self.options.exec;
        if policy.parallel(amps.len()) {
            policy.install(|| {
                amps.par_iter()
                    .with_min_len(policy.min_chunk)
                    .enumerate()
                    .map(|(x, a)| poly.evaluate_bits(x as u64) * a.norm_sqr())
                    .sum()
            })
        } else {
            amps.iter()
                .enumerate()
                .map(|(x, a)| poly.evaluate_bits(x as u64) * a.norm_sqr())
                .sum()
        }
    }

    /// Simulate + objective in one call (the optimizer-facing cost
    /// function, for the `tab_opt` comparison).
    pub fn objective(&self, gammas: &[f64], betas: &[f64]) -> f64 {
        let s = self.simulate_qaoa(gammas, betas);
        self.expectation(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::Graph;

    fn options(style: PhaseStyle, fuse: bool) -> GateSimOptions {
        GateSimOptions {
            style,
            mixer: CompiledMixer::X,
            exec: ExecPolicy::serial(),
            fuse,
        }
    }

    #[test]
    fn all_styles_agree_on_labs() {
        let poly = labs_terms(7);
        let gammas = [0.13, 0.27];
        let betas = [0.71, 0.39];
        let reference = GateSimulator::new(poly.clone(), options(PhaseStyle::DecomposedCx, false))
            .simulate_qaoa(&gammas, &betas);
        for (style, fuse) in [
            (PhaseStyle::DecomposedCx, true),
            (PhaseStyle::NativeDiagonal, false),
            (PhaseStyle::NativeDiagonal, true),
        ] {
            let s = GateSimulator::new(poly.clone(), options(style, fuse))
                .simulate_qaoa(&gammas, &betas);
            assert!(
                reference.max_abs_diff(&s) < 1e-10,
                "style {style:?}, fuse {fuse}"
            );
        }
    }

    #[test]
    fn expectation_matches_brute_force() {
        let poly = maxcut_polynomial(&Graph::ring(6, 1.0));
        let sim = GateSimulator::new(poly.clone(), options(PhaseStyle::DecomposedCx, false));
        let s = sim.simulate_qaoa(&[0.4], &[0.6]);
        let brute: f64 = s
            .amplitudes()
            .iter()
            .enumerate()
            .map(|(x, a)| poly.evaluate_bits(x as u64) * a.norm_sqr())
            .sum();
        assert!((sim.expectation(&s) - brute).abs() < 1e-12);
    }

    #[test]
    fn norm_preserved_deep_circuit() {
        let poly = labs_terms(6);
        let sim = GateSimulator::new(poly, options(PhaseStyle::DecomposedCx, false));
        let p = 20;
        let g: Vec<f64> = (0..p).map(|i| 0.02 * i as f64).collect();
        let b: Vec<f64> = (0..p).map(|i| 0.7 - 0.02 * i as f64).collect();
        let s = sim.simulate_qaoa(&g, &b);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fusion_reduces_gates_per_layer() {
        let poly = labs_terms(12);
        let plain = GateSimulator::new(poly.clone(), options(PhaseStyle::DecomposedCx, false));
        let fused = GateSimulator::new(poly, options(PhaseStyle::DecomposedCx, true));
        assert!(fused.gates_per_layer() < plain.gates_per_layer());
    }

    #[test]
    fn native_has_one_gate_per_term_plus_mixer() {
        let poly = maxcut_polynomial(&Graph::ring(9, 1.0));
        let sim = GateSimulator::new(poly.clone(), options(PhaseStyle::NativeDiagonal, false));
        // 9 RZZ + global phase (excluded? included in gate list) + 9 RX.
        // gates_per_layer counts raw list entries including GlobalPhase.
        assert_eq!(sim.gates_per_layer(), 9 + 1 + 9);
    }

    #[test]
    fn serial_and_rayon_agree() {
        let poly = labs_terms(12);
        let a = GateSimulator::new(
            poly.clone(),
            GateSimOptions {
                exec: ExecPolicy::serial(),
                ..GateSimOptions::default()
            },
        );
        let b = GateSimulator::new(
            poly,
            GateSimOptions {
                exec: ExecPolicy::rayon(),
                ..GateSimOptions::default()
            },
        );
        let sa = a.simulate_qaoa(&[0.3], &[0.5]);
        let sb = b.simulate_qaoa(&[0.3], &[0.5]);
        assert!(sa.max_abs_diff(&sb) < 1e-11);
        assert!((a.expectation(&sa) - b.expectation(&sb)).abs() < 1e-10);
    }
}
