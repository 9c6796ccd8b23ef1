//! The gate set of the baseline simulator.
//!
//! This crate is the reproduction's stand-in for the gate-based simulators
//! the paper benchmarks against (Qiskit, cuStateVec in gate mode): a
//! quantum program is a list of gates, and **every gate costs one sweep of
//! the state vector**. The kernels themselves are well optimized (diagonal
//! gates touch phases only, CX is a pure swap) so that the measured
//! QOKit-vs-baseline gap comes from the *number of sweeps* — the paper's
//! actual claim — and not from a strawman implementation.
//!
//! Rotation conventions follow Qiskit: `Rz(θ) = e^{-i(θ/2)Z}`,
//! `Rx(θ) = e^{-i(θ/2)X}`, `Rzz(θ) = e^{-i(θ/2)Z⊗Z}`, and
//! `MultiZRot(mask, θ) = e^{-i(θ/2)Z^{⊗k}}` on the qubits in `mask`.

use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::matrices::{Mat2, Mat4};
use qokit_statevec::su2::apply_mat2;
use qokit_statevec::su4::{apply_mat4, for_each_base};
use qokit_statevec::C64;
use rayon::prelude::*;

/// One gate of the baseline's gate set.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard on a qubit.
    H(usize),
    /// Pauli-X on a qubit.
    X(usize),
    /// `Rx(θ) = e^{-i(θ/2)X}`.
    Rx(usize, f64),
    /// `Ry(θ) = e^{-i(θ/2)Y}`.
    Ry(usize, f64),
    /// `Rz(θ) = e^{-i(θ/2)Z}` (diagonal).
    Rz(usize, f64),
    /// Phase gate `diag(1, e^{iφ})`.
    Phase(usize, f64),
    /// CNOT with `control`, `target`.
    Cx(usize, usize),
    /// `Rzz(θ) = e^{-i(θ/2)Z⊗Z}` (diagonal).
    Rzz(usize, usize, f64),
    /// `e^{-i(θ/2)Z^{⊗k}}` on the qubits set in the mask (diagonal). The
    /// "native multi-qubit diagonal gate" a diagonal-aware simulator can
    /// execute in one pass per *term*.
    MultiZRot(u64, f64),
    /// Arbitrary single-qubit unitary (produced by gate fusion).
    U1(usize, Mat2),
    /// Arbitrary two-qubit unitary on `(qa, qb)`; `qa` is the low bit of
    /// the `Mat4` sub-index (produced by gate fusion and the XY mixer).
    U2(usize, usize, Mat4),
    /// Global phase `e^{iφ}` (kept so baseline states match the fast
    /// simulator exactly, constant cost-terms included).
    GlobalPhase(f64),
}

impl Gate {
    /// Bitmask of the qubits the gate acts on (empty for `GlobalPhase`).
    pub fn support(&self) -> u64 {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::Phase(q, _)
            | Gate::U1(q, _) => 1u64 << q,
            Gate::Cx(c, t) => (1u64 << c) | (1u64 << t),
            Gate::Rzz(a, b, _) | Gate::U2(a, b, _) => (1u64 << a) | (1u64 << b),
            Gate::MultiZRot(mask, _) => mask,
            Gate::GlobalPhase(_) => 0,
        }
    }

    /// Number of qubits the gate acts on.
    pub fn arity(&self) -> u32 {
        self.support().count_ones()
    }

    /// `true` when the gate's matrix is diagonal in the computational
    /// basis (phases only — relevant to the paper's §VI discussion of
    /// diagonal-gate-aware simulators).
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Rz(..)
                | Gate::Phase(..)
                | Gate::Rzz(..)
                | Gate::MultiZRot(..)
                | Gate::GlobalPhase(_)
        )
    }

    /// Applies the gate to the state in one sweep.
    pub fn apply(&self, amps: &mut [C64], policy: ExecPolicy) {
        match *self {
            Gate::H(q) => apply_mat2(amps, q, &Mat2::hadamard(), policy),
            Gate::X(q) => apply_mat2(amps, q, &Mat2::pauli_x(), policy),
            Gate::Rx(q, theta) => apply_mat2(amps, q, &Mat2::rx(theta / 2.0), policy),
            Gate::Ry(q, theta) => apply_mat2(amps, q, &Mat2::ry(theta / 2.0), policy),
            Gate::Rz(q, theta) => apply_diag_1q(
                amps,
                q,
                C64::cis(-theta / 2.0),
                C64::cis(theta / 2.0),
                policy,
            ),
            Gate::Phase(q, phi) => apply_diag_1q(amps, q, C64::ONE, C64::cis(phi), policy),
            Gate::Cx(c, t) => apply_cx(amps, c, t, policy),
            Gate::Rzz(a, b, theta) => {
                apply_parity_phase(amps, (1u64 << a) | (1u64 << b), theta, policy)
            }
            Gate::MultiZRot(mask, theta) => apply_parity_phase(amps, mask, theta, policy),
            Gate::U1(q, ref u) => apply_mat2(amps, q, u, policy),
            Gate::U2(a, b, ref u) => apply_mat4(amps, a, b, u, policy),
            Gate::GlobalPhase(phi) => {
                let f = C64::cis(phi);
                if policy.parallel(amps.len()) {
                    policy.install(|| {
                        amps.par_iter_mut()
                            .with_min_len(policy.min_chunk)
                            .for_each(|a| *a *= f);
                    });
                } else {
                    amps.iter_mut().for_each(|a| *a *= f);
                }
            }
        }
    }
}

/// Diagonal single-qubit gate `diag(d0, d1)` on qubit `q`: phases only, no
/// amplitude mixing.
pub fn apply_diag_1q(amps: &mut [C64], q: usize, d0: C64, d1: C64, policy: ExecPolicy) {
    let stride = 1usize << q;
    let block = stride * 2;
    debug_assert!(block <= amps.len(), "qubit {q} out of range");
    let sweep = |chunk: &mut [C64]| {
        for b in chunk.chunks_exact_mut(block) {
            let (lo, hi) = b.split_at_mut(stride);
            for a in lo {
                *a *= d0;
            }
            for a in hi {
                *a *= d1;
            }
        }
    };
    if policy.parallel(amps.len()) && block < amps.len() {
        let chunk = policy.chunk_len(amps.len(), block);
        policy.install(|| amps.par_chunks_mut(chunk).for_each(sweep));
    } else {
        sweep(amps);
    }
}

/// CNOT kernel: swaps `|…c=1…t=0…⟩ ↔ |…c=1…t=1…⟩` pairs — a permutation,
/// no arithmetic.
pub fn apply_cx(amps: &mut [C64], control: usize, target: usize, policy: ExecPolicy) {
    assert_ne!(control, target, "CX needs distinct qubits");
    let (ql, qh) = (control.min(target), control.max(target));
    assert!(1usize << (qh + 1) <= amps.len(), "qubit {qh} out of range");
    let cm = 1usize << control;
    let tm = 1usize << target;
    let len = amps.len();
    let block = 1usize << (qh + 1);
    let run = |chunk: &mut [C64]| {
        for_each_base(0, chunk.len(), ql, qh, |base| {
            chunk.swap(base | cm, base | cm | tm);
        });
    };
    if policy.parallel(len) && block < len {
        let chunk = policy.chunk_len(len, block);
        policy.install(|| amps.par_chunks_mut(chunk).for_each(run));
    } else {
        run(amps);
    }
}

/// Parity-phase kernel for `e^{-i(θ/2)Z^{⊗k}}`:
/// `ψ_x ← e^{∓i θ/2} ψ_x` with the sign given by `popcount(x & mask)`.
pub fn apply_parity_phase(amps: &mut [C64], mask: u64, theta: f64, policy: ExecPolicy) {
    let plus = C64::cis(-theta / 2.0); // even parity
    let minus = C64::cis(theta / 2.0); // odd parity
    if policy.parallel(amps.len()) {
        policy.install(|| {
            amps.par_iter_mut()
                .with_min_len(policy.min_chunk)
                .enumerate()
                .for_each(|(x, a)| {
                    let odd = (x as u64 & mask).count_ones() & 1 == 1;
                    *a *= if odd { minus } else { plus };
                });
        });
    } else {
        for (x, a) in amps.iter_mut().enumerate() {
            let odd = (x as u64 & mask).count_ones() & 1 == 1;
            *a *= if odd { minus } else { plus };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_statevec::reference;
    use qokit_statevec::StateVec;

    fn random_state(n: usize, seed: u64) -> StateVec {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z = z ^ (z >> 31);
            (z as f64 / u64::MAX as f64) - 0.5
        };
        let mut v =
            StateVec::from_amplitudes((0..1usize << n).map(|_| C64::new(next(), next())).collect());
        v.normalize();
        v
    }

    #[test]
    fn rz_matches_dense_mat2() {
        let mut fast = random_state(6, 1);
        let mut dense = fast.clone();
        Gate::Rz(2, 0.9).apply(fast.amplitudes_mut(), ExecPolicy::serial());
        // Rz(θ) = e^{-i(θ/2)Z} = Mat2::rz(θ/2).
        apply_mat2(
            dense.amplitudes_mut(),
            2,
            &Mat2::rz(0.45),
            ExecPolicy::serial(),
        );
        assert!(fast.max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn cx_matches_reference() {
        for (c, t) in [(0usize, 1usize), (3, 0), (2, 4), (4, 2)] {
            let mut fast = random_state(5, 2);
            let expect = {
                // Reference: Mat4 CNOT with control on the low sub-index bit
                // means qa = control.
                reference::apply_2q_reference(fast.amplitudes(), c, t, &Mat4::cnot_control_low())
            };
            Gate::Cx(c, t).apply(fast.amplitudes_mut(), ExecPolicy::serial());
            for (a, b) in fast.amplitudes().iter().zip(expect.iter()) {
                assert!(a.approx_eq(*b, 1e-12), "c={c}, t={t}");
            }
        }
    }

    #[test]
    fn cx_truth_table() {
        let mut s = StateVec::basis_state(2, 0b01); // qubit 0 (control) = 1
        Gate::Cx(0, 1).apply(s.amplitudes_mut(), ExecPolicy::serial());
        assert_eq!(s.amplitudes()[0b11], C64::ONE);
        let mut s = StateVec::basis_state(2, 0b10); // control clear
        Gate::Cx(0, 1).apply(s.amplitudes_mut(), ExecPolicy::serial());
        assert_eq!(s.amplitudes()[0b10], C64::ONE);
    }

    #[test]
    fn rzz_matches_mat4() {
        let mut fast = random_state(5, 3);
        let mut dense = fast.clone();
        Gate::Rzz(1, 3, 0.8).apply(fast.amplitudes_mut(), ExecPolicy::serial());
        apply_mat4(
            dense.amplitudes_mut(),
            1,
            3,
            &Mat4::rzz(0.4),
            ExecPolicy::serial(),
        );
        assert!(fast.max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn multi_z_rot_parity_signs() {
        let n = 4;
        let mask = 0b1011u64;
        let theta = 1.1;
        let mut s = StateVec::uniform_superposition(n);
        Gate::MultiZRot(mask, theta).apply(s.amplitudes_mut(), ExecPolicy::serial());
        let amp0 = 1.0 / (s.dim() as f64).sqrt();
        for (x, a) in s.amplitudes().iter().enumerate() {
            let odd = (x as u64 & mask).count_ones() % 2 == 1;
            let expect = C64::cis(if odd { theta / 2.0 } else { -theta / 2.0 }).scale(amp0);
            assert!(a.approx_eq(expect, 1e-12), "x = {x:04b}");
        }
    }

    #[test]
    fn multi_z_rot_degenerates_to_rz_and_rzz() {
        let mut a = random_state(4, 4);
        let mut b = a.clone();
        Gate::MultiZRot(1 << 2, 0.7).apply(a.amplitudes_mut(), ExecPolicy::serial());
        Gate::Rz(2, 0.7).apply(b.amplitudes_mut(), ExecPolicy::serial());
        assert!(a.max_abs_diff(&b) < 1e-12);

        let mut c = random_state(4, 5);
        let mut d = c.clone();
        Gate::MultiZRot((1 << 1) | (1 << 3), 0.7).apply(c.amplitudes_mut(), ExecPolicy::serial());
        Gate::Rzz(1, 3, 0.7).apply(d.amplitudes_mut(), ExecPolicy::serial());
        assert!(c.max_abs_diff(&d) < 1e-12);
    }

    #[test]
    fn rayon_matches_serial_for_every_gate() {
        let n = 13;
        let gates = [
            Gate::H(5),
            Gate::Rx(0, 0.4),
            Gate::Rz(12, 1.2),
            Gate::Phase(7, 0.3),
            Gate::Cx(3, 9),
            Gate::Cx(12, 0),
            Gate::Rzz(2, 11, 0.9),
            Gate::MultiZRot(0b1010010010101, 0.5),
            Gate::GlobalPhase(0.77),
        ];
        for g in gates {
            let mut a = random_state(n, 6);
            let mut b = a.clone();
            g.apply(a.amplitudes_mut(), ExecPolicy::serial());
            g.apply(b.amplitudes_mut(), ExecPolicy::rayon());
            assert!(a.max_abs_diff(&b) < 1e-12, "{g:?}");
        }
    }

    #[test]
    fn support_and_arity() {
        assert_eq!(Gate::Cx(1, 4).support(), 0b10010);
        assert_eq!(Gate::MultiZRot(0b1110, 0.1).arity(), 3);
        assert_eq!(Gate::GlobalPhase(0.1).arity(), 0);
        assert!(Gate::Rzz(0, 1, 0.2).is_diagonal());
        assert!(!Gate::Rx(0, 0.2).is_diagonal());
    }

    #[test]
    fn all_gates_preserve_norm() {
        let gates = [
            Gate::H(1),
            Gate::X(2),
            Gate::Rx(0, 0.4),
            Gate::Ry(3, 1.0),
            Gate::Rz(1, 1.2),
            Gate::Phase(2, 0.3),
            Gate::Cx(0, 3),
            Gate::Rzz(1, 2, 0.9),
            Gate::MultiZRot(0b1111, 0.5),
            Gate::U1(1, Mat2::ry(0.2)),
            Gate::U2(0, 2, Mat4::xx_plus_yy(0.4)),
            Gate::GlobalPhase(1.0),
        ];
        let mut s = random_state(4, 7);
        for g in &gates {
            g.apply(s.amplitudes_mut(), ExecPolicy::serial());
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }
}
