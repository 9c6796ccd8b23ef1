//! Greedy F=2 gate fusion (§VI of the paper).
//!
//! "Some state-vector simulators use the gate fusion approach … often
//! applied for F = 2": consecutive gates whose combined support fits in two
//! qubits are multiplied into a single 4×4 unitary, trading many cheap
//! sweeps for fewer, denser ones. The paper argues fusion cannot match the
//! precomputed-diagonal approach for LABS (its circuits fuse to ≈4n gates,
//! still ≫ the n mixer gates QOKit needs); this module lets us measure that
//! claim (`abl_fusion` / `tab_gatecount`).

use crate::gate::Gate;
use qokit_statevec::matrices::{Mat2, Mat4};

/// Pending fusion group: a unitary on one or two known qubits.
enum Pending {
    One(usize, Mat2),
    Two(usize, usize, Mat4),
}

impl Pending {
    fn flush(self, out: &mut Vec<Gate>) {
        match self {
            Pending::One(q, m) => out.push(Gate::U1(q, m)),
            Pending::Two(a, b, m) => out.push(Gate::U2(a, b, m)),
        }
    }
}

/// Scales every entry of a `Mat2` by a complex factor.
fn scale2(m: &Mat2, f: qokit_statevec::C64) -> Mat2 {
    let mut out = *m;
    for row in &mut out.m {
        for e in row {
            *e *= f;
        }
    }
    out
}

/// Scales every entry of a `Mat4` by a complex factor.
fn scale4(m: &Mat4, f: qokit_statevec::C64) -> Mat4 {
    let mut out = *m;
    for row in &mut out.m {
        for e in row {
            *e *= f;
        }
    }
    out
}

/// Reindexes a `Mat4` under exchange of its two sub-index bits (so a gate
/// stated on `(a, b)` can be multiplied into a group stored on `(b, a)`).
fn swap_mat4(m: &Mat4) -> Mat4 {
    const P: [usize; 4] = [0, 2, 1, 3];
    let mut out = [[qokit_statevec::C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            out[P[r]][P[c]] = m.m[r][c];
        }
    }
    Mat4::new(out)
}

/// The dense `Mat2` of a single-qubit gate, or `None` if not 1-qubit.
fn as_mat2(g: &Gate) -> Option<(usize, Mat2)> {
    Some(match *g {
        Gate::H(q) => (q, Mat2::hadamard()),
        Gate::X(q) => (q, Mat2::pauli_x()),
        Gate::Rx(q, t) => (q, Mat2::rx(t / 2.0)),
        Gate::Ry(q, t) => (q, Mat2::ry(t / 2.0)),
        Gate::Rz(q, t) => (q, Mat2::rz(t / 2.0)),
        Gate::Phase(q, p) => (q, Mat2::phase(p)),
        Gate::U1(q, m) => (q, m),
        Gate::MultiZRot(mask, t) if mask.count_ones() == 1 => {
            (mask.trailing_zeros() as usize, Mat2::rz(t / 2.0))
        }
        _ => return None,
    })
}

/// The dense `Mat4` of a two-qubit gate (first qubit = low sub-index bit),
/// or `None` if not 2-qubit.
fn as_mat4(g: &Gate) -> Option<(usize, usize, Mat4)> {
    Some(match *g {
        Gate::Cx(c, t) => (c, t, Mat4::cnot_control_low()),
        Gate::Rzz(a, b, t) => (a, b, Mat4::rzz(t / 2.0)),
        Gate::U2(a, b, m) => (a, b, m),
        Gate::MultiZRot(mask, t) if mask.count_ones() == 2 => {
            let a = mask.trailing_zeros() as usize;
            let b = 63 - mask.leading_zeros() as usize;
            (a, b, Mat4::rzz(t / 2.0))
        }
        _ => return None,
    })
}

/// Embeds a `Mat2` on qubit `q` into a `Mat4` over the ordered pair
/// `(qa, qb)` (with `qa` the low sub-index bit).
fn embed(q: usize, m: &Mat2, qa: usize, qb: usize) -> Mat4 {
    debug_assert!(q == qa || q == qb);
    if q == qa {
        Mat4::kron(&Mat2::IDENTITY, m)
    } else {
        Mat4::kron(m, &Mat2::IDENTITY)
    }
}

/// Greedily fuses a gate list into maximal ≤2-qubit groups. Gates on three
/// or more qubits act as barriers and pass through unchanged; global phases
/// are folded into the neighbouring group.
pub fn fuse_2q(gates: &[Gate]) -> Vec<Gate> {
    let mut out = Vec::new();
    let mut pending: Option<Pending> = None;
    for g in gates {
        // Fold global phases into whatever group is open.
        if let Gate::GlobalPhase(phi) = *g {
            let f = qokit_statevec::C64::cis(phi);
            pending = Some(match pending.take() {
                None => Pending::One(0, scale2(&Mat2::IDENTITY, f)),
                Some(Pending::One(q, m)) => Pending::One(q, scale2(&m, f)),
                Some(Pending::Two(a, b, m)) => Pending::Two(a, b, scale4(&m, f)),
            });
            continue;
        }
        if let Some((q, m)) = as_mat2(g) {
            pending = Some(match pending.take() {
                None => Pending::One(q, m),
                Some(Pending::One(pq, pm)) if pq == q => Pending::One(q, m.matmul(&pm)),
                Some(Pending::One(pq, pm)) => {
                    // Disjoint qubits commute: group = (new on q) ⊗ (old on pq),
                    // stored on (pq low, q high).
                    Pending::Two(pq, q, Mat4::kron(&m, &pm))
                }
                Some(Pending::Two(a, b, pm)) if q == a || q == b => {
                    Pending::Two(a, b, embed(q, &m, a, b).matmul(&pm))
                }
                Some(p) => {
                    p.flush(&mut out);
                    Pending::One(q, m)
                }
            });
            continue;
        }
        if let Some((ga, gb, gm)) = as_mat4(g) {
            pending = Some(match pending.take() {
                None => Pending::Two(ga, gb, gm),
                Some(Pending::One(pq, pm)) if pq == ga || pq == gb => {
                    Pending::Two(ga, gb, gm.matmul(&embed(pq, &pm, ga, gb)))
                }
                Some(Pending::Two(a, b, pm)) if (ga, gb) == (a, b) => {
                    Pending::Two(a, b, gm.matmul(&pm))
                }
                Some(Pending::Two(a, b, pm)) if (gb, ga) == (a, b) => {
                    Pending::Two(a, b, swap_mat4(&gm).matmul(&pm))
                }
                Some(p) => {
                    p.flush(&mut out);
                    Pending::Two(ga, gb, gm)
                }
            });
            continue;
        }
        // ≥3-qubit gate: barrier.
        if let Some(p) = pending.take() {
            p.flush(&mut out);
        }
        out.push(g.clone());
    }
    if let Some(p) = pending {
        p.flush(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_statevec::exec::ExecPolicy;
    use qokit_statevec::{StateVec, C64};

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

    fn apply_all(gates: &[Gate], state: &mut StateVec) {
        for g in gates {
            g.apply(state.amplitudes_mut(), ExecPolicy::serial());
        }
    }

    fn assert_fusion_equivalent(gates: &[Gate], n: usize, seed: u64) {
        let fused = fuse_2q(gates);
        let mut a = random_state(n, seed);
        let mut b = a.clone();
        apply_all(gates, &mut a);
        apply_all(&fused, &mut b);
        assert!(
            a.max_abs_diff(&b) < 1e-10,
            "fusion changed the circuit: {gates:?}"
        );
    }

    #[test]
    fn fuses_same_qubit_chain() {
        let gates = [Gate::H(1), Gate::Rz(1, 0.3), Gate::Rx(1, 0.8)];
        let fused = fuse_2q(&gates);
        assert_eq!(fused.len(), 1);
        assert_fusion_equivalent(&gates, 3, 1);
    }

    #[test]
    fn fuses_two_qubit_window() {
        let gates = [
            Gate::H(0),
            Gate::H(1),
            Gate::Cx(0, 1),
            Gate::Rz(1, 0.4),
            Gate::Cx(0, 1),
        ];
        let fused = fuse_2q(&gates);
        assert_eq!(fused.len(), 1, "whole window fits in 2 qubits");
        assert_fusion_equivalent(&gates, 2, 2);
    }

    #[test]
    fn disjoint_gates_break_groups() {
        let gates = [Gate::Cx(0, 1), Gate::Cx(2, 3), Gate::Cx(0, 1)];
        let fused = fuse_2q(&gates);
        assert_eq!(fused.len(), 3);
        assert_fusion_equivalent(&gates, 4, 3);
    }

    #[test]
    fn reversed_pair_order_fuses() {
        let gates = [Gate::Cx(0, 1), Gate::Cx(1, 0)];
        let fused = fuse_2q(&gates);
        assert_eq!(fused.len(), 1);
        assert_fusion_equivalent(&gates, 2, 4);
    }

    #[test]
    fn multi_qubit_gate_is_barrier() {
        let gates = [Gate::H(0), Gate::MultiZRot(0b111, 0.5), Gate::H(0)];
        let fused = fuse_2q(&gates);
        assert_eq!(fused.len(), 3);
        assert_fusion_equivalent(&gates, 3, 5);
    }

    #[test]
    fn global_phase_is_folded() {
        let gates = [Gate::H(0), Gate::GlobalPhase(0.7), Gate::H(0)];
        let fused = fuse_2q(&gates);
        assert_eq!(fused.len(), 1);
        assert_fusion_equivalent(&gates, 2, 6);
    }

    #[test]
    fn qaoa_layer_fuses_correctly() {
        // A realistic mixed sequence: MaxCut phase + mixer on 5 qubits.
        let poly = qokit_terms::maxcut::maxcut_polynomial(&qokit_terms::Graph::ring(5, 1.0));
        let mut gates =
            crate::compile::compile_phase(&poly, 0.4, crate::compile::PhaseStyle::DecomposedCx);
        gates.extend(crate::compile::compile_mixer(
            5,
            0.7,
            crate::compile::CompiledMixer::X,
        ));
        let fused = fuse_2q(&gates);
        assert!(
            fused.len() < gates.len(),
            "{} !< {}",
            fused.len(),
            gates.len()
        );
        assert_fusion_equivalent(&gates, 5, 7);
    }

    #[test]
    fn labs_layer_fusion_equivalence() {
        let poly = qokit_terms::labs::labs_terms(6);
        let mut gates =
            crate::compile::compile_phase(&poly, 0.2, crate::compile::PhaseStyle::DecomposedCx);
        gates.extend(crate::compile::compile_mixer(
            6,
            0.5,
            crate::compile::CompiledMixer::X,
        ));
        assert_fusion_equivalent(&gates, 6, 8);
    }

    #[test]
    fn one_qubit_pair_merge_is_ordered_correctly() {
        // Non-commuting on same qubit after forming a 2q group.
        let gates = [Gate::H(0), Gate::Cx(0, 1), Gate::Rx(0, 0.9), Gate::H(1)];
        let fused = fuse_2q(&gates);
        assert_eq!(fused.len(), 1);
        assert_fusion_equivalent(&gates, 2, 9);
    }

    #[test]
    fn empty_input() {
        assert!(fuse_2q(&[]).is_empty());
    }
}
