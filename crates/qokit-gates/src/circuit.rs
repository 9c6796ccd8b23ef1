//! Gate-list circuits and their execution.

use crate::gate::Gate;
use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::StateVec;

/// A quantum circuit: an ordered gate list on `n` qubits.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    n: usize,
    gates: Vec<Gate>,
}

/// Gate-count statistics (the quantities of the paper's §VI analysis).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Total gates (excluding global phases).
    pub total: usize,
    /// Single-qubit gates.
    pub one_qubit: usize,
    /// Two-qubit gates.
    pub two_qubit: usize,
    /// Gates on three or more qubits (native multi-Z rotations).
    pub multi_qubit: usize,
    /// Diagonal gates (any arity).
    pub diagonal: usize,
}

impl Circuit {
    /// An empty circuit on `n` qubits.
    pub fn new(n: usize) -> Self {
        assert!(n <= 64, "at most 64 qubits");
        Circuit {
            n,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The gate list.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate.
    ///
    /// # Panics
    /// If the gate touches a qubit `≥ n`.
    pub fn push(&mut self, gate: Gate) {
        let support = gate.support();
        assert!(
            support >> self.n == 0,
            "gate {gate:?} exceeds qubit count {}",
            self.n
        );
        self.gates.push(gate);
    }

    /// Appends every gate of an iterator.
    pub fn extend(&mut self, gates: impl IntoIterator<Item = Gate>) {
        for g in gates {
            self.push(g);
        }
    }

    /// Appends another circuit.
    pub fn append(&mut self, other: &Circuit) {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        self.gates.extend(other.gates.iter().cloned());
    }

    /// Executes the circuit on a state in place, one sweep per gate — the
    /// defining cost model of a gate-based state-vector simulator.
    pub fn apply(&self, state: &mut StateVec, policy: ExecPolicy) {
        assert_eq!(state.n_qubits(), self.n, "state has wrong qubit count");
        for g in &self.gates {
            g.apply(state.amplitudes_mut(), policy);
        }
    }

    /// Runs the circuit from `|0…0⟩`.
    pub fn run(&self, exec: ExecPolicy) -> StateVec {
        let mut s = StateVec::zero_state(self.n);
        self.apply(&mut s, exec);
        s
    }

    /// Gate-count statistics.
    pub fn counts(&self) -> GateCounts {
        let mut c = GateCounts::default();
        for g in &self.gates {
            if matches!(g, Gate::GlobalPhase(_)) {
                continue;
            }
            c.total += 1;
            match g.arity() {
                1 => c.one_qubit += 1,
                2 => c.two_qubit += 1,
                _ => c.multi_qubit += 1,
            }
            if g.is_diagonal() {
                c.diagonal += 1;
            }
        }
        c
    }

    /// Number of gates (including global phases).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_statevec::C64;

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        let s = c.run(ExecPolicy::serial());
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!(s.amplitudes()[0b00].approx_eq(C64::from_re(h), 1e-12));
        assert!(s.amplitudes()[0b11].approx_eq(C64::from_re(h), 1e-12));
        assert!(s.amplitudes()[0b01].approx_eq(C64::ZERO, 1e-12));
    }

    #[test]
    fn counts_classify_gates() {
        let mut c = Circuit::new(4);
        c.extend([
            Gate::H(0),
            Gate::Rz(1, 0.2),
            Gate::Cx(0, 1),
            Gate::Rzz(2, 3, 0.1),
            Gate::MultiZRot(0b1110, 0.4),
            Gate::GlobalPhase(0.3),
        ]);
        let k = c.counts();
        assert_eq!(k.total, 5);
        assert_eq!(k.one_qubit, 2);
        assert_eq!(k.two_qubit, 2);
        assert_eq!(k.multi_qubit, 1);
        assert_eq!(k.diagonal, 3);
        assert_eq!(c.len(), 6);
    }

    #[test]
    #[should_panic(expected = "exceeds qubit count")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(2));
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(2);
        a.push(Gate::H(0));
        let mut b = Circuit::new(2);
        b.push(Gate::Cx(0, 1));
        a.append(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn hh_is_identity() {
        let mut c = Circuit::new(3);
        c.extend([Gate::H(1), Gate::H(1)]);
        let s = c.run(ExecPolicy::serial());
        assert!(s.amplitudes()[0].approx_eq(C64::ONE, 1e-12));
    }
}
