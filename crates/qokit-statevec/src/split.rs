//! Split-complex (structure-of-arrays) state storage.
//!
//! QOKit's fastest CPU backend (`fur/c`) stores the state as separate
//! real/imag `f64` arrays (`ComplexArray`) precisely so the C kernels
//! vectorize: with independent `re`/`im` streams the inner loops contain no
//! complex multiplies, every load is a contiguous `f64` stream, and the
//! autovectorizer packs 4–8 lanes per instruction. [`SplitStateVec`] is that
//! layout here: two dense planes of `2^n` doubles.
//!
//! It is the layout the simulator runs in end to end: the objective, batched
//! sweeps, the per-layer observer and light-cone cones fill the initial
//! state straight into planes, evolve them, and reduce them with the
//! `*_split` objective, never building an interleaved state. Only calls that
//! hand back a [`StateVec`] (`simulate_qaoa`, custom sweep extractors)
//! interleave once at the end.
//!
//! Conversion to/from the interleaved [`StateVec`] layout is a pure copy —
//! [`C64`] is `#[repr(C)]` `{re, im}`, so interleaved↔split round-trips are
//! **bit-identical** (no arithmetic touches the values).
//!
//! Every kernel module (`fwht`, `diag`, `su2`, `su4`) provides `*_split`
//! entry points that take `(re, im)` plane pairs with the same index
//! arithmetic as their interleaved twins; `reference.rs` remains the oracle
//! for both layouts.

use crate::complex::C64;
use crate::state::{checked_dim, StateVec, MAX_QUBITS};

/// A pure quantum state on `n` qubits stored as two `2^n`-element `f64`
/// planes (structure-of-arrays): `re[x] + i·im[x]` is the amplitude of
/// basis state `x`, with the same LSB-first index convention as
/// [`StateVec`].
#[derive(Clone, Debug, PartialEq)]
pub struct SplitStateVec {
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitStateVec {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(n: usize) -> Self {
        Self::basis_state(n, 0)
    }

    /// The computational basis state `|x⟩`.
    ///
    /// # Panics
    /// If `n > MAX_QUBITS` or `x >= 2^n`.
    pub fn basis_state(n: usize, x: usize) -> Self {
        let dim = checked_dim(n);
        assert!(x < dim, "basis index {x} out of range for n = {n}");
        let mut s = SplitStateVec {
            n,
            re: vec![0.0; dim],
            im: vec![0.0; dim],
        };
        s.re[x] = 1.0;
        s
    }

    /// The uniform superposition `|+⟩^{⊗n}`.
    pub fn uniform_superposition(n: usize) -> Self {
        let dim = checked_dim(n);
        SplitStateVec {
            n,
            re: vec![1.0 / (dim as f64).sqrt(); dim],
            im: vec![0.0; dim],
        }
    }

    /// Builds the split representation of an interleaved amplitude slice.
    /// Pure plane extraction — bit-identical to the source.
    ///
    /// # Panics
    /// If the length is not a power of two within `2^MAX_QUBITS`.
    pub fn from_interleaved(amps: &[C64]) -> Self {
        let dim = amps.len();
        assert!(dim.is_power_of_two(), "length {dim} is not a power of two");
        let n = dim.trailing_zeros() as usize;
        assert!(n <= MAX_QUBITS, "n = {n} exceeds MAX_QUBITS = {MAX_QUBITS}");
        let mut re = Vec::with_capacity(dim);
        let mut im = Vec::with_capacity(dim);
        for a in amps {
            re.push(a.re);
            im.push(a.im);
        }
        SplitStateVec { n, re, im }
    }

    /// Wraps existing planes. Both must have the same power-of-two length.
    ///
    /// # Panics
    /// If lengths differ or are not a power of two within `2^MAX_QUBITS`.
    pub fn from_planes(re: Vec<f64>, im: Vec<f64>) -> Self {
        assert_eq!(re.len(), im.len(), "plane length mismatch");
        let dim = re.len();
        assert!(dim.is_power_of_two(), "length {dim} is not a power of two");
        let n = dim.trailing_zeros() as usize;
        assert!(n <= MAX_QUBITS, "n = {n} exceeds MAX_QUBITS = {MAX_QUBITS}");
        SplitStateVec { n, re, im }
    }

    /// Writes the state back into an interleaved amplitude slice of the
    /// same dimension. Pure plane interleaving — bit-identical.
    ///
    /// # Panics
    /// If `amps.len() != self.dim()`.
    pub fn write_interleaved(&self, amps: &mut [C64]) {
        assert_eq!(amps.len(), self.dim(), "dimension mismatch");
        for ((a, &r), &i) in amps.iter_mut().zip(&self.re).zip(&self.im) {
            *a = C64::new(r, i);
        }
    }

    /// The interleaved [`StateVec`] holding the same amplitudes.
    pub fn to_state_vec(&self) -> StateVec {
        let mut amps = vec![C64::ZERO; self.dim()];
        self.write_interleaved(&mut amps);
        StateVec::from_amplitudes(amps)
    }

    /// Consumes the state and returns the interleaved [`StateVec`].
    pub fn into_state_vec(self) -> StateVec {
        self.to_state_vec()
    }

    /// Overwrites this state with `src` — a buffer refill that keeps both
    /// allocations.
    ///
    /// # Panics
    /// If the dimensions differ.
    pub fn copy_from(&mut self, src: &SplitStateVec) {
        assert_eq!(self.dim(), src.dim(), "dimension mismatch");
        self.re.copy_from_slice(&src.re);
        self.im.copy_from_slice(&src.im);
    }

    /// Number of qubits.
    #[inline(always)]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Dimension `2^n` of the Hilbert space.
    #[inline(always)]
    pub fn dim(&self) -> usize {
        self.re.len()
    }

    /// Read-only views of the `(re, im)` planes.
    #[inline(always)]
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Mutable views of the `(re, im)` planes (used by the in-place split
    /// kernels).
    #[inline(always)]
    pub fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Squared norm `⟨ψ|ψ⟩`.
    pub fn norm_sqr(&self) -> f64 {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(r, i)| r * r + i * i)
            .sum()
    }

    /// Largest per-component deviation from an interleaved slice — the
    /// "same state" metric the equivalence tests use across layouts.
    pub fn max_abs_diff_interleaved(&self, amps: &[C64]) -> f64 {
        assert_eq!(amps.len(), self.dim(), "dimension mismatch");
        amps.iter()
            .zip(&self.re)
            .zip(&self.im)
            .map(|((a, &r), &i)| (*a - C64::new(r, i)).abs())
            .fold(0.0, f64::max)
    }

    /// Memory held by both planes, in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.re.len() + self.im.len()) * std::mem::size_of::<f64>()
    }
}

impl From<&StateVec> for SplitStateVec {
    fn from(s: &StateVec) -> SplitStateVec {
        SplitStateVec::from_interleaved(s.amplitudes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_identical() {
        let mut amps = Vec::new();
        for k in 0..64u32 {
            // Awkward, non-representable-in-fewer-bits values.
            amps.push(C64::new(
                (f64::from(k) * 0.123456789).sin(),
                (f64::from(k) * 7.654321).cos(),
            ));
        }
        let split = SplitStateVec::from_interleaved(&amps);
        let mut back = vec![C64::ZERO; amps.len()];
        split.write_interleaved(&mut back);
        assert_eq!(amps, back, "round trip must be exact, not approximate");
    }

    #[test]
    fn constructors_match_statevec() {
        for (a, b) in [
            (SplitStateVec::zero_state(4), StateVec::zero_state(4)),
            (
                SplitStateVec::basis_state(4, 11),
                StateVec::basis_state(4, 11),
            ),
            (
                SplitStateVec::uniform_superposition(5),
                StateVec::uniform_superposition(5),
            ),
        ] {
            assert_eq!(a.max_abs_diff_interleaved(b.amplitudes()), 0.0);
            assert_eq!(a.n_qubits(), b.n_qubits());
        }
    }

    #[test]
    fn into_state_vec_round_trips() {
        let s = StateVec::dicke_state(6, 2);
        let split = SplitStateVec::from(&s);
        let back = split.into_state_vec();
        assert_eq!(s.amplitudes(), back.amplitudes());
    }

    #[test]
    fn norm_matches() {
        let s = StateVec::uniform_superposition(8);
        let split = SplitStateVec::from(&s);
        assert!((split.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(split.memory_bytes(), s.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "plane length mismatch")]
    fn from_planes_rejects_mismatch() {
        let _ = SplitStateVec::from_planes(vec![0.0; 4], vec![0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_interleaved_rejects_non_power_of_two() {
        let _ = SplitStateVec::from_interleaved(&[C64::ZERO; 3]);
    }
}
