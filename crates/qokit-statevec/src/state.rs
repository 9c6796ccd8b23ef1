//! The `2^n`-amplitude state vector and its constructors.

use crate::complex::C64;

/// Maximum qubit count accepted by constructors (2^40 amplitudes is far past
/// single-node memory; the guard catches accidental `1 << huge` overflow).
pub const MAX_QUBITS: usize = 40;

/// Validates `n ≤ MAX_QUBITS` and returns the Hilbert-space dimension
/// `2^n`. Every constructor's dim check, and the cost-vector
/// precompute's, funnels through here so the guard (and its panic
/// message) exists exactly once.
///
/// # Panics
/// If `n > MAX_QUBITS`.
#[inline]
pub fn checked_dim(n: usize) -> usize {
    assert!(n <= MAX_QUBITS, "n = {n} exceeds MAX_QUBITS = {MAX_QUBITS}");
    1usize << n
}

/// The amplitude `1/√dim` of every basis state in `|+⟩` on `dim` basis
/// states: the one expression every `|+⟩` constructor and the fused
/// first-phase write (`diag::write_phased_uniform_split`) share, so they
/// agree bit for bit.
#[inline]
pub(crate) fn uniform_amplitude(dim: usize) -> f64 {
    1.0 / (dim as f64).sqrt()
}

/// The single dim-checked amplitude allocator every constructor funnels
/// through: validates `n ≤ MAX_QUBITS` via [`checked_dim`], allocates `2^n`
/// amplitudes filled with `fill`, and debug-asserts the natural alignment
/// the kernels assume.
///
/// # Panics
/// If `n > MAX_QUBITS`.
pub(crate) fn alloc_amps(n: usize, fill: C64) -> Vec<C64> {
    let amps = vec![fill; checked_dim(n)];
    debug_assert!(
        (amps.as_ptr() as usize).is_multiple_of(std::mem::align_of::<C64>()),
        "amplitude buffer must be aligned to C64"
    );
    amps
}

/// A pure quantum state on `n` qubits stored as `2^n` complex amplitudes.
///
/// Index convention: basis state `|b_{n-1} … b_1 b_0⟩` lives at index
/// `x = Σ b_i 2^i`, i.e. **qubit `i` is bit `i` (LSB-first)** of the index.
#[derive(Clone, Debug)]
pub struct StateVec {
    n: usize,
    amps: Vec<C64>,
}

impl StateVec {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(n: usize) -> Self {
        Self::basis_state(n, 0)
    }

    /// The computational basis state `|x⟩`.
    ///
    /// # Panics
    /// If `n > MAX_QUBITS` or `x >= 2^n`.
    pub fn basis_state(n: usize, x: usize) -> Self {
        let mut amps = alloc_amps(n, C64::ZERO);
        assert!(x < amps.len(), "basis index {x} out of range for n = {n}");
        amps[x] = C64::ONE;
        StateVec { n, amps }
    }

    /// The uniform superposition `|+⟩^{⊗n}` — the standard QAOA initial
    /// state for the transverse-field mixer.
    pub fn uniform_superposition(n: usize) -> Self {
        let dim = checked_dim(n);
        let amps = alloc_amps(n, C64::from_re(uniform_amplitude(dim)));
        StateVec { n, amps }
    }

    /// The Dicke state `|D^n_k⟩`: the uniform superposition over all basis
    /// states of Hamming weight `k`. This is the canonical initial state for
    /// the Hamming-weight-preserving XY mixers (e.g. portfolio optimization
    /// with a cardinality constraint).
    ///
    /// # Panics
    /// If `k > n`.
    pub fn dicke_state(n: usize, k: usize) -> Self {
        assert!(k <= n, "Hamming weight {k} exceeds qubit count {n}");
        let amp = C64::from_re(1.0 / binomial(n, k).sqrt());
        let mut amps = alloc_amps(n, C64::ZERO);
        for (x, a) in amps.iter_mut().enumerate() {
            if x.count_ones() as usize == k {
                *a = amp;
            }
        }
        StateVec { n, amps }
    }

    /// Wraps an existing amplitude vector. The length must be a power of two
    /// not exceeding `2^MAX_QUBITS`. No normalization is performed.
    ///
    /// # Panics
    /// If the length is not a power of two (or is zero / too large).
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let dim = amps.len();
        assert!(dim.is_power_of_two(), "length {dim} is not a power of two");
        let n = dim.trailing_zeros() as usize;
        assert!(n <= MAX_QUBITS, "n = {n} exceeds MAX_QUBITS = {MAX_QUBITS}");
        StateVec { n, amps }
    }

    /// Number of qubits.
    #[inline(always)]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Dimension `2^n` of the Hilbert space.
    #[inline(always)]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Read-only view of the amplitudes.
    #[inline(always)]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable view of the amplitudes (used by the in-place kernels).
    #[inline(always)]
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Consumes the state and returns the raw amplitude vector.
    pub fn into_amplitudes(self) -> Vec<C64> {
        self.amps
    }

    /// Squared norm `⟨ψ|ψ⟩` (should be 1 for physical states).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Rescales the state to unit norm. Returns the prior norm.
    pub fn normalize(&mut self) -> f64 {
        let norm = self.norm_sqr().sqrt();
        if norm > 0.0 {
            let inv = 1.0 / norm;
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
        norm
    }

    /// Measurement probabilities `|ψ_x|²` as a fresh vector.
    ///
    /// This is the borrowing counterpart of QOKit's
    /// `get_probabilities(..., preserve_state=True)`.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Consumes the state and reuses its allocation for the probabilities,
    /// mirroring QOKit's `preserve_state=False` in-place norm-square path
    /// (no second `2^n` buffer is ever live).
    pub fn into_probabilities(self) -> Vec<f64> {
        // C64 is #[repr(C)] (re, im): reuse the buffer by writing |ψ|² into
        // the re slot, then shrink. Safe version: map in place pairwise.
        let mut amps = self.amps;
        for a in amps.iter_mut() {
            *a = C64::new(a.norm_sqr(), 0.0);
        }
        amps.into_iter().map(|a| a.re).collect()
    }

    /// Inner product `⟨self|other⟩` (conjugate-linear in `self`).
    ///
    /// # Panics
    /// If dimensions differ.
    pub fn inner(&self, other: &StateVec) -> C64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVec) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Largest per-component deviation from `other` — a robust metric for
    /// "same state" assertions in tests.
    pub fn max_abs_diff(&self, other: &StateVec) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Memory held by the amplitude buffer, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.amps.len() * std::mem::size_of::<C64>()
    }
}

/// Binomial coefficient `C(n, k)` as `f64` (exact for the sizes we use:
/// `n ≤ 40` keeps every value below 2^53).
pub fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc.round()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_has_unit_amplitude_at_origin() {
        let s = StateVec::zero_state(3);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.amplitudes()[0], C64::ONE);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn basis_state_places_amplitude() {
        let s = StateVec::basis_state(4, 0b1010);
        assert_eq!(s.amplitudes()[0b1010], C64::ONE);
        assert_eq!(s.amplitudes()[0], C64::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_state_rejects_overflow_index() {
        let _ = StateVec::basis_state(3, 8);
    }

    #[test]
    fn uniform_superposition_is_normalized() {
        for n in 1..=10 {
            let s = StateVec::uniform_superposition(n);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-12, "n = {n}");
            let expect = 1.0 / (s.dim() as f64).sqrt();
            assert!((s.amplitudes()[s.dim() - 1].re - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn dicke_state_support_and_norm() {
        let s = StateVec::dicke_state(5, 2);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        for (x, a) in s.amplitudes().iter().enumerate() {
            if x.count_ones() == 2 {
                assert!((a.re - 1.0 / binomial(5, 2).sqrt()).abs() < 1e-12);
            } else {
                assert_eq!(*a, C64::ZERO);
            }
        }
    }

    #[test]
    fn dicke_extremes_are_basis_or_full() {
        let d0 = StateVec::dicke_state(4, 0);
        assert_eq!(d0.amplitudes()[0], C64::ONE);
        let dn = StateVec::dicke_state(4, 4);
        assert_eq!(dn.amplitudes()[0b1111], C64::ONE);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let s = StateVec::dicke_state(6, 3);
        let p: f64 = s.probabilities().iter().sum();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn into_probabilities_matches_probabilities() {
        let s = StateVec::uniform_superposition(5);
        let p1 = s.probabilities();
        let p2 = s.into_probabilities();
        assert_eq!(p1, p2);
    }

    #[test]
    fn inner_product_orthogonality() {
        let a = StateVec::basis_state(3, 1);
        let b = StateVec::basis_state(3, 6);
        assert_eq!(a.inner(&b), C64::ZERO);
        assert_eq!(a.inner(&a), C64::ONE);
    }

    #[test]
    fn normalize_rescales() {
        let mut s = StateVec::from_amplitudes(vec![C64::new(3.0, 0.0), C64::new(0.0, 4.0)]);
        let prior = s.normalize();
        assert!((prior - 5.0).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_non_power_of_two() {
        let _ = StateVec::from_amplitudes(vec![C64::ZERO; 3]);
    }

    #[test]
    fn binomial_table() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 0), 1.0);
        assert_eq!(binomial(10, 10), 1.0);
        assert_eq!(binomial(40, 20), 137846528820.0);
        assert_eq!(binomial(3, 5), 0.0);
    }

    #[test]
    fn memory_accounting() {
        let s = StateVec::zero_state(10);
        assert_eq!(s.memory_bytes(), 1024 * 16);
    }
}
