//! The stored cost diagonal `⃗C` and its two representations.
//!
//! The paper stores the precomputed diagonal either as `f64` (default) or —
//! when the cost values are integers of known range, as for LABS where
//! `max f < 2^16` for `n < 65` (§V-B) — as `uint16`, which cuts the memory
//! overhead of the cost vector to 2 bytes against 16 bytes per `complex128`
//! amplitude: the "+12.5 %" figure of the introduction.
//!
//! Here the 2-byte form is [`CostVec::Levels`], an exact dictionary coding:
//! the distinct values (levels) once, plus a `u16` index per entry. The
//! paper's own problems take few distinct values — at most `|E| + 1` for
//! unit-weight MaxCut — so [`CostVec::from_f64`] picks it whenever there are
//! at most `min(65536, 2^n/4)` of them. It costs 2 B/amp + 8 B/level
//! without rounding anything, and its phase operator takes one `sin_cos`
//! per level per layer instead of one per amplitude. Every value, phase and
//! expectation is bit-identical to the `f64` form's. The §V-B grid
//! ([`CostVec::quantize_exact`]) is the same coding with every level
//! snapped onto `offset + step·k`.

use crate::precompute::{precompute, PrecomputeMethod};
use qokit_statevec::diag;
use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::C64;
use qokit_terms::SpinPolynomial;

/// Error cases for the §V-B grid coding ([`CostVec::quantize_exact`]).
#[derive(Clone, Debug, PartialEq)]
pub enum QuantizeError {
    /// A value is not an integer multiple of the step after shifting.
    NotIntegral {
        /// Offending vector index.
        index: usize,
        /// Offending value.
        value: f64,
    },
    /// The value range spans more than 65536 grid points.
    RangeTooWide {
        /// Observed `max − min`.
        span: f64,
        /// Largest span representable: `step · 65535`.
        representable: f64,
    },
    /// A value is NaN or infinite — no finite grid can represent it.
    /// Without this check a NaN slips through both the span and the
    /// integrality comparisons (every `NaN > x` is false) and lands on the
    /// lowest grid point.
    NonFinite {
        /// Offending vector index.
        index: usize,
        /// Offending value.
        value: f64,
    },
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::NotIntegral { index, value } => {
                write!(f, "cost[{index}] = {value} is not on the quantization grid")
            }
            QuantizeError::RangeTooWide {
                span,
                representable,
            } => {
                write!(
                    f,
                    "cost span {span} exceeds the 65535-step grid's {representable}"
                )
            }
            QuantizeError::NonFinite { index, value } => {
                write!(f, "cost[{index}] = {value} is not finite")
            }
        }
    }
}

impl std::error::Error for QuantizeError {}

/// The precomputed cost diagonal, in one of two representations.
#[derive(Clone, Debug)]
pub enum CostVec {
    /// Full-precision values.
    F64(Vec<f64>),
    /// Exact dictionary coding: `c_x = levels[index[x]]`.
    Levels {
        /// The distinct values, in order of first appearance.
        levels: Vec<f64>,
        /// Per-entry position in `levels`.
        index: Vec<u16>,
    },
}

impl CostVec {
    /// Precomputes the diagonal for a polynomial (`f64` representation).
    pub fn from_polynomial(
        poly: &SpinPolynomial,
        method: PrecomputeMethod,
        exec: impl Into<ExecPolicy>,
    ) -> Self {
        CostVec::F64(precompute(poly, method, exec))
    }

    /// Stores a precomputed diagonal as [`CostVec::Levels`] when it has at
    /// most `min(65536, len/4)` distinct values, and as `F64` otherwise.
    /// One pass; values are told apart by their
    /// bits, so `-0.0`, `0.0` and every NaN payload keep their own level.
    /// Lossless either way: every value, phase and expectation is
    /// bit-identical to `CostVec::F64(costs)`'s.
    pub fn from_f64(costs: Vec<f64>) -> Self {
        match index_levels(costs.iter().copied(), max_levels(costs.len())) {
            Some((levels, index)) => CostVec::Levels { levels, index },
            None => CostVec::F64(costs),
        }
    }

    /// The §V-B grid coding: every value must already lie on the grid
    /// `min + step·k` (the LABS case with `step = 1`) and is stored as that
    /// grid point, level-coded like [`CostVec::from_f64`] but with up to
    /// 65536 levels. Fails loudly rather than rounding.
    ///
    /// # Panics
    /// If `step` is not positive and finite.
    pub fn quantize_exact(costs: &[f64], step: f64) -> Result<Self, QuantizeError> {
        assert!(
            step > 0.0 && step.is_finite(),
            "quantization step must be positive and finite"
        );
        if let Some((index, &value)) = costs.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(QuantizeError::NonFinite { index, value });
        }
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = max - min;
        let representable = step * u16::MAX as f64;
        // The non-finite scan above means `span` is never NaN here — at
        // worst `+inf` from two huge finite extrema, which `>` catches.
        if span > representable + 1e-9 {
            return Err(QuantizeError::RangeTooWide {
                span,
                representable,
            });
        }
        Self::on_grid(costs.iter().copied(), min, step).ok_or_else(|| {
            match costs
                .iter()
                .position(|&v| snap_to_grid(v, min, step).is_none())
            {
                Some(index) => QuantizeError::NotIntegral {
                    index,
                    value: costs[index],
                },
                // Only a step below the span check's `1e-9` slack gets here.
                None => QuantizeError::RangeTooWide {
                    span,
                    representable,
                },
            }
        })
    }

    /// Level-codes `costs` as their grid points `offset + step·k`
    /// ([`snap_to_grid`]), in order of first appearance. `None` when a cost
    /// is off the grid or more than 65536 grid points occur.
    pub fn on_grid(
        costs: impl ExactSizeIterator<Item = f64>,
        offset: f64,
        step: f64,
    ) -> Option<Self> {
        let mut on_grid = true;
        let snapped = costs.map(|c| {
            snap_to_grid(c, offset, step).unwrap_or_else(|| {
                on_grid = false;
                c
            })
        });
        let (levels, index) = index_levels(snapped, 1 << 16)?;
        on_grid.then_some(CostVec::Levels { levels, index })
    }

    /// Number of entries (`2^n`).
    pub fn len(&self) -> usize {
        match self {
            CostVec::F64(v) => v.len(),
            CostVec::Levels { index, .. } => index.len(),
        }
    }

    /// `true` when empty (never for a real cost vector).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of qubits `n` (`len = 2^n`).
    pub fn n_qubits(&self) -> usize {
        debug_assert!(self.len().is_power_of_two());
        self.len().trailing_zeros() as usize
    }

    /// The cost value at index `x`.
    #[inline]
    pub fn value(&self, x: usize) -> f64 {
        match self {
            CostVec::F64(v) => v[x],
            CostVec::Levels { levels, index } => levels[index[x] as usize],
        }
    }

    /// Materializes the full-precision vector.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            CostVec::F64(v) => v.clone(),
            CostVec::Levels { levels, index } => {
                index.iter().map(|&j| levels[j as usize]).collect()
            }
        }
    }

    /// Applies the QAOA phase operator `ψ_x ← e^{-iγ c_x} ψ_x` in place —
    /// the paper's single elementwise product per layer. A `Levels`
    /// diagonal takes the factors from a per-layer table of one `e^{-iγ v}`
    /// per level.
    pub fn apply_phase(&self, amps: &mut [C64], gamma: f64, exec: impl Into<ExecPolicy>) {
        match self {
            CostVec::F64(v) => diag::apply_phase(amps, v, gamma, exec),
            CostVec::Levels { levels, index } => {
                let table = diag::phase_table(levels.iter().copied(), gamma);
                diag::apply_phase_indexed(amps, index, &table, exec)
            }
        }
    }

    /// The QAOA objective `⟨ψ|Ĉ|ψ⟩ = Σ c_x |ψ_x|²` — the paper's single
    /// inner product.
    pub fn expectation(&self, amps: &[C64], exec: impl Into<ExecPolicy>) -> f64 {
        match self {
            CostVec::F64(v) => diag::expectation(amps, v, exec),
            CostVec::Levels { levels, index } => {
                diag::expectation_indexed(amps, index, levels, exec)
            }
        }
    }

    /// Split-plane twin of [`CostVec::apply_phase`]: rotates the `re`/`im`
    /// planes of a [`qokit_statevec::SplitStateVec`] in place.
    pub fn apply_phase_split(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        gamma: f64,
        exec: impl Into<ExecPolicy>,
    ) {
        match self {
            CostVec::F64(v) => diag::apply_phase_split(re, im, v, gamma, exec),
            CostVec::Levels { levels, index } => {
                let table = diag::phase_table(levels.iter().copied(), gamma);
                diag::apply_phase_indexed_split(re, im, index, &table, exec)
            }
        }
    }

    /// Split-plane twin of [`CostVec::expectation`].
    pub fn expectation_split(&self, re: &[f64], im: &[f64], exec: impl Into<ExecPolicy>) -> f64 {
        match self {
            CostVec::F64(v) => diag::expectation_split(re, im, v, exec),
            CostVec::Levels { levels, index } => {
                diag::expectation_indexed_split(re, im, index, levels, exec)
            }
        }
    }

    /// Minimum and maximum cost values.
    pub fn extrema(&self) -> (f64, f64) {
        let fold = |v: &[f64]| {
            v.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &c| {
                    (lo.min(c), hi.max(c))
                })
        };
        match self {
            CostVec::F64(v) => fold(v),
            CostVec::Levels { levels, .. } => fold(levels),
        }
    }

    /// Indices of all minimum-cost (ground) states, within tolerance `tol`.
    pub fn ground_state_indices(&self, tol: f64) -> Vec<usize> {
        let (min, _) = self.extrema();
        (0..self.len())
            .filter(|&x| self.value(x) <= min + tol)
            .collect()
    }

    /// Ground-state overlap `Σ_{x: c_x = min} |ψ_x|²` — QOKit's
    /// `get_overlap`.
    pub fn overlap(&self, amps: &[C64]) -> f64 {
        let ground = self.ground_state_indices(1e-9);
        diag::probability_mass(amps, &ground)
    }

    /// Split-plane twin of [`CostVec::overlap`], with the same bits.
    pub fn overlap_split(&self, re: &[f64], im: &[f64]) -> f64 {
        let ground = self.ground_state_indices(1e-9);
        diag::probability_mass_split(re, im, &ground)
    }

    /// Bytes held by the stored representation.
    pub fn memory_bytes(&self) -> usize {
        match self {
            CostVec::F64(v) => v.len() * std::mem::size_of::<f64>(),
            CostVec::Levels { levels, index } => {
                std::mem::size_of_val(index.as_slice()) + std::mem::size_of_val(levels.as_slice())
            }
        }
    }

    /// Memory overhead of this cost vector relative to the `complex128`
    /// state vector it accompanies. The paper's `uint16` diagonal is
    /// 12.5 %; a `Levels` diagonal is that plus `8·levels / (16·2^n)`.
    pub fn overhead_vs_state(&self) -> f64 {
        let state_bytes = self.len() * qokit_statevec::AMP_BYTES;
        self.memory_bytes() as f64 / state_bytes as f64
    }
}

/// Most levels [`CostVec::from_f64`] codes a diagonal of `len` entries
/// with: `min(65536, len/4)`. Under it, a layer's phase table costs at most
/// one `sin_cos` per four amplitudes, and a `u16` index plus the levels is
/// smaller than the `f64` vector.
#[inline]
fn max_levels(len: usize) -> usize {
    (len / 4).min(1 << 16)
}

/// `value` as a point of the grid `offset + step·k`: the nearest one, or
/// `None` when `value` is more than `1e-6` steps from it. The one snapping
/// rule of the §V-B grid, shared by [`CostVec::quantize_exact`] and the
/// distributed ranks' global-grid check.
#[inline]
pub fn snap_to_grid(value: f64, offset: f64, step: f64) -> Option<f64> {
    let level = (value - offset) / step;
    let k = level.round();
    ((level - k).abs() <= 1e-6).then_some(offset + step * k)
}

/// Marks a free slot of the open-addressing table in [`index_levels`].
const FREE: u32 = u32::MAX;

/// The levels of `costs` in order of first appearance and each entry's
/// position among them, or `None` as soon as there are more than `cap`
/// (at most 65536). Deduplicates by bit pattern in an open-addressing
/// table kept at most half full.
fn index_levels(
    costs: impl ExactSizeIterator<Item = f64>,
    cap: usize,
) -> Option<(Vec<f64>, Vec<u16>)> {
    let mut levels: Vec<f64> = Vec::new();
    let mut index: Vec<u16> = Vec::with_capacity(costs.len());
    // Each slot holds a level's bits and its position, or `FREE`.
    let mut slots = vec![(0u64, FREE); 64];
    for c in costs {
        let bits = c.to_bits();
        let mut h = slot_of(bits, slots.len());
        let j = loop {
            match slots[h] {
                (_, FREE) => {
                    if levels.len() == cap {
                        return None;
                    }
                    let j = levels.len() as u32;
                    slots[h] = (bits, j);
                    levels.push(c);
                    if 2 * levels.len() > slots.len() {
                        slots = rehash(&levels, 2 * slots.len());
                    }
                    break j;
                }
                (key, j) if key == bits => break j,
                _ => h = (h + 1) & (slots.len() - 1),
            }
        };
        index.push(j as u16);
    }
    Some((levels, index))
}

/// Home slot of a value's bits in a power-of-two table (Fibonacci hashing:
/// the top bits of a multiplicative hash).
#[inline(always)]
fn slot_of(bits: u64, slots: usize) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

/// A fresh table of `size` slots holding every level.
fn rehash(levels: &[f64], size: usize) -> Vec<(u64, u32)> {
    let mut slots = vec![(0u64, FREE); size];
    for (j, v) in levels.iter().enumerate() {
        let mut h = slot_of(v.to_bits(), size);
        while slots[h].1 != FREE {
            h = (h + 1) & (size - 1);
        }
        slots[h] = (v.to_bits(), j as u32);
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_statevec::{Backend, StateVec};
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::Graph;

    fn labs_costvec(n: usize) -> CostVec {
        CostVec::from_polynomial(&labs_terms(n), PrecomputeMethod::Fwht, Backend::Serial)
    }

    #[test]
    fn exact_quantization_roundtrips_labs() {
        let cv = labs_costvec(10);
        let f64s = cv.to_f64_vec();
        // LABS paper costs are integers on a step-1/2 grid? They are
        // integers: weights are 1 and 2 with ±1 products.
        let q = CostVec::quantize_exact(&f64s, 1.0).expect("LABS costs are integral");
        for (x, &v) in f64s.iter().enumerate() {
            assert_eq!(q.value(x), v, "x = {x}");
        }
    }

    #[test]
    fn exact_quantization_rejects_non_integral() {
        let err = CostVec::quantize_exact(&[0.0, 0.5, 1.0], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::NotIntegral { index: 1, .. }));
    }

    #[test]
    fn exact_quantization_rejects_wide_range() {
        let err = CostVec::quantize_exact(&[0.0, 70000.0], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::RangeTooWide { .. }));
    }

    #[test]
    fn exact_quantization_rejects_nan_instead_of_level_zero() {
        // Regression: a NaN cost used to slip through both checks (every
        // `NaN > x` is false) and quantize to level 0 — i.e. the global
        // minimum — silently corrupting that state's energy.
        let err = CostVec::quantize_exact(&[0.0, f64::NAN, 2.0], 1.0).unwrap_err();
        assert!(
            matches!(err, QuantizeError::NonFinite { index: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn exact_quantization_rejects_infinities() {
        // +inf everywhere made the span NaN (`inf − inf`), which also
        // passed the old `>` range check and landed on level 0.
        let err = CostVec::quantize_exact(&[f64::INFINITY; 4], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::NonFinite { index: 0, .. }));
        let err = CostVec::quantize_exact(&[0.0, f64::NEG_INFINITY], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::NonFinite { index: 1, .. }));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn exact_quantization_rejects_an_infinite_step() {
        // Regression: `step = +inf` passed the `step > 0` check and coded
        // every cost as `0·inf = NaN`.
        let _ = CostVec::quantize_exact(&[0.0, 5.0, 2.0, 1.0], f64::INFINITY);
    }

    #[test]
    fn exact_quantization_snaps_onto_a_non_unit_grid() {
        // -3 + 0.25·k for k = 0..40, cycled over 256 entries; entry 5 is
        // nudged off its grid point by 1e-9 (well inside the 1e-6 rule).
        let mut costs: Vec<f64> = (0..256).map(|i| -3.0 + 0.25 * (i % 41) as f64).collect();
        costs[5] += 1e-9;
        let q = CostVec::quantize_exact(&costs, 0.25).expect("on the 0.25 grid");
        let CostVec::Levels { levels, .. } = &q else {
            panic!("the grid coding is level-coded: {q:?}");
        };
        assert_eq!(levels.len(), 41, "only the grid points that occur");
        for (x, &c) in costs.iter().enumerate() {
            let k = ((c + 3.0) / 0.25).round();
            assert_eq!(q.value(x).to_bits(), (-3.0 + 0.25 * k).to_bits(), "x = {x}");
        }
        assert_ne!(q.value(5), costs[5]);
        assert_eq!(q.memory_bytes(), 2 * 256 + 8 * levels.len());
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn from_f64_indexes_levels_in_first_seen_order() {
        let costs = [2.0, -0.0, 2.0, 0.0, -0.0, 2.0, 7.5, 7.5];
        let cv = CostVec::from_f64(costs.repeat(2));
        let CostVec::Levels { levels, index } = &cv else {
            panic!("4 levels in 16 entries: {cv:?}");
        };
        // -0.0 and 0.0 are different bits, so different levels.
        assert_eq!(bits(levels), bits(&[2.0, -0.0, 0.0, 7.5]));
        assert_eq!(index[..8], [0, 1, 0, 2, 1, 0, 3, 3]);
        assert_eq!(bits(&cv.to_f64_vec()), bits(&costs.repeat(2)));
        assert_eq!(cv.memory_bytes(), 2 * 16 + 8 * 4);
        assert_eq!(cv.extrema(), (-0.0, 7.5));
    }

    #[test]
    fn from_f64_survives_many_rehashes() {
        let costs: Vec<f64> = (0..1 << 15)
            .map(|i| ((i * 31) % 5000) as f64 - 0.5)
            .collect();
        let cv = CostVec::from_f64(costs.clone());
        assert!(matches!(&cv, CostVec::Levels { levels, .. } if levels.len() == 5000));
        assert_eq!(bits(&cv.to_f64_vec()), bits(&costs));
        for x in [0, 1, 4999, 5000, (1 << 15) - 1] {
            assert_eq!(cv.value(x), costs[x]);
        }
    }

    #[test]
    fn memory_overhead_figures() {
        let cv = labs_costvec(8);
        // f64 representation: 8/16 = 50 % of the state vector.
        assert!((cv.overhead_vs_state() - 0.5).abs() < 1e-12);
        // Level-coded: the paper's 2 B/amp (12.5 %) plus 8 B per level,
        // by default and on the §V-B grid alike.
        let lv = CostVec::from_f64(cv.to_f64_vec());
        let CostVec::Levels { levels, .. } = &lv else {
            panic!("LABS n = 8 has few levels");
        };
        assert_eq!(lv.memory_bytes(), 2 * 256 + 8 * levels.len());
        let q = CostVec::quantize_exact(&cv.to_f64_vec(), 1.0).unwrap();
        assert_eq!(q.memory_bytes(), lv.memory_bytes());
    }

    #[test]
    fn phase_and_expectation_agree_across_representations() {
        let n = 9;
        let cv = labs_costvec(n);
        let q = CostVec::quantize_exact(&cv.to_f64_vec(), 1.0).unwrap();
        let mut a = StateVec::uniform_superposition(n);
        let mut b = a.clone();
        cv.apply_phase(a.amplitudes_mut(), 0.37, Backend::Serial);
        q.apply_phase(b.amplitudes_mut(), 0.37, Backend::Rayon);
        assert!(a.max_abs_diff(&b) < 1e-10);
        let ea = cv.expectation(a.amplitudes(), Backend::Serial);
        let eb = q.expectation(b.amplitudes(), Backend::Rayon);
        assert!((ea - eb).abs() < 1e-9);
    }

    #[test]
    fn uniform_state_expectation_is_mean_cost() {
        let n = 8;
        let cv = labs_costvec(n);
        let s = StateVec::uniform_superposition(n);
        let mean = cv.to_f64_vec().iter().sum::<f64>() / cv.len() as f64;
        assert!((cv.expectation(s.amplitudes(), Backend::Serial) - mean).abs() < 1e-9);
    }

    #[test]
    fn ground_states_match_brute_force() {
        let g = Graph::ring(6, 1.0);
        let poly = maxcut_polynomial(&g);
        let cv = CostVec::from_polynomial(&poly, PrecomputeMethod::Direct, Backend::Serial);
        let (fmin, args) = poly.brute_force_minimum();
        let (lo, _) = cv.extrema();
        assert!((lo - fmin).abs() < 1e-12);
        let ground: Vec<u64> = cv
            .ground_state_indices(1e-9)
            .iter()
            .map(|&x| x as u64)
            .collect();
        assert_eq!(ground, args);
    }

    #[test]
    fn overlap_of_ground_basis_state_is_one() {
        let g = Graph::ring(6, 1.0);
        let cv = CostVec::from_polynomial(
            &maxcut_polynomial(&g),
            PrecomputeMethod::Direct,
            Backend::Serial,
        );
        let ground = cv.ground_state_indices(1e-9)[0];
        let s = StateVec::basis_state(6, ground);
        assert!((cv.overlap(s.amplitudes()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_of_uniform_state_counts_ground_states() {
        let n = 6;
        let g = Graph::ring(n, 1.0);
        let cv = CostVec::from_polynomial(
            &maxcut_polynomial(&g),
            PrecomputeMethod::Direct,
            Backend::Serial,
        );
        let s = StateVec::uniform_superposition(n);
        let k = cv.ground_state_indices(1e-9).len() as f64;
        assert!((cv.overlap(s.amplitudes()) - k / 64.0).abs() < 1e-12);
    }

    #[test]
    fn split_phase_and_expectation_match_interleaved() {
        let n = 9;
        for cv in [
            labs_costvec(n),
            CostVec::quantize_exact(&labs_costvec(n).to_f64_vec(), 1.0).unwrap(),
            CostVec::from_f64(labs_costvec(n).to_f64_vec()),
        ] {
            let mut inter = StateVec::uniform_superposition(n);
            let mut split = qokit_statevec::SplitStateVec::from(&inter);
            cv.apply_phase(inter.amplitudes_mut(), 0.41, Backend::Serial);
            {
                let (re, im) = split.planes_mut();
                cv.apply_phase_split(re, im, 0.41, Backend::Serial);
            }
            // Identical per-element arithmetic in both layouts.
            assert_eq!(split.max_abs_diff_interleaved(inter.amplitudes()), 0.0);
            let (re, im) = split.planes();
            let es = cv.expectation_split(re, im, Backend::Serial);
            let ei = cv.expectation(inter.amplitudes(), Backend::Serial);
            assert_eq!(es, ei);
            let os = cv.overlap_split(re, im);
            assert_eq!(os.to_bits(), cv.overlap(inter.amplitudes()).to_bits());
        }
    }

    #[test]
    fn extrema_consistent_between_representations() {
        let cv = labs_costvec(9);
        let q = CostVec::quantize_exact(&cv.to_f64_vec(), 1.0).unwrap();
        let (a, b) = cv.extrema();
        let (c, d) = q.extrema();
        assert!((a - c).abs() < 1e-9 && (b - d).abs() < 1e-9);
    }
}
