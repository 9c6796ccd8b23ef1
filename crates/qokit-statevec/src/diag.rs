//! Diagonal-operator kernels: the phase operator and the objective.
//!
//! These two kernels are the paper's central payoff. Once the cost vector
//! `⃗C` is precomputed, one QAOA phase operator is a single elementwise
//! product `ψ_k ← e^{-iγ c_k} ψ_k` (`apply_phase`), and the QAOA objective
//! `⟨γβ|Ĉ|γβ⟩` is a single inner product `Σ c_k |ψ_k|²` (`expectation`) —
//! no gates, no extra state copies.
//!
//! A diagonal with few distinct values `v_0 … v_{L-1}` can instead be
//! given as a `u16` index per entry into those levels: the 2-byte form of
//! §V-B of the paper, without rounding. The phase operator then needs only
//! `L` `sin_cos` calls per layer ([`phase_table`]) and one table gather per
//! amplitude ([`apply_phase_indexed`]) instead of `2^n` `sin_cos` calls.
//!
//! All variants of one operation in one layout run the same generic body
//! and differ only in how an entry becomes a factor or weight. Table
//! entries use the per-element expression, so the indexed kernels are
//! bit-identical to the `f64` ones by construction.
//!
//! Every dispatcher takes `impl Into<ExecPolicy>`; parallel sweeps split by
//! the policy's chunking thresholds.

use crate::complex::C64;
use crate::exec::ExecPolicy;
use rayon::prelude::*;

/// The per-layer phase table `t_j = e^{-iγ v_j}`: one `sin_cos` per
/// level. Entry `j` is bit-identical to the factor the per-element kernels
/// compute for an amplitude of cost `v_j`.
pub fn phase_table(levels: impl IntoIterator<Item = f64>, gamma: f64) -> Vec<C64> {
    levels.into_iter().map(|v| C64::cis(-gamma * v)).collect()
}

/// `ψ_k ← f(d_k)·ψ_k`: the body of every interleaved phase kernel.
#[inline]
fn apply_factors<T, F>(amps: &mut [C64], diag: &[T], f: F, policy: ExecPolicy)
where
    T: Copy + Sync,
    F: Fn(T) -> C64 + Sync,
{
    assert_eq!(amps.len(), diag.len(), "cost vector length mismatch");
    if policy.parallel(amps.len()) {
        policy.install(|| {
            amps.par_iter_mut()
                .with_min_len(policy.min_chunk)
                .zip(diag.par_iter().with_min_len(policy.min_chunk))
                .for_each(|(a, &d)| *a *= f(d));
        });
    } else {
        for (a, &d) in amps.iter_mut().zip(diag.iter()) {
            *a *= f(d);
        }
    }
}

/// `Σ w(d_k) |ψ_k|²`: the body of every interleaved objective.
#[inline]
fn weighted_norm<T, W>(amps: &[C64], diag: &[T], w: W, policy: ExecPolicy) -> f64
where
    T: Copy + Sync,
    W: Fn(T) -> f64 + Sync,
{
    assert_eq!(amps.len(), diag.len(), "cost vector length mismatch");
    if policy.parallel(amps.len()) {
        policy.install(|| {
            amps.par_iter()
                .with_min_len(policy.min_chunk)
                .zip(diag.par_iter().with_min_len(policy.min_chunk))
                .map(|(a, &d)| w(d) * a.norm_sqr())
                .sum()
        })
    } else {
        amps.iter()
            .zip(diag.iter())
            .map(|(a, &d)| w(d) * a.norm_sqr())
            .sum()
    }
}

/// Serial phase operator: `ψ_k ← e^{-iγ c_k} ψ_k`.
///
/// # Panics
/// If `amps` and `costs` lengths differ.
pub fn apply_phase_serial(amps: &mut [C64], costs: &[f64], gamma: f64) {
    apply_phase(amps, costs, gamma, ExecPolicy::serial());
}

/// Pool-parallel phase operator with default thresholds.
pub fn apply_phase_rayon(amps: &mut [C64], costs: &[f64], gamma: f64) {
    apply_phase(amps, costs, gamma, ExecPolicy::rayon());
}

/// Policy-dispatched phase operator.
#[inline]
pub fn apply_phase(amps: &mut [C64], costs: &[f64], gamma: f64, exec: impl Into<ExecPolicy>) {
    apply_factors(amps, costs, |c| C64::cis(-gamma * c), exec.into());
}

/// Indexed phase operator: `ψ_k ← t[index_k] ψ_k`, with `t` the layer's
/// [`phase_table`]. Bit-identical to [`apply_phase`] on the costs
/// `levels[index_k]`.
///
/// # Panics
/// If `amps` and `index` lengths differ, or an index is outside the table.
pub fn apply_phase_indexed(
    amps: &mut [C64],
    index: &[u16],
    table: &[C64],
    exec: impl Into<ExecPolicy>,
) {
    apply_factors(amps, index, |j| table[j as usize], exec.into());
}

/// Applies an arbitrary complex diagonal: `ψ_k ← d_k ψ_k`.
pub fn apply_diagonal(amps: &mut [C64], diag: &[C64], exec: impl Into<ExecPolicy>) {
    assert_eq!(amps.len(), diag.len(), "diagonal length mismatch");
    apply_factors(amps, diag, |d| d, exec.into());
}

/// Serial objective: `⟨ψ|Ĉ|ψ⟩ = Σ c_k |ψ_k|²`.
pub fn expectation_serial(amps: &[C64], costs: &[f64]) -> f64 {
    expectation(amps, costs, ExecPolicy::serial())
}

/// Pool-parallel objective with default thresholds.
pub fn expectation_rayon(amps: &[C64], costs: &[f64]) -> f64 {
    expectation(amps, costs, ExecPolicy::rayon())
}

/// Policy-dispatched objective.
#[inline]
pub fn expectation(amps: &[C64], costs: &[f64], exec: impl Into<ExecPolicy>) -> f64 {
    weighted_norm(amps, costs, |c| c, exec.into())
}

/// Indexed objective: `Σ levels[index_k] |ψ_k|²`. Bit-identical to
/// [`expectation`] on the costs `levels[index_k]`.
///
/// # Panics
/// If `amps` and `index` lengths differ, or an index is outside `levels`.
pub fn expectation_indexed(
    amps: &[C64],
    index: &[u16],
    levels: &[f64],
    exec: impl Into<ExecPolicy>,
) -> f64 {
    weighted_norm(amps, index, |j| levels[j as usize], exec.into())
}

/// Total probability mass on the given basis indices — used for the
/// ground-state overlap `Σ_{x: c_x = min} |ψ_x|²`.
pub fn probability_mass(amps: &[C64], indices: &[usize]) -> f64 {
    indices.iter().map(|&i| amps[i].norm_sqr()).sum()
}

// ------------------------------------------------------------ split-plane

/// `(r, i) ← (r, i)·t` on split planes, in the operation order of the
/// interleaved `ψ·t`: `re' = r·t.re − i·t.im`, `im' = r·t.im + i·t.re`.
#[inline(always)]
fn rotate_by(r: &mut f64, i: &mut f64, t: C64) {
    let (r0, i0) = (*r, *i);
    *r = r0 * t.re - i0 * t.im;
    *i = r0 * t.im + i0 * t.re;
}

/// Split-plane twin of [`apply_factors`]: the body of every split phase
/// kernel.
#[inline]
fn apply_factors_split<T, F>(re: &mut [f64], im: &mut [f64], diag: &[T], f: F, policy: ExecPolicy)
where
    T: Copy + Sync,
    F: Fn(T) -> C64 + Sync,
{
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_eq!(re.len(), diag.len(), "cost vector length mismatch");
    let rotate = |rc: &mut [f64], ic: &mut [f64], dc: &[T]| {
        for ((r, i), &d) in rc.iter_mut().zip(ic.iter_mut()).zip(dc.iter()) {
            rotate_by(r, i, f(d));
        }
    };
    if policy.parallel(re.len()) {
        let chunk = policy.chunk_len(re.len(), 1);
        policy.install(|| {
            re.par_chunks_mut(chunk)
                .zip(im.par_chunks_mut(chunk))
                .zip(diag.par_chunks(chunk))
                .for_each(|((rc, ic), dc)| rotate(rc, ic, dc));
        });
    } else {
        rotate(re, im, diag);
    }
}

/// Split-plane twin of [`weighted_norm`]: `Σ w(d_k) (re_k² + im_k²)`.
#[inline]
fn weighted_norm_split<T, W>(re: &[f64], im: &[f64], diag: &[T], w: W, policy: ExecPolicy) -> f64
where
    T: Copy + Sync,
    W: Fn(T) -> f64 + Sync,
{
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_eq!(re.len(), diag.len(), "cost vector length mismatch");
    if policy.parallel(re.len()) {
        policy.install(|| {
            re.par_iter()
                .with_min_len(policy.min_chunk)
                .zip(im.par_iter().with_min_len(policy.min_chunk))
                .zip(diag.par_iter().with_min_len(policy.min_chunk))
                .map(|((&r, &i), &d)| w(d) * (r * r + i * i))
                .sum()
        })
    } else {
        re.iter()
            .zip(im.iter())
            .zip(diag.iter())
            .map(|((&r, &i), &d)| w(d) * (r * r + i * i))
            .sum()
    }
}

/// Split-plane twin of [`probability_mass`]: bit-identical to it (same
/// per-element products, same summation order).
pub fn probability_mass_split(re: &[f64], im: &[f64], indices: &[usize]) -> f64 {
    indices.iter().map(|&i| re[i] * re[i] + im[i] * im[i]).sum()
}

/// Split-plane phase operator: `ψ_k ← e^{-iγ c_k} ψ_k` on `re`/`im` planes.
/// Bit-identical to [`apply_phase`] on the interleaved layout (same
/// per-element operations in the same order). The `sin`/`cos` streams are
/// data-dependent, so the win here is plane-local memory traffic, not
/// packing the trigonometry.
///
/// # Panics
/// If plane and cost-vector lengths differ.
pub fn apply_phase_split(
    re: &mut [f64],
    im: &mut [f64],
    costs: &[f64],
    gamma: f64,
    exec: impl Into<ExecPolicy>,
) {
    apply_factors_split(re, im, costs, |c| C64::cis(-gamma * c), exec.into());
}

/// Split-plane twin of [`apply_phase_indexed`]. Bit-identical to it and to
/// [`apply_phase_split`] on the costs `levels[index_k]`.
///
/// # Panics
/// If plane and index lengths differ, or an index is outside the table.
pub fn apply_phase_indexed_split(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u16],
    table: &[C64],
    exec: impl Into<ExecPolicy>,
) {
    apply_factors_split(re, im, index, |j| table[j as usize], exec.into());
}

/// Split-plane objective: `Σ c_k (re_k² + im_k²)`. Serially bit-identical
/// to [`expectation`] (same per-element products and summation order);
/// parallel partial sums associate along the split tree like every other
/// reduction here.
///
/// # Panics
/// If plane and cost-vector lengths differ.
pub fn expectation_split(
    re: &[f64],
    im: &[f64],
    costs: &[f64],
    exec: impl Into<ExecPolicy>,
) -> f64 {
    weighted_norm_split(re, im, costs, |c| c, exec.into())
}

/// Split-plane twin of [`expectation_indexed`]: bit-identical to
/// [`expectation_split`] on the costs `levels[index_k]`.
///
/// # Panics
/// If plane and index lengths differ, or an index is outside `levels`.
pub fn expectation_indexed_split(
    re: &[f64],
    im: &[f64],
    index: &[u16],
    levels: &[f64],
    exec: impl Into<ExecPolicy>,
) -> f64 {
    weighted_norm_split(re, im, index, |j| levels[j as usize], exec.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Backend;
    use crate::reference;
    use crate::state::StateVec;

    fn ramp_costs(len: usize) -> Vec<f64> {
        (0..len).map(|i| (i as f64) * 0.25 - 3.0).collect()
    }

    #[test]
    fn phase_matches_reference() {
        let n = 6;
        let s = StateVec::uniform_superposition(n);
        let costs = ramp_costs(s.dim());
        let expect = reference::apply_phase_reference(s.amplitudes(), &costs, 0.8);
        let mut got = s.clone();
        apply_phase_serial(got.amplitudes_mut(), &costs, 0.8);
        for (a, b) in got.amplitudes().iter().zip(expect.iter()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn phase_rayon_matches_serial() {
        let n = 14;
        let mut a = StateVec::uniform_superposition(n);
        let mut b = a.clone();
        let costs = ramp_costs(a.dim());
        apply_phase_serial(a.amplitudes_mut(), &costs, 1.3);
        apply_phase_rayon(b.amplitudes_mut(), &costs, 1.3);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn phase_forced_parallel_matches_serial_small() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        let n = 7;
        let mut a = StateVec::uniform_superposition(n);
        let mut b = a.clone();
        let costs = ramp_costs(a.dim());
        apply_phase_serial(a.amplitudes_mut(), &costs, 1.3);
        apply_phase(b.amplitudes_mut(), &costs, 1.3, forced);
        // Elementwise kernels are bit-identical regardless of the split.
        assert!(a.max_abs_diff(&b) == 0.0);
    }

    #[test]
    fn phase_preserves_probabilities() {
        let n = 8;
        let mut s = StateVec::uniform_superposition(n);
        let p_before = s.probabilities();
        let costs = ramp_costs(s.dim());
        apply_phase_serial(s.amplitudes_mut(), &costs, 2.1);
        let p_after = s.probabilities();
        for (x, y) in p_before.iter().zip(p_after.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn expectation_matches_reference() {
        let n = 7;
        let s = StateVec::dicke_state(n, 3);
        let costs = ramp_costs(s.dim());
        let expect = reference::expectation_reference(s.amplitudes(), &costs);
        assert!((expectation_serial(s.amplitudes(), &costs) - expect).abs() < 1e-12);
        assert!((expectation_rayon(s.amplitudes(), &costs) - expect).abs() < 1e-12);
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        assert!((expectation(s.amplitudes(), &costs, forced) - expect).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_basis_state_reads_cost() {
        let s = StateVec::basis_state(5, 19);
        let costs = ramp_costs(s.dim());
        assert!((expectation_serial(s.amplitudes(), &costs) - costs[19]).abs() < 1e-12);
    }

    #[test]
    fn probability_mass_sums_selected() {
        let s = StateVec::uniform_superposition(4);
        let m = probability_mass(s.amplitudes(), &[0, 1, 2, 3]);
        assert!((m - 4.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn phase_rejects_length_mismatch() {
        let mut s = StateVec::zero_state(3);
        apply_phase_serial(s.amplitudes_mut(), &[0.0; 4], 1.0);
    }

    #[test]
    fn split_phase_and_expectation_match_interleaved() {
        let n = 9;
        let s = StateVec::dicke_state(n, 4);
        let costs = ramp_costs(s.dim());
        let mut interleaved = s.clone();
        apply_phase_serial(interleaved.amplitudes_mut(), &costs, 0.93);
        let mut split = crate::split::SplitStateVec::from(&s);
        {
            let (re, im) = split.planes_mut();
            apply_phase_split(re, im, &costs, 0.93, Backend::Serial);
        }
        assert_eq!(
            split.max_abs_diff_interleaved(interleaved.amplitudes()),
            0.0,
            "split phase twin uses identical per-element ops"
        );
        let (re, im) = split.planes();
        let e_split = expectation_split(re, im, &costs, Backend::Serial);
        let e_inter = expectation_serial(interleaved.amplitudes(), &costs);
        assert_eq!(e_split, e_inter, "serial reductions share summation order");
    }

    #[test]
    fn split_phase_forced_parallel_matches_serial() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        let n = 8;
        let s = StateVec::uniform_superposition(n);
        let costs = ramp_costs(s.dim());
        let mut a = crate::split::SplitStateVec::from(&s);
        let mut b = a.clone();
        {
            let (re, im) = a.planes_mut();
            apply_phase_split(re, im, &costs, 1.21, Backend::Serial);
        }
        {
            let (re, im) = b.planes_mut();
            apply_phase_split(re, im, &costs, 1.21, forced);
        }
        assert_eq!(a, b, "elementwise split kernel is split-invariant");
        let (re, im) = a.planes();
        let e_s = expectation_split(re, im, &costs, Backend::Serial);
        let e_p = expectation_split(re, im, &costs, forced);
        assert!((e_s - e_p).abs() < 1e-12);
    }

    /// Levels, a `u16` index into them, and the costs
    /// `costs[k] = levels[index[k]]`.
    fn indexed(len: usize) -> (Vec<f64>, Vec<u16>, Vec<f64>) {
        let levels: Vec<f64> = (0..13).map(|k| 0.75 * k as f64 - 4.0).collect();
        let index: Vec<u16> = (0..len).map(|i| ((i * 7 + i / 5) % 13) as u16).collect();
        let costs = index.iter().map(|&j| levels[j as usize]).collect();
        (levels, index, costs)
    }

    #[test]
    fn indexed_kernels_are_bit_identical_to_per_element() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        let n = 9;
        let s = StateVec::dicke_state(n, 4);
        let (levels, index, costs) = indexed(s.dim());
        for policy in [ExecPolicy::serial(), forced] {
            let table = phase_table(levels.iter().copied(), 0.83);
            let mut want = s.clone();
            let mut got = s.clone();
            apply_phase(want.amplitudes_mut(), &costs, 0.83, policy);
            apply_phase_indexed(got.amplitudes_mut(), &index, &table, policy);
            assert_eq!(got.max_abs_diff(&want), 0.0);
            assert_eq!(
                expectation_indexed(got.amplitudes(), &index, &levels, policy).to_bits(),
                expectation(want.amplitudes(), &costs, policy).to_bits()
            );

            let mut want = crate::split::SplitStateVec::from(&s);
            let mut got = want.clone();
            {
                let (re, im) = want.planes_mut();
                apply_phase_split(re, im, &costs, 0.83, policy);
            }
            {
                let (re, im) = got.planes_mut();
                apply_phase_indexed_split(re, im, &index, &table, policy);
            }
            assert_eq!(got, want);
            let (re, im) = got.planes();
            assert_eq!(
                expectation_indexed_split(re, im, &index, &levels, policy).to_bits(),
                expectation_split(re, im, &costs, policy).to_bits()
            );
        }
    }

    #[test]
    #[should_panic]
    fn index_outside_the_table_panics() {
        let mut s = StateVec::zero_state(2);
        let table = phase_table([0.0, 1.0], 0.5);
        apply_phase_indexed(s.amplitudes_mut(), &[0, 1, 2, 0], &table, Backend::Serial);
    }

    #[test]
    fn diagonal_identity_is_noop() {
        let mut s = StateVec::uniform_superposition(5);
        let orig = s.clone();
        let diag = vec![C64::ONE; s.dim()];
        apply_diagonal(s.amplitudes_mut(), &diag, Backend::Serial);
        assert!(s.max_abs_diff(&orig) < 1e-15);
    }
}
