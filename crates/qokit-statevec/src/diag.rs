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
//! The split-plane indexed phase checks its largest index against the
//! table once per chunk, so its gather loop has no bounds check per
//! amplitude and vectorizes. That loop is compiled twice, for the baseline
//! target and, on `x86_64`, with AVX2 enabled (no FMA, no intrinsics): the
//! same two compilations as the mixers' block walk, picked by the same
//! one-time CPU detection and named by
//! [`kernel_isa`](crate::exec::kernel_isa). Both give the same bits.
//!
//! An evolution from `|+⟩` starts with one write-only pass
//! ([`write_phased_uniform_split`], [`write_phased_uniform_indexed_split`])
//! that computes each amplitude of `e^{-iγ₁Ĉ}|+⟩` exactly as filling the
//! planes with `|+⟩` and phasing them would, so the fill, the copy and the
//! read of the start state drop out with no bit changed.
//!
//! Every dispatcher takes an [`ExecPolicy`]; parallel sweeps split by the
//! policy's chunking thresholds.

use crate::complex::C64;
use crate::exec::{ExecPolicy, Isa};
use crate::state::uniform_amplitude;
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

/// Phase operator: `ψ_k ← e^{-iγ c_k} ψ_k`.
///
/// # Panics
/// If `amps` and `costs` lengths differ.
#[inline]
pub fn apply_phase(amps: &mut [C64], costs: &[f64], gamma: f64, exec: ExecPolicy) {
    apply_factors(amps, costs, |c| C64::cis(-gamma * c), exec);
}

/// Indexed phase operator: `ψ_k ← t[index_k] ψ_k`, with `t` the layer's
/// [`phase_table`]. Bit-identical to [`apply_phase`] on the costs
/// `levels[index_k]`.
///
/// # Panics
/// If `amps` and `index` lengths differ, or an index is outside the table.
pub fn apply_phase_indexed(amps: &mut [C64], index: &[u16], table: &[C64], exec: ExecPolicy) {
    apply_factors(amps, index, |j| table[j as usize], exec);
}

/// Objective: `⟨ψ|Ĉ|ψ⟩ = Σ c_k |ψ_k|²`.
#[inline]
pub fn expectation(amps: &[C64], costs: &[f64], exec: ExecPolicy) -> f64 {
    weighted_norm(amps, costs, |c| c, exec)
}

/// Indexed objective: `Σ levels[index_k] |ψ_k|²`. Bit-identical to
/// [`expectation`] on the costs `levels[index_k]`.
///
/// # Panics
/// If `amps` and `index` lengths differ, or an index is outside `levels`.
pub fn expectation_indexed(amps: &[C64], index: &[u16], levels: &[f64], exec: ExecPolicy) -> f64 {
    weighted_norm(amps, index, |j| levels[j as usize], exec)
}

/// Total probability mass on the given basis indices — used for the
/// ground-state overlap `Σ_{x: c_x = min} |ψ_x|²`.
pub fn probability_mass(amps: &[C64], indices: &[usize]) -> f64 {
    indices.iter().map(|&i| amps[i].norm_sqr()).sum()
}

// ------------------------------------------------------------ split-plane

/// `(r0, i0)·t` on split planes, in the operation order of the
/// interleaved `ψ·t`: `re' = r0·t.re − i0·t.im`, `im' = r0·t.im + i0·t.re`.
#[inline(always)]
fn rotate(r0: f64, i0: f64, t: C64) -> (f64, f64) {
    (r0 * t.re - i0 * t.im, r0 * t.im + i0 * t.re)
}

/// The chunk driver of every split phase kernel: `body` on the whole of
/// the planes and the diagonal, or, on the parallel path, on matching
/// chunks of them, one per pool task.
#[inline]
fn split_chunks<T, B>(re: &mut [f64], im: &mut [f64], diag: &[T], policy: ExecPolicy, body: B)
where
    T: Sync,
    B: Fn(&mut [f64], &mut [f64], &[T]) + Sync,
{
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_eq!(re.len(), diag.len(), "cost vector length mismatch");
    if policy.parallel(re.len()) {
        let chunk = policy.chunk_len(re.len(), 1);
        policy.install(|| {
            re.par_chunks_mut(chunk)
                .zip(im.par_chunks_mut(chunk))
                .zip(diag.par_chunks(chunk))
                .for_each(|((rc, ic), dc)| body(rc, ic, dc));
        });
    } else {
        body(re, im, diag);
    }
}

/// `(r, i) ← (r, i)·e^{-iγ c}` over one chunk; with `UNIFORM`, the
/// amplitudes are `(amp, 0)` instead and the planes are only written.
#[inline(always)]
fn phase_chunk<const UNIFORM: bool>(
    re: &mut [f64],
    im: &mut [f64],
    costs: &[f64],
    gamma: f64,
    amp: f64,
) {
    for ((r, i), &c) in re.iter_mut().zip(im.iter_mut()).zip(costs) {
        let (r0, i0) = if UNIFORM { (amp, 0.0) } else { (*r, *i) };
        (*r, *i) = rotate(r0, i0, C64::cis(-gamma * c));
    }
}

/// `(r, i) ← (r, i)·table[j]` over one chunk; with `UNIFORM`, the
/// amplitudes are `(amp, 0)` instead and the planes are only written. The
/// loop of the indexed phase, compiled once per [`Isa`].
///
/// # Safety
/// Every entry of `index` is below `table.len()`.
#[inline(always)]
unsafe fn gather_chunk<const UNIFORM: bool>(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u16],
    table: &[C64],
    amp: f64,
) {
    for ((r, i), &j) in re.iter_mut().zip(im.iter_mut()).zip(index) {
        // SAFETY: the caller guarantees `j < table.len()`.
        let t = unsafe { *table.get_unchecked(usize::from(j)) };
        let (r0, i0) = if UNIFORM { (amp, 0.0) } else { (*r, *i) };
        (*r, *i) = rotate(r0, i0, t);
    }
}

/// [`gather_chunk`] compiled with AVX2.
///
/// # Safety
/// Every entry of `index` is below `table.len()`, and the CPU has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_chunk_avx2<const UNIFORM: bool>(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u16],
    table: &[C64],
    amp: f64,
) {
    // SAFETY: the caller's guarantee is `gather_chunk`'s.
    unsafe { gather_chunk::<UNIFORM>(re, im, index, table, amp) }
}

/// The indexed phase on one chunk, on the `isa` compilation of its loop.
/// The largest index is checked against the table first, in one fold
/// that vectorizes, so the loop gathers without a bounds check per
/// amplitude; an index outside the table panics before any amplitude
/// changes.
fn indexed_chunk<const UNIFORM: bool>(
    isa: Isa,
    re: &mut [f64],
    im: &mut [f64],
    index: &[u16],
    table: &[C64],
    amp: f64,
) {
    let top = index.iter().copied().max().map_or(0, usize::from);
    assert!(
        index.is_empty() || top < table.len(),
        "phase index {top} outside a table of {} levels",
        table.len()
    );
    match isa {
        // SAFETY: every index is at most `top`, which is in the table.
        Isa::Portable => unsafe { gather_chunk::<UNIFORM>(re, im, index, table, amp) },
        // SAFETY: as above, and `Isa::Avx2` is only built by `Isa::detect`
        // after the CPU reported AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { gather_chunk_avx2::<UNIFORM>(re, im, index, table, amp) },
    }
}

/// The indexed phase on the `isa` compilation: rotates the planes in
/// place, or, with `UNIFORM`, writes the phased `|+⟩` into them.
fn phase_indexed_split_on<const UNIFORM: bool>(
    isa: Isa,
    re: &mut [f64],
    im: &mut [f64],
    index: &[u16],
    table: &[C64],
    exec: ExecPolicy,
) {
    let amp = uniform_amplitude(re.len());
    split_chunks(re, im, index, exec, |rc, ic, dc| {
        indexed_chunk::<UNIFORM>(isa, rc, ic, dc, table, amp)
    });
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
    exec: ExecPolicy,
) {
    split_chunks(re, im, costs, exec, |rc, ic, cc| {
        phase_chunk::<false>(rc, ic, cc, gamma, 0.0)
    });
}

/// The first phase of an evolution from `|+⟩`, `e^{-iγĈ}|+⟩`, written
/// straight into the `re`/`im` planes in one write-only pass. Each
/// amplitude is computed as `(1/√N, 0)·e^{-iγ c_k}` with both products by
/// the zero kept, so the planes get the bits of filling them with `|+⟩`
/// and calling [`apply_phase_split`], `−0.0` and NaN included.
///
/// # Panics
/// If plane and cost-vector lengths differ.
pub fn write_phased_uniform_split(
    re: &mut [f64],
    im: &mut [f64],
    costs: &[f64],
    gamma: f64,
    exec: ExecPolicy,
) {
    let amp = uniform_amplitude(re.len());
    split_chunks(re, im, costs, exec, |rc, ic, cc| {
        phase_chunk::<true>(rc, ic, cc, gamma, amp)
    });
}

/// Split-plane twin of [`apply_phase_indexed`]. Bit-identical to it and to
/// [`apply_phase_split`] on the costs `levels[index_k]`. Its loop runs the
/// compilation this CPU runs widest ([`kernel_isa`](crate::exec::kernel_isa)),
/// with the same bits on either.
///
/// # Panics
/// If plane and index lengths differ, or an index is outside the table.
pub fn apply_phase_indexed_split(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u16],
    table: &[C64],
    exec: ExecPolicy,
) {
    phase_indexed_split_on::<false>(Isa::detect(), re, im, index, table, exec);
}

/// Indexed twin of [`write_phased_uniform_split`]: `e^{-iγĈ}|+⟩` written
/// into the planes from the layer's [`phase_table`], with the bits of
/// filling them with `|+⟩` and calling [`apply_phase_indexed_split`].
///
/// # Panics
/// If plane and index lengths differ, or an index is outside the table.
pub fn write_phased_uniform_indexed_split(
    re: &mut [f64],
    im: &mut [f64],
    index: &[u16],
    table: &[C64],
    exec: ExecPolicy,
) {
    phase_indexed_split_on::<true>(Isa::detect(), re, im, index, table, exec);
}

/// Split-plane objective: `Σ c_k (re_k² + im_k²)`. Serially bit-identical
/// to [`expectation`] (same per-element products and summation order);
/// parallel partial sums associate along the split tree like every other
/// reduction here.
///
/// # Panics
/// If plane and cost-vector lengths differ.
pub fn expectation_split(re: &[f64], im: &[f64], costs: &[f64], exec: ExecPolicy) -> f64 {
    weighted_norm_split(re, im, costs, |c| c, exec)
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
    exec: ExecPolicy,
) -> f64 {
    weighted_norm_split(re, im, index, |j| levels[j as usize], exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::state::StateVec;
    use proptest::prelude::*;

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
        apply_phase(got.amplitudes_mut(), &costs, 0.8, ExecPolicy::serial());
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
        apply_phase(a.amplitudes_mut(), &costs, 1.3, ExecPolicy::serial());
        apply_phase(b.amplitudes_mut(), &costs, 1.3, ExecPolicy::rayon());
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn phase_forced_parallel_matches_serial_small() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        let n = 7;
        let mut a = StateVec::uniform_superposition(n);
        let mut b = a.clone();
        let costs = ramp_costs(a.dim());
        apply_phase(a.amplitudes_mut(), &costs, 1.3, ExecPolicy::serial());
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
        apply_phase(s.amplitudes_mut(), &costs, 2.1, ExecPolicy::serial());
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
        assert!((expectation(s.amplitudes(), &costs, ExecPolicy::serial()) - expect).abs() < 1e-12);
        assert!((expectation(s.amplitudes(), &costs, ExecPolicy::rayon()) - expect).abs() < 1e-12);
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        assert!((expectation(s.amplitudes(), &costs, forced) - expect).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_basis_state_reads_cost() {
        let s = StateVec::basis_state(5, 19);
        let costs = ramp_costs(s.dim());
        assert!(
            (expectation(s.amplitudes(), &costs, ExecPolicy::serial()) - costs[19]).abs() < 1e-12
        );
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
        apply_phase(s.amplitudes_mut(), &[0.0; 4], 1.0, ExecPolicy::serial());
    }

    #[test]
    fn split_phase_and_expectation_match_interleaved() {
        let n = 9;
        let s = StateVec::dicke_state(n, 4);
        let costs = ramp_costs(s.dim());
        let mut interleaved = s.clone();
        apply_phase(
            interleaved.amplitudes_mut(),
            &costs,
            0.93,
            ExecPolicy::serial(),
        );
        let mut split = crate::split::SplitStateVec::from(&s);
        {
            let (re, im) = split.planes_mut();
            apply_phase_split(re, im, &costs, 0.93, ExecPolicy::serial());
        }
        assert_eq!(
            split.max_abs_diff_interleaved(interleaved.amplitudes()),
            0.0,
            "split phase twin uses identical per-element ops"
        );
        let (re, im) = split.planes();
        let e_split = expectation_split(re, im, &costs, ExecPolicy::serial());
        let e_inter = expectation(interleaved.amplitudes(), &costs, ExecPolicy::serial());
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
            apply_phase_split(re, im, &costs, 1.21, ExecPolicy::serial());
        }
        {
            let (re, im) = b.planes_mut();
            apply_phase_split(re, im, &costs, 1.21, forced);
        }
        assert_eq!(a, b, "elementwise split kernel is split-invariant");
        let (re, im) = a.planes();
        let e_s = expectation_split(re, im, &costs, ExecPolicy::serial());
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

    /// A random level table, an index into it and random planes, of
    /// lengths that are mostly not multiples of 4.
    fn indexed_case() -> impl Strategy<Value = (Vec<f64>, Vec<u16>, Vec<(f64, f64)>)> {
        (1usize..40, 1usize..300).prop_flat_map(|(levels, len)| {
            (
                prop::collection::vec(-4.0f64..4.0, levels),
                prop::collection::vec(0..levels as u16, len),
                prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), len),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The indexed phase and the fused `|+⟩` write on the portable and
        /// on the detected compilation of their loop (AVX2 on an AVX2
        /// CPU): the same bits, for tables holding `±0.0`, a NaN payload
        /// and subnormals, at `γ = 0` too.
        #[test]
        fn the_detected_indexed_phase_has_the_portable_bits(
            (mut levels, index, amps) in indexed_case(),
            g in 0usize..3,
        ) {
            let detected = Isa::detect();
            // Written once past the test harness's output capture, so
            // every test log names the compilation that was compared.
            static NAMED: std::sync::Once = std::sync::Once::new();
            NAMED.call_once(|| {
                use std::io::Write;
                let _ = writeln!(
                    std::io::stderr(),
                    "diag: comparing the {} indexed phase with the portable one",
                    crate::exec::kernel_isa()
                );
            });
            let specials = [-0.0, 0.0, f64::from_bits(0x7ff8_0000_dead_beef), 4e-320, -1e-310];
            for (k, v) in specials.into_iter().enumerate() {
                if let Some(level) = levels.get_mut(2 * k) {
                    *level = v;
                }
            }
            let gamma = [0.0, 0.83, -2.9][g];
            let table = phase_table(levels.iter().copied(), gamma);
            let (mut re, mut im): (Vec<f64>, Vec<f64>) = amps.into_iter().unzip();
            let len = re.len();
            for k in (0..len).step_by(7) {
                re[k] = -0.0;
                im[(k + 3) % len] = 0.0;
            }
            let forced = ExecPolicy::rayon().with_threads(2).with_min_len(1).with_min_chunk(5);
            for policy in [ExecPolicy::serial(), forced] {
                // The amplitudes' bits, `re` then `im`.
                let run = |isa, uniform: bool| {
                    let (mut r, mut i) = (re.clone(), im.clone());
                    if uniform {
                        phase_indexed_split_on::<true>(isa, &mut r, &mut i, &index, &table, policy);
                    } else {
                        phase_indexed_split_on::<false>(isa, &mut r, &mut i, &index, &table, policy);
                    }
                    r.iter().chain(&i).map(|x| x.to_bits()).collect::<Vec<_>>()
                };
                for uniform in [false, true] {
                    let (got, want) = (run(detected, uniform), run(Isa::Portable, uniform));
                    let first = got.iter().zip(&want).position(|(a, b)| a != b);
                    prop_assert_eq!(
                        first,
                        None,
                        "{:?}, uniform start {}, gamma {}, {} amplitudes", policy, uniform, gamma, len
                    );
                }
            }
        }
    }

    #[test]
    fn the_fused_uniform_start_has_the_bits_of_fill_then_phase() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 3, 7] {
            let len = 1usize << n;
            // Amplitude 0 sits on a 0.0 level.
            let (mut levels, index, _) = indexed(len);
            levels[usize::from(index[0])] = 0.0;
            let costs: Vec<f64> = index.iter().map(|&j| levels[usize::from(j)]).collect();
            for gamma in [0.0, 0.61, -1.7] {
                let table = phase_table(levels.iter().copied(), gamma);
                for policy in [ExecPolicy::serial(), forced] {
                    let plus = crate::split::SplitStateVec::uniform_superposition(n);
                    let (mut re_p, mut im_p) = (plus.planes().0.to_vec(), plus.planes().1.to_vec());
                    apply_phase_split(&mut re_p, &mut im_p, &costs, gamma, policy);
                    let (mut re, mut im) = (vec![7.0; len], vec![f64::NAN; len]);
                    write_phased_uniform_split(&mut re, &mut im, &costs, gamma, policy);
                    assert_eq!((bits(&re), bits(&im)), (bits(&re_p), bits(&im_p)));

                    let (mut re_p, mut im_p) = (plus.planes().0.to_vec(), plus.planes().1.to_vec());
                    apply_phase_indexed_split(&mut re_p, &mut im_p, &index, &table, policy);
                    let (mut re, mut im) = (vec![7.0; len], vec![f64::NAN; len]);
                    write_phased_uniform_indexed_split(&mut re, &mut im, &index, &table, policy);
                    assert_eq!((bits(&re), bits(&im)), (bits(&re_p), bits(&im_p)));
                }
            }
        }
    }

    /// The indexed split phase and the fused write check their indices
    /// once per chunk instead of per amplitude: an index outside the table
    /// still panics, serially and on a forced-parallel policy, and never
    /// reads past the table.
    #[test]
    fn split_index_outside_the_table_panics() {
        let forced = ExecPolicy::rayon()
            .with_threads(2)
            .with_min_len(1)
            .with_min_chunk(2);
        let table = phase_table([0.0, 1.0], 0.5);
        let index = [0, 1, 1, 0, 0, 2, 1, 0];
        for policy in [ExecPolicy::serial(), forced] {
            for uniform in [false, true] {
                let outcome = std::panic::catch_unwind(|| {
                    let (mut re, mut im) = (vec![0.5; 8], vec![0.0; 8]);
                    if uniform {
                        write_phased_uniform_indexed_split(
                            &mut re, &mut im, &index, &table, policy,
                        );
                    } else {
                        apply_phase_indexed_split(&mut re, &mut im, &index, &table, policy);
                    }
                });
                assert!(outcome.is_err(), "{policy:?}, uniform start {uniform}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "phase index 2 outside a table of 2 levels")]
    fn split_index_outside_the_table_names_the_index() {
        let table = phase_table([0.0, 1.0], 0.5);
        let (mut re, mut im) = (vec![0.5; 4], vec![0.0; 4]);
        apply_phase_indexed_split(
            &mut re,
            &mut im,
            &[0, 1, 2, 0],
            &table,
            ExecPolicy::serial(),
        );
    }

    #[test]
    #[should_panic]
    fn index_outside_the_table_panics() {
        let mut s = StateVec::zero_state(2);
        let table = phase_table([0.0, 1.0], 0.5);
        apply_phase_indexed(
            s.amplitudes_mut(),
            &[0, 1, 2, 0],
            &table,
            ExecPolicy::serial(),
        );
    }
}
