//! Fast Walsh–Hadamard transform (FWHT).
//!
//! Two roles in this reproduction:
//!
//! 1. **Cost-vector precomputation.** The spin polynomial of Eq. 1 is a
//!    sparse Walsh spectrum: `f(x) = Σ_k w_k (−1)^{popcount(x & m_k)}` is
//!    the (unnormalized) WHT of the coefficient vector `ŵ[m_k] = w_k`. One
//!    `O(n·2^n)` FWHT therefore evaluates every `f(x)` at once — this is our
//!    CPU substitute for the paper's massively parallel GPU precompute
//!    kernel (see `qokit-costvec`).
//!
//! 2. **The Ref.\[43\] ablation.** The paper's conclusion contrasts its
//!    one-pass in-place mixer (Algorithms 1–2) with the earlier
//!    FWHT-sandwich approach, which needs a forward transform, a diagonal,
//!    an inverse transform, and an extra state copy. We implement that
//!    approach too (`apply_x_mixer_fwht*`) so the comparison can be
//!    benchmarked (`abl_fwht`).
//!
//! Every entry point takes an [`ExecPolicy`], which selects the executor
//! and split sizes.

use crate::complex::C64;
use crate::exec::ExecPolicy;
use rayon::prelude::*;

/// One serial butterfly pass at the given stride:
/// `(x0, x1) ← (x0 + x1, x0 − x1)` over every pair.
#[inline]
fn butterfly_pass_serial(amps: &mut [C64], stride: usize) {
    for block in amps.chunks_exact_mut(stride * 2) {
        let (lo, hi) = block.split_at_mut(stride);
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
            let x0 = *l;
            let x1 = *h;
            *l = x0 + x1;
            *h = x0 - x1;
        }
    }
}

/// In-place unnormalized FWHT of a complex vector: applies the butterfly
/// `(x0, x1) ← (x0 + x1, x0 − x1)` over every bit. Self-inverse up to a
/// factor `N = 2^n`.
pub fn fwht_serial(amps: &mut [C64]) {
    let len = amps.len();
    debug_assert!(len.is_power_of_two());
    let mut stride = 1usize;
    while stride < len {
        butterfly_pass_serial(amps, stride);
        stride <<= 1;
    }
}

/// Parallel unnormalized FWHT splitting by `policy`.
fn fwht_parallel(amps: &mut [C64], policy: &ExecPolicy) {
    let len = amps.len();
    debug_assert!(len.is_power_of_two());
    let mut stride = 1usize;
    while stride < len {
        let block = stride * 2;
        if block >= len {
            let (lo, hi) = amps.split_at_mut(stride);
            lo.par_iter_mut()
                .zip(hi.par_iter_mut())
                .with_min_len(policy.min_chunk)
                .for_each(|(l, h)| {
                    let x0 = *l;
                    let x1 = *h;
                    *l = x0 + x1;
                    *h = x0 - x1;
                });
        } else {
            let chunk = policy.chunk_len(len, block);
            amps.par_chunks_mut(chunk).for_each(|c| {
                for b in c.chunks_exact_mut(block) {
                    butterfly_pass_serial(b, stride);
                }
            });
        }
        stride <<= 1;
    }
}

/// Policy-dispatched unnormalized FWHT.
#[inline]
pub fn fwht(amps: &mut [C64], policy: ExecPolicy) {
    if policy.parallel(amps.len()) {
        policy.install(|| fwht_parallel(amps, &policy));
    } else {
        fwht_serial(amps);
    }
}

/// Butterfly over two equal-length `f64` lane runs:
/// `(lo_k, hi_k) ← (lo_k + hi_k, lo_k − hi_k)`.
///
/// The body is two independent streams of adds/subs — exactly the shape
/// the autovectorizer packs.
#[inline]
pub(crate) fn butterfly_lanes(lo: &mut [f64], hi: &mut [f64]) {
    debug_assert_eq!(lo.len(), hi.len());
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let x0 = *l;
        let x1 = *h;
        *l = x0 + x1;
        *h = x0 - x1;
    }
}

/// One serial butterfly pass of the real-vector transform.
#[inline]
fn butterfly_pass_serial_f64(vals: &mut [f64], stride: usize) {
    for block in vals.chunks_exact_mut(stride * 2) {
        let (lo, hi) = block.split_at_mut(stride);
        butterfly_lanes(lo, hi);
    }
}

/// Cache-block row length for the blocked FWHT: `2^14` doubles = 128 KiB,
/// comfortably inside a typical per-core L2.
const FWHT_BLOCK_F64: usize = 1 << 14;

/// Minimum column-tile width for the high passes of the blocked FWHT: a
/// full 64-byte cache line of doubles, so tiles never split lines.
const FWHT_MIN_TILE: usize = 8;

/// All butterfly passes with `stride < vals.len()` run serially, in
/// ascending stride order (the plain, unblocked schedule).
fn fwht_f64_passes(vals: &mut [f64]) {
    let len = vals.len();
    let mut stride = 1usize;
    while stride < len {
        butterfly_pass_serial_f64(vals, stride);
        stride <<= 1;
    }
}

/// Serial cache-blocked FWHT of a real vector.
///
/// Factorizes `H_{2^n} = (H_R ⊗ I_C)(I_R ⊗ H_C)` for `len = R·C` with
/// `C = FWHT_BLOCK_F64`:
///
/// 1. **Low passes** (`stride < C`): each contiguous `C`-double row is a
///    self-contained transform that fits in L2, so every pass over it hits
///    cache instead of streaming the whole vector per pass.
/// 2. **High passes** (`stride ≥ C`): butterflies pair whole rows. We tile
///    by column so all `log2(R)` passes finish on one resident
///    `R × tile`-double working set before moving to the next tile.
///
/// Every element goes through the same butterfly DAG in the same per-node
/// operand order as the unblocked schedule — only the traversal order of
/// independent nodes changes — so the result is **bit-identical** to
/// [`fwht_f64_passes`].
fn fwht_f64_blocked_serial(vals: &mut [f64]) {
    let len = vals.len();
    let cols = FWHT_BLOCK_F64;
    if len <= cols {
        return fwht_f64_passes(vals);
    }
    let rows = len / cols;
    // Step 1: low passes, one cache-resident row at a time.
    for row in vals.chunks_exact_mut(cols) {
        fwht_f64_passes(row);
    }
    // Step 2: high passes, column-tiled. Tile width keeps the working set
    // (rows × tile doubles) near one block while staying line-aligned.
    let tile = (cols / rows).clamp(FWHT_MIN_TILE, cols);
    let mut t = 0;
    while t < cols {
        let mut sr = 1usize; // row stride of this pass
        while sr < rows {
            let mut base = 0;
            while base < rows {
                for j in base..base + sr {
                    let i0 = j * cols + t;
                    let i1 = (j + sr) * cols + t;
                    let (lo, hi) = vals.split_at_mut(i1);
                    butterfly_lanes(&mut lo[i0..i0 + tile], &mut hi[..tile]);
                }
                base += sr * 2;
            }
            sr <<= 1;
        }
        t += tile;
    }
}

/// Parallel real-vector FWHT splitting by `policy`.
fn fwht_f64_parallel(vals: &mut [f64], policy: &ExecPolicy) {
    let len = vals.len();
    let mut stride = 1usize;
    while stride < len {
        let block = stride * 2;
        if block >= len {
            let (lo, hi) = vals.split_at_mut(stride);
            lo.par_iter_mut()
                .zip(hi.par_iter_mut())
                .with_min_len(policy.min_chunk)
                .for_each(|(l, h)| {
                    let x0 = *l;
                    let x1 = *h;
                    *l = x0 + x1;
                    *h = x0 - x1;
                });
        } else {
            let chunk = policy.chunk_len(len, block);
            vals.par_chunks_mut(chunk).for_each(|c| {
                for b in c.chunks_exact_mut(block) {
                    butterfly_pass_serial_f64(b, stride);
                }
            });
        }
        stride <<= 1;
    }
}

/// In-place unnormalized FWHT of a **real** vector — the form used by the
/// cost-vector precompute, where both the sparse spectrum and the result
/// are real.
pub fn fwht_f64(vals: &mut [f64], policy: ExecPolicy) {
    let len = vals.len();
    debug_assert!(len.is_power_of_two());
    if policy.parallel(len) {
        policy.install(|| fwht_f64_parallel(vals, &policy));
    } else {
        fwht_f64_blocked_serial(vals);
    }
}

/// Split-complex FWHT: transforms the `re` and `im` planes of a
/// [`crate::split::SplitStateVec`] independently.
///
/// The complex butterfly `(x0, x1) ← (x0 + x1, x0 − x1)` never mixes real
/// and imaginary parts, so the split-layout transform is literally two
/// independent **real** transforms — each a pure `f64` stream the
/// autovectorizer packs, each cache-blocked serially. Under a parallel
/// policy the two planes run as a `join` pair of pass-parallel transforms.
///
/// # Panics
/// If the planes have different lengths.
pub fn fwht_split(re: &mut [f64], im: &mut [f64], policy: ExecPolicy) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    debug_assert!(re.len().is_power_of_two());
    if policy.parallel(re.len()) {
        policy.install(|| {
            rayon::join(
                || fwht_f64_parallel(re, &policy),
                || fwht_f64_parallel(im, &policy),
            );
        });
    } else {
        fwht_f64_blocked_serial(re);
        fwht_f64_blocked_serial(im);
    }
}

/// The transverse-field mixer via the Ref.\[43\] FWHT sandwich, **in place**:
/// `e^{-iβΣX} = H^{⊗n} · diag(e^{-iβ(n-2·popcount)}) · H^{⊗n}`.
///
/// Costs two full FWHT passes plus a diagonal pass — versus one butterfly
/// pass for Algorithm 2. The `1/N` normalization of the double transform is
/// folded into the diagonal.
pub fn apply_x_mixer_fwht_inplace(amps: &mut [C64], beta: f64, policy: ExecPolicy) {
    // One install for the whole sandwich; the inner fwht calls run inline
    // on the already-entered pool.
    policy.install(|| {
        let len = amps.len();
        let n = len.trailing_zeros() as i32;
        fwht(amps, policy);
        let inv_n = 1.0 / len as f64;
        let diag_at = |x: usize| {
            let z = n - 2 * (x.count_ones() as i32);
            C64::cis(-beta * z as f64).scale(inv_n)
        };
        if policy.parallel(len) {
            amps.par_iter_mut()
                .with_min_len(policy.min_chunk)
                .enumerate()
                .for_each(|(x, a)| *a *= diag_at(x));
        } else {
            for (x, a) in amps.iter_mut().enumerate() {
                *a *= diag_at(x);
            }
        }
        fwht(amps, policy);
    });
}

/// The Ref.\[43\] mixer as literally described: allocates a scratch copy of
/// the state (their FWHT is out-of-place). Functionally identical to
/// [`apply_x_mixer_fwht_inplace`]; exists so the `abl_fwht` benchmark can
/// charge the extra `2^n` allocation the paper calls out.
pub fn apply_x_mixer_fwht_copying(amps: &mut [C64], beta: f64, exec: ExecPolicy) {
    let mut scratch = amps.to_vec();
    apply_x_mixer_fwht_inplace(&mut scratch, beta, exec);
    amps.copy_from_slice(&scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::Mat2;
    use crate::state::StateVec;
    use crate::su2::apply_uniform_mat2;

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
    fn fwht_is_self_inverse_up_to_n() {
        let mut s = random_state(8, 1);
        let orig = s.clone();
        fwht_serial(s.amplitudes_mut());
        fwht_serial(s.amplitudes_mut());
        let scale = 1.0 / s.dim() as f64;
        for (a, b) in s.amplitudes().iter().zip(orig.amplitudes().iter()) {
            assert!(a.scale(scale).approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn fwht_matches_hadamard_on_all_qubits() {
        let n = 7;
        let mut via_fwht = random_state(n, 2);
        let mut via_gates = via_fwht.clone();
        fwht_serial(via_fwht.amplitudes_mut());
        // Unnormalized FWHT = (√2 H)^{⊗n} = 2^{n/2}·H^{⊗n}.
        apply_uniform_mat2(
            via_gates.amplitudes_mut(),
            &Mat2::hadamard(),
            ExecPolicy::serial(),
        );
        let scale = 1.0 / (via_fwht.dim() as f64).sqrt();
        for (a, b) in via_fwht
            .amplitudes()
            .iter()
            .zip(via_gates.amplitudes().iter())
        {
            assert!(a.scale(scale).approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn fwht_rayon_matches_serial() {
        let mut a = random_state(14, 3);
        let mut b = a.clone();
        fwht_serial(a.amplitudes_mut());
        fwht(b.amplitudes_mut(), ExecPolicy::rayon());
        assert!(a.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn fwht_forced_parallel_matches_serial_small() {
        // min_len = 1 engages the parallel path even on tiny vectors; the
        // odd min_chunk values check block alignment survives hand tuning.
        for min_chunk in [2usize, 3, 7] {
            let forced = ExecPolicy::rayon()
                .with_min_len(1)
                .with_min_chunk(min_chunk);
            for n in [2usize, 5, 9] {
                let mut a = random_state(n, 11 + n as u64);
                let mut b = a.clone();
                fwht_serial(a.amplitudes_mut());
                fwht(b.amplitudes_mut(), forced);
                assert!(
                    a.max_abs_diff(&b) < 1e-9,
                    "n = {n}, min_chunk = {min_chunk}"
                );
            }
        }
    }

    #[test]
    fn fwht_f64_matches_complex() {
        let n = 10;
        let vals: Vec<f64> = (0..1usize << n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut re = vals.clone();
        fwht_f64(&mut re, ExecPolicy::serial());
        let mut cx: Vec<C64> = vals.iter().map(|&v| C64::from_re(v)).collect();
        fwht_serial(&mut cx);
        for (r, c) in re.iter().zip(cx.iter()) {
            assert!((r - c.re).abs() < 1e-9);
            assert!(c.im.abs() < 1e-12);
        }
        let mut rp = vals.clone();
        fwht_f64(
            &mut rp,
            ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
        );
        for (a, b) in rp.iter().zip(re.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fwht_of_delta_is_walsh_character() {
        // δ_m transforms to x ↦ (−1)^{popcount(x & m)}.
        let n = 5;
        let m = 0b10110usize;
        let mut v = vec![C64::ZERO; 1 << n];
        v[m] = C64::ONE;
        fwht_serial(&mut v);
        for (x, a) in v.iter().enumerate() {
            let sign = if (x & m).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            assert!(a.approx_eq(C64::from_re(sign), 1e-12), "x = {x}");
        }
    }

    #[test]
    fn fwht_mixer_matches_algorithm_2() {
        for n in [3usize, 8] {
            let beta = 0.83;
            let mut sandwich = random_state(n, 4);
            let mut butterfly = sandwich.clone();
            apply_x_mixer_fwht_inplace(sandwich.amplitudes_mut(), beta, ExecPolicy::serial());
            apply_uniform_mat2(
                butterfly.amplitudes_mut(),
                &Mat2::rx(beta),
                ExecPolicy::serial(),
            );
            assert!(
                sandwich.max_abs_diff(&butterfly) < 1e-10,
                "n = {n}: FWHT sandwich must equal the one-pass mixer"
            );
        }
    }

    #[test]
    fn fwht_mixer_copying_matches_inplace() {
        let mut a = random_state(9, 5);
        let mut b = a.clone();
        apply_x_mixer_fwht_inplace(a.amplitudes_mut(), 0.4, ExecPolicy::serial());
        apply_x_mixer_fwht_copying(b.amplitudes_mut(), 0.4, ExecPolicy::serial());
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn fwht_mixer_preserves_norm() {
        let mut s = random_state(10, 6);
        apply_x_mixer_fwht_inplace(s.amplitudes_mut(), 1.9, ExecPolicy::rayon());
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blocked_fwht_is_bit_identical_to_passes() {
        // 2^16 doubles: four 2^14 rows, so both blocked steps (low passes
        // per row, column-tiled high passes) genuinely engage.
        let vals: Vec<f64> = (0..1usize << 16)
            .map(|i| (i as f64 * 0.7321).sin())
            .collect();
        let mut plain = vals.clone();
        let mut blocked = vals;
        fwht_f64_passes(&mut plain);
        fwht_f64_blocked_serial(&mut blocked);
        assert_eq!(plain, blocked, "blocked schedule must be bit-identical");
    }

    #[test]
    fn fwht_split_matches_complex() {
        for n in [3usize, 9, 13] {
            let s = random_state(n, 21 + n as u64);
            let mut interleaved = s.clone();
            fwht_serial(interleaved.amplitudes_mut());
            let mut split = crate::split::SplitStateVec::from(&s);
            let (re, im) = split.planes_mut();
            fwht_split(re, im, ExecPolicy::serial());
            assert_eq!(
                split.max_abs_diff_interleaved(interleaved.amplitudes()),
                0.0,
                "n = {n}: plane-wise butterflies are the same adds/subs"
            );
        }
    }

    #[test]
    fn fwht_split_forced_parallel_matches_serial() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(4);
        let s = random_state(10, 77);
        let mut a = crate::split::SplitStateVec::from(&s);
        let mut b = a.clone();
        let (re, im) = a.planes_mut();
        fwht_split(re, im, ExecPolicy::serial());
        let (re, im) = b.planes_mut();
        fwht_split(re, im, forced);
        assert_eq!(a, b, "parallel split FWHT must match serial exactly");
    }
}
