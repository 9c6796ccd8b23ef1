//! Algorithm 1 & 2 of the paper: in-place "fast SU(2)" butterfly kernels.
//!
//! `apply_mat2` applies `I ⊗ … ⊗ U ⊗ … ⊗ I` (single-qubit gate `U` on qubit
//! `q`) by sweeping the state vector once and mixing amplitude pairs whose
//! indices differ in bit `q` — Algorithm 1 with the paper's 1-based `d`
//! replaced by `q = d − 1` (pair stride `2^q`).
//!
//! `apply_uniform_mat2` is the generic Algorithm 2: the same `U` applied to
//! every qubit in sequence, which for `U = e^{-iβX}` is the whole
//! transverse-field mixer `e^{-iβΣᵢXᵢ}` in `n` passes, in place, with no
//! scratch memory — the paper's key advantage over the FWHT-sandwich
//! approach (see `fwht`).
//!
//! The `*_split` entry points run on `re`/`im` planes and share one block
//! walk (`split_pass`) over a four-slice pair body. `apply_x_mixer_split`,
//! the X mixer every objective runs, is Algorithm 2 with the RX-specialized
//! body of Algorithm 3 (`a = cos β`, `b = sin β`; QOKit's `furx`): 8
//! multiplies per pair instead of the generic 16, and the generic bits up to
//! the sign of an exact zero.
//!
//! Every entry point takes `ExecPolicy`; parallel sweeps split by
//! the policy's chunking thresholds.

use crate::complex::C64;
use crate::exec::ExecPolicy;
use crate::matrices::Mat2;
use rayon::prelude::*;

/// Mixes one amplitude pair: `(x0, x1) ← U · (x0, x1)`.
#[inline(always)]
fn mix_pair(lo: &mut C64, hi: &mut C64, u: &Mat2) {
    let x0 = *lo;
    let x1 = *hi;
    *lo = u.m[0][0] * x0 + u.m[0][1] * x1;
    *hi = u.m[1][0] * x0 + u.m[1][1] * x1;
}

/// Processes one contiguous block of `2^{q+1}` amplitudes: the first half
/// holds the `bit q = 0` partners, the second half the `bit q = 1` partners.
#[inline]
fn mix_block(block: &mut [C64], stride: usize, u: &Mat2) {
    debug_assert_eq!(block.len(), stride * 2);
    let (lo, hi) = block.split_at_mut(stride);
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        mix_pair(l, h, u);
    }
}

/// Serial Algorithm 1: applies `U` to qubit `q` of the state in place.
///
/// # Panics
/// If `q` is out of range for the vector length (debug builds).
pub fn apply_mat2_serial(amps: &mut [C64], q: usize, u: &Mat2) {
    let stride = 1usize << q;
    debug_assert!(stride * 2 <= amps.len(), "qubit {q} out of range");
    for block in amps.chunks_exact_mut(stride * 2) {
        mix_block(block, stride, u);
    }
}

/// Parallel Algorithm 1 splitting by `policy`.
fn apply_mat2_parallel(amps: &mut [C64], q: usize, u: &Mat2, policy: &ExecPolicy) {
    let len = amps.len();
    let stride = 1usize << q;
    let block = stride * 2;
    debug_assert!(block <= len, "qubit {q} out of range");
    if block >= len {
        // Single block: parallelize across the pair index instead.
        let (lo, hi) = amps.split_at_mut(stride);
        lo.par_iter_mut()
            .zip(hi.par_iter_mut())
            .with_min_len(policy.min_chunk)
            .for_each(|(l, h)| mix_pair(l, h, u));
        return;
    }
    let chunk = policy.chunk_len(len, block);
    amps.par_chunks_mut(chunk).for_each(|c| {
        for b in c.chunks_exact_mut(block) {
            mix_block(b, stride, u);
        }
    });
}

/// Policy-dispatched Algorithm 1.
#[inline]
pub fn apply_mat2(amps: &mut [C64], q: usize, u: &Mat2, policy: ExecPolicy) {
    if policy.parallel(amps.len()) {
        policy.install(|| apply_mat2_parallel(amps, q, u, &policy));
    } else {
        apply_mat2_serial(amps, q, u);
    }
}

/// Algorithm 2: applies the same `U` to **every** qubit, i.e. `U^{⊗n}`,
/// in place. For `U = Mat2::rx(β)` this is the full transverse-field mixer.
pub fn apply_uniform_mat2(amps: &mut [C64], u: &Mat2, policy: ExecPolicy) {
    let n = amps.len().trailing_zeros() as usize;
    debug_assert!(amps.len().is_power_of_two());
    // One install covers all n per-qubit sweeps.
    policy.install(|| {
        for q in 0..n {
            apply_mat2(amps, q, u, policy);
        }
    });
}

// ------------------------------------------------------------ split-plane

/// The 2×2 complex matrix flattened into broadcast plane coefficients
/// `[ar, ai, br, bi, cr, ci, dr, di]` for the plane-wise mix.
#[inline]
fn mat2_planes(u: &Mat2) -> [f64; 8] {
    [
        u.m[0][0].re,
        u.m[0][0].im,
        u.m[0][1].re,
        u.m[0][1].im,
        u.m[1][0].re,
        u.m[1][0].im,
        u.m[1][1].re,
        u.m[1][1].im,
    ]
}

/// Plane-wise pair mix over four equal-length lane runs: the split twin of
/// [`mix_pair`], with no complex multiplies in the loop — four independent
/// `f64` output streams the autovectorizer packs.
#[inline]
fn mix_planes(rl: &mut [f64], il: &mut [f64], rh: &mut [f64], ih: &mut [f64], m: &[f64; 8]) {
    let n = rl.len();
    let [ar, ai, br, bi, cr, ci, dr, di] = *m;
    // Equal-length reslices let the compiler drop the bounds checks.
    let (il, rh, ih) = (&mut il[..n], &mut rh[..n], &mut ih[..n]);
    for k in 0..n {
        let (xr0, xi0, xr1, xi1) = (rl[k], il[k], rh[k], ih[k]);
        rl[k] = ((ar * xr0 - ai * xi0) + br * xr1) - bi * xi1;
        il[k] = ((ar * xi0 + ai * xr0) + br * xi1) + bi * xr1;
        rh[k] = ((cr * xr0 - ci * xi0) + dr * xr1) - di * xi1;
        ih[k] = ((cr * xi0 + ci * xr0) + dr * xi1) + di * xr1;
    }
}

/// [`mix_planes`] specialized to `Mat2::rx(β)` (`s, c = sin β, cos β`):
/// a real diagonal `c` and an imaginary off-diagonal `−i·s`, so 8
/// multiplies and 4 adds per pair instead of 16 and 12. Every dropped term is a product with an
/// exact ±0, so for finite inputs the output has the generic formula's
/// bits; only the sign of an exactly-zero result may differ.
#[inline]
fn rx_planes(rl: &mut [f64], il: &mut [f64], rh: &mut [f64], ih: &mut [f64], s: f64, c: f64) {
    let n = rl.len();
    let (il, rh, ih) = (&mut il[..n], &mut rh[..n], &mut ih[..n]);
    for k in 0..n {
        let (xr0, xi0, xr1, xi1) = (rl[k], il[k], rh[k], ih[k]);
        rl[k] = c * xr0 + s * xi1;
        il[k] = c * xi0 - s * xr1;
        rh[k] = s * xi0 + c * xr1;
        ih[k] = c * xi1 - s * xr0;
    }
}

/// Serial split-plane pass over qubit `q`: calls `body(re_lo, im_lo,
/// re_hi, im_hi)` on the bit-`q` = 0/1 halves of every `2^{q+1}` block.
fn split_pass_serial<F>(re: &mut [f64], im: &mut [f64], q: usize, body: &F)
where
    F: Fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
{
    let stride = 1usize << q;
    debug_assert!(stride * 2 <= re.len(), "qubit {q} out of range");
    for (rb, ib) in re
        .chunks_exact_mut(stride * 2)
        .zip(im.chunks_exact_mut(stride * 2))
    {
        let (rl, rh) = rb.split_at_mut(stride);
        let (il, ih) = ib.split_at_mut(stride);
        body(rl, il, rh, ih);
    }
}

/// Parallel [`split_pass_serial`] splitting by `policy`.
fn split_pass_parallel<F>(re: &mut [f64], im: &mut [f64], q: usize, body: &F, policy: &ExecPolicy)
where
    F: Fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64]) + Sync,
{
    let len = re.len();
    let stride = 1usize << q;
    let block = stride * 2;
    debug_assert!(block <= len, "qubit {q} out of range");
    if block >= len {
        // Single block: parallelize across the pair index. The four plane
        // halves chunk identically, so index-aligned zips stay in lockstep.
        let (rl, rh) = re.split_at_mut(stride);
        let (il, ih) = im.split_at_mut(stride);
        let chunk = policy.chunk_len(stride, 1);
        rl.par_chunks_mut(chunk)
            .zip(il.par_chunks_mut(chunk))
            .zip(rh.par_chunks_mut(chunk))
            .zip(ih.par_chunks_mut(chunk))
            .for_each(|(((rlc, ilc), rhc), ihc)| body(rlc, ilc, rhc, ihc));
        return;
    }
    let chunk = policy.chunk_len(len, block);
    re.par_chunks_mut(chunk)
        .zip(im.par_chunks_mut(chunk))
        .for_each(|(rc, ic)| split_pass_serial(rc, ic, q, body));
}

/// Policy-dispatched split-plane pass: the one block walk every split
/// single-qubit kernel shares.
#[inline]
fn split_pass<F>(re: &mut [f64], im: &mut [f64], q: usize, policy: ExecPolicy, body: &F)
where
    F: Fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64]) + Sync,
{
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    if policy.parallel(re.len()) {
        policy.install(|| split_pass_parallel(re, im, q, body, &policy));
    } else {
        split_pass_serial(re, im, q, body);
    }
}

/// Serial split-plane Algorithm 1: applies `U` to qubit `q` of the
/// `re`/`im` planes in place.
///
/// # Panics
/// If plane lengths differ, or `q` is out of range (debug builds).
pub fn apply_mat2_split_serial(re: &mut [f64], im: &mut [f64], q: usize, u: &Mat2) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    let m = mat2_planes(u);
    split_pass_serial(re, im, q, &|rl, il, rh, ih| mix_planes(rl, il, rh, ih, &m));
}

/// Policy-dispatched split-plane Algorithm 1.
#[inline]
pub fn apply_mat2_split(re: &mut [f64], im: &mut [f64], q: usize, u: &Mat2, policy: ExecPolicy) {
    let m = mat2_planes(u);
    split_pass(re, im, q, policy, &|rl, il, rh, ih| {
        mix_planes(rl, il, rh, ih, &m)
    });
}

/// The transverse-field mixer `e^{-iβΣᵢXᵢ}` on the `re`/`im` planes:
/// split-plane Algorithm 2 for `U = Mat2::rx(β)`, one in-place pass per
/// qubit with the RX-specialized pair body (QOKit's `furx`). Same bits as
/// `n` calls of [`apply_mat2_split`] with `Mat2::rx(β)`, except the sign of
/// an exactly-zero amplitude component.
pub fn apply_x_mixer_split(re: &mut [f64], im: &mut [f64], beta: f64, policy: ExecPolicy) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    let n = re.len().trailing_zeros() as usize;
    debug_assert!(re.len().is_power_of_two());
    let (s, c) = beta.sin_cos();
    let body = |rl: &mut [f64], il: &mut [f64], rh: &mut [f64], ih: &mut [f64]| {
        rx_planes(rl, il, rh, ih, s, c)
    };
    policy.install(|| {
        for q in 0..n {
            split_pass(re, im, q, policy, &body);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::state::StateVec;

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(x.approx_eq(*y, tol), "index {i}: {x} vs {y}");
        }
    }

    fn random_state(n: usize, seed: u64) -> StateVec {
        // Deterministic pseudo-random amplitudes (splitmix64-based).
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
    fn matches_reference_on_every_qubit() {
        let n = 5;
        for q in 0..n {
            let mut s = random_state(n, 42 + q as u64);
            let expect = reference::apply_1q_reference(s.amplitudes(), q, &Mat2::rx(0.37));
            apply_mat2_serial(s.amplitudes_mut(), q, &Mat2::rx(0.37));
            assert_close(s.amplitudes(), &expect, 1e-12);
        }
    }

    #[test]
    fn rayon_matches_serial() {
        // Exercise both the multi-block and single-block parallel paths.
        for n in [4usize, 14] {
            for q in [0, n / 2, n - 1] {
                let u = Mat2::ry(1.1).matmul(&Mat2::rz(0.3));
                let mut a = random_state(n, 7);
                let mut b = a.clone();
                apply_mat2_serial(a.amplitudes_mut(), q, &u);
                apply_mat2(b.amplitudes_mut(), q, &u, ExecPolicy::rayon());
                assert_close(a.amplitudes(), b.amplitudes(), 1e-12);
            }
        }
    }

    #[test]
    fn forced_parallel_matches_serial_small() {
        // A min_len/min_chunk of 1 drives the parallel path on small states,
        // exercising real pool splits regardless of the machine size.
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(1);
        for n in [3usize, 6, 10] {
            for q in 0..n {
                let u = Mat2::ry(0.7).matmul(&Mat2::rz(1.9));
                let mut a = random_state(n, 100 + q as u64);
                let mut b = a.clone();
                apply_mat2_serial(a.amplitudes_mut(), q, &u);
                apply_mat2(b.amplitudes_mut(), q, &u, forced);
                assert_close(a.amplitudes(), b.amplitudes(), 1e-12);
            }
        }
    }

    #[test]
    fn preserves_norm() {
        let mut s = random_state(8, 3);
        apply_uniform_mat2(s.amplitudes_mut(), &Mat2::rx(0.9), ExecPolicy::serial());
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn hadamard_on_all_gives_uniform() {
        let n = 6;
        let mut s = StateVec::zero_state(n);
        apply_uniform_mat2(s.amplitudes_mut(), &Mat2::hadamard(), ExecPolicy::serial());
        let expect = StateVec::uniform_superposition(n);
        assert!(s.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn x_on_qubit_flips_basis_state() {
        let mut s = StateVec::basis_state(4, 0b0010);
        apply_mat2_serial(s.amplitudes_mut(), 3, &Mat2::pauli_x());
        assert_eq!(s.amplitudes()[0b1010], C64::ONE);
    }

    #[test]
    fn inverse_round_trips() {
        let u = Mat2::rx(0.77);
        let mut s = random_state(7, 11);
        let orig = s.clone();
        apply_uniform_mat2(s.amplitudes_mut(), &u, ExecPolicy::serial());
        apply_uniform_mat2(s.amplitudes_mut(), &u.dagger(), ExecPolicy::serial());
        assert!(s.max_abs_diff(&orig) < 1e-10);
    }

    #[test]
    fn split_matches_interleaved_on_every_qubit() {
        let n = 8;
        let u = Mat2::rx(0.83).matmul(&Mat2::rz(0.41));
        for q in 0..n {
            let s = random_state(n, 300 + q as u64);
            let mut interleaved = s.clone();
            apply_mat2_serial(interleaved.amplitudes_mut(), q, &u);
            let mut split = crate::split::SplitStateVec::from(&s);
            let (re, im) = split.planes_mut();
            apply_mat2_split_serial(re, im, q, &u);
            assert!(
                split.max_abs_diff_interleaved(interleaved.amplitudes()) < 1e-12,
                "qubit {q}"
            );
        }
    }

    #[test]
    fn split_forced_parallel_matches_serial() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(1);
        let n = 9;
        let u = Mat2::ry(1.3).matmul(&Mat2::rz(0.7));
        for q in [0usize, 4, n - 1] {
            let s = random_state(n, 400 + q as u64);
            let mut a = crate::split::SplitStateVec::from(&s);
            let mut b = a.clone();
            {
                let (re, im) = a.planes_mut();
                apply_mat2_split_serial(re, im, q, &u);
            }
            {
                let (re, im) = b.planes_mut();
                apply_mat2_split(re, im, q, &u, forced);
            }
            assert_eq!(a, b, "qubit {q}: split kernel is split-invariant");
        }
    }

    #[test]
    fn split_uniform_matches_interleaved_mixer() {
        let n = 7;
        let beta = 0.59;
        let s = random_state(n, 500);
        let mut interleaved = s.clone();
        apply_uniform_mat2(
            interleaved.amplitudes_mut(),
            &Mat2::rx(beta),
            ExecPolicy::serial(),
        );
        let mut split = crate::split::SplitStateVec::from(&s);
        let (re, im) = split.planes_mut();
        apply_x_mixer_split(re, im, beta, ExecPolicy::serial());
        // f64 `==`: the same bits, except that +0 and −0 compare equal.
        assert_eq!(split, crate::split::SplitStateVec::from(&interleaved));
    }

    #[test]
    fn mixer_order_is_irrelevant() {
        // The e^{-iβxᵢ} factors commute, so qubit order must not matter.
        let n = 5;
        let u = Mat2::rx(0.63);
        let mut fwd = random_state(n, 9);
        let mut rev = fwd.clone();
        for q in 0..n {
            apply_mat2_serial(fwd.amplitudes_mut(), q, &u);
        }
        for q in (0..n).rev() {
            apply_mat2_serial(rev.amplitudes_mut(), q, &u);
        }
        assert!(fwd.max_abs_diff(&rev) < 1e-12);
    }
}
