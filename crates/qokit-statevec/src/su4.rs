//! Two-qubit (SU(4)) kernels — the paper's extension of Algorithms 1–2 to
//! SU(4) operators, used by the Hamming-weight-preserving XY mixers.
//!
//! `apply_mat4` applies a dense 4×4 unitary to an ordered qubit pair
//! `(qa, qb)` in place. `apply_xy` is the specialized Givens rotation
//! `e^{-iβ(XX+YY)/2}` which only touches the |01⟩/|10⟩ amplitude pairs —
//! half the memory traffic of the dense path.
//!
//! Every entry point takes `ExecPolicy`; parallel sweeps split by
//! the policy's chunking thresholds.

use crate::complex::C64;
use crate::exec::ExecPolicy;
use crate::matrices::Mat4;
use rayon::prelude::*;

/// Applies `u` to the four amplitudes selected by `base` (bits `qa`,`qb`
/// clear) with sub-index `(bit qb << 1) | bit qa`.
#[inline(always)]
fn mix_quad(amps: &mut [C64], base: usize, ma: usize, mb: usize, u: &Mat4) {
    let i00 = base;
    let i01 = base | ma;
    let i10 = base | mb;
    let i11 = base | ma | mb;
    let x = [amps[i00], amps[i01], amps[i10], amps[i11]];
    let mut y = [C64::ZERO; 4];
    for (r, yr) in y.iter_mut().enumerate() {
        *yr = u.m[r][0] * x[0] + u.m[r][1] * x[1] + u.m[r][2] * x[2] + u.m[r][3] * x[3];
    }
    amps[i00] = y[0];
    amps[i01] = y[1];
    amps[i10] = y[2];
    amps[i11] = y[3];
}

/// Iterates all base indices (bits `ql < qh` clear) within
/// `chunk_start..chunk_start+chunk_len` of the full vector and calls `f` —
/// the two-qubit analogue of Algorithm 1's index enumeration. Public so the
/// gate-based baseline can reuse the same blocking for CX/SWAP kernels.
#[inline]
pub fn for_each_base(
    chunk_start: usize,
    chunk_len: usize,
    ql: usize,
    qh: usize,
    mut f: impl FnMut(usize),
) {
    let sl = 1usize << ql;
    let sh = 1usize << qh;
    let mut a = chunk_start;
    let end = chunk_start + chunk_len;
    while a < end {
        let mut b = a;
        let b_end = a + sh;
        while b < b_end {
            for c in b..b + sl {
                f(c);
            }
            b += sl * 2;
        }
        a += sh * 2;
    }
}

/// Serial two-qubit gate application.
///
/// # Panics
/// If `qa == qb` or either qubit is out of range.
fn apply_mat4_serial(amps: &mut [C64], qa: usize, qb: usize, u: &Mat4) {
    assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
    let (ql, qh) = if qa < qb { (qa, qb) } else { (qb, qa) };
    assert!(1usize << (qh + 1) <= amps.len(), "qubit {qh} out of range");
    let (ma, mb) = (1usize << qa, 1usize << qb);
    for_each_base(0, amps.len(), ql, qh, |base| {
        mix_quad(amps, base, ma, mb, u)
    });
}

/// Parallel two-qubit gate application splitting by `policy`. Parallelizes
/// over chunks that are multiples of the larger stride's block so quads
/// never straddle tasks.
fn apply_mat4_parallel(amps: &mut [C64], qa: usize, qb: usize, u: &Mat4, policy: &ExecPolicy) {
    let len = amps.len();
    assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
    let (ql, qh) = if qa < qb { (qa, qb) } else { (qb, qa) };
    assert!(1usize << (qh + 1) <= len, "qubit {qh} out of range");
    let (ma, mb) = (1usize << qa, 1usize << qb);
    let block = 1usize << (qh + 1);
    if block >= len {
        // qh is the top qubit: a single outer block spans the whole vector.
        // Split at the high stride and pair aligned sub-chunks of the two
        // halves; the low half enumerates the base indices.
        let sh = 1usize << qh;
        let sub_block = 1usize << (ql + 1);
        if sub_block >= sh {
            // Both qubits are the two top bits — no room to parallelize
            // without splitting a quad; the serial sweep is cheap here.
            return apply_mat4_serial(amps, qa, qb, u);
        }
        let chunk = policy.chunk_len(sh, sub_block);
        let (lo, hi) = amps.split_at_mut(sh);
        let sl = 1usize << ql;
        // Sub-index row for the amplitude living in `lo[c | sl]` / `hi[c]`
        // depends on which of (qa, qb) is the low qubit.
        let qa_is_low = qa == ql;
        lo.par_chunks_mut(chunk)
            .zip(hi.par_chunks_mut(chunk))
            .for_each(|(lc, hc)| {
                let mut b = 0;
                while b < lc.len() {
                    for c in b..b + sl {
                        // Quad: (lc[c], lc[c|sl], hc[c], hc[c|sl]) in
                        // (low=0,high=0), (low=1,high=0), (low=0,high=1),
                        // (low=1,high=1) order. Map to Mat4 sub-index rows.
                        let x00 = lc[c];
                        let x_l = lc[c | sl]; // low qubit set, high clear
                        let x_h = hc[c]; // high qubit set, low clear
                        let x11 = hc[c | sl];
                        let (x01, x10) = if qa_is_low { (x_l, x_h) } else { (x_h, x_l) };
                        let x = [x00, x01, x10, x11];
                        let mut y = [C64::ZERO; 4];
                        for (r, yr) in y.iter_mut().enumerate() {
                            *yr = u.m[r][0] * x[0]
                                + u.m[r][1] * x[1]
                                + u.m[r][2] * x[2]
                                + u.m[r][3] * x[3];
                        }
                        let (y_l, y_h) = if qa_is_low {
                            (y[1], y[2])
                        } else {
                            (y[2], y[1])
                        };
                        lc[c] = y[0];
                        lc[c | sl] = y_l;
                        hc[c] = y_h;
                        hc[c | sl] = y[3];
                    }
                    b += sl * 2;
                }
            });
        return;
    }
    let chunk = policy.chunk_len(len, block);
    // Base enumeration is translation-invariant per block, so local
    // coordinates within each chunk enumerate exactly the chunk's bases.
    amps.par_chunks_mut(chunk).for_each(|c| {
        for_each_base(0, c.len(), ql, qh, |local_base| {
            mix_quad(c, local_base, ma, mb, u);
        });
    });
}

/// Policy-dispatched two-qubit gate application.
#[inline]
pub fn apply_mat4(amps: &mut [C64], qa: usize, qb: usize, u: &Mat4, policy: ExecPolicy) {
    if policy.parallel(amps.len()) {
        policy.install(|| apply_mat4_parallel(amps, qa, qb, u, &policy));
    } else {
        apply_mat4_serial(amps, qa, qb, u);
    }
}

/// Serial specialized XY gate `e^{-iβ(XX+YY)/2}` on `(qa, qb)`: rotates the
/// |01⟩/|10⟩ pair, leaves |00⟩ and |11⟩ untouched.
fn apply_xy_serial(amps: &mut [C64], qa: usize, qb: usize, beta: f64) {
    assert_ne!(qa, qb, "XY gate needs distinct qubits");
    let (ql, qh) = if qa < qb { (qa, qb) } else { (qb, qa) };
    assert!(1usize << (qh + 1) <= amps.len(), "qubit {qh} out of range");
    let (ma, mb) = (1usize << qa, 1usize << qb);
    let (s, c) = beta.sin_cos();
    for_each_base(0, amps.len(), ql, qh, |base| {
        let i01 = base | ma;
        let i10 = base | mb;
        let x01 = amps[i01];
        let x10 = amps[i10];
        amps[i01] = x01.scale(c) + x10.scale(s).mul_neg_i();
        amps[i10] = x01.scale(s).mul_neg_i() + x10.scale(c);
    });
}

/// Policy-dispatched XY gate.
pub fn apply_xy(amps: &mut [C64], qa: usize, qb: usize, beta: f64, policy: ExecPolicy) {
    let len = amps.len();
    let (ql, qh) = if qa < qb { (qa, qb) } else { (qb, qa) };
    let block = 1usize << (qh + 1);
    if !policy.parallel(len) || block >= len {
        return apply_xy_serial(amps, qa, qb, beta);
    }
    assert_ne!(qa, qb, "XY gate needs distinct qubits");
    let (ma, mb) = (1usize << qa, 1usize << qb);
    let (s, c) = beta.sin_cos();
    let chunk = policy.chunk_len(len, block);
    policy.install(|| {
        amps.par_chunks_mut(chunk).for_each(|ch| {
            for_each_base(0, ch.len(), ql, qh, |base| {
                let i01 = base | ma;
                let i10 = base | mb;
                let x01 = ch[i01];
                let x10 = ch[i10];
                ch[i01] = x01.scale(c) + x10.scale(s).mul_neg_i();
                ch[i10] = x01.scale(s).mul_neg_i() + x10.scale(c);
            });
        });
    });
}

// ------------------------------------------------------------ split-plane

/// Calls `f(b)` with the start index of every contiguous `2^ql`-base run
/// within a `chunk_len`-element window — the outer two loops of
/// [`for_each_base`] with the innermost contiguous run left to the caller,
/// so split-plane kernels can process whole lane runs at once.
#[inline]
fn for_each_base_run(chunk_len: usize, ql: usize, qh: usize, mut f: impl FnMut(usize)) {
    let sl = 1usize << ql;
    let sh = 1usize << qh;
    let mut a = 0;
    while a < chunk_len {
        let mut b = a;
        let b_end = a + sh;
        while b < b_end {
            f(b);
            b += sl * 2;
        }
        a += sh * 2;
    }
}

/// Plane-wise XY rotation over the |01⟩/|10⟩ lane runs — the split twin of
/// the [`apply_xy_serial`] pair update, four independent `f64` streams the
/// autovectorizer packs.
#[inline]
fn xy_lanes(r01: &mut [f64], i01: &mut [f64], r10: &mut [f64], i10: &mut [f64], c: f64, s: f64) {
    let n = r01.len();
    let (i01, r10, i10) = (&mut i01[..n], &mut r10[..n], &mut i10[..n]);
    for k in 0..n {
        let (ar, ai, br, bi) = (r01[k], i01[k], r10[k], i10[k]);
        r01[k] = c * ar + s * bi;
        i01[k] = c * ai - s * br;
        r10[k] = s * ai + c * br;
        i10[k] = c * bi - s * ar;
    }
}

/// XY sweep over one block-aligned window of the planes, in local
/// coordinates (base enumeration is translation-invariant per block).
fn xy_split_chunk(re: &mut [f64], im: &mut [f64], ql: usize, qh: usize, qa: usize, c: f64, s: f64) {
    let sl = 1usize << ql;
    let mh = 1usize << qh;
    let qa_is_low = qa == ql;
    for_each_base_run(re.len(), ql, qh, |b| {
        // Lane runs: bit ql set / qh clear lives at [b+sl, b+2sl); bit qh
        // set / ql clear at [b+mh, b+mh+sl).
        let (lo, hi) = (b + sl, b + mh);
        let [rl, rh] = re
            .get_disjoint_mut([lo..lo + sl, hi..hi + sl])
            .expect("lane runs are disjoint");
        let [il, ih] = im
            .get_disjoint_mut([lo..lo + sl, hi..hi + sl])
            .expect("lane runs are disjoint");
        if qa_is_low {
            xy_lanes(rl, il, rh, ih, c, s);
        } else {
            xy_lanes(rh, ih, rl, il, c, s);
        }
    });
}

/// Serial split-plane XY gate `e^{-iβ(XX+YY)/2}` on `(qa, qb)`.
///
/// # Panics
/// If plane lengths differ, `qa == qb`, or a qubit is out of range.
fn apply_xy_split_serial(re: &mut [f64], im: &mut [f64], qa: usize, qb: usize, beta: f64) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_ne!(qa, qb, "XY gate needs distinct qubits");
    let (ql, qh) = if qa < qb { (qa, qb) } else { (qb, qa) };
    assert!(1usize << (qh + 1) <= re.len(), "qubit {qh} out of range");
    let (s, c) = beta.sin_cos();
    xy_split_chunk(re, im, ql, qh, qa, c, s);
}

/// Policy-dispatched split-plane XY gate.
pub fn apply_xy_split(
    re: &mut [f64],
    im: &mut [f64],
    qa: usize,
    qb: usize,
    beta: f64,
    policy: ExecPolicy,
) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    let len = re.len();
    let (ql, qh) = if qa < qb { (qa, qb) } else { (qb, qa) };
    let block = 1usize << (qh + 1);
    if !policy.parallel(len) || block >= len {
        return apply_xy_split_serial(re, im, qa, qb, beta);
    }
    assert_ne!(qa, qb, "XY gate needs distinct qubits");
    let (s, c) = beta.sin_cos();
    let chunk = policy.chunk_len(len, block);
    policy.install(|| {
        re.par_chunks_mut(chunk)
            .zip(im.par_chunks_mut(chunk))
            .for_each(|(rc, ic)| xy_split_chunk(rc, ic, ql, qh, qa, c, s));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::Mat2;
    use crate::reference;
    use crate::state::StateVec;

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

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(x.approx_eq(*y, tol), "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn dense_matches_reference_all_pairs() {
        let n = 4;
        let u = Mat4::xx_plus_yy(0.8).matmul(&Mat4::rzz(0.3));
        for qa in 0..n {
            for qb in 0..n {
                if qa == qb {
                    continue;
                }
                let mut s = random_state(n, (qa * 7 + qb) as u64);
                let expect = reference::apply_2q_reference(s.amplitudes(), qa, qb, &u);
                apply_mat4_serial(s.amplitudes_mut(), qa, qb, &u);
                assert_close(s.amplitudes(), &expect, 1e-12);
            }
        }
    }

    #[test]
    fn kron_of_1q_gates_matches_two_1q_applications() {
        let n = 5;
        let (ua, ub) = (Mat2::rx(0.4), Mat2::ry(1.3));
        let (qa, qb) = (1, 3);
        let mut via_2q = random_state(n, 99);
        let mut via_1q = via_2q.clone();
        // Mat4 convention: low factor acts on qa.
        apply_mat4_serial(via_2q.amplitudes_mut(), qa, qb, &Mat4::kron(&ub, &ua));
        crate::su2::apply_mat2_serial(via_1q.amplitudes_mut(), qa, &ua);
        crate::su2::apply_mat2_serial(via_1q.amplitudes_mut(), qb, &ub);
        assert!(via_2q.max_abs_diff(&via_1q) < 1e-12);
    }

    #[test]
    fn xy_matches_dense() {
        let n = 5;
        for (qa, qb) in [(0usize, 1usize), (2, 4), (4, 1), (3, 0)] {
            let beta = 0.71;
            let mut fast = random_state(n, 5 + qa as u64);
            let mut dense = fast.clone();
            apply_xy_serial(fast.amplitudes_mut(), qa, qb, beta);
            apply_mat4_serial(dense.amplitudes_mut(), qa, qb, &Mat4::xx_plus_yy(beta));
            assert!(fast.max_abs_diff(&dense) < 1e-12);
        }
    }

    #[test]
    fn xy_conserves_hamming_weight() {
        let n = 6;
        let mut s = StateVec::dicke_state(n, 2);
        apply_xy_serial(s.amplitudes_mut(), 1, 4, 0.9);
        apply_xy_serial(s.amplitudes_mut(), 0, 5, 1.7);
        for (x, a) in s.amplitudes().iter().enumerate() {
            if x.count_ones() != 2 {
                assert!(a.norm_sqr() < 1e-24, "weight leaked into {x:b}");
            }
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn xy_is_symmetric_in_qubit_order() {
        // (XX+YY)/2 is symmetric under qubit exchange.
        let mut ab = random_state(5, 17);
        let mut ba = ab.clone();
        apply_xy_serial(ab.amplitudes_mut(), 1, 3, 0.6);
        apply_xy_serial(ba.amplitudes_mut(), 3, 1, 0.6);
        assert!(ab.max_abs_diff(&ba) < 1e-12);
    }

    #[test]
    fn rayon_matches_serial_large() {
        let n = 14;
        let u = Mat4::xx_plus_yy(0.3);
        for (qa, qb) in [(0usize, 1usize), (5, 11), (13, 2), (12, 13)] {
            let mut a = random_state(n, 23);
            let mut b = a.clone();
            apply_mat4_serial(a.amplitudes_mut(), qa, qb, &u);
            apply_mat4(b.amplitudes_mut(), qa, qb, &u, ExecPolicy::rayon());
            assert_close(a.amplitudes(), b.amplitudes(), 1e-12);

            let mut c = a.clone();
            let mut d = a.clone();
            apply_xy_serial(c.amplitudes_mut(), qa, qb, 0.9);
            apply_xy(d.amplitudes_mut(), qa, qb, 0.9, ExecPolicy::rayon());
            assert_close(c.amplitudes(), d.amplitudes(), 1e-12);
        }
    }

    #[test]
    fn forced_parallel_matches_serial_all_pairs() {
        // Small states with a forced-parallel policy: every split shape of
        // the two-qubit kernels must agree with the serial sweep.
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(4);
        let n = 7;
        let u = Mat4::xx_plus_yy(0.8).matmul(&Mat4::rzz(0.3));
        for qa in 0..n {
            for qb in 0..n {
                if qa == qb {
                    continue;
                }
                let mut a = random_state(n, (qa * 11 + qb) as u64);
                let mut b = a.clone();
                apply_mat4_serial(a.amplitudes_mut(), qa, qb, &u);
                apply_mat4(b.amplitudes_mut(), qa, qb, &u, forced);
                assert_close(a.amplitudes(), b.amplitudes(), 1e-12);

                let mut c = a.clone();
                let mut d = a.clone();
                apply_xy_serial(c.amplitudes_mut(), qa, qb, 1.1);
                apply_xy(d.amplitudes_mut(), qa, qb, 1.1, forced);
                assert_close(c.amplitudes(), d.amplitudes(), 1e-12);
            }
        }
    }

    #[test]
    fn xy_inverse_round_trips() {
        let mut s = random_state(6, 31);
        let orig = s.clone();
        apply_xy_serial(s.amplitudes_mut(), 2, 5, 0.45);
        apply_xy_serial(s.amplitudes_mut(), 2, 5, -0.45);
        assert!(s.max_abs_diff(&orig) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_equal_qubits() {
        let mut s = StateVec::zero_state(3);
        apply_mat4_serial(s.amplitudes_mut(), 1, 1, &Mat4::identity());
    }

    #[test]
    fn xy_split_matches_interleaved_all_pairs() {
        let n = 5;
        for (qa, qb) in [(0usize, 1usize), (2, 4), (4, 1), (3, 0), (0, 4)] {
            let beta = 0.63;
            let mut inter = random_state(n, 40 + qa as u64 * 8 + qb as u64);
            let mut split = crate::split::SplitStateVec::from(&inter);
            apply_xy_serial(inter.amplitudes_mut(), qa, qb, beta);
            let (re, im) = split.planes_mut();
            apply_xy_split_serial(re, im, qa, qb, beta);
            assert!(split.max_abs_diff_interleaved(inter.amplitudes()) < 1e-12);
        }
    }

    #[test]
    fn split_forced_parallel_matches_serial() {
        let n = 8;
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(4);
        for (qa, qb) in [(0usize, 1usize), (3, 6), (7, 2), (n - 1, 0)] {
            let base = crate::split::SplitStateVec::from(&random_state(n, 77 + qa as u64));
            let mut serial = base.clone();
            let mut par = base.clone();
            {
                let (re, im) = serial.planes_mut();
                apply_xy_split_serial(re, im, qa, qb, 0.51);
            }
            {
                let (re, im) = par.planes_mut();
                apply_xy_split(re, im, qa, qb, 0.51, forced);
            }
            // Same per-element arithmetic, only traversal order differs.
            assert_eq!(serial, par);
        }
    }
}
