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
//! walk (`split_pass`) that cuts each block into equal runs for a run body.
//! `apply_x_mixer_split`, the X mixer every objective runs, is Algorithm 2
//! with the RX-specialized body of Algorithm 3 (`a = cos β`, `b = sin β`;
//! QOKit's `furx`): 8 multiplies per pair instead of the generic 16. It
//! fuses qubits into fewer sweeps than `n`: a first sweep applies qubits
//! 0–5 to each 64-amplitude block in `zmm` registers on an AVX-512 CPU
//! from n = 6 (n = 10: 3 sweeps), and elsewhere qubits 0–1 to each
//! 4-amplitude tile (`⌈n/2⌉` sweeps, n = 10: 5); each further sweep
//! applies a radix-4 qubit pair. Every amplitude still sees Algorithm 2's
//! operations in Algorithm 2's qubit order, so the result keeps the
//! generic bits up to the sign of an exact zero.
//!
//! The block walk and its run bodies are compiled three times from the
//! same loops: for the baseline target (SSE2 on `x86_64`, two doubles a
//! vector) and, on `x86_64`, once with AVX2 enabled (four) and once with
//! AVX-512F enabled (eight). None of them contracts a multiply and an add
//! into an FMA, so all perform the same IEEE operations and give the same
//! bits. Each process picks the widest by the CPU detection the level-coded
//! phase loop (`diag`) shares, and [`kernel_isa`](crate::exec::kernel_isa)
//! names it. On an AVX-512 CPU, a pass whose runs hold fewer than 8
//! doubles (`Mat2` on qubits 0–2, a short parallel slice) stays on the
//! AVX2 walk, where an 8-lane loop would run it in its scalar remainder.
//! No option selects the walk.
//!
//! The X mixer's AVX-512 register-block pass (`rx_block`) is the one body
//! written in `core::arch` intrinsics, reached only after the CPU detection
//! returned AVX-512. It is there because its portable forms lost to the
//! three sweeps it replaces: `rx_butterflies::<8>` on 8-amplitude tiles
//! under the AVX-512 walk ran 10–12 % slower, and a transposed
//! 64-amplitude block of `[[f64; 8]; 8]` arrays ~2× slower. It uses no FMA
//! either, so it keeps the portable bits.
//!
//! Every entry point takes `ExecPolicy`; parallel sweeps split by
//! the policy's chunking thresholds.

use crate::complex::C64;
use crate::exec::{ExecPolicy, Isa};
use crate::matrices::Mat2;
use rayon::prelude::*;
use std::mem::take;

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
/// If the length is not a power of two, or `q` is out of range.
pub fn apply_mat2_serial(amps: &mut [C64], q: usize, u: &Mat2) {
    check_qubit(q, amps.len());
    let stride = 1usize << q;
    for block in amps.chunks_exact_mut(stride * 2) {
        mix_block(block, stride, u);
    }
}

/// Parallel Algorithm 1 splitting by `policy`.
fn apply_mat2_parallel(amps: &mut [C64], q: usize, u: &Mat2, policy: &ExecPolicy) {
    let len = amps.len();
    let stride = 1usize << q;
    let block = stride * 2;
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
///
/// # Panics
/// If the length is not a power of two, or `q` is out of range.
#[inline]
pub fn apply_mat2(amps: &mut [C64], q: usize, u: &Mat2, policy: ExecPolicy) {
    if policy.parallel(amps.len()) {
        check_qubit(q, amps.len());
        policy.install(|| apply_mat2_parallel(amps, q, u, &policy));
    } else {
        apply_mat2_serial(amps, q, u);
    }
}

/// Algorithm 2: applies the same `U` to **every** qubit, i.e. `U^{⊗n}`,
/// in place. For `U = Mat2::rx(β)` this is the full transverse-field mixer.
pub fn apply_uniform_mat2(amps: &mut [C64], u: &Mat2, policy: ExecPolicy) {
    assert!(
        amps.len().is_power_of_two(),
        "state length {} is not a power of two",
        amps.len()
    );
    let n = amps.len().trailing_zeros() as usize;
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
#[inline(always)]
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

/// Qubits the X mixer's first sweep handles in registers: qubits
/// `0..TILE_QUBITS` of one `TILE`-amplitude tile at a time.
const TILE_QUBITS: usize = 2;
const TILE: usize = 1 << TILE_QUBITS;

/// The RX body (Algorithm 3 with `a = cos β`, `b = sin β`; QOKit's `furx`)
/// in permutation form: amplitude `x` of a pair from its partner `p`,
/// `re' = c·re[x] + s·im[p]`, `im' = c·im[x] − s·re[p]`. This is
/// [`mix_planes`] for `Mat2::rx(β)` with every product by an exact ±0
/// dropped (and, for the bit-1 amplitude, the two remaining terms of the
/// real part swapped, which IEEE addition does exactly), so for finite
/// inputs the output has the generic formula's bits; only the sign of an
/// exactly-zero result may differ.
#[inline(always)]
fn rx_amp(s: f64, c: f64, xr: f64, xi: f64, pr: f64, pi: f64) -> (f64, f64) {
    (c * xr + s * pi, c * xi - s * pr)
}

/// In-register Algorithm 2 over `N` amplitudes: RX on index bit 0, then
/// bit 1, …, up to bit `log₂ N − 1`.
#[inline(always)]
fn rx_butterflies<const N: usize>(r: &mut [f64; N], i: &mut [f64; N], s: f64, c: f64) {
    let mut m = 1;
    while m < N {
        let (r0, i0) = (*r, *i);
        for x in 0..N {
            (r[x], i[x]) = rx_amp(s, c, r0[x], i0[x], r0[x ^ m], i0[x ^ m]);
        }
        m <<= 1;
    }
}

/// The low-qubit tile body: qubits `0..TILE_QUBITS` of every contiguous
/// `TILE`-amplitude tile, in registers.
#[inline(always)]
fn rx_tiles(re: &mut [f64], im: &mut [f64], s: f64, c: f64) {
    let (re_tiles, im_tiles) = (re.as_chunks_mut::<TILE>().0, im.as_chunks_mut::<TILE>().0);
    for (rt, it) in re_tiles.iter_mut().zip(im_tiles) {
        rx_butterflies(rt, it, s, c);
    }
}

/// The single-qubit run body: RX on qubit `q` over the bit-`q` = 0/1 runs
/// of a `2^{q+1}` block, element by element.
#[inline(always)]
fn rx_planes(rl: &mut [f64], il: &mut [f64], rh: &mut [f64], ih: &mut [f64], s: f64, c: f64) {
    let n = rl.len();
    // Equal-length reslices let the compiler drop the bounds checks.
    let (il, rh, ih) = (&mut il[..n], &mut rh[..n], &mut ih[..n]);
    for k in 0..n {
        let mut r = [rl[k], rh[k]];
        let mut i = [il[k], ih[k]];
        rx_butterflies(&mut r, &mut i, s, c);
        [rl[k], rh[k]] = r;
        [il[k], ih[k]] = i;
    }
}

/// The radix-4 run body: RX on the qubit pair `(q, q+1)` over the four
/// `2^q` runs of a `2^{q+2}` block, element by element — qubit `q` on runs
/// (0,1) and (2,3), then qubit `q+1` on runs (0,2) and (1,3). Each run is
/// its own argument so the compiler knows the eight streams are disjoint.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn rx_radix4(
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    i0: &mut [f64],
    i1: &mut [f64],
    i2: &mut [f64],
    i3: &mut [f64],
    s: f64,
    c: f64,
) {
    let n = r0.len();
    let (r1, r2, r3) = (&mut r1[..n], &mut r2[..n], &mut r3[..n]);
    let (i0, i1, i2, i3) = (&mut i0[..n], &mut i1[..n], &mut i2[..n], &mut i3[..n]);
    for k in 0..n {
        let mut r = [r0[k], r1[k], r2[k], r3[k]];
        let mut i = [i0[k], i1[k], i2[k], i3[k]];
        rx_butterflies(&mut r, &mut i, s, c);
        [r0[k], r1[k], r2[k], r3[k]] = r;
        [i0[k], i1[k], i2[k], i3[k]] = i;
    }
}

/// Cuts a block into its `R` runs of `run` elements.
#[inline(always)]
fn runs<const R: usize>(block: &mut [f64], run: usize) -> [&mut [f64]; R] {
    let mut it = block.chunks_exact_mut(run);
    std::array::from_fn(|_| it.next().expect("a block holds R runs"))
}

/// A run body of the block walk: the work on one block, given as its `R`
/// runs in each plane. A trait rather than a closure, so that the AVX2 and
/// AVX-512 walks compile the body inline at their own width: a closure does not
/// inherit `#[target_feature]`, and a closure called out of line stays
/// at the baseline width.
trait RunBody<const R: usize>: Sync {
    /// The amplitudes of a run the body works on together: a parallel walk
    /// that cuts one block's runs cuts them at multiples of this.
    const GRAIN: usize = TILE;

    fn run(&self, re: [&mut [f64]; R], im: [&mut [f64]; R]);
}

/// The X mixer's low-qubit tile sweep ([`rx_tiles`]) over one run
/// spanning the planes.
struct RxTiles {
    s: f64,
    c: f64,
}

impl RunBody<1> for RxTiles {
    #[inline(always)]
    fn run(&self, [r]: [&mut [f64]; 1], [i]: [&mut [f64]; 1]) {
        rx_tiles(r, i, self.s, self.c)
    }
}

/// The X mixer's radix-4 qubit-pair sweep ([`rx_radix4`]).
struct RxRadix4 {
    s: f64,
    c: f64,
}

impl RunBody<4> for RxRadix4 {
    #[inline(always)]
    fn run(&self, [r0, r1, r2, r3]: [&mut [f64]; 4], [i0, i1, i2, i3]: [&mut [f64]; 4]) {
        rx_radix4(r0, r1, r2, r3, i0, i1, i2, i3, self.s, self.c)
    }
}

/// The X mixer's single pass on an odd top qubit ([`rx_planes`]).
struct RxPass {
    s: f64,
    c: f64,
}

impl RunBody<2> for RxPass {
    #[inline(always)]
    fn run(&self, [rl, rh]: [&mut [f64]; 2], [il, ih]: [&mut [f64]; 2]) {
        rx_planes(rl, il, rh, ih, self.s, self.c)
    }
}

/// The generic `Mat2` body ([`mix_planes`]) on one qubit.
struct Mix([f64; 8]);

impl RunBody<2> for Mix {
    #[inline(always)]
    fn run(&self, [rl, rh]: [&mut [f64]; 2], [il, ih]: [&mut [f64]; 2]) {
        mix_planes(rl, il, rh, ih, &self.0)
    }
}

/// The blocks one walk visits.
enum Blocks<'a, const R: usize> {
    /// Every `R·run` block of the `re` and `im` planes, each cut into its
    /// `R` runs of `run`.
    Planes(&'a mut [f64], &'a mut [f64], usize),
    /// One block, given as its `R` runs in the `re` and in the `im` plane.
    Runs([&'a mut [f64]; R], [&'a mut [f64]; R]),
}

impl<const R: usize> Blocks<'_, R> {
    /// The length of each run.
    #[cfg(target_arch = "x86_64")]
    fn run(&self) -> usize {
        match self {
            Blocks::Planes(_, _, run) => *run,
            Blocks::Runs(r, _) => r[0].len(),
        }
    }
}

/// The shortest run the AVX-512 walk takes: one 8-double vector.
#[cfg(target_arch = "x86_64")]
const AVX512_MIN_RUN: usize = 8;

/// Calls `body` on every block, on the `isa` compilation of the walk, or on
/// the AVX2 one for runs shorter than [`AVX512_MIN_RUN`] under `Avx512`.
fn walk_on<const R: usize, B: RunBody<R>>(isa: Isa, blocks: Blocks<'_, R>, body: &B) {
    match isa {
        Isa::Portable => walk(blocks, body),
        // SAFETY: `walk_avx512` needs AVX-512F, and `Isa::Avx512` is only
        // built by `Isa::detect` after the CPU reported AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if blocks.run() >= AVX512_MIN_RUN => unsafe { walk_avx512(blocks, body) },
        // SAFETY: `walk_avx2` needs AVX2, and `Isa::Avx2` and `Isa::Avx512`
        // are only built by `Isa::detect` after the CPU reported AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => unsafe { walk_avx2(blocks, body) },
    }
}

/// The block walk: `body` on every block, inlined into each caller.
#[inline(always)]
fn walk<const R: usize, B: RunBody<R>>(blocks: Blocks<'_, R>, body: &B) {
    match blocks {
        Blocks::Planes(re, im, run) => {
            let block = R * run;
            for (rb, ib) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
                body.run(runs(rb, run), runs(ib, run));
            }
        }
        Blocks::Runs(r, i) => body.run(r, i),
    }
}

/// [`walk`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn walk_avx2<const R: usize, B: RunBody<R>>(blocks: Blocks<'_, R>, body: &B) {
    walk(blocks, body)
}

/// [`walk`] compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn walk_avx512<const R: usize, B: RunBody<R>>(blocks: Blocks<'_, R>, body: &B) {
    walk(blocks, body)
}

/// The X mixer's qubits 0–5 in one AVX-512 register pass over 64-amplitude
/// blocks, each eight `zmm` vectors per plane. Qubits 0, 1 and 2 are mixed
/// inside each vector, with one lane permute per plane per qubit; qubits 3,
/// 4 and 5 across the eight vectors. Every butterfly is `rx_amp`'s
/// `(c·xr + s·pi, c·xi − s·pr)` as separate multiplies and adds, and each
/// amplitude sees qubits 0–5 in order, so the pass has the bits of the tile
/// sweep and the two radix-4 sweeps it replaces. The module doc says why
/// this one body is written in intrinsics.
#[cfg(target_arch = "x86_64")]
mod rx_block {
    use super::RunBody;
    use crate::exec::Isa;
    use std::arch::x86_64::*;

    /// The qubits one block holds.
    pub(super) const BLOCK_QUBITS: usize = 6;
    const BLOCK: usize = 1 << BLOCK_QUBITS;

    /// The pass as the body of one run spanning the planes. Only
    /// [`RxBlocks::new`] builds one, so one exists only on a CPU that has
    /// AVX-512F.
    pub(super) struct RxBlocks {
        s: f64,
        c: f64,
    }

    impl RxBlocks {
        /// The pass for RX with `(s, c) = β.sin_cos()` on `n` qubits, if the
        /// walk is [`Isa::Avx512`] and `n ≥ 6`; otherwise `None`.
        pub(super) fn new(walk: Isa, n: usize, s: f64, c: f64) -> Option<RxBlocks> {
            (walk == Isa::Avx512 && n >= BLOCK_QUBITS).then_some(RxBlocks { s, c })
        }
    }

    impl RunBody<1> for RxBlocks {
        const GRAIN: usize = BLOCK;

        #[inline(always)]
        fn run(&self, [r]: [&mut [f64]; 1], [i]: [&mut [f64]; 1]) {
            // SAFETY: `rx_blocks` needs AVX-512F. An `RxBlocks` is only built
            // by `RxBlocks::new` from `Isa::Avx512`, which only `Isa::detect`
            // builds, after the CPU reported AVX-512F.
            unsafe { rx_blocks(r, i, self.s, self.c) }
        }
    }

    /// [`rx_amp`](super::rx_amp) on every lane: `x` from its partner `p`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn rx(s: __m512d, c: __m512d, x: [__m512d; 2], p: [__m512d; 2]) -> [__m512d; 2] {
        let [xr, xi] = x;
        let [pr, pi] = p;
        [
            _mm512_add_pd(_mm512_mul_pd(c, xr), _mm512_mul_pd(s, pi)),
            _mm512_sub_pd(_mm512_mul_pd(c, xi), _mm512_mul_pd(s, pr)),
        ]
    }

    /// Qubits 0–5 of every whole 64-amplitude block of the planes.
    #[target_feature(enable = "avx512f")]
    fn rx_blocks(re: &mut [f64], im: &mut [f64], s: f64, c: f64) {
        let (s, c) = (_mm512_set1_pd(s), _mm512_set1_pd(c));
        let (re, im) = (re.as_chunks_mut::<BLOCK>().0, im.as_chunks_mut::<BLOCK>().0);
        for (rb, ib) in re.iter_mut().zip(im) {
            let (rb, ib) = (rb.as_chunks_mut::<8>().0, ib.as_chunks_mut::<8>().0);
            // Vector `v` of each plane, amplitudes `8v..8v + 8`, as `[re, im]`.
            let mut x = [[_mm512_setzero_pd(); 2]; 8];
            for (xv, (r, i)) in x.iter_mut().zip(rb.iter().zip(ib.iter())) {
                // SAFETY: `r` and `i` each hold the 8 doubles a load reads.
                *xv = unsafe { [r.as_ptr(), i.as_ptr()].map(|p| _mm512_loadu_pd(p)) };
                // Qubits 0, 1 and 2: the partner is another lane of the vector.
                *xv = rx(s, c, *xv, xv.map(|p| _mm512_permute_pd::<0x55>(p)));
                *xv = rx(s, c, *xv, xv.map(|p| _mm512_permutex_pd::<0x4E>(p)));
                *xv = rx(s, c, *xv, xv.map(|p| _mm512_shuffle_f64x2::<0x4E>(p, p)));
            }
            // Qubits 3, 4 and 5: the partner of vector `v` is vector `v ^ m`.
            for m in [1, 2, 4] {
                let x0 = x;
                for v in 0..8 {
                    x[v] = rx(s, c, x0[v], x0[v ^ m]);
                }
            }
            for ([xr, xi], (r, i)) in x.into_iter().zip(rb.iter_mut().zip(ib.iter_mut())) {
                // SAFETY: `r` and `i` each hold the 8 doubles a store writes.
                unsafe {
                    _mm512_storeu_pd(r.as_mut_ptr(), xr);
                    _mm512_storeu_pd(i.as_mut_ptr(), xi);
                }
            }
        }
    }
}

/// The one block walk every split kernel shares, policy-dispatched: calls
/// `body` on every `R·run` block of the planes, cut into its `R` runs, on
/// `walk`'s compilation. A parallel walk hands each task whole blocks or,
/// when one block spans the planes, the same [`RunBody::GRAIN`]-aligned
/// slice of all `R` runs (each run body is elementwise along its runs, the
/// tile and register-block bodies tile by tile and block by block).
fn split_pass<const R: usize, B: RunBody<R>>(
    re: &mut [f64],
    im: &mut [f64],
    run: usize,
    policy: ExecPolicy,
    walk: Isa,
    body: &B,
) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    let len = re.len();
    let block = R * run;
    debug_assert!(block <= len, "block of {block} out of range");
    if !policy.parallel(len) {
        return walk_on(walk, Blocks::Planes(re, im, run), body);
    }
    policy.install(|| {
        if block < len {
            let chunk = policy.chunk_len(len, block);
            re.par_chunks_mut(chunk)
                .zip(im.par_chunks_mut(chunk))
                .for_each(|(rc, ic)| walk_on(walk, Blocks::Planes(rc, ic, run), body));
            return;
        }
        let chunk = policy.chunk_len(run, B::GRAIN.min(run));
        let mut re_runs = runs::<R>(re, run).map(|r| r.chunks_mut(chunk));
        let mut im_runs = runs::<R>(im, run).map(|r| r.chunks_mut(chunk));
        // Equal runs cut alike: the short last chunks (a multiple of
        // `B::GRAIN.min(run)`, like `chunk`) stay in lockstep.
        let mut tasks: Vec<_> = (0..run.div_ceil(chunk))
            .map(|_| {
                let next = "every run has the same chunk count";
                (
                    re_runs.each_mut().map(|c| c.next().expect(next)),
                    im_runs.each_mut().map(|c| c.next().expect(next)),
                )
            })
            .collect();
        tasks.par_iter_mut().for_each(|(r, i)| {
            let task = Blocks::Runs(r.each_mut().map(take), i.each_mut().map(take));
            walk_on(walk, task, body)
        });
    });
}

/// Checks that `len` amplitudes form a whole state of `n` qubits and that
/// qubit `q` is one of them. The walks cut the state into `2^{q+1}`
/// blocks, so a larger `q` or a ragged tail would leave amplitudes unmixed.
fn check_qubit(q: usize, len: usize) {
    assert!(
        len.is_power_of_two(),
        "state length {len} is not a power of two"
    );
    let n = len.trailing_zeros() as usize;
    assert!(q < n, "qubit {q} out of range for {n} qubits");
}

/// Split-plane Algorithm 1: applies `U` to qubit `q` of the `re`/`im`
/// planes in place, policy-dispatched.
///
/// # Panics
/// If plane lengths differ or are not a power of two, or `q` is out of
/// range.
#[inline]
pub fn apply_mat2_split(re: &mut [f64], im: &mut [f64], q: usize, u: &Mat2, policy: ExecPolicy) {
    check_qubit(q, re.len());
    split_pass(re, im, 1 << q, policy, Isa::detect(), &Mix(mat2_planes(u)));
}

/// The transverse-field mixer `e^{-iβΣᵢXᵢ}` on the `re`/`im` planes:
/// split-plane Algorithm 2 for `U = Mat2::rx(β)` with the RX-specialized
/// body (QOKit's `furx`), in far fewer sweeps over the planes than `n`.
/// On an AVX-512 CPU from n = 6, the first sweep applies qubits 0–5 to each
/// 64-amplitude block in registers, so there are `1 + ⌈(n−6)/2⌉` sweeps
/// (n = 10: 3, n = 14: 5). Elsewhere, and below n = 6, it applies qubits
/// 0–1 to each 4-amplitude tile, so there are `⌈n/2⌉` (n = 10: 5). Each
/// further sweep applies a radix-4 qubit pair `(q, q+1)` to the four `2^q`
/// runs of every `2^{q+2}` block; an odd top qubit gets a single pass.
/// Every amplitude sees the same IEEE operations in the same qubit order
/// as `n` calls of [`apply_mat2_split`] with `Mat2::rx(β)`, so the result
/// has their bits, except the sign of an exactly-zero amplitude component.
/// The sweeps run the block walk this CPU runs widest
/// ([`kernel_isa`](crate::exec::kernel_isa)), with the same bits on
/// either.
///
/// # Panics
/// If plane lengths differ or are not a power of two.
pub fn apply_x_mixer_split(re: &mut [f64], im: &mut [f64], beta: f64, policy: ExecPolicy) {
    x_mixer_split(re, im, beta, policy, Isa::detect());
}

/// [`apply_x_mixer_split`] on a given walk.
fn x_mixer_split(re: &mut [f64], im: &mut [f64], beta: f64, policy: ExecPolicy, walk: Isa) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert!(
        re.len().is_power_of_two(),
        "plane length {} is not a power of two",
        re.len()
    );
    let n = re.len().trailing_zeros() as usize;
    let (s, c) = beta.sin_cos();
    policy.install(|| {
        let mut q = 0;
        // One run spanning the planes: the walk cuts it into whole blocks
        // or, without the register-block pass, whole tiles.
        #[cfg(target_arch = "x86_64")]
        if let Some(body) = rx_block::RxBlocks::new(walk, n, s, c) {
            split_pass(re, im, 1 << n, policy, walk, &body);
            q = rx_block::BLOCK_QUBITS;
        }
        if q == 0 && n >= TILE_QUBITS {
            split_pass(re, im, 1 << n, policy, walk, &RxTiles { s, c });
            q = TILE_QUBITS;
        }
        while q + 2 <= n {
            split_pass(re, im, 1 << q, policy, walk, &RxRadix4 { s, c });
            q += 2;
        }
        if q < n {
            split_pass(re, im, 1 << q, policy, walk, &RxPass { s, c });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::state::StateVec;
    use proptest::prelude::*;

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
            apply_mat2_split(re, im, q, &u, ExecPolicy::serial());
            assert!(
                split.max_abs_diff_interleaved(interleaved.amplitudes()) < 1e-12,
                "qubit {q}"
            );
        }
    }

    #[test]
    fn split_forced_parallel_matches_serial() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(1);
        // A task floor that does not divide the run leaves a short last task.
        let odd = ExecPolicy::rayon().with_min_len(1).with_min_chunk(12);
        let n = 9;
        let u = Mat2::ry(1.3).matmul(&Mat2::rz(0.7));
        for policy in [forced, odd] {
            for q in [0usize, 4, n - 1] {
                let s = random_state(n, 400 + q as u64);
                let mut a = crate::split::SplitStateVec::from(&s);
                let mut b = a.clone();
                {
                    let (re, im) = a.planes_mut();
                    apply_mat2_split(re, im, q, &u, ExecPolicy::serial());
                }
                {
                    let (re, im) = b.planes_mut();
                    apply_mat2_split(re, im, q, &u, policy);
                }
                assert_eq!(
                    a, b,
                    "qubit {q}, {policy:?}: split kernel is split-invariant"
                );
            }
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
    fn x_mixer_sweeps_have_the_generic_bits_at_every_size() {
        // n = 1..=16 covers n below the tile width, odd n (a leftover
        // single pass) and even n, and the top radix-4 block spanning the
        // whole state; the default thresholds go parallel from n = 13.
        let forced = ExecPolicy::rayon()
            .with_threads(2)
            .with_min_len(1)
            .with_min_chunk(1);
        // A task floor that does not divide the run leaves a short last task.
        let odd = forced.with_min_chunk(12);
        let pooled = ExecPolicy::rayon().with_threads(2);
        let same_bits = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (*x == 0.0 && *y == 0.0))
        };
        for n in 1..=16usize {
            let s = crate::split::SplitStateVec::from(&random_state(n, 600 + n as u64));
            let (mut re, mut im) = (s.planes().0.to_vec(), s.planes().1.to_vec());
            // Exact ±0 entries exercise the one allowed difference.
            let len = re.len();
            for k in (0..len).step_by(5) {
                re[k] = 0.0;
                im[(k + 2) % len] = -0.0;
            }
            for beta in [0.59, std::f64::consts::FRAC_PI_2] {
                let (mut re_ref, mut im_ref) = (re.clone(), im.clone());
                for q in 0..n {
                    apply_mat2_split(
                        &mut re_ref,
                        &mut im_ref,
                        q,
                        &Mat2::rx(beta),
                        ExecPolicy::serial(),
                    );
                }
                let mut policies = vec![ExecPolicy::serial(), forced, odd];
                if n >= 15 {
                    policies.push(pooled);
                }
                for policy in policies {
                    let (mut re_rx, mut im_rx) = (re.clone(), im.clone());
                    apply_x_mixer_split(&mut re_rx, &mut im_rx, beta, policy);
                    assert!(
                        same_bits(&re_rx, &re_ref),
                        "re, n = {n}, beta = {beta}, {policy:?}"
                    );
                    assert!(
                        same_bits(&im_rx, &im_ref),
                        "im, n = {n}, beta = {beta}, {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn x_mixer_rejects_a_non_power_of_two_length() {
        let (mut re, mut im) = (vec![0.5; 6], vec![0.0; 6]);
        apply_x_mixer_split(&mut re, &mut im, 0.3, ExecPolicy::serial());
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn uniform_mat2_rejects_a_non_power_of_two_length() {
        let mut amps = vec![C64::ONE; 6];
        apply_uniform_mat2(&mut amps, &Mat2::rx(0.3), ExecPolicy::serial());
    }

    /// Every compilation of the walk this CPU runs has the portable walk's
    /// bits: the X mixer at n = 1–16 (runs on both sides of the AVX-512
    /// walk's 8-double floor, the tile sweep and the odd top pass) and
    /// `Mat2` on every qubit, each serial, forced onto 2 workers, and with a
    /// task floor of 12 that leaves parallel slices shorter than 8.
    #[test]
    fn the_detected_walk_has_the_portable_walks_bits() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            assert_eq!(
                Isa::detect(),
                Isa::Avx512,
                "an AVX-512 CPU runs the AVX-512 walk"
            );
        } else if is_x86_feature_detected!("avx2") {
            assert_eq!(Isa::detect(), Isa::Avx2, "an AVX2 CPU runs the AVX2 walk");
        }
        let wide = Isa::wider();
        // Written past the test harness's output capture, so every test
        // log names the walks that were compared.
        use std::io::Write;
        let names: Vec<&str> = wide.iter().map(|isa| isa.name()).collect();
        let _ = writeln!(
            std::io::stderr(),
            "su2: comparing the [{}] block walks with the portable walk",
            names.join(", ")
        );
        let forced = ExecPolicy::rayon()
            .with_threads(2)
            .with_min_len(1)
            .with_min_chunk(1);
        // A task floor that does not divide the run leaves a short last task.
        let odd = forced.with_min_chunk(12);
        let policies = [ExecPolicy::serial(), forced, odd];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 1..=16usize {
            let s = crate::split::SplitStateVec::from(&random_state(n, 700 + n as u64));
            let (mut re, mut im) = (s.planes().0.to_vec(), s.planes().1.to_vec());
            let len = re.len();
            for k in (0..len).step_by(5) {
                re[k] = 0.0;
                im[(k + 2) % len] = -0.0;
            }
            for beta in [0.59, std::f64::consts::FRAC_PI_2] {
                for policy in policies {
                    let (mut re_p, mut im_p) = (re.clone(), im.clone());
                    x_mixer_split(&mut re_p, &mut im_p, beta, policy, Isa::Portable);
                    for &isa in &wide {
                        let (mut re_w, mut im_w) = (re.clone(), im.clone());
                        x_mixer_split(&mut re_w, &mut im_w, beta, policy, isa);
                        let at = format!("X mixer, {isa:?}, n = {n}, beta = {beta}, {policy:?}");
                        assert_eq!(bits(&re_w), bits(&re_p), "re, {at}");
                        assert_eq!(bits(&im_w), bits(&im_p), "im, {at}");
                    }
                }
            }
            for q in 0..n {
                let ab = random_state(1, 800 + (n * 16 + q) as u64);
                let u = Mat2::su2(ab.amplitudes()[0], ab.amplitudes()[1]);
                let body = Mix(mat2_planes(&u));
                for policy in policies {
                    let (mut re_p, mut im_p) = (re.clone(), im.clone());
                    split_pass(&mut re_p, &mut im_p, 1 << q, policy, Isa::Portable, &body);
                    for &isa in &wide {
                        let (mut re_w, mut im_w) = (re.clone(), im.clone());
                        split_pass(&mut re_w, &mut im_w, 1 << q, policy, isa, &body);
                        let at = format!("Mat2, {isa:?}, n = {n}, qubit {q}, {policy:?}");
                        assert_eq!(bits(&re_w), bits(&re_p), "re, {at}");
                        assert_eq!(bits(&im_w), bits(&im_p), "im, {at}");
                    }
                }
            }
        }
    }

    /// Strategy: a plane entry that is +0, −0 or a subnormal of either sign
    /// an eighth of the time each, and uniform in [−1, 1) otherwise.
    fn plane_entry() -> impl Strategy<Value = f64> {
        (0usize..8, -1.0f64..1.0, 1u64..1 << 52).prop_map(|(k, x, m)| match k {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(m),
            3 => -f64::from_bits(m),
            _ => x,
        })
    }

    /// Strategy: `re`/`im` planes on 1..=14 qubits. In a quarter of the
    /// cases one entry is the NaN `0x7ff80000deadbeef`; the mixer carries
    /// it to every amplitude, so one NaN per case is the most that shows.
    fn x_mixer_planes() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        (1usize..=14, 0usize..4, 0usize..1 << 14).prop_flat_map(|(n, nan, at)| {
            let plane = || prop::collection::vec(plane_entry(), 1usize << n);
            (plane(), plane()).prop_map(move |(mut re, im)| {
                if nan == 0 {
                    re[at % (1 << n)] = f64::from_bits(0x7ff8_0000_dead_beef);
                }
                (re, im)
            })
        })
    }

    /// Strategy: a mixer angle that is exactly 0, ±π/2 or π half the time
    /// and uniform in [−4, 4) otherwise.
    fn beta() -> impl Strategy<Value = f64> {
        use std::f64::consts::{FRAC_PI_2, PI};
        (0usize..8, -4.0f64..4.0).prop_map(|(k, x)| match k {
            0 => 0.0,
            1 => FRAC_PI_2,
            2 => -FRAC_PI_2,
            3 => PI,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The X mixer's plan on every compilation this CPU runs (on an
        /// AVX-512 CPU from n = 6, the register-block pass) has the
        /// portable plan's bits: serial, on 2 workers with parallel slices
        /// that must round up to whole 64-amplitude blocks, and with task
        /// floors of 12 and 64 amplitudes.
        #[test]
        fn every_x_mixer_plan_has_the_portable_bits(
            (re, im) in x_mixer_planes(),
            beta in beta(),
        ) {
            let wide = Isa::wider();
            static NAMED: std::sync::Once = std::sync::Once::new();
            NAMED.call_once(|| {
                // Past the harness's output capture, in one write so no
                // progress output lands inside it: every test log names the
                // plans that were compared.
                use std::io::Write;
                let names: Vec<&str> = wide.iter().map(|isa| isa.name()).collect();
                let line = format!(
                    "su2: X mixer plans compared with the portable plan: [{}]\n",
                    names.join(", ")
                );
                let _ = std::io::stderr().write_all(line.as_bytes());
            });
            let forced = ExecPolicy::rayon()
                .with_threads(2)
                .with_min_len(1)
                .with_min_chunk(1);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let n = re.len().trailing_zeros();
            for policy in [
                ExecPolicy::serial(),
                forced,
                forced.with_min_chunk(12),
                forced.with_min_chunk(64),
            ] {
                let (mut re_p, mut im_p) = (re.clone(), im.clone());
                x_mixer_split(&mut re_p, &mut im_p, beta, policy, Isa::Portable);
                for &isa in &wide {
                    let (mut re_w, mut im_w) = (re.clone(), im.clone());
                    x_mixer_split(&mut re_w, &mut im_w, beta, policy, isa);
                    let at = format!("{isa:?}, n = {n}, beta = {beta}, {policy:?}");
                    prop_assert_eq!(bits(&re_w), bits(&re_p), "re, {}", at);
                    prop_assert_eq!(bits(&im_w), bits(&im_p), "im, {}", at);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "qubit 4 out of range for 4 qubits")]
    fn split_mat2_rejects_an_out_of_range_qubit_serially() {
        let (mut re, mut im) = (vec![0.25; 16], vec![0.0; 16]);
        apply_mat2_split(&mut re, &mut im, 4, &Mat2::hadamard(), ExecPolicy::serial());
    }

    #[test]
    #[should_panic(expected = "qubit 4 out of range for 4 qubits")]
    fn split_mat2_rejects_an_out_of_range_qubit_in_parallel() {
        let forced = ExecPolicy::rayon()
            .with_threads(2)
            .with_min_len(1)
            .with_min_chunk(1);
        let (mut re, mut im) = (vec![0.25; 16], vec![0.0; 16]);
        apply_mat2_split(&mut re, &mut im, 4, &Mat2::hadamard(), forced);
    }

    #[test]
    #[should_panic(expected = "qubit 7 out of range for 4 qubits")]
    fn mat2_rejects_an_out_of_range_qubit_serially() {
        let mut amps = vec![C64::ONE; 16];
        apply_mat2(&mut amps, 7, &Mat2::hadamard(), ExecPolicy::serial());
    }

    #[test]
    #[should_panic(expected = "state length 6 is not a power of two")]
    fn mat2_rejects_a_non_power_of_two_length() {
        // Qubit 1's 4-amplitude block fits once; the last 2 would stay unmixed.
        let mut amps = vec![C64::ONE; 6];
        apply_mat2(&mut amps, 1, &Mat2::hadamard(), ExecPolicy::serial());
    }

    #[test]
    #[should_panic(expected = "qubit 4 out of range for 4 qubits")]
    fn mat2_rejects_an_out_of_range_qubit_in_parallel() {
        let forced = ExecPolicy::rayon()
            .with_threads(2)
            .with_min_len(1)
            .with_min_chunk(1);
        let mut amps = vec![C64::ONE; 16];
        apply_mat2(&mut amps, 4, &Mat2::hadamard(), forced);
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
