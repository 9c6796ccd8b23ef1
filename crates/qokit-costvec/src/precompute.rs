//! Cost-vector precomputation (§III-A of the paper).
//!
//! Two algorithms compute `c_x = f(x)` for all `2^n` bitstrings:
//!
//! * **Direct kernel** — the paper's approach: for every vector element,
//!   iterate the terms and evaluate `w_k·(−1)^{popcount(x & m_k)}` with
//!   bitwise-XOR/popcount. `O(|T|·2^n)` work, perfectly local (element `x`
//!   depends on nothing else), which is why the paper's GPU kernel and the
//!   distributed per-rank precompute need no communication. We run it
//!   serially or rayon-parallel over chunks.
//!
//! * **FWHT spectrum** — our CPU substitute for the GPU kernel's raw
//!   throughput: Eq. 1 says `f` *is* a sparse Walsh spectrum
//!   (`f = WHT[ŵ]` with `ŵ[m_k] = w_k`), so scattering the weights and
//!   running one fast Walsh–Hadamard transform evaluates every `f(x)` in
//!   `O(n·2^n)` — independent of `|T|`, a large win for LABS where
//!   `|T| ≈ 87n`. Both algorithms are exact; tests assert they agree.

use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::fwht::fwht_f64;
use qokit_statevec::state::checked_dim;
use qokit_terms::SpinPolynomial;
use rayon::prelude::*;

/// Which precomputation algorithm to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PrecomputeMethod {
    /// Per-element term iteration (the paper's GPU kernel).
    Direct,
    /// Sparse-Walsh-spectrum FWHT (`O(n·2^n)`, `|T|`-independent).
    Fwht,
}

/// Fills `out[i] = f(start + i)` for a contiguous index window — the
/// building block for both the single-node vector and the distributed
/// per-rank slices (where `start` is the rank's global offset).
pub fn fill_direct_slice(poly: &SpinPolynomial, start: u64, out: &mut [f64]) {
    let terms = poly.terms();
    for (i, o) in out.iter_mut().enumerate() {
        let x = start + i as u64;
        let mut acc = 0.0;
        for t in terms {
            acc += t.eval_bits(x);
        }
        *o = acc;
    }
}

/// Direct-kernel precompute of the full `2^n` cost vector.
///
/// # Panics
/// If `n > MAX_QUBITS`, before anything is allocated.
pub fn precompute_direct(poly: &SpinPolynomial, policy: ExecPolicy) -> Vec<f64> {
    let n = poly.n_vars();
    let dim = checked_dim(n);
    let mut out = vec![0.0f64; dim];
    if policy.parallel(dim) {
        let chunk = policy.min_chunk;
        policy.install(|| {
            out.par_chunks_mut(chunk).enumerate().for_each(|(ci, c)| {
                fill_direct_slice(poly, (ci * chunk) as u64, c);
            });
        });
    } else {
        fill_direct_slice(poly, 0, &mut out);
    }
    out
}

/// FWHT-spectrum precompute of the full `2^n` cost vector.
///
/// # Panics
/// If `n > MAX_QUBITS`, before anything is allocated.
pub fn precompute_fwht(poly: &SpinPolynomial, exec: ExecPolicy) -> Vec<f64> {
    let n = poly.n_vars();
    let dim = checked_dim(n);
    let mut out = vec![0.0f64; dim];
    for t in poly.terms() {
        // Duplicate masks simply accumulate — no canonicalization needed.
        out[t.mask as usize] += t.weight;
    }
    fwht_f64(&mut out, exec);
    out
}

/// Dispatches on [`PrecomputeMethod`].
pub fn precompute(poly: &SpinPolynomial, method: PrecomputeMethod, exec: ExecPolicy) -> Vec<f64> {
    match method {
        PrecomputeMethod::Direct => precompute_direct(poly, exec),
        PrecomputeMethod::Fwht => precompute_fwht(poly, exec),
    }
}

/// Precomputes from an arbitrary cost closure (`f(bitstring) → cost`), the
/// analogue of QOKit's Python-lambda input path. Always direct (a closure
/// has no Walsh spectrum to exploit).
///
/// # Panics
/// If `n > MAX_QUBITS`, before anything is allocated.
pub fn precompute_from_fn<F>(n: usize, f: F, policy: ExecPolicy) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    let dim = checked_dim(n);
    let mut out = vec![0.0f64; dim];
    if policy.parallel(dim) {
        policy.install(|| {
            out.par_iter_mut()
                .with_min_len(policy.min_chunk)
                .enumerate()
                .for_each(|(x, o)| *o = f(x as u64));
        });
    } else {
        for (x, o) in out.iter_mut().enumerate() {
            *o = f(x as u64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_terms::labs::{labs_terms, sidelobe_energy};
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::{Graph, SpinPolynomial, Term};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_poly(n: usize, n_terms: usize, seed: u64) -> SpinPolynomial {
        let mut rng = StdRng::seed_from_u64(seed);
        let terms = (0..n_terms)
            .map(|_| {
                let mask = rng.gen_range(0..(1u64 << n));
                Term::from_mask(rng.gen_range(-2.0..2.0), mask)
            })
            .collect();
        SpinPolynomial::new(n, terms)
    }

    #[test]
    fn direct_matches_pointwise_evaluation() {
        let poly = random_poly(8, 20, 1);
        let costs = precompute_direct(&poly, ExecPolicy::serial());
        for (x, &c) in costs.iter().enumerate() {
            assert!((c - poly.evaluate_bits(x as u64)).abs() < 1e-12);
        }
    }

    #[test]
    fn fwht_matches_direct_random_polys() {
        for seed in 0..5 {
            let poly = random_poly(9, 30, seed);
            let direct = precompute_direct(&poly, ExecPolicy::serial());
            let fwht = precompute_fwht(&poly, ExecPolicy::serial());
            for (i, (a, b)) in direct.iter().zip(fwht.iter()).enumerate() {
                assert!((a - b).abs() < 1e-9, "seed {seed}, index {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fwht_matches_direct_labs() {
        let poly = labs_terms(10);
        let direct = precompute_direct(&poly, ExecPolicy::serial());
        let fwht = precompute_fwht(&poly, ExecPolicy::serial());
        for (a, b) in direct.iter().zip(fwht.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn labs_cost_vector_encodes_energies() {
        let n = 9;
        let poly = labs_terms(n);
        let costs = precompute_fwht(&poly, ExecPolicy::serial());
        for (x, &c) in costs.iter().enumerate() {
            let e = qokit_terms::labs::paper_cost_to_energy(c, n);
            assert_eq!(e as i64, sidelobe_energy(x as u64, n), "x = {x:b}");
        }
    }

    #[test]
    fn rayon_matches_serial() {
        let poly = random_poly(14, 25, 7);
        let s_direct = precompute_direct(&poly, ExecPolicy::serial());
        let p_direct = precompute_direct(&poly, ExecPolicy::rayon());
        assert_eq!(s_direct, p_direct, "direct kernel must be deterministic");
        let s_fwht = precompute_fwht(&poly, ExecPolicy::serial());
        let p_fwht = precompute_fwht(&poly, ExecPolicy::rayon());
        for (a, b) in s_fwht.iter().zip(p_fwht.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn forced_parallel_matches_serial_small() {
        // Engage the parallel path on a small instance regardless of the
        // machine's default thresholds.
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(8);
        let poly = random_poly(9, 20, 13);
        assert_eq!(
            precompute_direct(&poly, ExecPolicy::serial()),
            precompute_direct(&poly, forced),
        );
        let s = precompute_fwht(&poly, ExecPolicy::serial());
        let p = precompute_fwht(&poly, forced);
        for (a, b) in s.iter().zip(p.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn slices_tile_the_full_vector() {
        let poly = maxcut_polynomial(&Graph::ring(8, 1.0));
        let full = precompute_direct(&poly, ExecPolicy::serial());
        let k = 4;
        let slice_len = full.len() / k;
        for r in 0..k {
            let mut slice = vec![0.0; slice_len];
            fill_direct_slice(&poly, (r * slice_len) as u64, &mut slice);
            assert_eq!(&full[r * slice_len..(r + 1) * slice_len], &slice[..]);
        }
    }

    #[test]
    fn duplicate_masks_accumulate_in_fwht() {
        let poly = SpinPolynomial::new(3, vec![Term::new(1.0, &[0, 1]), Term::new(2.0, &[0, 1])]);
        let direct = precompute_direct(&poly, ExecPolicy::serial());
        let fwht = precompute_fwht(&poly, ExecPolicy::serial());
        assert_eq!(direct, fwht);
        assert_eq!(direct[0], 3.0);
    }

    #[test]
    fn from_fn_matches_direct() {
        let poly = random_poly(7, 15, 3);
        let via_fn = precompute_from_fn(7, |x| poly.evaluate_bits(x), ExecPolicy::serial());
        let direct = precompute_direct(&poly, ExecPolicy::serial());
        for (a, b) in via_fn.iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let via_fn_par = precompute_from_fn(7, |x| poly.evaluate_bits(x), ExecPolicy::rayon());
        assert_eq!(via_fn, via_fn_par);
    }

    /// A qubit count past `MAX_QUBITS` is a panic that names the limit,
    /// not an allocation abort (n = 48) or a shift overflow (n = 64).
    #[test]
    fn oversized_cost_vectors_panic_before_allocating() {
        let message = |n: usize, run: &dyn Fn() -> Vec<f64>| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("an oversized precompute must panic");
            let text = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(text, format!("n = {n} exceeds MAX_QUBITS = 40"));
        };
        for n in [48usize, 64] {
            let ring = maxcut_polynomial(&Graph::ring(n, 1.0));
            message(n, &|| precompute_direct(&ring, ExecPolicy::serial()));
            message(n, &|| precompute_fwht(&ring, ExecPolicy::serial()));
            message(n, &|| precompute_from_fn(n, |_| 0.0, ExecPolicy::serial()));
        }
    }

    #[test]
    fn constant_polynomial_fills_uniformly() {
        let poly = SpinPolynomial::new(4, vec![Term::constant(2.5)]);
        for method in [PrecomputeMethod::Direct, PrecomputeMethod::Fwht] {
            let costs = precompute(&poly, method, ExecPolicy::serial());
            assert!(costs.iter().all(|&c| (c - 2.5).abs() < 1e-12));
        }
    }
}
