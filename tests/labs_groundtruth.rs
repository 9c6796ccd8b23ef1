//! LABS ground-truth validation: the optimal-energy table shipped in
//! `qokit-terms` is re-derived from scratch through the cost-vector
//! precompute — the same code path the simulators rely on for overlap
//! computations.

use qokit::costvec::{precompute_fwht, CostVec, PrecomputeMethod};
use qokit::prelude::*;
use qokit::terms::labs;

/// Minimum LABS energy via the FWHT cost vector (fast enough for n ≈ 20+).
fn min_energy_via_costvec(n: usize) -> i64 {
    let poly = labs::energy_polynomial(n);
    let costs = precompute_fwht(&poly, ExecPolicy::rayon());
    costs.iter().copied().fold(f64::INFINITY, f64::min).round() as i64
}

#[test]
fn known_optima_rederived_up_to_18() {
    for n in 3..=18 {
        assert_eq!(
            min_energy_via_costvec(n),
            labs::known_optimal_energy(n).unwrap(),
            "optimal LABS energy mismatch at n = {n}"
        );
    }
}

#[test]
#[ignore = "n = 19..=24 takes a few minutes in release mode"]
fn known_optima_rederived_up_to_24() {
    for n in 19..=24 {
        assert_eq!(
            min_energy_via_costvec(n),
            labs::known_optimal_energy(n).unwrap(),
            "optimal LABS energy mismatch at n = {n}"
        );
    }
}

#[test]
fn paper_terms_and_energy_polynomial_share_minimizers() {
    for n in [8usize, 11, 14] {
        let paper = labs::labs_terms(n);
        let energy = labs::energy_polynomial(n);
        let cv_paper =
            CostVec::from_polynomial(&paper, PrecomputeMethod::Fwht, ExecPolicy::serial());
        let cv_energy =
            CostVec::from_polynomial(&energy, PrecomputeMethod::Fwht, ExecPolicy::serial());
        assert_eq!(
            cv_paper.ground_state_indices(1e-9),
            cv_energy.ground_state_indices(1e-9),
            "n = {n}"
        );
    }
}

#[test]
fn ground_state_count_matches_symmetry_orbit() {
    // LABS energies are invariant under negation, reversal, and
    // alternating-sign flip, so optimal sets come in orbits whose size
    // divides 8; every orbit member must appear in the ground set.
    let n = 13;
    let poly = labs::energy_polynomial(n);
    let costs = precompute_fwht(&poly, ExecPolicy::serial());
    let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let ground: Vec<u64> = (0..costs.len() as u64)
        .filter(|&x| costs[x as usize] <= min + 1e-9)
        .collect();
    let mask = (1u64 << n) - 1;
    for &x in &ground {
        let neg = !x & mask;
        let rev = (0..n).fold(0u64, |acc, i| acc | (((x >> i) & 1) << (n - 1 - i)));
        assert!(ground.contains(&neg), "negation of {x:b} missing");
        assert!(ground.contains(&rev), "reversal of {x:b} missing");
    }
    // Barker-13 has E = 6 and (with its symmetric partners) a small orbit.
    assert_eq!(min as i64, 6);
}

#[test]
fn merit_factors_consistent_with_energy_table() {
    for n in 3..=32 {
        let e = labs::known_optimal_energy(n).unwrap() as f64;
        let mf = labs::optimal_merit_factor(n).unwrap();
        assert!((mf - (n * n) as f64 / (2.0 * e)).abs() < 1e-12);
        // Merit factors of optimal sequences sit in a narrow band.
        assert!(mf > 2.0 && mf < 15.0, "n = {n}: MF = {mf}");
    }
}

#[test]
fn term_count_closed_form() {
    // |T| of the paper polynomial: Σ over the structure of the triple sum.
    // Cross-check the generator against an independent O(n³) count.
    for n in [6usize, 10, 17, 25, 31] {
        let mut four = 0usize;
        for i in 0..n {
            for t in 1..n {
                for k in t + 1..n {
                    if i + k + t < n {
                        four += 1;
                    }
                }
            }
        }
        let mut two = 0usize;
        for i in 0..n {
            for k in 1..n {
                if i + 2 * k < n {
                    two += 1;
                }
            }
        }
        let poly = labs::labs_terms(n);
        assert_eq!(poly.num_terms(), four + two, "n = {n}");
    }
}

#[test]
fn quantization_headroom_for_large_n() {
    // §V-B: "maximum values of f are known for n < 65 and they are less
    // than 2^16" — check the weight-norm bound stays under u16 range for
    // the sizes the paper ran (the bound is loose but already fits).
    for n in [20usize, 31, 40] {
        let poly = labs::labs_terms(n);
        let span_bound = 2.0 * poly.weight_norm();
        if n <= 20 {
            let costs = precompute_fwht(&poly, ExecPolicy::rayon());
            let q = CostVec::quantize_exact(&costs, 1.0);
            assert!(q.is_ok(), "n = {n} must quantize exactly");
        }
        // The true span is far below the weight-norm bound; record that the
        // bound itself is within an order of magnitude of 2^16 at n = 40.
        assert!(span_bound < 1.0e6, "n = {n}: bound {span_bound}");
    }
}
