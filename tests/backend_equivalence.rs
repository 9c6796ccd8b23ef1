//! Property-based Serial-vs-Rayon equivalence across the kernel stack.
//!
//! The whole architecture rests on one claim: the parallel kernels compute
//! the *same function* as their serial twins — only the executor differs.
//! These properties pin it down for random inputs and random sizes, with a
//! forced-parallel [`ExecPolicy`] (`min_len = 1`, tiny `min_chunk`) so the
//! parallel code paths genuinely engage even on small vectors and 1-core
//! CI machines.
//!
//! Elementwise kernels (phase, SU(2), SU(4), FWHT butterflies) must agree
//! to ≤1e-12 per amplitude (they are in fact bit-identical: the split only
//! partitions the index space). Reductions (energies) may differ by
//! floating-point association, bounded far below 1e-12 at these sizes.

use proptest::prelude::*;
use qokit::costvec::PrecomputeMethod;
use qokit::prelude::*;
use qokit::statevec::fwht::{fwht, fwht_f64};
use qokit::statevec::su2::apply_mat2;
use qokit::statevec::su4::{apply_mat4, apply_xy};
use qokit::statevec::{Mat2, Mat4};

/// The forced-parallel policy: every sweep takes the pool path.
fn forced() -> ExecPolicy {
    ExecPolicy::rayon().with_min_len(1).with_min_chunk(4)
}

/// Strategy: a normalized random state on `n` qubits, `n` drawn from range.
fn state_strategy(n_range: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = StateVec> {
    n_range.prop_flat_map(|n| {
        prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1 << n).prop_map(|pairs| {
            let mut s = StateVec::from_amplitudes(
                pairs.into_iter().map(|(re, im)| C64::new(re, im)).collect(),
            );
            s.normalize();
            s
        })
    })
}

/// Strategy: a random spin polynomial on `n` variables.
fn poly_strategy(n: usize, max_terms: usize) -> impl Strategy<Value = SpinPolynomial> {
    prop::collection::vec(
        (
            -2.0f64..2.0,
            prop::bits::u64::between(0, n).prop_map(move |m| m & ((1u64 << n) - 1)),
        ),
        1..max_terms,
    )
    .prop_map(move |pairs| {
        SpinPolynomial::new(
            n,
            pairs
                .into_iter()
                .map(|(w, m)| Term::from_mask(w, m))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fwht_backends_agree(state in state_strategy(2..=11)) {
        let mut a = state.clone();
        let mut b = state;
        fwht(a.amplitudes_mut(), ExecPolicy::serial());
        fwht(b.amplitudes_mut(), forced());
        prop_assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn fwht_f64_backends_agree(vals in prop::collection::vec(-1.0f64..1.0, 256)) {
        let mut a = vals.clone();
        let mut b = vals;
        fwht_f64(&mut a, ExecPolicy::serial());
        fwht_f64(&mut b, forced());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn su2_backends_agree(state in state_strategy(2..=10), theta in -3.0f64..3.0) {
        let n = state.n_qubits();
        let u = Mat2::rx(theta).matmul(&Mat2::rz(theta * 0.5));
        for q in 0..n {
            let mut a = state.clone();
            let mut b = state.clone();
            apply_mat2(a.amplitudes_mut(), q, &u, ExecPolicy::serial());
            apply_mat2(b.amplitudes_mut(), q, &u, forced());
            prop_assert!(a.max_abs_diff(&b) < 1e-12, "qubit {q}");
        }
    }

    #[test]
    fn su4_backends_agree(state in state_strategy(3..=9), theta in -3.0f64..3.0) {
        let n = state.n_qubits();
        let u = Mat4::xx_plus_yy(theta).matmul(&Mat4::rzz(theta * 0.3));
        for (qa, qb) in [(0, 1), (0, n - 1), (n / 2, n - 1), (n - 1, 0)] {
            if qa == qb {
                continue;
            }
            let mut a = state.clone();
            let mut b = state.clone();
            apply_mat4(a.amplitudes_mut(), qa, qb, &u, ExecPolicy::serial());
            apply_mat4(b.amplitudes_mut(), qa, qb, &u, forced());
            prop_assert!(a.max_abs_diff(&b) < 1e-12, "pair ({qa},{qb})");

            let mut c = state.clone();
            let mut d = state.clone();
            apply_xy(c.amplitudes_mut(), qa, qb, theta, ExecPolicy::serial());
            apply_xy(d.amplitudes_mut(), qa, qb, theta, forced());
            prop_assert!(c.max_abs_diff(&d) < 1e-12, "xy pair ({qa},{qb})");
        }
    }

    #[test]
    fn diag_backends_agree(state in state_strategy(4..=11), gamma in -2.0f64..2.0) {
        let costs: Vec<f64> = (0..state.dim()).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let mut a = state.clone();
        let mut b = state.clone();
        qokit::statevec::diag::apply_phase(a.amplitudes_mut(), &costs, gamma, ExecPolicy::serial());
        qokit::statevec::diag::apply_phase(b.amplitudes_mut(), &costs, gamma, forced());
        prop_assert!(a.max_abs_diff(&b) < 1e-12);

        let e_s = qokit::statevec::diag::expectation(a.amplitudes(), &costs, ExecPolicy::serial());
        let e_p = qokit::statevec::diag::expectation(b.amplitudes(), &costs, forced());
        prop_assert!((e_s - e_p).abs() < 1e-12, "{e_s} vs {e_p}");
    }

    #[test]
    fn precompute_backends_agree(poly in poly_strategy(9, 24)) {
        let s = qokit::costvec::precompute_direct(&poly, ExecPolicy::serial());
        let p = qokit::costvec::precompute_direct(&poly, forced());
        prop_assert!(s == p, "direct precompute must be bit-identical");
        let sf = qokit::costvec::precompute_fwht(&poly, ExecPolicy::serial());
        let pf = qokit::costvec::precompute_fwht(&poly, forced());
        for (a, b) in sf.iter().zip(pf.iter()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn full_simulator_backends_agree(
        poly in poly_strategy(8, 20),
        gammas in prop::collection::vec(-1.0f64..1.0, 3),
        betas in prop::collection::vec(-1.0f64..1.0, 3),
    ) {
        for mixer in [Mixer::X, Mixer::XyRing] {
            let serial = FurSimulator::with_options(&poly, SimOptions {
                mixer,
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            });
            let parallel = FurSimulator::with_options(&poly, SimOptions {
                mixer,
                exec: forced(),
                ..SimOptions::default()
            });
            let rs = serial.simulate_qaoa(&gammas, &betas);
            let rp = parallel.simulate_qaoa(&gammas, &betas);
            prop_assert!(
                rs.state().max_abs_diff(rp.state()) < 1e-12,
                "{mixer:?}: states diverged"
            );
            let es = serial.get_expectation(&rs);
            let ep = parallel.get_expectation(&rp);
            prop_assert!((es - ep).abs() < 1e-12, "{mixer:?}: {es} vs {ep}");
            prop_assert!((serial.get_overlap(&rs) - parallel.get_overlap(&rp)).abs() < 1e-12);
        }
    }

    #[test]
    fn quantized_simulator_backends_agree(
        gammas in prop::collection::vec(-1.0f64..1.0, 2),
        betas in prop::collection::vec(-1.0f64..1.0, 2),
    ) {
        // LABS has an integer cost grid, so the u16 path is exact.
        let poly = qokit::terms::labs::labs_terms(9);
        let serial = FurSimulator::with_options(&poly, SimOptions {
            quantize_u16: true,
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        });
        let parallel = FurSimulator::with_options(&poly, SimOptions {
            quantize_u16: true,
            exec: forced(),
            ..SimOptions::default()
        });
        let rs = serial.simulate_qaoa(&gammas, &betas);
        let rp = parallel.simulate_qaoa(&gammas, &betas);
        prop_assert!(rs.state().max_abs_diff(rp.state()) < 1e-12);
        prop_assert!((serial.get_expectation(&rs) - parallel.get_expectation(&rp)).abs() < 1e-12);
    }
}

/// Deterministic (non-property) check that an explicitly-sized policy pool
/// reproduces ambient-pool results, end to end.
#[test]
fn explicit_thread_counts_agree_end_to_end() {
    let poly = qokit::terms::labs::labs_terms(10);
    let (g, b) = ([0.21, 0.48], [0.9, 0.36]);
    let reference = FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    )
    .simulate_qaoa(&g, &b);
    for threads in [1usize, 2, 4] {
        let sim = FurSimulator::with_options(
            &poly,
            SimOptions {
                exec: ExecPolicy::rayon()
                    .with_threads(threads)
                    .with_min_len(1)
                    .with_min_chunk(8),
                ..SimOptions::default()
            },
        );
        let r = sim.simulate_qaoa(&g, &b);
        assert!(
            reference.state().max_abs_diff(r.state()) < 1e-12,
            "threads = {threads}"
        );
    }
}

/// CostVec-level equivalence across representations and backends.
#[test]
fn costvec_phase_and_energy_backends_agree() {
    let poly = qokit::terms::labs::labs_terms(11);
    let cv = CostVec::from_polynomial(&poly, PrecomputeMethod::Fwht, ExecPolicy::serial());
    let q = CostVec::quantize_exact(&cv.to_f64_vec(), 1.0).expect("LABS costs are integral");
    let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(64);
    for costs in [&cv, &q] {
        let mut a = StateVec::uniform_superposition(11);
        let mut b = a.clone();
        costs.apply_phase(a.amplitudes_mut(), 0.37, ExecPolicy::serial());
        costs.apply_phase(b.amplitudes_mut(), 0.37, forced);
        assert!(a.max_abs_diff(&b) < 1e-12);
        let es = costs.expectation(a.amplitudes(), ExecPolicy::serial());
        let ep = costs.expectation(b.amplitudes(), forced);
        assert!((es - ep).abs() < 1e-10, "{es} vs {ep}");
    }
}
