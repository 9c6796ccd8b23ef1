//! Property-based interleaved-vs-split layout equivalence.
//!
//! The split-complex layer's contract (see `qokit_statevec::split`):
//!
//! * interleaved ↔ split conversion is a pure transpose — round trips are
//!   **bit-identical**;
//! * every `*_split` kernel computes the same function as its interleaved
//!   twin to ≤1e-12 per amplitude (FWHT and diagonal phase are in fact
//!   bit-identical; SU(2)/SU(4) may differ by summation association);
//! * the full simulator agrees across {Interleaved, Split} ×
//!   {Serial, Rayon} × pool sizes {1, 2, 4}, pinned against the
//!   `reference` oracle.
//!
//! Forced-parallel policies (`min_len = 1`, tiny `min_chunk`) make the pool
//! paths engage even on small vectors and 1-core CI machines.

use proptest::prelude::*;
use qokit::prelude::*;
use qokit::statevec::fwht::{fwht, fwht_split};
use qokit::statevec::su2::{apply_mat2, apply_mat2_split};
use qokit::statevec::su4::{apply_xy, apply_xy_split};
use qokit::statevec::{reference, Mat2};

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
    fn round_trip_is_bit_identical(state in state_strategy(1..=10)) {
        let split = SplitStateVec::from(&state);
        let back = split.clone().into_state_vec();
        prop_assert_eq!(state.amplitudes(), back.amplitudes());
        prop_assert_eq!(split.max_abs_diff_interleaved(state.amplitudes()), 0.0);
    }

    #[test]
    fn fwht_split_matches_interleaved(state in state_strategy(2..=10)) {
        let mut inter = state.clone();
        let mut split = SplitStateVec::from(&state);
        fwht(inter.amplitudes_mut(), ExecPolicy::serial());
        {
            let (re, im) = split.planes_mut();
            fwht_split(re, im, ExecPolicy::serial());
        }
        // The complex butterfly never mixes planes: exact equality.
        prop_assert_eq!(split.max_abs_diff_interleaved(inter.amplitudes()), 0.0);

        let mut par = SplitStateVec::from(&state);
        let (re, im) = par.planes_mut();
        fwht_split(re, im, forced());
        prop_assert_eq!(&par, &split);
    }

    #[test]
    fn su2_split_matches_interleaved(state in state_strategy(2..=10), theta in -3.0f64..3.0) {
        let n = state.n_qubits();
        let u = Mat2::rx(theta).matmul(&Mat2::rz(theta * 0.5));
        for q in 0..n {
            let mut inter = state.clone();
            let mut split = SplitStateVec::from(&state);
            apply_mat2(inter.amplitudes_mut(), q, &u, ExecPolicy::serial());
            {
                let (re, im) = split.planes_mut();
                apply_mat2_split(re, im, q, &u, ExecPolicy::serial());
            }
            prop_assert!(split.max_abs_diff_interleaved(inter.amplitudes()) < 1e-12, "qubit {q}");

            let mut par = SplitStateVec::from(&state);
            let (re, im) = par.planes_mut();
            apply_mat2_split(re, im, q, &u, forced());
            prop_assert_eq!(&par, &split, "qubit {}", q);
        }
    }

    #[test]
    fn su4_split_matches_interleaved(state in state_strategy(3..=9), theta in -3.0f64..3.0) {
        let n = state.n_qubits();
        for (qa, qb) in [(0, 1), (0, n - 1), (n / 2, n - 1), (n - 1, 0)] {
            if qa == qb {
                continue;
            }
            let mut inter = state.clone();
            let mut split = SplitStateVec::from(&state);
            apply_xy(inter.amplitudes_mut(), qa, qb, theta, ExecPolicy::serial());
            {
                let (re, im) = split.planes_mut();
                apply_xy_split(re, im, qa, qb, theta, ExecPolicy::serial());
            }
            prop_assert!(
                split.max_abs_diff_interleaved(inter.amplitudes()) < 1e-12,
                "xy pair ({qa},{qb})"
            );

            let mut par = SplitStateVec::from(&state);
            let (re, im) = par.planes_mut();
            apply_xy_split(re, im, qa, qb, theta, forced());
            prop_assert_eq!(&par, &split, "xy pair ({},{})", qa, qb);
        }
    }

    #[test]
    fn diag_split_matches_interleaved(state in state_strategy(4..=10), gamma in -2.0f64..2.0) {
        let costs: Vec<f64> = (0..state.dim()).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let mut inter = state.clone();
        let mut split = SplitStateVec::from(&state);
        qokit::statevec::diag::apply_phase(inter.amplitudes_mut(), &costs, gamma, ExecPolicy::serial());
        {
            let (re, im) = split.planes_mut();
            qokit::statevec::diag::apply_phase_split(re, im, &costs, gamma, ExecPolicy::serial());
        }
        // Same per-element rotation arithmetic: exact equality.
        prop_assert_eq!(split.max_abs_diff_interleaved(inter.amplitudes()), 0.0);

        let (re, im) = split.planes();
        let e_i = qokit::statevec::diag::expectation(inter.amplitudes(), &costs, ExecPolicy::serial());
        let e_s = qokit::statevec::diag::expectation_split(re, im, &costs, ExecPolicy::serial());
        prop_assert_eq!(e_i, e_s);
        let e_p = qokit::statevec::diag::expectation_split(re, im, &costs, forced());
        prop_assert!((e_s - e_p).abs() < 1e-12, "{} vs {}", e_s, e_p);
    }

    #[test]
    fn full_simulator_layouts_agree(
        poly in poly_strategy(8, 20),
        gammas in prop::collection::vec(-1.0f64..1.0, 3),
        betas in prop::collection::vec(-1.0f64..1.0, 3),
    ) {
        for mixer in [Mixer::X, Mixer::XyRing] {
            let inter = FurSimulator::with_options(&poly, SimOptions {
                mixer,
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            });
            let split = FurSimulator::with_options(&poly, SimOptions {
                mixer,
                exec: forced().with_layout(Layout::Split),
                ..SimOptions::default()
            });
            let ri = inter.simulate_qaoa(&gammas, &betas);
            let rs = split.simulate_qaoa(&gammas, &betas);
            prop_assert!(
                ri.state().max_abs_diff(rs.state()) < 1e-12,
                "{mixer:?}: layouts diverged"
            );
            let ei = inter.get_expectation(&ri);
            let es = split.get_expectation(&rs);
            prop_assert!((ei - es).abs() < 1e-12, "{mixer:?}: {ei} vs {es}");
        }
    }
}

/// Oracle pin: every layout × backend × pool-size combination reproduces
/// the `reference` kernels' single-layer pipeline to ≤1e-12.
#[test]
fn layouts_and_pools_match_reference_oracle() {
    let n = 6;
    let poly = qokit::terms::maxcut::maxcut_polynomial(&Graph::ring(n, 1.0));
    let (gamma, beta) = (0.4, 0.7);

    // Independent pipeline built from reference kernels.
    let costs = CostVec::from_polynomial(&poly, PrecomputeMethod::Direct, ExecPolicy::serial());
    let mut expect = StateVec::uniform_superposition(n).into_amplitudes();
    expect = reference::apply_phase_reference(&expect, &costs.to_f64_vec(), gamma);
    for q in 0..n {
        expect = reference::apply_1q_reference(&expect, q, &Mat2::rx(beta));
    }

    for layout in [Layout::Interleaved, Layout::Split] {
        for base in [ExecPolicy::serial(), ExecPolicy::rayon()] {
            for threads in [1usize, 2, 4] {
                let exec = base
                    .with_threads(threads)
                    .with_min_len(1)
                    .with_min_chunk(4)
                    .with_layout(layout);
                let sim = FurSimulator::with_options(
                    &poly,
                    SimOptions {
                        exec,
                        ..SimOptions::default()
                    },
                );
                let r = sim.simulate_qaoa(&[gamma], &[beta]);
                for (a, b) in r.state().amplitudes().iter().zip(expect.iter()) {
                    assert!(
                        a.approx_eq(*b, 1e-12),
                        "{layout:?}/{:?}/threads={threads}: {a} vs {b}",
                        base.threads
                    );
                }
            }
        }
    }
}

/// CostVec-level split equivalence across both representations.
#[test]
fn costvec_split_matches_interleaved_both_representations() {
    let poly = qokit::terms::labs::labs_terms(11);
    let cv = CostVec::from_polynomial(&poly, PrecomputeMethod::Fwht, ExecPolicy::serial());
    let q = CostVec::quantize_exact(&cv.to_f64_vec(), 1.0).expect("LABS costs are integral");
    for costs in [&cv, &q] {
        let mut inter = StateVec::uniform_superposition(11);
        let mut split = SplitStateVec::from(&inter);
        costs.apply_phase(inter.amplitudes_mut(), 0.37, ExecPolicy::serial());
        {
            let (re, im) = split.planes_mut();
            costs.apply_phase_split(re, im, 0.37, ExecPolicy::serial());
        }
        assert_eq!(split.max_abs_diff_interleaved(inter.amplitudes()), 0.0);
        let (re, im) = split.planes();
        let ei = costs.expectation(inter.amplitudes(), ExecPolicy::serial());
        let es = costs.expectation_split(re, im, ExecPolicy::serial());
        assert_eq!(ei, es);
    }
}
