//! Property-based tests over the whole stack: random cost polynomials,
//! random parameters, random circuits — the invariants the paper's
//! algorithms must satisfy for *every* input, not just the benchmarked
//! ones.

use proptest::prelude::*;
use qokit::gates::{GateSimOptions, GateSimulator, PhaseStyle};
use qokit::prelude::*;
use qokit::statevec::su2::{apply_mat2_split, apply_uniform_mat2, apply_x_mixer_split};
use qokit::statevec::Mat2;

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

/// Strategy: QAOA parameters of random depth 1..=3.
fn params_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..=3).prop_flat_map(|p| {
        (
            prop::collection::vec(-1.0f64..1.0, p),
            prop::collection::vec(-1.0f64..1.0, p),
        )
    })
}

/// Strategy: a finite plane entry, exactly +0 or −0 a third of the time.
fn plane_entry() -> impl Strategy<Value = f64> {
    (0usize..6, -1.0f64..1.0).prop_map(|(k, x)| match k {
        0 => 0.0,
        1 => -0.0,
        _ => x,
    })
}

/// Strategy: random finite `re`/`im` planes on 1..=12 qubits.
fn planes_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..=12).prop_flat_map(|n| {
        (
            prop::collection::vec(plane_entry(), 1usize << n),
            prop::collection::vec(plane_entry(), 1usize << n),
        )
    })
}

/// Strategy: a mixer angle that is exactly 0, ±π/2 or π half the time and
/// uniform in [−4, 4) otherwise.
fn beta_strategy() -> impl Strategy<Value = f64> {
    use std::f64::consts::{FRAC_PI_2, PI};
    (0usize..8, -4.0f64..4.0).prop_map(|(k, x)| match k {
        0 => 0.0,
        1 => FRAC_PI_2,
        2 => -FRAC_PI_2,
        3 => PI,
        _ => x,
    })
}

/// Same bits, except that a component which is ±0 on both sides may differ
/// in sign.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (*x == 0.0 && *y == 0.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn x_mixer_split_has_the_generic_bits((re, im) in planes_strategy(), beta in beta_strategy()) {
        let n = re.len().trailing_zeros() as usize;
        let (mut re_ref, mut im_ref) = (re.clone(), im.clone());
        for q in 0..n {
            apply_mat2_split(&mut re_ref, &mut im_ref, q, &Mat2::rx(beta), ExecPolicy::serial());
        }
        // The forced pool runs both parallel branches: single-block
        // (the low-qubit tile and the top sweep) and multi-block (the
        // sweeps between).
        let forced = ExecPolicy::rayon().with_threads(2).with_min_len(1).with_min_chunk(1);
        for policy in [ExecPolicy::serial(), forced] {
            let (mut re_rx, mut im_rx) = (re.clone(), im.clone());
            apply_x_mixer_split(&mut re_rx, &mut im_rx, beta, policy);
            prop_assert!(same_bits(&re_rx, &re_ref), "re, n = {n}, beta = {beta}");
            prop_assert!(same_bits(&im_rx, &im_ref), "im, n = {n}, beta = {beta}");
        }
    }

    #[test]
    fn precompute_methods_always_agree(poly in poly_strategy(8, 24)) {
        let direct = qokit::costvec::precompute_direct(&poly, ExecPolicy::serial());
        let fwht = qokit::costvec::precompute_fwht(&poly, ExecPolicy::serial());
        for (i, (a, b)) in direct.iter().zip(fwht.iter()).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "index {i}: {a} vs {b}");
        }
        // And both match pointwise evaluation.
        for x in [0u64, 1, 100, 255] {
            prop_assert!((direct[x as usize] - poly.evaluate_bits(x)).abs() < 1e-9);
        }
    }

    #[test]
    fn qaoa_preserves_norm((g, b) in params_strategy(), poly in poly_strategy(7, 16)) {
        let sim = FurSimulator::with_options(&poly, SimOptions {
            exec: ExecPolicy::serial(), ..SimOptions::default()
        });
        let r = sim.simulate_qaoa(&g, &b);
        prop_assert!((r.state().norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expectation_lies_within_cost_extrema((g, b) in params_strategy(), poly in poly_strategy(7, 16)) {
        let sim = FurSimulator::with_options(&poly, SimOptions {
            exec: ExecPolicy::serial(), ..SimOptions::default()
        });
        let (lo, hi) = sim.cost_diagonal().extrema();
        let e = sim.objective(&g, &b);
        prop_assert!(e >= lo - 1e-9 && e <= hi + 1e-9, "E = {e} outside [{lo}, {hi}]");
    }

    #[test]
    fn overlap_is_a_probability((g, b) in params_strategy(), poly in poly_strategy(6, 12)) {
        let sim = FurSimulator::with_options(&poly, SimOptions {
            exec: ExecPolicy::serial(), ..SimOptions::default()
        });
        let r = sim.simulate_qaoa(&g, &b);
        let ov = sim.get_overlap(&r);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ov));
    }

    #[test]
    fn gate_baseline_equals_fast_simulator((g, b) in params_strategy(), poly in poly_strategy(6, 10)) {
        let fast = FurSimulator::with_options(&poly, SimOptions {
            exec: ExecPolicy::serial(), ..SimOptions::default()
        });
        let gate = GateSimulator::new(poly.clone(), GateSimOptions {
            exec: ExecPolicy::serial(),
            style: PhaseStyle::DecomposedCx,
            ..GateSimOptions::default()
        });
        let a = fast.simulate_qaoa(&g, &b);
        let s = gate.simulate_qaoa(&g, &b);
        prop_assert!(a.state().max_abs_diff(&s) < 1e-9);
    }

    #[test]
    fn mixer_inverse_round_trips(beta in -2.0f64..2.0) {
        let mut s = StateVec::uniform_superposition(8);
        let orig = s.clone();
        apply_uniform_mat2(s.amplitudes_mut(), &Mat2::rx(beta), ExecPolicy::serial());
        apply_uniform_mat2(s.amplitudes_mut(), &Mat2::rx(-beta), ExecPolicy::serial());
        prop_assert!(s.max_abs_diff(&orig) < 1e-9);
    }

    #[test]
    fn phase_operator_commutes_with_itself(
        poly in poly_strategy(6, 10),
        g1 in -1.0f64..1.0,
        g2 in -1.0f64..1.0,
    ) {
        // Diagonal operators commute: applying (γ1 then γ2) equals (γ2
        // then γ1) equals (γ1+γ2).
        let costs = CostVec::from_polynomial(&poly, PrecomputeMethod::Fwht, ExecPolicy::serial());
        let mut a = StateVec::uniform_superposition(6);
        let mut b = a.clone();
        let mut c = a.clone();
        costs.apply_phase(a.amplitudes_mut(), g1, ExecPolicy::serial());
        costs.apply_phase(a.amplitudes_mut(), g2, ExecPolicy::serial());
        costs.apply_phase(b.amplitudes_mut(), g2, ExecPolicy::serial());
        costs.apply_phase(b.amplitudes_mut(), g1, ExecPolicy::serial());
        costs.apply_phase(c.amplitudes_mut(), g1 + g2, ExecPolicy::serial());
        prop_assert!(a.max_abs_diff(&b) < 1e-10);
        prop_assert!(a.max_abs_diff(&c) < 1e-10);
    }

    #[test]
    fn xy_mixers_conserve_weight_for_any_angles(
        betas in prop::collection::vec(-2.0f64..2.0, 1..4),
        k in 1usize..5,
    ) {
        let n = 6;
        let mut s = StateVec::dicke_state(n, k);
        for &b in &betas {
            Mixer::XyRing.apply(s.amplitudes_mut(), b, ExecPolicy::serial());
            Mixer::XyComplete.apply(s.amplitudes_mut(), b, ExecPolicy::serial());
        }
        let mass: f64 = s.amplitudes().iter().enumerate()
            .filter(|(x, _)| x.count_ones() as usize == k)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fusion_never_changes_the_circuit(
        poly in poly_strategy(5, 8),
        gamma in -1.0f64..1.0,
        beta in -1.0f64..1.0,
    ) {
        let mut gates = qokit::gates::compile_phase(&poly, gamma, PhaseStyle::DecomposedCx);
        gates.extend(qokit::gates::compile_mixer(5, beta, qokit::gates::CompiledMixer::X));
        let fused = qokit::gates::fuse_2q(&gates);
        let mut a = StateVec::uniform_superposition(5);
        let mut b = a.clone();
        for g in &gates { g.apply(a.amplitudes_mut(), ExecPolicy::serial()); }
        for g in &fused { g.apply(b.amplitudes_mut(), ExecPolicy::serial()); }
        prop_assert!(a.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn peephole_never_changes_the_circuit(
        poly in poly_strategy(5, 8),
        gamma in -1.0f64..1.0,
    ) {
        let gates = qokit::gates::compile_phase(&poly, gamma, PhaseStyle::DecomposedCx);
        let cancelled = qokit::gates::compile::peephole_cancel(&gates);
        let mut a = StateVec::uniform_superposition(5);
        let mut b = a.clone();
        for g in &gates { g.apply(a.amplitudes_mut(), ExecPolicy::serial()); }
        for g in &cancelled { g.apply(b.amplitudes_mut(), ExecPolicy::serial()); }
        prop_assert!(a.max_abs_diff(&b) < 1e-9);
        prop_assert!(cancelled.len() <= gates.len());
    }

    #[test]
    fn quantization_exactness_for_integer_costs(poly in poly_strategy(6, 10)) {
        // Round every weight to an integer: the cost vector becomes
        // integral and must quantize exactly (if it fits u16).
        let int_poly = SpinPolynomial::new(
            6,
            poly.terms().iter().map(|t| Term::from_mask(t.weight.round(), t.mask)).collect(),
        );
        let costs = qokit::costvec::precompute_fwht(&int_poly, ExecPolicy::serial());
        if let Ok(q) = CostVec::quantize_exact(&costs, 1.0) {
            for (x, &v) in costs.iter().enumerate() {
                prop_assert_eq!(q.value(x), v);
            }
        }
    }

    #[test]
    fn distributed_equals_single_node(
        poly in poly_strategy(8, 12),
        ranks_log in 0usize..=3,
    ) {
        let ranks = 1usize << ranks_log;
        let fast = FurSimulator::with_options(&poly, SimOptions {
            exec: ExecPolicy::serial(), ..SimOptions::default()
        });
        let reference = fast.simulate_qaoa(&[0.3], &[-0.6]);
        let dist = qokit::dist::DistSimulator::new(poly.clone(), ranks).unwrap();
        let r = dist.simulate_qaoa(&[0.3], &[-0.6]);
        prop_assert!(r.state.max_abs_diff(reference.state()) < 1e-9);
    }
}
