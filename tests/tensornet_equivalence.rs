//! Differential suite pinning the tensor-network amplitude engine to the
//! state-vector oracle:
//!
//! * TN amplitudes ≡ exact state-vector amplitudes (≤ 1e-10) for random
//!   2-/3-local spin polynomials, depths, and angles;
//! * every valid contraction order yields the same scalar (≤ 1e-12);
//! * sliced contraction is **bit-identical** to the unsliced open-leg
//!   execution, at every pool width;
//! * the `WidthExceeded → slicing` boundary sits exactly at the plan
//!   width.

use proptest::prelude::*;
use qokit::prelude::*;
use qokit::tensornet::{
    build_qaoa_network, qaoa_amplitude, ContractionPlan, SlicePlan, TnEngine, TnError, TnOptions,
    DEFAULT_MAX_SLICE_LEGS,
};
use qokit::terms::labs::labs_terms;
use qokit::terms::maxcut::maxcut_polynomial;

fn serial_sim(poly: &SpinPolynomial) -> FurSimulator {
    FurSimulator::with_options(
        poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    )
}

/// Strategy: a random spin polynomial of 2- and 3-local terms on `n` vars.
/// Supports are decoded from raw indices so every term has distinct
/// variables (the shim has no `sample::subsequence`).
fn local_poly_strategy(n: usize, max_terms: usize) -> impl Strategy<Value = SpinPolynomial> {
    prop::collection::vec(
        (-1.5f64..1.5, 0usize..n, 0usize..64, 0usize..64, 0usize..2),
        1..max_terms,
    )
    .prop_map(move |raw| {
        let terms = raw
            .into_iter()
            .map(|(w, a, j, l, use3)| {
                let b = (a + 1 + j % (n - 1)) % n;
                let mut support = vec![a, b];
                if use3 == 1 && n >= 3 {
                    let picks: Vec<usize> = (0..n).filter(|v| *v != a && *v != b).collect();
                    support.push(picks[l % picks.len()]);
                }
                Term::new(w, &support)
            })
            .collect();
        SpinPolynomial::new(n, terms)
    })
}

/// Strategy: depth-`1..=3` QAOA angle schedules.
fn params_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..=3).prop_flat_map(|p| {
        (
            prop::collection::vec(-1.0f64..1.0, p),
            prop::collection::vec(-1.0f64..1.0, p),
        )
    })
}

/// Forces slicing: an engine whose width cap sits one under the planned
/// width (skipped as `None` when the plan is already trivial). The same
/// cap always selects the same slice plan, so engines built by this
/// helper are bit-compatible across `exec` policies.
fn sliced_engine_with(poly: &SpinPolynomial, p: usize, exec: ExecPolicy) -> Option<TnEngine> {
    let base = TnEngine::new(poly, p, TnOptions::default()).ok()?;
    let width = base.slice_plan().plan().width();
    if width < 2 {
        return None;
    }
    TnEngine::new(
        poly,
        p,
        TnOptions {
            width_cap: width - 1,
            exec,
            ..TnOptions::default()
        },
    )
    .ok()
}

fn sliced_engine(poly: &SpinPolynomial, p: usize) -> Option<TnEngine> {
    sliced_engine_with(poly, p, ExecPolicy::serial())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite (a): TN amplitude ≡ exact state-vector amplitude, for
    /// random sparse polynomials up to n = 12, p = 3.
    #[test]
    fn tn_amplitudes_match_statevector_oracle(
        (n, poly) in (4usize..=12).prop_flat_map(|n| (Just(n), local_poly_strategy(n, 10))),
        (gammas, betas) in params_strategy(),
        x_seed in 0u64..u64::MAX,
    ) {
        let amps = serial_sim(&poly)
            .simulate_qaoa(&gammas, &betas)
            .into_state()
            .into_amplitudes();
        let engine = TnEngine::new(&poly, gammas.len(), TnOptions::default()).unwrap();
        for k in 0..4u64 {
            let x = (x_seed.wrapping_mul(6364136223846793005).wrapping_add(k)) % (1 << n);
            let tn = engine.amplitude(&gammas, &betas, x);
            let sv = amps[x as usize];
            prop_assert!(
                tn.approx_eq(sv, 1e-10),
                "x = {x}: TN {tn} vs statevec {sv}"
            );
        }
    }

    /// Satellite (b): any valid contraction order yields the same scalar.
    /// The elimination order is permuted by proptest-chosen sort keys; the
    /// min-fill plan and the greedy baseline must agree with it ≤ 1e-12.
    #[test]
    fn any_elimination_order_contracts_to_the_same_scalar(
        poly in local_poly_strategy(6, 8),
        (gammas, betas) in params_strategy(),
        x in 0u64..64,
        keys in prop::collection::vec(0u32..u32::MAX, 64),
    ) {
        let net = build_qaoa_network(&poly, &gammas, &betas, x);
        let structure = net.structure();
        let reference = ContractionPlan::build(&structure)
            .execute(net.tensors().to_vec())
            .into_scalar();

        let mut legs: Vec<usize> = structure.iter().flatten().copied().collect();
        legs.sort_unstable();
        legs.dedup();
        legs.sort_by_key(|&l| (keys[l % keys.len()], l));
        let permuted = ContractionPlan::build_with_elimination_order(&structure, &legs)
            .execute(net.tensors().to_vec())
            .into_scalar();
        prop_assert!(
            permuted.approx_eq(reference, 1e-12),
            "permuted order {permuted} vs min-fill {reference}"
        );

        let (greedy, _) = net.clone().contract_greedy(40).unwrap();
        prop_assert!(
            greedy.approx_eq(reference, 1e-12),
            "greedy {greedy} vs min-fill {reference}"
        );
    }

    /// Satellite (a): slicing never changes a single bit of the result,
    /// and neither does the pool width executing the slices.
    #[test]
    fn sliced_amplitudes_are_bit_identical_across_pools(
        poly in local_poly_strategy(7, 9),
        (gammas, betas) in params_strategy(),
        x in 0u64..128,
    ) {
        // Plans too small to slice carry nothing to pin — skip the case.
        if let Some(engine) = sliced_engine(&poly, gammas.len()) {
            prop_assert!(engine.report().slicing.n_slices >= 2);
            let unsliced = engine.amplitude_unsliced(&gammas, &betas, x);
            let serial = engine.amplitude(&gammas, &betas, x);
            prop_assert_eq!(
                serial.re.to_bits(), unsliced.re.to_bits(),
                "sliced vs unsliced (re)"
            );
            prop_assert_eq!(serial.im.to_bits(), unsliced.im.to_bits());
            for workers in [1usize, 2, 4] {
                let exec = ExecPolicy::rayon().with_threads(workers);
                let pooled = sliced_engine_with(&poly, gammas.len(), exec)
                    .unwrap()
                    .amplitude(&gammas, &betas, x);
                prop_assert_eq!(
                    pooled.re.to_bits(), serial.re.to_bits(),
                    "pool width {} changed bits", workers
                );
                prop_assert_eq!(pooled.im.to_bits(), serial.im.to_bits());
            }
        }
    }
}

/// Satellite (b): the `WidthExceeded` → slicing boundary. A cap exactly at
/// the planned width needs no slices; one below engages slicing; an
/// impossible cap still reports `WidthExceeded` with the residual width.
#[test]
fn width_cap_boundary_toggles_slicing() {
    let poly = maxcut_polynomial(&Graph::ring(10, 1.0));
    let net = build_qaoa_network(&poly, &[0.3], &[0.5], 0);
    let structure = net.structure();
    let width = ContractionPlan::build(&structure).width();
    assert!(width >= 2, "ring plan unexpectedly trivial");

    let at_cap = SlicePlan::choose(&structure, width, DEFAULT_MAX_SLICE_LEGS).unwrap();
    assert_eq!(at_cap.n_slices(), 1, "cap at plan width must not slice");
    assert!(at_cap.slice_legs().is_empty());

    let below = SlicePlan::choose(&structure, width - 1, DEFAULT_MAX_SLICE_LEGS).unwrap();
    assert!(below.n_slices() >= 2, "cap below plan width must slice");
    assert!(
        below.width() < width,
        "sliced width {} exceeds cap {}",
        below.width(),
        width - 1
    );

    match SlicePlan::choose(&structure, 0, DEFAULT_MAX_SLICE_LEGS) {
        Err(TnError::WidthExceeded { rank, cap }) => {
            assert_eq!(cap, 0);
            assert!(rank >= 1);
        }
        other => panic!("impossible cap must report WidthExceeded, got {other:?}"),
    }
}

/// The light-cone evaluator agrees with the exact objective under both
/// executors (Serial and Rayon cone fan-out).
#[test]
fn lightcone_engines_agree_with_exact_objective() {
    let g = Graph::ring(12, 1.0);
    let (gammas, betas) = (vec![0.45], vec![0.75]);
    let exact = FurSimulator::new(&maxcut_polynomial(&g)).objective(&gammas, &betas);
    for exec in [ExecPolicy::serial(), ExecPolicy::rayon()] {
        let ev = LightConeEvaluator::with_options(
            g.clone(),
            LightConeOptions {
                exec,
                ..LightConeOptions::default()
            },
        );
        let e = ev.energy(&gammas, &betas);
        assert!(
            (e - exact).abs() < 1e-9,
            "{exec:?} light-cone {e} vs exact {exact}"
        );
    }
}

/// Plan-once/evaluate-many: one engine serves every angle set and basis
/// state at its structure, matching per-call greedy contraction.
#[test]
fn one_plan_serves_many_parameter_points() {
    let poly = labs_terms(5);
    let engine = TnEngine::new(&poly, 2, TnOptions::default()).unwrap();
    for (i, x) in [(0usize, 3u64), (1, 17), (2, 30)] {
        let g = [0.1 + 0.1 * i as f64, -0.2];
        let b = [0.5 - 0.1 * i as f64, 0.3];
        let (greedy, _) = qaoa_amplitude(&poly, &g, &b, x, 40).unwrap();
        let planned = engine.amplitude(&g, &b, x);
        assert!(
            planned.approx_eq(greedy, 1e-12),
            "angles #{i}: planned {planned} vs greedy {greedy}"
        );
    }
}
