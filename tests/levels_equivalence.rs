//! The level-coded cost diagonal (`CostVec::Levels`) against the plain
//! `f64` one: every phase, expectation, energy and landscape extremum is
//! bit-identical, and `CostVec::from_f64` picks the coding exactly when
//! there are at most `min(65536, len/4)` distinct values.

use proptest::prelude::*;
use qokit::costvec::precompute_fwht;
use qokit::prelude::*;
use qokit::terms::labs::labs_terms;
use qokit::terms::maxcut::maxcut_polynomial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Level values a random diagonal draws from: signed zeros, negative and
/// non-integer values, and a few integers.
const POOL: [f64; 10] = [0.0, -0.0, -3.0, 2.0, 0.5, -1.25, 7.0, 1e-3, -17.5, 4.0];

/// Strategy: `(n, costs)` with `2^n` entries drawn from the first `k` pool
/// values, so at most `k ≤ 2^n/4` levels.
fn diagonal_strategy() -> impl Strategy<Value = (usize, Vec<f64>)> {
    (4usize..=9, 1usize..=POOL.len()).prop_flat_map(|(n, k)| {
        let k = k.min((1 << n) / 4);
        prop::collection::vec(0..k, 1 << n)
            .prop_map(move |picks| (n, picks.into_iter().map(|j| POOL[j]).collect()))
    })
}

/// Serial, default parallel, and forced-parallel (`min_len = 1`) policies
/// on pools of 1, 2 and 4 workers.
fn policies() -> Vec<ExecPolicy> {
    let mut out = vec![ExecPolicy::serial()];
    for threads in [1, 2, 4] {
        let pool = ExecPolicy::rayon().with_threads(threads);
        out.push(pool);
        out.push(pool.with_min_len(1).with_min_chunk(2));
    }
    out
}

fn random_state(n: usize, rng: &mut StdRng) -> StateVec {
    let amps = (0..1usize << n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    StateVec::from_amplitudes(amps)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Applies `cv`'s phase to `s` in the interleaved and the split layout and
/// returns both results plus both expectations on them.
fn run_both_layouts(
    cv: &CostVec,
    s: &StateVec,
    gamma: f64,
    policy: ExecPolicy,
) -> (StateVec, SplitStateVec, u64, u64) {
    let mut inter = s.clone();
    cv.apply_phase(inter.amplitudes_mut(), gamma, policy);
    let mut split = SplitStateVec::from(s);
    {
        let (re, im) = split.planes_mut();
        cv.apply_phase_split(re, im, gamma, policy);
    }
    let e_inter = cv.expectation(inter.amplitudes(), policy).to_bits();
    let (re, im) = split.planes();
    let e_split = cv.expectation_split(re, im, policy).to_bits();
    (inter, split, e_inter, e_split)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn levels_are_bit_identical_to_f64((n, costs) in diagonal_strategy(), gamma in -3.0f64..3.0, seed in 0u64..1 << 32) {
        let levels = CostVec::from_f64(costs.clone());
        prop_assert!(matches!(levels, CostVec::Levels { .. }), "n = {n}");
        prop_assert_eq!(bits(&levels.to_f64_vec()), bits(&costs));
        let plain = CostVec::F64(costs);
        let s = random_state(n, &mut StdRng::seed_from_u64(seed));
        for policy in policies() {
            let (wi, ws, wei, wes) = run_both_layouts(&plain, &s, gamma, policy);
            let (gi, gs, gei, ges) = run_both_layouts(&levels, &s, gamma, policy);
            prop_assert_eq!(gi.max_abs_diff(&wi), 0.0, "{:?}", policy);
            prop_assert!(gs == ws, "split phase differs under {:?}", policy);
            prop_assert_eq!((gei, ges), (wei, wes), "{:?}", policy);
        }
    }
}

/// LABS with one extra two-body term of a non-integer weight — the
/// "tagged" problems of the served-job mix.
fn tagged_labs(n: usize, tag: f64) -> SpinPolynomial {
    let mut terms = labs_terms(n).terms().to_vec();
    terms.push(Term {
        weight: tag,
        mask: 0b11,
    });
    SpinPolynomial::new(n, terms)
}

fn problems() -> Vec<(&'static str, SpinPolynomial)> {
    let mut rng = StdRng::seed_from_u64(7);
    vec![
        (
            "maxcut",
            maxcut_polynomial(&Graph::random_regular(10, 3, &mut rng)),
        ),
        ("labs", labs_terms(11)),
        ("tagged labs", tagged_labs(10, 0.8125)),
    ]
}

#[test]
fn default_simulator_energies_match_f64_diagonal() {
    let mut rng = StdRng::seed_from_u64(11);
    for (name, poly) in problems() {
        for layout in [Layout::Interleaved, Layout::Split] {
            for exec in [ExecPolicy::serial(), ExecPolicy::rayon().with_min_len(1)] {
                let options = SimOptions {
                    exec: exec.with_layout(layout),
                    ..SimOptions::default()
                };
                let coded = FurSimulator::with_options(&poly, options.clone());
                assert!(
                    matches!(coded.cost_diagonal(), CostVec::Levels { .. }),
                    "{name}: default options level-code the diagonal"
                );
                let plain = FurSimulator::from_cost_vector(
                    CostVec::F64(precompute_fwht(&poly, ExecPolicy::serial())),
                    options,
                );
                for p in 1..=3 {
                    let g: Vec<f64> = (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let b: Vec<f64> = (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    assert_eq!(
                        coded.objective(&g, &b).to_bits(),
                        plain.objective(&g, &b).to_bits(),
                        "{name}, p = {p}, {layout:?}, {exec:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn scan_extrema_match_f64_diagonal() {
    let poly = maxcut_polynomial(&Graph::random_regular(10, 3, &mut StdRng::seed_from_u64(3)));
    let coded = FurSimulator::new(&poly);
    assert!(matches!(coded.cost_diagonal(), CostVec::Levels { .. }));
    let plain = FurSimulator::from_cost_vector(
        CostVec::F64(precompute_fwht(&poly, ExecPolicy::serial())),
        SimOptions::default(),
    );
    let grid = Grid2d::new(Axis::new(0.0, 1.3, 24), Axis::new(-0.9, 0.0, 24));
    let scan = |sim: FurSimulator| {
        let mut agg = LandscapeAggregator::new(4);
        let count = SweepRunner::new(sim)
            .scan_into((0..grid.len()).map(|i| grid.point(i)), 100, &mut agg)
            .unwrap();
        (count, agg.min_energy().map(f64::to_bits), agg.argmin())
    };
    let want = scan(plain);
    assert_eq!(want.0, grid.len());
    assert_eq!(scan(coded), want);
}

/// `len` entries cycling through `levels` distinct values.
fn cycling(len: usize, levels: usize) -> Vec<f64> {
    (0..len).map(|i| (i % levels) as f64 * 0.5 - 3.0).collect()
}

#[test]
fn levels_chosen_up_to_a_quarter_of_the_entries() {
    let len = 1 << 10;
    let at = CostVec::from_f64(cycling(len, len / 4));
    assert!(matches!(&at, CostVec::Levels { levels, .. } if levels.len() == len / 4));
    assert_eq!(at.memory_bytes(), 2 * len + 8 * (len / 4));
    assert!(matches!(
        CostVec::from_f64(cycling(len, len / 4 + 1)),
        CostVec::F64(_)
    ));
    // Fewer than four entries leave no room for a single level.
    assert!(matches!(CostVec::from_f64(vec![1.0; 3]), CostVec::F64(_)));
    assert!(matches!(
        CostVec::from_f64(vec![1.0; 4]),
        CostVec::Levels { .. }
    ));
}

#[test]
fn levels_capped_at_the_u16_index_range() {
    // 2^19 entries: len/4 = 2^17, so the u16 range is the binding cap.
    let len = 1 << 19;
    let at = CostVec::from_f64(cycling(len, 1 << 16));
    assert!(matches!(&at, CostVec::Levels { levels, .. } if levels.len() == 1 << 16));
    assert_eq!(at.value(len - 1), cycling(len, 1 << 16)[len - 1]);
    assert!(matches!(
        CostVec::from_f64(cycling(len, (1 << 16) + 1)),
        CostVec::F64(_)
    ));
}

#[test]
fn gaussian_sk_stays_f64() {
    // Gaussian couplings: (almost) every one of the 2^10 energies is
    // distinct up to the Z2 symmetry, far above len/4.
    let mut rng = StdRng::seed_from_u64(5);
    let n = 10;
    let mut terms = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            // Box–Muller: a standard normal from two uniforms.
            let (u, v): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
            let g = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
            terms.push(Term {
                weight: g,
                mask: (1 << i) | (1 << j),
            });
        }
    }
    let sim = FurSimulator::new(&SpinPolynomial::new(n, terms));
    assert!(matches!(sim.cost_diagonal(), CostVec::F64(_)));
}
