//! The light-cone oracle suite: [`LightConeEvaluator`] pinned against the
//! exact full-statevector objective.
//!
//! For every random Erdős–Rényi and random-regular instance small enough
//! to simulate exactly (`n ≤ 16`, `p ∈ {1, 2}`), the light-cone energy
//! must match `FurSimulator::objective` on `maxcut_polynomial` to
//! `≤ 1e-9`, and must be **bit-identical** across pool sizes 1/2/4.

use proptest::prelude::*;
use qokit::core::lightcone::{LightConeEvaluator, LightConeOptions};
use qokit::prelude::*;
use qokit::terms::maxcut::maxcut_polynomial;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random MaxCut instance from one of the two families of the paper's
/// large-graph experiments: G(n, 0.25) with random weights, or an
/// unweighted random-regular graph.
fn instance() -> impl Strategy<Value = Graph> {
    (6usize..=16, 0u64..u64::MAX, 0usize..2).prop_map(|(n, seed, family)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => {
                let g = Graph::erdos_renyi(n, 0.25, &mut rng);
                let g = if g.n_edges() == 0 {
                    Graph::ring(n, 1.0)
                } else {
                    g
                };
                g.with_random_weights(0.2, 1.8, &mut rng)
            }
            _ => {
                // n·d must be even for a d-regular graph to exist.
                let d = if n % 2 == 0 { 3 } else { 2 };
                Graph::random_regular(n, d, &mut rng)
            }
        }
    })
}

fn exact_energy(g: &Graph, gammas: &[f64], betas: &[f64]) -> f64 {
    FurSimulator::new(&maxcut_polynomial(g)).objective(gammas, betas)
}

fn lightcone_energy(g: &Graph, exec: ExecPolicy, gammas: &[f64], betas: &[f64]) -> f64 {
    LightConeEvaluator::with_options(
        g.clone(),
        LightConeOptions {
            exec,
            ..LightConeOptions::default()
        },
    )
    .energy(gammas, betas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Light-cone energy ≡ exact statevector energy (p = 1 and p = 2),
    /// and dedup never changes the bits.
    #[test]
    fn energy_matches_exact_statevector(
        g in instance(),
        p in 1usize..=2,
        g1 in -1.5f64..1.5, g2 in -1.5f64..1.5,
        b1 in -1.5f64..1.5, b2 in -1.5f64..1.5,
    ) {
        let (gammas, betas) = (&[g1, g2][..p], &[b1, b2][..p]);
        let ev = LightConeEvaluator::new(g.clone());
        let run = ev.try_energy(gammas, betas).unwrap();
        let exact = exact_energy(&g, gammas, betas);
        prop_assert!(
            (run.energy - exact).abs() <= 1e-9,
            "n={} m={} p={p}: lightcone {} vs exact {}",
            g.n_vertices(), g.n_edges(), run.energy, exact
        );
        prop_assert_eq!(run.stats.edges, g.n_edges());
        prop_assert!(run.stats.unique_cones + run.stats.cache_hits == run.stats.edges);

        let undeduped = LightConeEvaluator::with_options(
            g.clone(),
            LightConeOptions { dedup: false, ..LightConeOptions::default() },
        )
        .try_energy(gammas, betas)
        .unwrap();
        prop_assert_eq!(undeduped.energy.to_bits(), run.energy.to_bits());
        prop_assert_eq!(undeduped.stats.cache_hits, 0);
    }

    /// The same bits come out of every pool size.
    #[test]
    fn energy_is_bit_identical_across_pools(
        g in instance(),
        p in 1usize..=2,
        g1 in -1.5f64..1.5, g2 in -1.5f64..1.5,
        b1 in -1.5f64..1.5, b2 in -1.5f64..1.5,
    ) {
        let (gammas, betas) = (&[g1, g2][..p], &[b1, b2][..p]);
        let reference = lightcone_energy(&g, ExecPolicy::serial(), gammas, betas);
        for threads in [1usize, 2, 4] {
            let pooled = lightcone_energy(
                &g,
                ExecPolicy::rayon().with_threads(threads),
                gammas,
                betas,
            );
            prop_assert_eq!(pooled.to_bits(), reference.to_bits(), "threads = {}", threads);
        }
    }
}

/// Depth 0 has an empty light cone: the energy is `−W/2` exactly, for
/// every family.
#[test]
fn depth_zero_is_minus_half_total_weight() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = Graph::erdos_renyi(12, 0.3, &mut rng).with_random_weights(0.5, 1.5, &mut rng);
    let run = LightConeEvaluator::new(g.clone())
        .try_energy(&[], &[])
        .unwrap();
    assert!((run.energy + 0.5 * g.total_weight()).abs() < 1e-12);
    assert!((run.energy - exact_energy(&g, &[], &[])).abs() < 1e-9);
}

/// The ≥90 % cache-hit economics the evaluator exists for: on a
/// random-regular graph most radius-1 cones are copies of one local tree.
#[test]
fn random_regular_hit_rate_is_high() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = Graph::random_regular(200, 3, &mut rng);
    let run = LightConeEvaluator::new(g)
        .try_energy(&[0.4], &[0.7])
        .unwrap();
    assert!(
        run.stats.hit_rate() > 0.9,
        "hit rate {} with {} unique cones over {} edges",
        run.stats.hit_rate(),
        run.stats.unique_cones,
        run.stats.edges
    );
}
