//! Property tests for the neighborhood API backing the light-cone
//! evaluator: BFS balls, edge ego-nets, compact relabeling, and the
//! canonical deduplication key.

use proptest::prelude::*;
use qokit_terms::graphs::{EgoScratch, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;

/// A random weighted Erdős–Rényi graph with at least one edge.
fn weighted_graph() -> impl Strategy<Value = Graph> {
    (4usize..14, 0.15f64..0.6, 0u64..u64::MAX).prop_map(|(n, p, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Graph::erdos_renyi(n, p, &mut rng);
        // Fall back to a ring when the draw came out edgeless, so the
        // edge-index strategy below always has something to pick.
        let g = if g.n_edges() == 0 {
            Graph::ring(n, 1.0)
        } else {
            g
        };
        g.with_random_weights(0.2, 1.8, &mut rng)
    })
}

/// A random weighted Erdős–Rényi graph plus one of its edges picked by
/// index.
fn graph_with_edge() -> impl Strategy<Value = (Graph, usize)> {
    weighted_graph().prop_flat_map(|g| {
        let m = g.n_edges();
        (Just(g), 0..m)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ball vertices are unique, within distance bounds, and grow
    /// monotonically with the radius.
    #[test]
    fn balls_are_monotone_in_radius((g, e) in graph_with_edge(), radius in 0usize..4) {
        let (u, v, _) = g.edges()[e];
        let adj = g.adjacency();
        let inner: std::collections::HashSet<_> =
            adj.ball(&[u, v], radius).into_iter().collect();
        let outer: std::collections::HashSet<_> =
            adj.ball(&[u, v], radius + 1).into_iter().collect();
        prop_assert!(inner.is_subset(&outer));
        prop_assert!(inner.contains(&u) && inner.contains(&v));
    }

    /// Every cone edge maps back (through the compact → original vertex
    /// table) to an edge of the source graph with a bit-identical weight,
    /// and every relabeled vertex respects the radius bound.
    #[test]
    fn ego_round_trips_and_respects_radius((g, e) in graph_with_edge(), radius in 0usize..3) {
        let (u, v, _) = g.edges()[e];
        let ego = g.adjacency().edge_ego(u, v, radius);
        prop_assert_eq!(ego.seeds(), (0, 1));
        prop_assert_eq!(ego.vertices()[0], u);
        prop_assert_eq!(ego.vertices()[1], v);
        for (&orig, &d) in ego.vertices().iter().zip(ego.distances()) {
            prop_assert!(d <= radius);
            prop_assert!(orig < g.n_vertices());
        }
        let original: std::collections::HashMap<(usize, usize), u64> = g
            .edges()
            .iter()
            .map(|&(a, b, w)| ((a, b), w.to_bits()))
            .collect();
        for &(a, b, w) in ego.graph().edges() {
            // At least one endpoint must be interior (frontier–frontier
            // edges are excluded from the cone).
            prop_assert!(
                ego.distances()[a] < radius || ego.distances()[b] < radius
            );
            let (x, y) = (ego.vertices()[a], ego.vertices()[b]);
            let key = (x.min(y), x.max(y));
            prop_assert_eq!(original.get(&key).copied(), Some(w.to_bits()));
        }
    }

    /// The cone keeps exactly the source edges with an endpoint strictly
    /// inside the ball — no more, no fewer.
    #[test]
    fn ego_edge_count_matches_interior_incidence((g, e) in graph_with_edge(), radius in 0usize..3) {
        let (u, v, _) = g.edges()[e];
        let adj = g.adjacency();
        let ego = adj.edge_ego(u, v, radius);
        let dist: std::collections::HashMap<usize, usize> = ego
            .vertices()
            .iter()
            .zip(ego.distances())
            .map(|(&orig, &d)| (orig, d))
            .collect();
        let expected = g
            .edges()
            .iter()
            .filter(|&&(a, b, _)| {
                dist.get(&a).is_some_and(|&d| d < radius)
                    || dist.get(&b).is_some_and(|&d| d < radius)
            })
            .count();
        prop_assert_eq!(ego.graph().n_edges(), expected);
    }

    /// Uniform random-regular graphs have massively colliding cones: on a
    /// uniform ring every cone shares one canonical key, and rescaling a
    /// single weight splits the affected cones off.
    #[test]
    fn canonical_key_is_weight_sensitive(n in 6usize..16, radius in 0usize..3) {
        let g = Graph::ring(n, 1.0);
        let adj = g.adjacency();
        let keys: std::collections::HashSet<_> = g
            .edges()
            .iter()
            .map(|&(a, b, _)| adj.edge_ego(a, b, radius).canonical_key())
            .collect();
        prop_assert_eq!(keys.len(), 1);

        // A radius-0 cone carries no edges, so weights only matter from
        // radius 1 on.
        if radius > 0 {
            let mut edges = g.edges().to_vec();
            edges[0].2 = 2.0;
            let g2 = Graph::new(n, edges);
            let adj2 = g2.adjacency();
            let (a0, b0, _) = g2.edges()[0];
            prop_assert_ne!(
                adj2.edge_ego(a0, b0, radius).canonical_key(),
                adj.edge_ego(a0, b0, radius).canonical_key()
            );
        }
    }

    /// The scratch walk writes exactly `edge_ego(..).canonical_key()`, and
    /// reports "too wide" exactly when the ball is larger than the cap.
    /// One scratch serves every edge, both orientations and every radius,
    /// so a buffer left stale by a longer or refused walk would show.
    #[test]
    fn scratch_key_matches_canonical_key(g in weighted_graph(), cap in 0usize..16) {
        let adj = g.adjacency();
        let mut scratch = EgoScratch::default();
        for &(a, b, _) in g.edges() {
            for (u, v) in [(a, b), (b, a)] {
                for radius in 0..3 {
                    let want = adj.edge_ego(u, v, radius).canonical_key();
                    let want: &[u64] = want.borrow();
                    let got = adj.cone_key(u, v, radius, usize::MAX, &mut scratch);
                    prop_assert_eq!(got, Some(want));

                    let too_wide = adj.ball(&[u, v], radius).len() > cap;
                    let capped = adj.cone_key(u, v, radius, cap, &mut scratch);
                    prop_assert_eq!(capped.is_none(), too_wide);
                    if let Some(key) = capped {
                        prop_assert_eq!(key, want);
                    }
                }
            }
        }
    }
}
