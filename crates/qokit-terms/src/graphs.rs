//! Graph substrate for the MaxCut and XY-mixer workloads.
//!
//! The paper's CPU evaluation (Fig. 2) runs QAOA on MaxCut over random
//! 3-regular graphs; the XY mixers are defined over ring and complete
//! graphs. This module provides those generators plus the usual utilities,
//! and the neighborhood substrate for light-cone evaluation: a CSR
//! [`Adjacency`] view ([`Graph::adjacency`]) and per-edge radius-`p` ego
//! extraction ([`Adjacency::edge_ego`]) with compact BFS relabeling and a
//! canonical deduplication key ([`EgoNet::canonical_key`]). The key can
//! also be had without building the cone, from a capped walk in reusable
//! buffers ([`Adjacency::cone_key`] with an [`EgoScratch`]).

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// An undirected weighted graph on vertices `0..n`.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl Graph {
    /// Builds a graph from an edge list. Edges are stored with the smaller
    /// endpoint first.
    ///
    /// # Panics
    /// If an endpoint is out of range, an edge is a self-loop, or an edge
    /// appears twice.
    pub fn new(n: usize, edges: Vec<(usize, usize, f64)>) -> Self {
        Graph::try_new(n, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`Graph::new`], but reports an invalid edge list as an error
    /// instead of panicking — for data from untrusted sources.
    pub fn try_new(n: usize, edges: Vec<(usize, usize, f64)>) -> Result<Self, String> {
        let mut seen = std::collections::HashSet::new();
        let mut norm = Vec::with_capacity(edges.len());
        for (u, v, w) in edges {
            if u >= n || v >= n {
                return Err(format!("edge ({u},{v}) out of range for n = {n}"));
            }
            if u == v {
                return Err(format!("self-loop at vertex {u}"));
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                return Err(format!("duplicate edge ({u},{v})"));
            }
            norm.push((key.0, key.1, w));
        }
        Ok(Graph { n, edges: norm })
    }

    /// Number of vertices.
    #[inline(always)]
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline(always)]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list `(u, v, w)` with `u < v`.
    #[inline(always)]
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Sum of edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Per-vertex degrees.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for &(u, v, _) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg
    }

    /// `true` when every vertex has degree `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        self.degrees().iter().all(|&x| x == d)
    }

    /// The complete graph `K_n` with uniform edge weight `w`.
    pub fn complete(n: usize, w: f64) -> Self {
        let mut edges = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j, w));
            }
        }
        Graph { n, edges }
    }

    /// The cycle `C_n` (ring) with uniform edge weight `w`.
    ///
    /// # Panics
    /// If `n < 3`.
    pub fn ring(n: usize, w: f64) -> Self {
        assert!(n >= 3, "a ring needs at least 3 vertices");
        let edges = (0..n).map(|i| (i, (i + 1) % n, w)).collect();
        Graph::new(n, edges)
    }

    /// The path `P_n` with uniform edge weight `w`.
    pub fn path(n: usize, w: f64) -> Self {
        let edges = (0..n.saturating_sub(1)).map(|i| (i, i + 1, w)).collect();
        Graph { n, edges }
    }

    /// A uniformly random `d`-regular simple graph via the configuration
    /// (pairing) model with rejection: `d` stubs per vertex are shuffled and
    /// paired; drawings containing self-loops or parallel edges are
    /// rejected and retried. Unit edge weights.
    ///
    /// # Panics
    /// If `n·d` is odd or `d ≥ n` (no simple `d`-regular graph exists).
    pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Self {
        assert!(
            (n * d).is_multiple_of(2),
            "n·d must be even for a d-regular graph"
        );
        assert!(d < n, "degree {d} impossible on {n} vertices");
        if d == 0 {
            return Graph { n, edges: vec![] };
        }
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        'retry: loop {
            stubs.shuffle(rng);
            let mut seen = std::collections::HashSet::with_capacity(n * d / 2);
            let mut edges = Vec::with_capacity(n * d / 2);
            for pair in stubs.chunks_exact(2) {
                let (u, v) = (pair[0], pair[1]);
                if u == v {
                    continue 'retry;
                }
                let key = (u.min(v), u.max(v));
                if !seen.insert(key) {
                    continue 'retry;
                }
                edges.push((key.0, key.1, 1.0));
            }
            return Graph { n, edges };
        }
    }

    /// An Erdős–Rényi `G(n, p)` graph with unit edge weights.
    pub fn erdos_renyi<R: Rng>(n: usize, p: f64, rng: &mut R) -> Self {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen::<f64>() < p {
                    edges.push((i, j, 1.0));
                }
            }
        }
        Graph { n, edges }
    }

    /// Assigns i.i.d. uniform weights in `[lo, hi)` to the existing edges.
    pub fn with_random_weights<R: Rng>(mut self, lo: f64, hi: f64, rng: &mut R) -> Self {
        for e in &mut self.edges {
            e.2 = rng.gen_range(lo..hi);
        }
        self
    }

    /// The cut value of the bit-assignment `x` (bit `i` = side of vertex
    /// `i`): total weight of edges with endpoints on opposite sides.
    pub fn cut_value(&self, x: u64) -> f64 {
        self.edges
            .iter()
            .map(|&(u, v, w)| if (x >> u ^ x >> v) & 1 == 1 { w } else { 0.0 })
            .sum()
    }

    /// The same graph on only the vertices its edges touch, relabeled
    /// `0..k` in id order; edge order and weights are kept. The relabel
    /// preserves the relative order of ids, so every traversal of the
    /// [`adjacency`](Self::adjacency) (sorted neighbor rows, BFS discovery
    /// order, cone keys) is the same walk — and the adjacency is sized by
    /// the edge count, not by a vertex count an edge list merely claims.
    pub fn compacted(self) -> Graph {
        let mut ids: Vec<usize> = self.edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        ids.sort_unstable();
        ids.dedup();
        let label = |x| {
            ids.binary_search(&x)
                .expect("an endpoint is a touched vertex")
        };
        let mut edges = self.edges;
        for e in &mut edges {
            *e = (label(e.0), label(e.1), e.2);
        }
        Graph {
            n: ids.len(),
            edges,
        }
    }

    /// Builds the compressed sparse adjacency view of this graph — the
    /// random-access neighborhood substrate behind [`Adjacency::edge_ego`]
    /// light-cone extraction. Neighbor lists are sorted by vertex id, so
    /// every traversal order derived from them is deterministic.
    pub fn adjacency(&self) -> Adjacency {
        let mut offsets = vec![0usize; self.n + 1];
        for &(u, v, _) in &self.edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![(0usize, 0.0f64); 2 * self.edges.len()];
        for &(u, v, w) in &self.edges {
            neighbors[cursor[u]] = (v, w);
            cursor[u] += 1;
            neighbors[cursor[v]] = (u, w);
            cursor[v] += 1;
        }
        for v in 0..self.n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable_by_key(|&(b, _)| b);
        }
        Adjacency { offsets, neighbors }
    }
}

/// Compressed-sparse adjacency view of a [`Graph`] (one sorted neighbor row
/// per vertex), built once by [`Graph::adjacency`] and shared across the
/// per-edge neighborhood extractions of a light-cone evaluation.
#[derive(Clone, Debug)]
pub struct Adjacency {
    /// Row `v` of `neighbors` is `offsets[v]..offsets[v + 1]`.
    offsets: Vec<usize>,
    /// `(neighbor, edge weight)` pairs, sorted by neighbor id within a row.
    neighbors: Vec<(usize, f64)>,
}

impl Adjacency {
    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(neighbor, weight)` row of vertex `v`, sorted by neighbor id.
    pub fn neighbors(&self, v: usize) -> &[(usize, f64)] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The radius-`radius` ball around `seeds`: every vertex within graph
    /// distance `radius` of a seed, in deterministic BFS discovery order
    /// (seeds first, then distance-1 vertices in sorted-neighbor order, …).
    ///
    /// # Panics
    /// If a seed is out of range or repeated.
    pub fn ball(&self, seeds: &[usize], radius: usize) -> Vec<usize> {
        let (vertices, _, _) = self.bfs(seeds, radius);
        vertices
    }

    /// Extracts the exact depth-`radius` QAOA **light cone** of the edge
    /// `(u, v)`: the radius-`radius` ball around the endpoints, compactly
    /// relabeled in BFS discovery order (`u → 0`, `v → 1`), carrying every
    /// original edge with at least one endpoint strictly inside the ball.
    /// Edges between two frontier vertices (both at distance exactly
    /// `radius`) are excluded — their phase gates commute out of the
    /// evolved `Z_u Z_v` observable, so the cone is minimal *and* exact.
    ///
    /// The relabeling is a pure function of the neighborhood's labeled
    /// structure, which makes [`EgoNet::canonical_key`] a valid
    /// deduplication key: isomorphic-labeled neighborhoods (identical BFS
    /// unfoldings with identical weights) produce identical keys.
    ///
    /// # Panics
    /// If `u == v` or an endpoint is out of range. `(u, v)` need not be an
    /// edge of the graph (any vertex pair has a well-defined cone).
    pub fn edge_ego(&self, u: usize, v: usize, radius: usize) -> EgoNet {
        // Compact labels = BFS discovery positions, which `seen` records.
        let (vertices, dist, seen) = self.bfs(&[u, v], radius);
        // Deterministic edge order: interior vertices in compact order,
        // neighbors in sorted-id order. Interior–interior edges are pushed
        // from their smaller compact endpoint only; interior–frontier edges
        // from their (unique) interior endpoint.
        let mut edges = Vec::new();
        for (ca, &a) in vertices.iter().enumerate() {
            if dist[ca] >= radius {
                continue;
            }
            for &(b, w) in self.neighbors(a) {
                let cb = seen[&b];
                if dist[cb] < radius && cb < ca {
                    continue; // already pushed when `cb` was the source
                }
                edges.push((ca, cb, w));
            }
        }
        EgoNet {
            graph: Graph::new(vertices.len(), edges),
            vertices,
            dist,
            radius,
        }
    }

    /// The words of `edge_ego(u, v, radius).canonical_key()`, computed in
    /// `scratch` without building the cone — or `None` when the cone has
    /// more than `cap` vertices (`ball(&[u, v], radius).len() > cap`).
    ///
    /// The walk is [`edge_ego`](Self::edge_ego)'s BFS in the same discovery
    /// order, but it tests membership by a linear scan of the ball and
    /// stops as soon as the ball passes `cap`, so its cost is bounded by
    /// the cap, not by the degrees of the graph. Once `scratch` has grown
    /// to the largest cone it allocates nothing. The first word of the key
    /// is the cone's qubit count.
    ///
    /// # Panics
    /// If `u == v` or an endpoint is out of range.
    pub fn cone_key<'s>(
        &self,
        u: usize,
        v: usize,
        radius: usize,
        cap: usize,
        scratch: &'s mut EgoScratch,
    ) -> Option<&'s [u64]> {
        let n = self.n_vertices();
        assert!(u < n && v < n, "seed ({u},{v}) out of range for n = {n}");
        assert!(u != v, "repeated seed {u}");
        let EgoScratch {
            vertices,
            dist,
            edges,
            key,
        } = scratch;
        vertices.clear();
        dist.clear();
        vertices.extend([u, v]);
        dist.extend([0, 0]);
        if vertices.len() > cap {
            return None;
        }
        let mut head = 0;
        while head < vertices.len() {
            let (a, da) = (vertices[head], dist[head]);
            head += 1;
            if da >= radius {
                continue;
            }
            for &(b, _) in self.neighbors(a) {
                if !vertices.contains(&b) {
                    if vertices.len() == cap {
                        return None;
                    }
                    vertices.push(b);
                    dist.push(da + 1);
                }
            }
        }
        // Every neighbor of an interior vertex is in the ball, so the
        // position scan always finds it. A pushed edge has `ca < cb`:
        // interior–interior edges come from their smaller endpoint, and
        // discovery order puts every frontier vertex after every interior
        // one.
        edges.clear();
        for ca in 0..vertices.len() {
            if dist[ca] >= radius {
                continue;
            }
            for &(b, w) in self.neighbors(vertices[ca]) {
                let cb = vertices.iter().position(|&x| x == b).expect("in the ball");
                if dist[cb] < radius && cb < ca {
                    continue;
                }
                edges.push(pack_edge(ca, cb, w));
            }
        }
        encode_key(vertices.len(), radius, edges, key);
        Some(key)
    }

    /// Multi-source BFS to depth `radius`; returns vertices in discovery
    /// order with their distances, and the vertex → discovery position
    /// map. The frontier (distance == radius) is recorded but not expanded.
    fn bfs(
        &self,
        seeds: &[usize],
        radius: usize,
    ) -> (Vec<usize>, Vec<usize>, HashMap<usize, usize>) {
        let n = self.n_vertices();
        let mut seen = HashMap::new();
        let mut vertices = Vec::with_capacity(seeds.len());
        let mut dist = Vec::with_capacity(seeds.len());
        for &s in seeds {
            assert!(s < n, "seed {s} out of range for n = {n}");
            assert!(
                seen.insert(s, vertices.len()).is_none(),
                "repeated seed {s}"
            );
            vertices.push(s);
            dist.push(0);
        }
        let mut head = 0;
        while head < vertices.len() {
            let (a, da) = (vertices[head], dist[head]);
            head += 1;
            if da >= radius {
                continue;
            }
            for &(b, _) in self.neighbors(a) {
                if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(b) {
                    slot.insert(vertices.len());
                    vertices.push(b);
                    dist.push(da + 1);
                }
            }
        }
        (vertices, dist, seen)
    }
}

/// Reusable buffers for [`Adjacency::cone_key`]: one scratch serves every
/// edge of a plan, so keying a cone allocates nothing once the buffers
/// have grown to the widest cone.
#[derive(Clone, Debug, Default)]
pub struct EgoScratch {
    vertices: Vec<usize>,
    dist: Vec<usize>,
    edges: Vec<(u64, u64)>,
    key: Vec<u64>,
}

/// The compact-relabeled light cone of one edge, produced by
/// [`Adjacency::edge_ego`]: a small [`Graph`] on BFS-ordered labels with
/// the seed edge's endpoints at compact indices `0` and `1`, plus the
/// compact→original vertex map and per-vertex BFS distances.
#[derive(Clone, Debug, PartialEq)]
pub struct EgoNet {
    graph: Graph,
    vertices: Vec<usize>,
    dist: Vec<usize>,
    radius: usize,
}

impl EgoNet {
    /// The compact subgraph (seed endpoints at vertices `0` and `1`).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Compact index → original vertex id, in BFS discovery order.
    pub fn vertices(&self) -> &[usize] {
        &self.vertices
    }

    /// BFS distance of each compact vertex from the seed edge.
    pub fn distances(&self) -> &[usize] {
        &self.dist
    }

    /// The extraction radius this cone was built with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of qubits a simulation of this cone needs.
    pub fn n_qubits(&self) -> usize {
        self.graph.n_vertices()
    }

    /// The seed edge's endpoints in compact index space — always `(0, 1)`
    /// by construction; provided so callers never hard-code it.
    pub fn seeds(&self) -> (usize, usize) {
        (0, 1)
    }

    /// The canonical form of this labeled neighborhood — the ego-graph
    /// deduplication cache key. The edge list is sorted before encoding,
    /// so two cones collide exactly when their BFS unfoldings match vertex
    /// for vertex, edge for edge, *and* weight for weight (bitwise):
    /// isomorphic-labeled neighborhoods share one cache entry while
    /// distinct weights never do.
    pub fn canonical_key(&self) -> EgoKey {
        let mut packed: Vec<(u64, u64)> = self
            .graph
            .edges()
            .iter()
            .map(|&(a, b, w)| pack_edge(a, b, w))
            .collect();
        let mut key = Vec::with_capacity(3 + 2 * packed.len());
        encode_key(self.graph.n_vertices(), self.radius, &mut packed, &mut key);
        EgoKey(key)
    }
}

/// One normalized compact edge `(a, b, w)`, `a < b`, as two key words.
fn pack_edge(a: usize, b: usize, w: f64) -> (u64, u64) {
    (((a as u64) << 32) | b as u64, w.to_bits())
}

/// Writes the canonical key words into `key`: the qubit count, the
/// radius, the edge count, then the sorted packed edges.
fn encode_key(qubits: usize, radius: usize, packed: &mut [(u64, u64)], key: &mut Vec<u64>) {
    packed.sort_unstable();
    key.clear();
    key.extend([qubits as u64, radius as u64, packed.len() as u64]);
    for &(ab, w) in packed.iter() {
        key.extend([ab, w]);
    }
}

/// Canonical-form key of an [`EgoNet`] (see [`EgoNet::canonical_key`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EgoKey(Vec<u64>);

impl From<&[u64]> for EgoKey {
    fn from(words: &[u64]) -> Self {
        EgoKey(words.to_vec())
    }
}

/// Keys are looked up by the words [`Adjacency::cone_key`] writes, so a
/// key is allocated only for a new group. The derived `Hash` and `Eq`
/// delegate to the `Vec`, which hashes and compares as its slice.
impl std::borrow::Borrow<[u64]> for EgoKey {
    fn borrow(&self) -> &[u64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_counts() {
        let g = Graph::complete(6, 0.3);
        assert_eq!(g.n_edges(), 15);
        assert!(g.is_regular(5));
        assert!((g.total_weight() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn ring_graph_structure() {
        let g = Graph::ring(5, 1.0);
        assert_eq!(g.n_edges(), 5);
        assert!(g.is_regular(2));
    }

    #[test]
    fn path_graph_structure() {
        let g = Graph::path(4, 1.0);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.degrees(), vec![1, 2, 2, 1]);
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = StdRng::seed_from_u64(7);
        for (n, d) in [(8, 3), (10, 3), (12, 4), (6, 5)] {
            let g = Graph::random_regular(n, d, &mut rng);
            assert!(g.is_regular(d), "n={n}, d={d}");
            assert_eq!(g.n_edges(), n * d / 2);
            // Graph::new-style invariants hold by construction; re-validate.
            let _ = Graph::new(n, g.edges().to_vec());
        }
    }

    #[test]
    fn random_regular_d0() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::random_regular(5, 0, &mut rng);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_rejects_odd_product() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Graph::random_regular(5, 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn new_rejects_self_loop() {
        let _ = Graph::new(3, vec![(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn new_rejects_duplicate_edge() {
        let _ = Graph::new(3, vec![(0, 1, 1.0), (1, 0, 2.0)]);
    }

    #[test]
    fn compacted_relabels_touched_vertices_in_id_order() {
        // Vertex 3 is isolated; ids past it shift down, edge order stays.
        let g = Graph::new(
            1 << 40,
            vec![(7, (1 << 40) - 1, 0.5), (0, 7, 1.5), (2, 0, -1.0)],
        );
        let c = g.compacted();
        assert_eq!(c.n_vertices(), 4);
        assert_eq!(c.edges(), &[(2, 3, 0.5), (0, 2, 1.5), (0, 1, -1.0)]);
        assert_eq!(c.adjacency().n_vertices(), 4);
        // A graph whose vertices are all touched is its own compaction.
        let ring = Graph::ring(9, 1.0);
        assert_eq!(ring.clone().compacted(), ring);
    }

    #[test]
    fn cut_value_bipartition() {
        let g = Graph::ring(4, 1.0);
        // Alternating sides cut every edge of an even ring.
        assert_eq!(g.cut_value(0b0101), 4.0);
        assert_eq!(g.cut_value(0b0000), 0.0);
        assert_eq!(g.cut_value(0b0011), 2.0);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        let g0 = Graph::erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(g0.n_edges(), 0);
        let g1 = Graph::erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(g1.n_edges(), 45);
    }

    #[test]
    fn random_weights_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = Graph::complete(5, 1.0).with_random_weights(0.5, 2.0, &mut rng);
        for &(_, _, w) in g.edges() {
            assert!((0.5..2.0).contains(&w));
        }
    }

    #[test]
    fn adjacency_rows_are_sorted_and_complete() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = Graph::random_regular(10, 3, &mut rng);
        let adj = g.adjacency();
        assert_eq!(adj.n_vertices(), 10);
        let mut seen = 0usize;
        for v in 0..10 {
            let row = adj.neighbors(v);
            assert_eq!(adj.degree(v), 3);
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row {v} unsorted");
            seen += row.len();
        }
        assert_eq!(seen, 2 * g.n_edges());
        // Every (row, entry) pair corresponds to a graph edge with its
        // weight, and vice versa.
        for &(u, v, w) in g.edges() {
            assert!(adj.neighbors(u).contains(&(v, w)));
            assert!(adj.neighbors(v).contains(&(u, w)));
        }
    }

    #[test]
    fn ball_respects_radius_bounds() {
        // Ring: the radius-r ball around one vertex has 2r + 1 vertices;
        // around an edge, 2r + 2.
        let g = Graph::ring(12, 1.0);
        let adj = g.adjacency();
        for r in 0..4 {
            assert_eq!(adj.ball(&[0], r).len(), 2 * r + 1, "radius {r}");
            assert_eq!(adj.ball(&[0, 1], r).len(), 2 * r + 2, "radius {r}");
        }
        // BFS order: seeds first, then increasing distance.
        assert_eq!(adj.ball(&[0, 1], 1), vec![0, 1, 11, 2]);
    }

    #[test]
    fn edge_ego_ring_shapes() {
        let g = Graph::ring(8, 1.0);
        let adj = g.adjacency();
        // Radius 0: just the endpoints, no gates.
        let e0 = adj.edge_ego(2, 3, 0);
        assert_eq!(e0.n_qubits(), 2);
        assert_eq!(e0.graph().n_edges(), 0);
        // Radius 1: the endpoints, their outer neighbors, and the three
        // path edges — the neighbor–neighbor frontier edges don't exist on
        // a ring this large.
        let e1 = adj.edge_ego(2, 3, 1);
        assert_eq!(e1.n_qubits(), 4);
        assert_eq!(e1.graph().n_edges(), 3);
        assert_eq!(e1.vertices(), &[2, 3, 1, 4]);
        assert_eq!(e1.distances(), &[0, 0, 1, 1]);
        assert_eq!(e1.seeds(), (0, 1));
        // Radius ≥ diameter: the whole ring, all 8 edges interior.
        let e4 = adj.edge_ego(2, 3, 4);
        assert_eq!(e4.n_qubits(), 8);
        assert_eq!(e4.graph().n_edges(), 8);
    }

    #[test]
    fn edge_ego_excludes_frontier_frontier_edges() {
        // Triangle plus a pendant: for the pendant edge (0,3) at radius 1,
        // vertices 1 and 2 sit on the frontier — edge (1,2) must be
        // dropped (it commutes out of the evolved observable), while the
        // interior edges (0,1), (0,2), (0,3) all survive.
        let g = Graph::new(4, vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 1.0)]);
        let ego = g.adjacency().edge_ego(0, 3, 1);
        assert_eq!(ego.n_qubits(), 4);
        assert_eq!(ego.graph().n_edges(), 3);
        let original_edges: Vec<(usize, usize)> = ego
            .graph()
            .edges()
            .iter()
            .map(|&(a, b, _)| {
                let (x, y) = (ego.vertices()[a], ego.vertices()[b]);
                (x.min(y), x.max(y))
            })
            .collect();
        assert!(!original_edges.contains(&(1, 2)), "{original_edges:?}");
    }

    #[test]
    fn edge_ego_round_trips_to_original_edges() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = Graph::erdos_renyi(14, 0.3, &mut rng).with_random_weights(0.2, 1.8, &mut rng);
        let adj = g.adjacency();
        for &(u, v, _) in g.edges() {
            for radius in 0..3 {
                let ego = adj.edge_ego(u, v, radius);
                assert_eq!(ego.vertices()[0], u);
                assert_eq!(ego.vertices()[1], v);
                assert_eq!(ego.radius(), radius);
                // Every compact edge maps back to an original edge with
                // the same weight.
                for &(a, b, w) in ego.graph().edges() {
                    let (x, y) = (ego.vertices()[a], ego.vertices()[b]);
                    let key = (x.min(y), x.max(y));
                    let orig = g
                        .edges()
                        .iter()
                        .find(|&&(s, t, _)| (s, t) == key)
                        .unwrap_or_else(|| panic!("({x},{y}) not an edge"));
                    assert_eq!(orig.2.to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn canonical_keys_collide_for_isomorphic_labeled_cones() {
        // All edges of a uniform ring see the same labeled neighborhood:
        // one cache entry for the whole graph.
        let g = Graph::ring(10, 1.0);
        let adj = g.adjacency();
        let keys: std::collections::HashSet<_> = g
            .edges()
            .iter()
            .map(|&(u, v, _)| adj.edge_ego(u, v, 2).canonical_key())
            .collect();
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn canonical_keys_distinguish_weights_and_radii() {
        let uniform = Graph::ring(10, 1.0);
        let adj = uniform.adjacency();
        let base = adj.edge_ego(0, 1, 2).canonical_key();
        // Same structure, different weight on one cone edge → different key.
        let mut edges = uniform.edges().to_vec();
        edges[0].2 = 1.5; // edge (0, 1)
        let heavier = Graph::new(10, edges);
        let other = heavier.adjacency().edge_ego(0, 1, 2).canonical_key();
        assert_ne!(base, other);
        // Same cone at a different radius → different key.
        assert_ne!(base, adj.edge_ego(0, 1, 1).canonical_key());
    }

    #[test]
    #[should_panic(expected = "repeated seed")]
    fn ball_rejects_repeated_seed() {
        let g = Graph::ring(5, 1.0);
        let _ = g.adjacency().ball(&[2, 2], 1);
    }
}
