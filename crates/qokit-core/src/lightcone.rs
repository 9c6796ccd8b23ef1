//! Light-cone QAOA evaluation for huge sparse graphs.
//!
//! A depth-`p` QAOA circuit is *local*: the evolved observable
//! `U† Z_u Z_v U` is supported entirely on the radius-`p` neighborhood of
//! the edge `(u, v)`, so each term of the MaxCut energy can be evaluated by
//! simulating only that neighborhood — a handful of qubits — instead of the
//! full `2^n` state vector. For a graph of maximum degree `d` the cone has
//! at most `2 + 2·Σ_{k=1..p} (d−1)^k` vertices, independent of `n`, which
//! turns million-node MaxCut instances from impossible into milliseconds.
//!
//! The pipeline, per energy evaluation:
//!
//! 1. **Plan** ([`LightConeEvaluator::plan`]): extract the radius-`p` ego
//!    subgraph around every edge ([`Adjacency::edge_ego`]), relabel it to a
//!    compact qubit space, and — when deduplication is on — collapse
//!    identical labeled cones via [`EgoNet::canonical_key`]. On regular
//!    graphs nearly every cone is a copy of the same local tree, so the
//!    unique-cone count is tiny compared to the edge count.
//! 2. **Simulate** ([`LightConeEvaluator::try_zz_values`]): run the small
//!    QAOA subcircuit on each *unique* cone with [`FurSimulator`] and read
//!    off `⟨Z_u Z_v⟩`. Unique cones fan out across the pool through
//!    [`rayon::strided_lanes`]; each cone runs with strictly serial kernels
//!    so its value is bit-identical wherever it is computed.
//! 3. **Accumulate** ([`LightConeEvaluator::accumulate`]): fold
//!    `Σ_e ½·w_e·⟨Z_u Z_v⟩ − W/2` sequentially in edge order — the same
//!    convention as [`maxcut_polynomial`], so the result matches the exact
//!    full-statevector objective to floating-point accuracy, and is
//!    bit-identical across pool sizes.
//!
//! Only the X mixer is supported: XY mixers couple every qubit pair (ring
//! or complete), which destroys the locality the light cone relies on.
//!
//! ```
//! use qokit_core::lightcone::LightConeEvaluator;
//! use qokit_core::{FurSimulator, QaoaSimulator};
//! use qokit_terms::graphs::Graph;
//! use qokit_terms::maxcut::maxcut_polynomial;
//!
//! let g = Graph::ring(14, 1.0);
//! let exact = FurSimulator::new(&maxcut_polynomial(&g)).objective(&[0.3], &[0.5]);
//! let run = LightConeEvaluator::new(g).try_energy(&[0.3], &[0.5]).unwrap();
//! assert!((run.energy - exact).abs() < 1e-9);
//! assert_eq!(run.stats.unique_cones, 1); // every ring cone is identical
//! ```
//!
//! [`maxcut_polynomial`]: qokit_terms::maxcut::maxcut_polynomial
//! [`Adjacency::edge_ego`]: qokit_terms::graphs::Adjacency::edge_ego

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};

use crate::mixers::Mixer;
use crate::simulator::{FurSimulator, InitialState, SimOptions};
use qokit_costvec::PrecomputeMethod;
use qokit_statevec::exec::{Backend, ExecPolicy};
use qokit_terms::graphs::{Adjacency, EgoNet, Graph};
use qokit_terms::{SpinPolynomial, Term};

/// Configuration for [`LightConeEvaluator`].
#[derive(Clone, Debug)]
pub struct LightConeOptions {
    /// How the per-cone simulations fan out. [`Backend::Serial`] runs the
    /// cones one after another in the calling thread; [`Backend::Rayon`]
    /// spreads them across the pool (sized by `threads`, or the ambient
    /// pool when `threads == 0`). Kernels *inside* each cone are always
    /// serial, so the energy is bit-identical under every policy.
    pub exec: ExecPolicy,
    /// Collapse identical labeled cones into one simulation
    /// ([`EgoNet::canonical_key`]). On regular graphs this routinely turns
    /// millions of edges into a handful of unique cones.
    pub dedup: bool,
    /// Refuse cones wider than this many qubits
    /// ([`LightConeError::ConeTooWide`]) instead of attempting a `2^q`
    /// statevector allocation. Defaults to 22 (a 64 MiB cone state).
    pub max_cone_qubits: usize,
}

impl Default for LightConeOptions {
    fn default() -> Self {
        LightConeOptions {
            exec: ExecPolicy::auto(),
            dedup: true,
            max_cone_qubits: 22,
        }
    }
}

/// Errors from planning or evaluating a light-cone energy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LightConeError {
    /// An edge's neighborhood exceeds
    /// [`LightConeOptions::max_cone_qubits`] — the graph is too dense (or
    /// the depth too high) for light-cone evaluation to pay off.
    ConeTooWide {
        /// Global index of the offending edge in [`Graph::edges`] order.
        edge: usize,
        /// The cone's qubit count.
        qubits: usize,
        /// The configured ceiling.
        max: usize,
    },
    /// One cone's simulation panicked. Sibling cones still complete and
    /// the pool remains reusable; only this evaluation is poisoned.
    ConePanicked {
        /// Global index (in [`Graph::edges`] order) of the cone's
        /// representative edge — the first edge mapped to this cone.
        edge: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for LightConeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LightConeError::ConeTooWide { edge, qubits, max } => write!(
                f,
                "light cone of edge {edge} spans {qubits} qubits (limit {max})"
            ),
            LightConeError::ConePanicked { edge, message } => {
                write!(f, "light cone of edge {edge} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for LightConeError {}

/// One unique cone of a [`ConePlan`]: the relabeled neighborhood plus the
/// global index of its representative (first) edge.
#[derive(Clone, Debug)]
pub struct PlannedCone {
    ego: EgoNet,
    edge: usize,
}

impl PlannedCone {
    /// The relabeled neighborhood (seed edge at compact qubits `(0, 1)`).
    pub fn ego(&self) -> &EgoNet {
        &self.ego
    }

    /// Global index (in [`Graph::edges`] order) of the first edge that
    /// mapped to this cone.
    pub fn edge(&self) -> usize {
        self.edge
    }
}

/// The result of [`LightConeEvaluator::plan`]: every edge's cone, grouped
/// by canonical form. Group indices are assigned by first occurrence in
/// edge order, so the plan is identical however the extraction was
/// parallelized.
#[derive(Clone, Debug)]
pub struct ConePlan {
    radius: usize,
    cones: Vec<PlannedCone>,
    group_of: Vec<usize>,
    max_qubits_seen: usize,
}

impl ConePlan {
    /// The neighborhood radius the plan was built for (= the QAOA depth).
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// The unique cones, in order of first appearance.
    pub fn cones(&self) -> &[PlannedCone] {
        &self.cones
    }

    /// For each global edge index, the index into [`ConePlan::cones`] of
    /// the cone that evaluates it.
    pub fn group_of(&self) -> &[usize] {
        &self.group_of
    }

    /// Dedup-cache statistics for this plan.
    pub fn stats(&self) -> LightConeStats {
        LightConeStats {
            edges: self.group_of.len(),
            unique_cones: self.cones.len(),
            cache_hits: self.group_of.len() - self.cones.len(),
            max_cone_qubits_seen: self.max_qubits_seen,
        }
    }
}

/// Ego-graph dedup-cache counters, surfaced next to every energy (the
/// light-cone analogue of `qokit_dist`'s `CommStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LightConeStats {
    /// Total edges evaluated.
    pub edges: usize,
    /// Cones actually simulated after deduplication.
    pub unique_cones: usize,
    /// Edges served from the cache (`edges − unique_cones`).
    pub cache_hits: usize,
    /// Widest cone encountered, in qubits.
    pub max_cone_qubits_seen: usize,
}

impl LightConeStats {
    /// Fraction of edges that reused an already-simulated cone.
    pub fn hit_rate(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.edges as f64
        }
    }
}

/// An energy evaluation's outputs: the objective value plus the cache
/// counters of the plan that produced it.
#[derive(Clone, Copy, Debug)]
pub struct LightConeRun {
    /// `Σ_e ½·w_e·⟨Z_u Z_v⟩ − W/2`, identical (to `≤ 1e-9`) to the exact
    /// full-statevector objective of `maxcut_polynomial`.
    pub energy: f64,
    /// Dedup-cache counters for the evaluation.
    pub stats: LightConeStats,
}

/// Evaluates the MaxCut QAOA objective edge by edge through radius-`p`
/// light cones (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct LightConeEvaluator {
    graph: Graph,
    adjacency: Adjacency,
    options: LightConeOptions,
}

impl LightConeEvaluator {
    /// Builds an evaluator with default options (ambient-pool fan-out,
    /// deduplication on).
    pub fn new(graph: Graph) -> Self {
        Self::with_options(graph, LightConeOptions::default())
    }

    /// Builds an evaluator with explicit options. The adjacency structure
    /// is built once, here.
    pub fn with_options(graph: Graph, options: LightConeOptions) -> Self {
        let adjacency = graph.adjacency();
        LightConeEvaluator {
            graph,
            adjacency,
            options,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The configured options.
    pub fn options(&self) -> &LightConeOptions {
        &self.options
    }

    /// Extracts and deduplicates the radius-`radius` cone of every edge.
    ///
    /// Extraction fans out across the pool; grouping assigns unique-cone
    /// indices by first occurrence in edge order, so the same plan comes
    /// out at every pool size.
    pub fn plan(&self, radius: usize) -> Result<ConePlan, LightConeError> {
        let edges = self.graph.edges();
        let egos = self.fan_out(edges.len(), |e| {
            let (u, v, _) = edges[e];
            let ego = self.adjacency.edge_ego(u, v, radius);
            let key = self.options.dedup.then(|| ego.canonical_key());
            (ego, key)
        });

        let mut cones: Vec<PlannedCone> = Vec::new();
        let mut group_of = Vec::with_capacity(edges.len());
        let mut groups = HashMap::new();
        let mut max_qubits_seen = 0;
        for (edge, (ego, key)) in egos.into_iter().enumerate() {
            let qubits = ego.n_qubits();
            if qubits > self.options.max_cone_qubits {
                return Err(LightConeError::ConeTooWide {
                    edge,
                    qubits,
                    max: self.options.max_cone_qubits,
                });
            }
            max_qubits_seen = max_qubits_seen.max(qubits);
            let group = match key {
                Some(key) => *groups.entry(key).or_insert_with(|| {
                    cones.push(PlannedCone { ego, edge });
                    cones.len() - 1
                }),
                None => {
                    cones.push(PlannedCone { ego, edge });
                    cones.len() - 1
                }
            };
            group_of.push(group);
        }
        Ok(ConePlan {
            radius,
            cones,
            group_of,
            max_qubits_seen,
        })
    }

    /// Simulates every unique cone of `plan` and returns its `⟨Z_u Z_v⟩`,
    /// indexed like [`ConePlan::cones`]. A panicking cone poisons only
    /// this call ([`LightConeError::ConePanicked`] with the cone's
    /// representative edge); sibling cones still complete. Each cone runs
    /// the state-vector simulation [`cone_zz`].
    pub fn try_zz_values(
        &self,
        plan: &ConePlan,
        gammas: &[f64],
        betas: &[f64],
    ) -> Result<Vec<f64>, LightConeError> {
        self.try_zz_values_with(plan, |_, ego| cone_zz(ego, gammas, betas))
    }

    /// As [`try_zz_values`](Self::try_zz_values), but with an injectable
    /// per-cone evaluation `f(unique_index, ego) → ⟨ZZ⟩`. This is the hook
    /// `qokit-dist` uses to shard unique cones across ranks, and what the
    /// failure-injection tests use to poison a single cone.
    pub fn try_zz_values_with<F>(&self, plan: &ConePlan, f: F) -> Result<Vec<f64>, LightConeError>
    where
        F: Fn(usize, &EgoNet) -> f64 + Sync,
    {
        let slots = self.fan_out(plan.cones.len(), |i| {
            let cone = &plan.cones[i];
            panic::catch_unwind(AssertUnwindSafe(|| f(i, &cone.ego))).map_err(|payload| {
                LightConeError::ConePanicked {
                    edge: cone.edge,
                    message: panic_message(payload),
                }
            })
        });
        slots.into_iter().collect()
    }

    /// Folds per-cone `⟨Z_u Z_v⟩` values into the global objective
    /// `Σ_e ½·w_e·zz[group_of[e]] − W/2`, sequentially in edge order —
    /// the accumulation order never depends on how `zz` was computed.
    ///
    /// # Panics
    /// If `zz.len()` does not match the plan's unique-cone count.
    pub fn accumulate(&self, plan: &ConePlan, zz: &[f64]) -> f64 {
        assert_eq!(zz.len(), plan.cones.len(), "one ⟨ZZ⟩ value per unique cone");
        let mut energy = 0.0;
        for (&(_, _, w), &group) in self.graph.edges().iter().zip(&plan.group_of) {
            energy += 0.5 * w * zz[group];
        }
        energy - 0.5 * self.graph.total_weight()
    }

    /// Plans, simulates, and accumulates the depth-`p` objective in one
    /// call (`p = gammas.len()`, the cone radius).
    ///
    /// # Panics
    /// If `gammas.len() != betas.len()`.
    pub fn try_energy(
        &self,
        gammas: &[f64],
        betas: &[f64],
    ) -> Result<LightConeRun, LightConeError> {
        assert_eq!(
            gammas.len(),
            betas.len(),
            "gamma and beta must have the same length p"
        );
        let plan = self.plan(gammas.len())?;
        let zz = self.try_zz_values(&plan, gammas, betas)?;
        Ok(LightConeRun {
            energy: self.accumulate(&plan, &zz),
            stats: plan.stats(),
        })
    }

    /// As [`try_energy`](Self::try_energy), but panics on error.
    pub fn energy(&self, gammas: &[f64], betas: &[f64]) -> f64 {
        match self.try_energy(gammas, betas) {
            Ok(run) => run.energy,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `body(0..n)` under the configured fan-out policy, results
    /// keyed by index: sequentially for [`Backend::Serial`], through
    /// [`rayon::strided_lanes`] on the (possibly sized) pool otherwise.
    fn fan_out<R, F>(&self, n: usize, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        let exec = self.options.exec;
        match exec.backend {
            Backend::Serial => (0..n).map(body).collect(),
            Backend::Rayon => exec.install(|| rayon::strided_lanes(n, n, 0, body)),
        }
    }
}

/// Simulates one cone's QAOA subcircuit with strictly serial kernels and
/// returns `⟨Z_0 Z_1⟩` — the seed edge's correlator, `Σ_x ±|ψ_x|²` read
/// straight off the evolved split planes. The cone polynomial carries the
/// same `½·w` coefficients as `maxcut_polynomial` (the constant offset is a
/// global phase and is omitted).
///
/// # Panics
/// If `gammas.len() != betas.len()`.
pub fn cone_zz(ego: &EgoNet, gammas: &[f64], betas: &[f64]) -> f64 {
    let exec = ExecPolicy::serial();
    let sim = cone_simulator(ego, exec);
    let mut state = sim.initial_planes();
    sim.evolve_planes(&mut state, gammas, betas, exec);
    let (re, im) = state.planes();
    let (s0, s1) = ego.seeds();
    re.iter()
        .zip(im)
        .enumerate()
        .map(|(x, (r, i))| {
            let p = r * r + i * i;
            if ((x >> s0) ^ (x >> s1)) & 1 == 1 {
                -p
            } else {
                p
            }
        })
        .sum()
}

/// The simulator of one cone's subcircuit: the cone's MaxCut polynomial,
/// X mixer, `|+⟩^{⊗q}` start, kernels under `exec`.
fn cone_simulator(ego: &EgoNet, exec: ExecPolicy) -> FurSimulator {
    let terms: Vec<Term> = ego
        .graph()
        .edges()
        .iter()
        .map(|&(a, b, w)| Term::new(0.5 * w, &[a, b]))
        .collect();
    let poly = SpinPolynomial::new(ego.n_qubits(), terms);
    FurSimulator::with_options(
        &poly,
        SimOptions {
            mixer: Mixer::X,
            exec,
            precompute: PrecomputeMethod::Fwht,
            quantize_u16: false,
            initial: InitialState::UniformSuperposition,
        },
    )
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::QaoaSimulator;
    use qokit_terms::maxcut::maxcut_polynomial;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_energy(g: &Graph, gammas: &[f64], betas: &[f64]) -> f64 {
        FurSimulator::new(&maxcut_polynomial(g)).objective(gammas, betas)
    }

    #[test]
    fn ring_energy_matches_exact_statevector() {
        let g = Graph::ring(12, 1.0);
        let ev = LightConeEvaluator::new(g.clone());
        for (gammas, betas) in [(vec![0.3], vec![0.5]), (vec![0.7, -0.2], vec![0.1, 0.9])] {
            let run = ev.try_energy(&gammas, &betas).unwrap();
            let exact = exact_energy(&g, &gammas, &betas);
            assert!(
                (run.energy - exact).abs() < 1e-9,
                "p={}: {} vs {}",
                gammas.len(),
                run.energy,
                exact
            );
        }
    }

    #[test]
    fn weighted_irregular_graph_matches_exact_statevector() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = Graph::erdos_renyi(11, 0.35, &mut rng).with_random_weights(0.2, 1.8, &mut rng);
        let ev = LightConeEvaluator::new(g.clone());
        let run = ev.try_energy(&[0.4, -0.3], &[0.8, 0.2]).unwrap();
        let exact = exact_energy(&g, &[0.4, -0.3], &[0.8, 0.2]);
        assert!(
            (run.energy - exact).abs() < 1e-9,
            "{} vs {exact}",
            run.energy
        );
    }

    #[test]
    fn depth_zero_energy_is_minus_half_total_weight() {
        let g = Graph::ring(8, 1.5);
        let run = LightConeEvaluator::new(g.clone())
            .try_energy(&[], &[])
            .unwrap();
        assert!((run.energy + 0.5 * g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn ring_dedup_collapses_to_one_cone() {
        let g = Graph::ring(20, 1.0);
        let ev = LightConeEvaluator::new(g);
        let run = ev.try_energy(&[0.3], &[0.5]).unwrap();
        assert_eq!(run.stats.edges, 20);
        assert_eq!(run.stats.unique_cones, 1);
        assert_eq!(run.stats.cache_hits, 19);
        assert!((run.stats.hit_rate() - 0.95).abs() < 1e-12);
        assert_eq!(run.stats.max_cone_qubits_seen, 4);
    }

    #[test]
    fn dedup_off_simulates_every_edge_and_agrees() {
        let g = Graph::ring(10, 1.0);
        let on = LightConeEvaluator::new(g.clone());
        let off = LightConeEvaluator::with_options(
            g,
            LightConeOptions {
                dedup: false,
                ..LightConeOptions::default()
            },
        );
        let run_on = on.try_energy(&[0.3], &[0.5]).unwrap();
        let run_off = off.try_energy(&[0.3], &[0.5]).unwrap();
        assert_eq!(run_off.stats.unique_cones, 10);
        assert_eq!(run_off.stats.cache_hits, 0);
        assert_eq!(run_on.energy.to_bits(), run_off.energy.to_bits());
    }

    #[test]
    fn energy_is_bit_identical_across_pool_sizes() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = Graph::random_regular(14, 3, &mut rng);
        let serial = LightConeEvaluator::with_options(
            g.clone(),
            LightConeOptions {
                exec: ExecPolicy::serial(),
                ..LightConeOptions::default()
            },
        )
        .energy(&[0.3, 0.1], &[0.5, 0.7]);
        for threads in [1, 2, 4] {
            let pooled = LightConeEvaluator::with_options(
                g.clone(),
                LightConeOptions {
                    exec: ExecPolicy::rayon().with_threads(threads),
                    ..LightConeOptions::default()
                },
            )
            .energy(&[0.3, 0.1], &[0.5, 0.7]);
            assert_eq!(serial.to_bits(), pooled.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn too_wide_cone_is_refused_with_edge_index() {
        let g = Graph::complete(8, 1.0);
        let ev = LightConeEvaluator::with_options(
            g,
            LightConeOptions {
                max_cone_qubits: 4,
                ..LightConeOptions::default()
            },
        );
        let err = ev.try_energy(&[0.3], &[0.5]).unwrap_err();
        assert_eq!(
            err,
            LightConeError::ConeTooWide {
                edge: 0,
                qubits: 8,
                max: 4
            }
        );
    }

    #[test]
    fn poisoned_cone_reports_representative_edge() {
        let g = Graph::ring(12, 1.0);
        let ev = LightConeEvaluator::with_options(
            g,
            LightConeOptions {
                dedup: false,
                ..LightConeOptions::default()
            },
        );
        let plan = ev.plan(1).unwrap();
        let err = ev
            .try_zz_values_with(&plan, |i, ego| {
                if i == 5 {
                    panic!("boom at cone {i}");
                }
                cone_zz(ego, &[0.3], &[0.5])
            })
            .unwrap_err();
        assert_eq!(
            err,
            LightConeError::ConePanicked {
                edge: 5,
                message: "boom at cone 5".to_string()
            }
        );
        // The evaluator (and the pool underneath) stays usable.
        let zz = ev.try_zz_values(&plan, &[0.3], &[0.5]).unwrap();
        assert_eq!(zz.len(), 12);
    }

    /// `⟨Z_0 Z_1⟩` as it was computed on an interleaved state: simulate,
    /// take the probabilities, sum them signed by the seeds' parity.
    fn interleaved_cone_zz(ego: &EgoNet, gammas: &[f64], betas: &[f64]) -> f64 {
        let exec = ExecPolicy::serial().with_layout(qokit_statevec::Layout::Interleaved);
        let sim = cone_simulator(ego, exec);
        let probs = sim.into_probabilities(sim.simulate_qaoa(gammas, betas));
        let (s0, s1) = ego.seeds();
        probs
            .iter()
            .enumerate()
            .map(|(x, p)| {
                if ((x >> s0) ^ (x >> s1)) & 1 == 1 {
                    -p
                } else {
                    *p
                }
            })
            .sum()
    }

    #[test]
    fn plane_cone_zz_has_the_bits_of_the_interleaved_formula() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = Graph::erdos_renyi(14, 0.18, &mut rng);
        let ev = LightConeEvaluator::new(g);
        let schedules = [
            (vec![0.3], vec![0.5]),
            (vec![0.7, -0.2], vec![0.1, 0.9]),
            (vec![0.25, 0.5, -0.2], vec![0.6, -0.3, 0.35]),
        ];
        for (gammas, betas) in &schedules {
            let plan = ev.plan(gammas.len()).unwrap();
            assert!(!plan.cones().is_empty());
            for cone in plan.cones() {
                let planes = cone_zz(cone.ego(), gammas, betas);
                let interleaved = interleaved_cone_zz(cone.ego(), gammas, betas);
                assert_eq!(
                    planes.to_bits(),
                    interleaved.to_bits(),
                    "p = {}, edge {}",
                    gammas.len(),
                    cone.edge()
                );
            }
        }
    }

    #[test]
    fn p3_ring_energy_matches_exact_statevector() {
        let g = Graph::ring(12, 1.0);
        let (gammas, betas) = ([0.3, -0.15, 0.45], [0.7, 0.4, 0.1]);
        let run = LightConeEvaluator::new(g.clone())
            .try_energy(&gammas, &betas)
            .unwrap();
        let exact = exact_energy(&g, &gammas, &betas);
        assert!(
            (run.energy - exact).abs() <= 1e-9,
            "{} vs {exact}",
            run.energy
        );
    }

    #[test]
    fn p3_sparse_random_graphs_match_exact_statevector() {
        let (gammas, betas) = ([0.25, 0.5, -0.2], [0.6, -0.3, 0.35]);
        for (seed, n, p_edge) in [(5u64, 12usize, 0.2), (17, 11, 0.25)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = Graph::erdos_renyi(n, p_edge, &mut rng);
            assert!(g.n_edges() > 0, "seed {seed}: empty graph");
            let run = LightConeEvaluator::new(g.clone())
                .try_energy(&gammas, &betas)
                .unwrap();
            let exact = exact_energy(&g, &gammas, &betas);
            assert!(
                (run.energy - exact).abs() <= 1e-9,
                "seed {seed}: {} vs {exact}",
                run.energy
            );
        }
    }
}
