//! Distributed light-cone evaluation: unique cones sharded across ranks.
//!
//! For million-edge graphs the per-evaluation work is the set of *unique*
//! cones of a [`ConePlan`](qokit_core::lightcone::ConePlan) (after ego-graph deduplication, usually far
//! smaller than the edge count). [`DistLightCone`] splits that set into
//! `K` contiguous shards, sends shard `r` to rank `r` of a [`Transport`] as
//! one `ConeShard` request, concatenates the per-rank `⟨ZZ⟩` vectors in
//! rank order, and hands the result to
//! [`ConePlan::accumulate`](qokit_core::lightcone::ConePlan::accumulate)
//! for the sequential edge-order fold.
//! [`DistLightCone::try_energy`] runs the ranks as pool tasks on an
//! [`InProcessTransport`]; [`DistLightCone::try_energy_on`] takes any
//! transport. Every cone runs with serial kernels, the shard boundaries
//! depend only on the cone count, and both the concatenation and the
//! accumulation are rank-ordered — so the energy is bit-identical to the
//! single-process evaluator at every rank count, pool size and transport.
//!
//! ```
//! use qokit_core::lightcone::LightConeEvaluator;
//! use qokit_dist::lightcone::DistLightCone;
//! use qokit_terms::graphs::Graph;
//!
//! let g = Graph::ring(16, 1.0);
//! let local = LightConeEvaluator::new(g.clone()).try_energy(&[0.3], &[0.5]).unwrap();
//! let dist = DistLightCone::new(LightConeEvaluator::new(g), 4)
//!     .try_energy(&[0.3], &[0.5])
//!     .unwrap();
//! assert_eq!(dist.energy.to_bits(), local.energy.to_bits());
//! ```

use crate::comm::CommStats;
use crate::transport::{self, InProcessTransport, Transport, TransportError};
use crate::wire::Request;
use qokit_core::lightcone::{LightConeError, LightConeEvaluator, LightConeStats};

/// Errors from a distributed light-cone evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistLightConeError {
    /// Planning failed before any rank ran (e.g. a cone exceeded the
    /// evaluator's qubit ceiling).
    Plan(LightConeError),
    /// One cone's simulation panicked inside a rank's superstep. Sibling
    /// ranks complete their shards; only this evaluation is poisoned.
    ConePanicked {
        /// Rank whose shard contained the poisoned cone.
        rank: usize,
        /// Global index (in `Graph::edges` order) of the cone's
        /// representative edge.
        edge: u64,
        /// The panic payload, stringified.
        message: String,
    },
    /// The transport carrying a
    /// [`try_energy_on`](DistLightCone::try_energy_on) evaluation failed;
    /// the inner error is tagged with the failing rank.
    Transport(TransportError),
}

impl std::fmt::Display for DistLightConeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistLightConeError::Plan(e) => write!(f, "light-cone planning failed: {e}"),
            DistLightConeError::ConePanicked {
                rank,
                edge,
                message,
            } => {
                write!(
                    f,
                    "light cone of edge {edge} (rank {rank}) panicked: {message}"
                )
            }
            DistLightConeError::Transport(e) => {
                write!(f, "distributed light-cone evaluation failed: {e}")
            }
        }
    }
}

impl std::error::Error for DistLightConeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistLightConeError::Plan(e) => Some(e),
            DistLightConeError::Transport(e) => Some(e),
            DistLightConeError::ConePanicked { .. } => None,
        }
    }
}

impl From<TransportError> for DistLightConeError {
    fn from(e: TransportError) -> Self {
        DistLightConeError::Transport(e)
    }
}

/// Outcome of a distributed light-cone evaluation.
#[derive(Clone, Debug)]
pub struct DistLightConeRun {
    /// The objective — bit-identical to
    /// [`LightConeEvaluator::try_energy`] at any rank count.
    pub energy: f64,
    /// Dedup-cache counters of the underlying plan.
    pub stats: LightConeStats,
    /// The transport's traffic counters: zero bytes in process, framed
    /// cone lists and `⟨ZZ⟩` replies over TCP.
    pub comm: CommStats,
}

/// Shards the unique cones of a light-cone evaluation across `K` ranks
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct DistLightCone {
    evaluator: LightConeEvaluator,
    ranks: usize,
}

impl DistLightCone {
    /// Wraps an evaluator for `ranks`-way sharding. The evaluator's own
    /// fan-out policy is ignored here — parallelism comes from running
    /// ranks as pool tasks.
    ///
    /// # Panics
    /// If `ranks` is zero.
    pub fn new(evaluator: LightConeEvaluator, ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        DistLightCone { evaluator, ranks }
    }

    /// The wrapped evaluator.
    pub fn evaluator(&self) -> &LightConeEvaluator {
        &self.evaluator
    }

    /// Number of ranks K.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Plans, simulates the unique cones in `K` contiguous shards (one
    /// per rank, on an [`InProcessTransport`]), and accumulates the
    /// depth-`p` objective (`p = gammas.len()`).
    ///
    /// # Panics
    /// If `gammas.len() != betas.len()`.
    pub fn try_energy(
        &self,
        gammas: &[f64],
        betas: &[f64],
    ) -> Result<DistLightConeRun, DistLightConeError> {
        self.try_energy_on(&mut InProcessTransport::new(self.ranks), gammas, betas)
    }

    /// As [`try_energy`](Self::try_energy), but sharding the unique cones
    /// over the ranks of a [`Transport`] — with a
    /// [`TcpTransport`](crate::TcpTransport) the cone lists ship to worker
    /// processes as serialized ego graphs and only scalar `⟨ZZ⟩` values
    /// come back. The transport's rank count takes the role of `K` (the
    /// wrapped rank count is ignored here); shard boundaries, the
    /// rank-order concatenation, and the edge-order accumulation are the
    /// same as the in-process path, so the energy is **bit-identical** at
    /// any rank count and on either transport.
    pub fn try_energy_on(
        &self,
        t: &mut dyn Transport,
        gammas: &[f64],
        betas: &[f64],
    ) -> Result<DistLightConeRun, DistLightConeError> {
        assert_eq!(
            gammas.len(),
            betas.len(),
            "gamma and beta must have the same length p"
        );
        let plan = self
            .evaluator
            .plan(gammas.len())
            .map_err(DistLightConeError::Plan)?;
        let k = t.size();
        let cones = plan.cones();
        let n = cones.len();
        let requests: Vec<Request> = (0..k)
            .map(|r| Request::ConeShard {
                cones: cones[r * n / k..(r + 1) * n / k]
                    .iter()
                    .map(|c| (c.edge() as u64, c.ego().clone()))
                    .collect(),
                gammas: gammas.to_vec(),
                betas: betas.to_vec(),
            })
            .collect();
        let mut zz = Vec::with_capacity(n);
        for (rank, resp) in t.exchange(requests)?.into_iter().enumerate() {
            match transport::expect_zz(rank, resp)? {
                Ok(values) => zz.extend(values),
                Err((edge, message)) => {
                    return Err(DistLightConeError::ConePanicked {
                        rank,
                        edge,
                        message,
                    })
                }
            }
        }
        Ok(DistLightConeRun {
            energy: plan.accumulate(self.evaluator.graph().edges(), &zz),
            stats: plan.stats(),
            comm: t.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_core::lightcone::LightConeOptions;
    use qokit_statevec::exec::ExecPolicy;
    use qokit_terms::graphs::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_local_evaluator_bit_for_bit_at_every_rank_count() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = Graph::random_regular(18, 3, &mut rng);
        let local = LightConeEvaluator::new(g.clone())
            .try_energy(&[0.4, -0.2], &[0.6, 0.3])
            .unwrap();
        for ranks in [1, 2, 4] {
            let dist = DistLightCone::new(LightConeEvaluator::new(g.clone()), ranks)
                .try_energy(&[0.4, -0.2], &[0.6, 0.3])
                .unwrap();
            assert_eq!(
                dist.energy.to_bits(),
                local.energy.to_bits(),
                "ranks = {ranks}"
            );
            assert_eq!(dist.stats, local.stats);
            assert_eq!(dist.comm.total_bytes(), 0);
        }
    }

    #[test]
    fn more_ranks_than_cones_is_fine() {
        let g = Graph::ring(10, 1.0); // one unique cone
        let dist = DistLightCone::new(LightConeEvaluator::new(g.clone()), 4);
        let run = dist.try_energy(&[0.3], &[0.5]).unwrap();
        let local = LightConeEvaluator::new(g)
            .try_energy(&[0.3], &[0.5])
            .unwrap();
        assert_eq!(run.energy.to_bits(), local.energy.to_bits());
        assert_eq!(run.stats.unique_cones, 1);
    }

    #[test]
    fn transport_energy_is_bit_identical_to_in_process() {
        use crate::transport::InProcessTransport;
        let mut rng = StdRng::seed_from_u64(17);
        let g = Graph::random_regular(18, 3, &mut rng);
        let local = LightConeEvaluator::new(g.clone())
            .try_energy(&[0.4, -0.2], &[0.6, 0.3])
            .unwrap();
        for ranks in [1, 2, 4] {
            let dist = DistLightCone::new(LightConeEvaluator::new(g.clone()), ranks);
            let mut t = InProcessTransport::new(ranks);
            let run = dist
                .try_energy_on(&mut t, &[0.4, -0.2], &[0.6, 0.3])
                .unwrap();
            assert_eq!(
                run.energy.to_bits(),
                local.energy.to_bits(),
                "ranks = {ranks}"
            );
            assert_eq!(run.stats, local.stats);
        }
    }

    #[test]
    fn plan_errors_surface_before_any_rank_runs() {
        let g = Graph::complete(8, 1.0);
        let ev = LightConeEvaluator::with_options(
            g,
            LightConeOptions {
                max_cone_qubits: 4,
                exec: ExecPolicy::serial(),
                ..LightConeOptions::default()
            },
        );
        let err = DistLightCone::new(ev, 2)
            .try_energy(&[0.3], &[0.5])
            .unwrap_err();
        assert!(matches!(
            err,
            DistLightConeError::Plan(qokit_core::lightcone::LightConeError::ConeTooWide {
                edge: 0,
                qubits: 8,
                max: 4
            })
        ));
    }
}
