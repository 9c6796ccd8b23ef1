//! Distributed QAOA simulation — Algorithm 4 of the paper on the BSP
//! communicator of [`crate::comm`].
//!
//! Each of K ranks owns a `2^{n-k}`-amplitude slice (fixing the top `k`
//! qubits to the rank id). Precomputation and the phase operator are local
//! (the paper's locality argument); only the mixer needs the two all-to-all
//! transposes. Every rank stores its cost slice by the single-node
//! `CostVec::from_f64` rule, so a slice with few distinct costs is
//! level-coded at 2 B/amp (the paper's §V-B `uint16` diagonal) and any other
//! slice stays `f64`; both are exact.
//!
//! Ranks execute as **work-stealing-pool tasks** (one superstep between
//! collectives), not OS threads — the pool schedules K ranks onto however
//! many workers `QOKIT_THREADS` provides, and a failing rank unwinds
//! through the pool's scoped API instead of leaking a thread. Within a rank
//! all kernels run serially — one rank models one GPU, and rank-internal
//! parallelism is the GPU's job, not the host's.
//!
//! Two drivers run the same per-rank code (`worker::SimRank`):
//! [`DistSimulator::simulate_qaoa`] transposes the slices in place with
//! [`BspComm::alltoall`] and counts the bytes an MPI alltoall would move
//! (the measured half of Fig. 5), while [`DistSimulator::simulate_qaoa_on`]
//! routes every step through a [`Transport`] and counts wire bytes. Their
//! outputs are bit-identical.

use crate::comm::{BspComm, CommStats};
use crate::transport::{self, Transport, TransportError};
use crate::wire::Request;
use crate::worker::SimRank;
use qokit_statevec::{StateVec, C64, MAX_QUBITS};
use qokit_terms::SpinPolynomial;

/// Construction errors for the distributed simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistError {
    /// The rank count must be a power of two (ranks = fixed qubits).
    RanksNotPowerOfTwo(usize),
    /// Algorithm 4 requires `2k ≤ n` so every all-to-all subchunk holds at
    /// least one amplitude.
    TooManyRanks {
        /// Qubits in the simulation.
        n: usize,
        /// Requested rank count.
        ranks: usize,
    },
    /// The whole state would exceed `2^MAX_QUBITS` amplitudes.
    TooManyQubits {
        /// Qubits in the simulation.
        n: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::RanksNotPowerOfTwo(k) => write!(f, "rank count {k} is not a power of two"),
            DistError::TooManyRanks { n, ranks } => write!(
                f,
                "{ranks} ranks need 2·log2({ranks}) ≤ {n} qubits (paper's 2k ≤ n constraint)"
            ),
            DistError::TooManyQubits { n } => {
                write!(f, "n = {n} exceeds MAX_QUBITS = {MAX_QUBITS}")
            }
        }
    }
}

impl std::error::Error for DistError {}

/// Checks the Algorithm-4 rank shape for an `n`-qubit state over `n_ranks`
/// ranks and returns `k = log2(n_ranks)`: `n ≤ MAX_QUBITS`, `n_ranks`
/// must be a power of two and `2k ≤ n`. Shared by [`DistSimulator::new`]
/// and the worker's `SimInit` arm, so a shape the driver would refuse is
/// refused on the wire too.
pub(crate) fn rank_bits(n: usize, n_ranks: usize) -> Result<usize, DistError> {
    if n > MAX_QUBITS {
        return Err(DistError::TooManyQubits { n });
    }
    if !n_ranks.is_power_of_two() {
        return Err(DistError::RanksNotPowerOfTwo(n_ranks));
    }
    let k_bits = n_ranks.trailing_zeros() as usize;
    if 2 * k_bits > n {
        return Err(DistError::TooManyRanks { n, ranks: n_ranks });
    }
    Ok(k_bits)
}

/// Result of a distributed simulation: outputs are computed with
/// distributed reductions, and the state is gathered (QOKit's
/// `mpi_gather=True` default) so downstream code sees an ordinary vector.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// The gathered state vector.
    pub state: StateVec,
    /// `⟨ψ|Ĉ|ψ⟩`, reduced across ranks.
    pub expectation: f64,
    /// Ground-state overlap, reduced across ranks.
    pub overlap: f64,
    /// Global minimum cost.
    pub min_cost: f64,
    /// Communication statistics of the whole run.
    pub comm: CommStats,
}

/// Distributed QAOA simulator (transverse-field mixer).
#[derive(Clone, Debug)]
pub struct DistSimulator {
    poly: SpinPolynomial,
    n: usize,
    n_ranks: usize,
    k_bits: usize,
}

impl DistSimulator {
    /// Builds a simulator over `n_ranks` simulated GPUs.
    pub fn new(poly: SpinPolynomial, n_ranks: usize) -> Result<Self, DistError> {
        let n = poly.n_vars();
        let k_bits = rank_bits(n, n_ranks)?;
        Ok(DistSimulator {
            poly,
            n,
            n_ranks,
            k_bits,
        })
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Number of ranks K.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Amplitudes per rank (`2^{n-k}`).
    pub fn slice_len(&self) -> usize {
        1usize << (self.n - self.k_bits)
    }

    /// Runs the full distributed QAOA pipeline: per-rank precompute (no
    /// communication), `p` layers of local phase + Algorithm-4 mixer, and
    /// distributed reductions for the outputs.
    ///
    /// # Panics
    /// If `gammas.len() != betas.len()`.
    pub fn simulate_qaoa(&self, gammas: &[f64], betas: &[f64]) -> DistResult {
        assert_eq!(gammas.len(), betas.len(), "gamma/beta length mismatch");
        let mut comm = BspComm::new(self.n_ranks);
        let mut ranks = self.init_ranks(&comm);

        for (&gamma, &beta) in gammas.iter().zip(betas.iter()) {
            self.apply_layer(&mut comm, &mut ranks, gamma, beta);
        }

        // Distributed outputs: serial local reductions per rank (pool
        // tasks), then rank-order scalar reduces — bit-identical for any
        // pool size.
        // Expectation and local cost minimum have no cross-rank dependency:
        // one fused superstep; only the overlap pass needs min_cost first.
        let exp_and_min = comm.superstep_map(&mut ranks, |_, state| state.reduce());
        let (local_exp, local_min): (Vec<f64>, Vec<f64>) = exp_and_min.into_iter().unzip();
        let expectation = comm.allreduce_sum(&local_exp);
        let min_cost = comm.allreduce_min(&local_min);
        let local_overlap = comm.superstep_map(&mut ranks, |_, state| state.overlap(min_cost));
        let overlap = comm.allreduce_sum(&local_overlap);

        // Gather (QOKit's mpi_gather=True): concatenate rank slices.
        let mut full = Vec::with_capacity(1usize << self.n);
        for state in &ranks {
            full.extend_from_slice(&state.amps);
        }
        DistResult {
            state: StateVec::from_amplitudes(full),
            expectation,
            overlap,
            min_cost,
            comm: comm.stats(),
        }
    }

    /// As [`simulate_qaoa`](Self::simulate_qaoa), but running the ranks on
    /// a [`Transport`] — with a [`TcpTransport`](crate::TcpTransport) each
    /// rank is a worker process and the Algorithm-4 all-to-all genuinely
    /// moves amplitude slices over a wire (routed through the driver: the
    /// star topology of a host-staged `MPI_Alltoall`). The transport must
    /// have exactly [`n_ranks`](Self::n_ranks) ranks.
    ///
    /// Every per-rank kernel and every rank-order reduction is the same
    /// code as the in-process path, and amplitudes cross the wire as exact
    /// IEEE-754 bit patterns — so all outputs are **bit-identical** to
    /// [`simulate_qaoa`](Self::simulate_qaoa). A dead worker, corrupt
    /// frame, or expired deadline surfaces as a rank-tagged
    /// [`TransportError`], never a hang.
    pub fn simulate_qaoa_on(
        &self,
        t: &mut dyn Transport,
        gammas: &[f64],
        betas: &[f64],
    ) -> Result<DistResult, TransportError> {
        assert_eq!(gammas.len(), betas.len(), "gamma/beta length mismatch");
        let k = t.size();
        assert_eq!(
            k, self.n_ranks,
            "transport rank count must match the simulator's"
        );
        // Rank-order scalar reduces, identical to the in-process path.
        let reduces = BspComm::new(k);
        let bcast = |req: Request| -> Vec<Request> { vec![req; k] };

        for (rank, resp) in t
            .exchange(bcast(Request::SimInit {
                poly: self.poly.clone(),
                n_ranks: k,
            }))?
            .into_iter()
            .enumerate()
        {
            transport::expect_ok(rank, resp)?;
        }

        let mut alltoall_calls = 0u64;
        for (&gamma, &beta) in gammas.iter().zip(betas.iter()) {
            for (rank, resp) in t
                .exchange(bcast(Request::SimLayerLocal { gamma, beta }))?
                .into_iter()
                .enumerate()
            {
                transport::expect_ok(rank, resp)?;
            }
            if self.k_bits == 0 {
                continue;
            }
            self.alltoall_on(t, &mut alltoall_calls)?;
            for (rank, resp) in t
                .exchange(bcast(Request::SimMixHigh { beta }))?
                .into_iter()
                .enumerate()
            {
                transport::expect_ok(rank, resp)?;
            }
            self.alltoall_on(t, &mut alltoall_calls)?;
        }

        let exp_and_min = expect_all(
            t.exchange(bcast(Request::SimReduce))?,
            transport::expect_scalar2,
        )?;
        let (local_exp, local_min): (Vec<f64>, Vec<f64>) = exp_and_min.into_iter().unzip();
        let expectation = reduces.allreduce_sum(&local_exp);
        let min_cost = reduces.allreduce_min(&local_min);
        let local_overlap = expect_all(
            t.exchange(bcast(Request::SimOverlap { min_cost }))?,
            transport::expect_scalar,
        )?;
        let overlap = reduces.allreduce_sum(&local_overlap);

        // Gather: the ranks hand over their slices (moved, not cloned).
        let slices = expect_all(
            t.exchange(bcast(Request::SimTakeSlice))?,
            transport::expect_amps,
        )?;
        let mut comm = t.stats();
        comm.alltoall_calls = alltoall_calls;
        Ok(DistResult {
            state: StateVec::from_amplitudes(slices.concat()),
            expectation,
            overlap,
            min_cost,
            comm,
        })
    }

    /// The Algorithm-4 `V_abc → V_bac` transpose routed through the
    /// driver: gather every rank's slice, swap subchunk `(r, j) ↔ (j, r)`,
    /// scatter the transposed slices back. Same block semantics as
    /// [`BspComm::alltoall`].
    fn alltoall_on(
        &self,
        t: &mut dyn Transport,
        alltoall_calls: &mut u64,
    ) -> Result<(), TransportError> {
        let k = t.size();
        if k == 1 {
            return Ok(()); // single rank: the transpose is the identity
        }
        let old = expect_all(
            t.exchange(vec![Request::SimTakeSlice; k])?,
            transport::expect_amps,
        )?;
        let sub = old[0].len() / k;
        let new: Vec<Vec<C64>> = (0..k)
            .map(|r| {
                let mut slice = Vec::with_capacity(sub * k);
                for peer in old.iter() {
                    slice.extend_from_slice(&peer[r * sub..(r + 1) * sub]);
                }
                slice
            })
            .collect();
        for (rank, resp) in t
            .exchange(
                new.into_iter()
                    .map(|amps| Request::SimSetSlice { amps })
                    .collect(),
            )?
            .into_iter()
            .enumerate()
        {
            transport::expect_ok(rank, resp)?;
        }
        *alltoall_calls += 1;
        Ok(())
    }

    /// Superstep 0 — §III-A locality: every rank computes its cost slice
    /// from the terms alone (zero communication) and initializes its
    /// amplitude slice to `|+⟩^{⊗n}`.
    fn init_ranks(&self, comm: &BspComm) -> Vec<SimRank> {
        let k = self.n_ranks;
        comm.superstep_map(&mut vec![(); k], |rank, _| {
            SimRank::init(&self.poly, rank, k)
        })
    }

    /// One QAOA layer: local phase, then the Algorithm-4 mixer — gates on
    /// local qubits, transpose, gates on the (now local) former-global
    /// qubits, transpose back.
    fn apply_layer(&self, comm: &mut BspComm, ranks: &mut [SimRank], gamma: f64, beta: f64) {
        comm.superstep(ranks, |_, state| state.layer_local(gamma, beta));
        if self.k_bits == 0 {
            return;
        }
        Self::alltoall_amps(comm, ranks);
        // After V_abc → V_bac, original qubit i ∈ [n−k, n) lives at local
        // bit position i − k (the paper's "d ← i − log2 K").
        comm.superstep(ranks, |_, state| state.mix_high(beta));
        Self::alltoall_amps(comm, ranks);
    }

    fn alltoall_amps(comm: &mut BspComm, ranks: &mut [SimRank]) {
        let mut slices: Vec<&mut [C64]> = ranks.iter_mut().map(|s| s.amps.as_mut_slice()).collect();
        comm.alltoall(&mut slices);
    }

    /// Times one QAOA layer (phase + Algorithm-4 mixer) end to end,
    /// returning wall seconds and the communication stats — the measured
    /// half of the Fig. 5 reproduction.
    pub fn time_one_layer(&self, gamma: f64, beta: f64) -> (f64, CommStats) {
        let start_t = std::time::Instant::now();
        let mut comm = BspComm::new(self.n_ranks);
        let mut ranks = self.init_ranks(&comm);
        self.apply_layer(&mut comm, &mut ranks, gamma, beta);
        (start_t.elapsed().as_secs_f64(), comm.stats())
    }
}

/// Converts one response per rank with `f`, failing on the first rank
/// whose response has the wrong shape.
fn expect_all<T>(
    responses: Vec<crate::wire::Response>,
    f: impl Fn(usize, crate::wire::Response) -> Result<T, TransportError>,
) -> Result<Vec<T>, TransportError> {
    responses
        .into_iter()
        .enumerate()
        .map(|(rank, resp)| f(rank, resp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_core::{FurSimulator, QaoaSimulator, SimOptions};
    use qokit_statevec::ExecPolicy;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::Graph;

    fn reference_sim(poly: &SpinPolynomial) -> FurSimulator {
        FurSimulator::with_options(
            poly,
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        )
    }

    #[test]
    fn matches_single_node_for_all_rank_counts() {
        let poly = labs_terms(8);
        let reference = reference_sim(&poly);
        let gammas = [0.21, 0.43];
        let betas = [0.65, 0.32];
        let ref_result = reference.simulate_qaoa(&gammas, &betas);
        for ranks in [1usize, 2, 4, 16] {
            let dist = DistSimulator::new(poly.clone(), ranks).unwrap();
            let r = dist.simulate_qaoa(&gammas, &betas);
            assert!(
                r.state.max_abs_diff(ref_result.state()) < 1e-11,
                "K = {ranks}"
            );
            assert!((r.expectation - reference.get_expectation(&ref_result)).abs() < 1e-9);
            assert!((r.overlap - reference.get_overlap(&ref_result)).abs() < 1e-9);
        }
    }

    #[test]
    fn maxcut_distributed_agrees() {
        let poly = maxcut_polynomial(&Graph::ring(6, 1.0));
        let reference = reference_sim(&poly);
        let ref_result = reference.simulate_qaoa(&[0.3], &[0.8]);
        let dist = DistSimulator::new(poly, 8).unwrap();
        let r = dist.simulate_qaoa(&[0.3], &[0.8]);
        assert!(r.state.max_abs_diff(ref_result.state()) < 1e-11);
        assert!((r.min_cost + 6.0).abs() < 1e-12, "ring-6 best cut is 6");
    }

    #[test]
    fn communication_volume_formula() {
        // Per mixer: 2 alltoalls; each rank ships slice·(K−1)/K amplitudes
        // of 16 bytes per alltoall.
        let poly = labs_terms(10);
        let ranks = 4usize;
        let dist = DistSimulator::new(poly, ranks).unwrap();
        let p = 3;
        let r = dist.simulate_qaoa(&[0.1; 3], &[0.2; 3]);
        let slice = dist.slice_len();
        let expected_per_rank = (2 * p * (slice / ranks) * (ranks - 1) * 16) as u64;
        for (rank, &b) in r.comm.bytes_sent_per_rank.iter().enumerate() {
            assert_eq!(b, expected_per_rank, "rank {rank}");
        }
        assert_eq!(r.comm.alltoall_calls, 2 * p as u64);
    }

    #[test]
    fn single_rank_needs_no_communication() {
        let poly = labs_terms(6);
        let dist = DistSimulator::new(poly, 1).unwrap();
        let r = dist.simulate_qaoa(&[0.4], &[0.7]);
        assert_eq!(r.comm.total_bytes(), 0);
        assert!((r.state.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_invalid_rank_counts() {
        let poly = labs_terms(6);
        assert_eq!(
            DistSimulator::new(poly.clone(), 3).unwrap_err(),
            DistError::RanksNotPowerOfTwo(3)
        );
        // n = 6 allows at most k = 3 (2k ≤ n → K ≤ 8).
        assert!(DistSimulator::new(poly.clone(), 8).is_ok());
        assert_eq!(
            DistSimulator::new(poly, 16).unwrap_err(),
            DistError::TooManyRanks { n: 6, ranks: 16 }
        );
        // Past MAX_QUBITS no rank count makes the slices allocatable.
        assert_eq!(
            DistSimulator::new(SpinPolynomial::new(41, Vec::new()), 4).unwrap_err(),
            DistError::TooManyQubits { n: 41 }
        );
    }

    #[test]
    fn deep_circuit_stays_normalized() {
        let poly = labs_terms(7);
        let dist = DistSimulator::new(poly, 2).unwrap();
        let p = 12;
        let g: Vec<f64> = (0..p).map(|i| 0.03 * i as f64).collect();
        let b: Vec<f64> = (0..p).map(|i| 0.6 - 0.03 * i as f64).collect();
        let r = dist.simulate_qaoa(&g, &b);
        assert!((r.state.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_one_layer_reports_comm() {
        let poly = labs_terms(8);
        let dist = DistSimulator::new(poly, 4).unwrap();
        let (secs, comm) = dist.time_one_layer(0.2, 0.5);
        assert!(secs > 0.0);
        assert_eq!(comm.alltoall_calls, 2);
        assert!(comm.total_bytes() > 0);
    }

    #[test]
    fn transport_run_is_bit_identical_to_in_process() {
        use crate::transport::InProcessTransport;
        let poly = labs_terms(8);
        let (g, b) = ([0.21, 0.43], [0.65, 0.32]);
        for ranks in [1usize, 2, 4] {
            let dist = DistSimulator::new(poly.clone(), ranks).unwrap();
            let classic = dist.simulate_qaoa(&g, &b);
            let mut t = InProcessTransport::new(ranks);
            let r = dist.simulate_qaoa_on(&mut t, &g, &b).unwrap();
            assert_eq!(r.state.max_abs_diff(&classic.state), 0.0, "K = {ranks}");
            assert_eq!(r.expectation.to_bits(), classic.expectation.to_bits());
            assert_eq!(r.overlap.to_bits(), classic.overlap.to_bits());
            assert_eq!(r.min_cost.to_bits(), classic.min_cost.to_bits());
            assert_eq!(r.comm.alltoall_calls, classic.comm.alltoall_calls);
        }
    }

    #[test]
    fn results_are_identical_for_any_pool_size() {
        // The BSP schedule assigns ranks to workers dynamically, but every
        // number the simulator reports must be bit-identical whether the
        // pool has 1 worker or many.
        let poly = labs_terms(8);
        let dist = DistSimulator::new(poly, 4).unwrap();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| dist.simulate_qaoa(&[0.2, -0.4], &[0.7, 0.1]))
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(a.state.max_abs_diff(&b.state), 0.0);
        assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
        assert_eq!(a.overlap.to_bits(), b.overlap.to_bits());
        assert_eq!(a.min_cost.to_bits(), b.min_cost.to_bits());
    }
}
