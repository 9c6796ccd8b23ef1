//! Batch-sharded distributed landscape scans: the paper's flagship
//! workload at `>2^20` points.
//!
//! [`crate::dist_sim`] shards the *state* — K ranks each own `2^{n-k}`
//! amplitudes and pay two all-to-all transposes per mixer. Landscape scans
//! invert the economics: the state is small enough to fit one rank, but
//! the **batch** of `(γ, β)` points is enormous. A [`DistSweepRunner`]
//! therefore shards the batch instead: each of K ranks owns a *contiguous
//! slice* of the point sequence and evaluates it in chunked BSP
//! supersteps, one [`Request::SweepChunk`] per rank per superstep over a
//! [`Transport`]. The driver folds every energy into a per-rank
//! [`LandscapeAggregator`] in index order, so a million-point scan holds
//! K chunks and K aggregates in memory, never a million energies. After
//! the last superstep the per-rank aggregates merge through
//! [`BspComm::allreduce_with`] in rank order, byte-deterministically.
//!
//! One superstep loop serves both entry points.
//! [`try_scan`](DistSweepRunner::try_scan) runs it over an
//! [`InProcessTransport`] whose ranks wrap the runner's own simulator, so
//! the `2^n` diagonal is precomputed once and shared by reference; the
//! ranks are pool tasks inside the [`DistSweepOptions::sweep`] policy's
//! pool. [`try_scan_on`](DistSweepRunner::try_scan_on) first sends every
//! rank a `SweepInit`, from which each worker rebuilds its own simulator.
//! Sharding moves no amplitude data, so the only collective is the final
//! aggregate merge.

use crate::comm::BspComm;
use crate::transport::{self, InProcessTransport, Transport, TransportError};
use crate::wire::{Request, SweepSimSpec};
use qokit_core::batch::{SweepOptions, SweepPoint, SweepRunner};
use qokit_core::landscape::{EnergySink, LandscapeAggregator};
use qokit_core::simulator::InitialState;
use qokit_core::{FurSimulator, Mixer};
use qokit_statevec::exec::ExecPolicy;
use qokit_terms::SpinPolynomial;
use std::sync::Arc;

/// A random-access sequence of sweep points, generated on demand — the
/// input shape that lets a `2^20`-point scan exist without `2^20`
/// materialized [`SweepPoint`]s. Rank `r` of a [`DistSweepRunner`] is
/// sent only the points of its contiguous index range.
pub trait PointSource: Sync {
    /// Number of points in the scan.
    fn len(&self) -> u64;
    /// The point at global index `index` (`0 ≤ index < len()`).
    fn point(&self, index: u64) -> SweepPoint;
    /// `true` when the scan is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PointSource for [SweepPoint] {
    fn len(&self) -> u64 {
        <[SweepPoint]>::len(self) as u64
    }

    fn point(&self, index: u64) -> SweepPoint {
        self[index as usize].clone()
    }
}

/// One axis of a [`Grid2d`]: `steps` evenly spaced values covering
/// `[lo, hi]` inclusive (the same spacing as `qokit-optim`'s
/// `grid_points_2d`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Axis {
    /// First value of the axis.
    pub lo: f64,
    /// Last value of the axis (inclusive).
    pub hi: f64,
    /// Number of grid lines (≥ 2).
    pub steps: usize,
}

impl Axis {
    /// A new axis over `[lo, hi]` with `steps` grid lines.
    pub fn new(lo: f64, hi: f64, steps: usize) -> Self {
        assert!(steps >= 2, "grid needs at least 2 points per axis");
        Axis { lo, hi, steps }
    }

    #[inline]
    fn value(&self, i: u64) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / (self.steps - 1) as f64
    }
}

/// The depth-1 `(γ, β)` scan grid, row-major with γ on the outer (row)
/// axis — index for index the point sequence of
/// `qokit_optim::grid_points_2d`, but generated lazily: a `1024 × 1024`
/// landscape is two `Axis` values, not a gigabyte of parameter vectors.
///
/// ```
/// use qokit_dist::{Axis, Grid2d, PointSource};
///
/// let grid = Grid2d::new(Axis::new(0.0, 1.0, 3), Axis::new(-1.0, 0.0, 2));
/// assert_eq!(grid.len(), 6);
/// // Row-major: β varies fastest.
/// assert_eq!(grid.point(1).gammas, vec![0.0]);
/// assert_eq!(grid.point(1).betas, vec![0.0]);
/// assert_eq!(grid.point(2).gammas, vec![0.5]);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Grid2d {
    /// The γ (row) axis.
    pub gamma: Axis,
    /// The β (column) axis.
    pub beta: Axis,
}

impl Grid2d {
    /// A grid over the two axes.
    pub fn new(gamma: Axis, beta: Axis) -> Self {
        Grid2d { gamma, beta }
    }

    /// Rows of the grid (γ steps) — the histogram-geometry helper.
    pub fn rows(&self) -> usize {
        self.gamma.steps
    }

    /// Columns of the grid (β steps).
    pub fn cols(&self) -> usize {
        self.beta.steps
    }
}

impl PointSource for Grid2d {
    fn len(&self) -> u64 {
        self.gamma.steps as u64 * self.beta.steps as u64
    }

    fn point(&self, index: u64) -> SweepPoint {
        let cols = self.beta.steps as u64;
        SweepPoint::p1(
            self.gamma.value(index / cols),
            self.beta.value(index % cols),
        )
    }
}

/// Configuration for a [`DistSweepRunner`].
#[derive(Copy, Clone, Debug)]
pub struct DistSweepOptions {
    /// Number of BSP ranks the batch is sharded over. Any positive count
    /// is valid — batch sharding has none of the power-of-two / `2k ≤ n`
    /// constraints of state sharding.
    pub ranks: usize,
    /// Rank-local sweep configuration: the [`ExecPolicy`] whose pool
    /// [`try_scan`](DistSweepRunner::try_scan) installs, and the rank
    /// runners' options. Every rank shares that pool and applies its
    /// [`SweepNesting`](qokit_core::batch::SweepNesting) to each chunk.
    pub sweep: SweepOptions,
    /// Points each rank evaluates per superstep (the streaming granularity
    /// — peak memory is `O(ranks · chunk)` point buffers, never the scan).
    pub chunk: usize,
}

impl Default for DistSweepOptions {
    fn default() -> Self {
        DistSweepOptions {
            ranks: 1,
            sweep: SweepOptions::default(),
            chunk: 1024,
        }
    }
}

/// Error from a distributed scan. A poisoned point is the lowest-rank one,
/// with its **global** index. Only that point's evaluation was lost;
/// sibling ranks completed their superstep and the pool stays reusable.
#[derive(Clone, Debug, PartialEq)]
pub enum DistSweepError {
    /// [`try_scan_on`](DistSweepRunner::try_scan_on) cannot reproduce the
    /// runner's circuit on transport workers (they rebuild only the X
    /// mixer from `|+⟩`); nothing was sent. The message names what is
    /// unsupported.
    Unsupported(String),
    /// A point's evaluation panicked inside one rank's superstep.
    PointPanicked {
        /// Rank whose slice contained the poisoned point.
        rank: usize,
        /// Global index of the poisoned point within the scan.
        index: u64,
        /// The panic payload, stringified.
        message: String,
    },
    /// The transport carrying a [`try_scan_on`](DistSweepRunner::try_scan_on)
    /// scan failed (dead worker, corrupt frame, expired deadline) — the
    /// inner error is tagged with the failing rank.
    Transport(TransportError),
}

impl std::fmt::Display for DistSweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistSweepError::Unsupported(what) => {
                write!(f, "distributed scan unsupported: {what}")
            }
            DistSweepError::PointPanicked {
                rank,
                index,
                message,
            } => {
                write!(f, "scan point {index} (rank {rank}) panicked: {message}")
            }
            DistSweepError::Transport(e) => write!(f, "distributed scan failed: {e}"),
        }
    }
}

impl std::error::Error for DistSweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistSweepError::Transport(e) => Some(e),
            DistSweepError::Unsupported(_) | DistSweepError::PointPanicked { .. } => None,
        }
    }
}

impl From<TransportError> for DistSweepError {
    fn from(e: TransportError) -> Self {
        DistSweepError::Transport(e)
    }
}

/// Outcome of a distributed landscape scan.
#[derive(Clone, Debug)]
pub struct DistScan {
    /// The merged aggregate (rank-order merge — deterministic).
    pub agg: LandscapeAggregator,
    /// Points evaluated.
    pub points: u64,
    /// Ranks the batch was sharded over.
    pub ranks: usize,
    /// BSP supersteps the scan took (`⌈max slice length / chunk⌉`).
    pub supersteps: u64,
}

/// Batch-sharded landscape scans over one shared simulator: K BSP ranks,
/// each owning a contiguous slice of the point sequence, streaming
/// energies into per-rank [`LandscapeAggregator`]s that merge in rank
/// order — `O(ranks · (chunk + top_k))` memory for any scan length.
///
/// ```
/// use qokit_core::landscape::LandscapeAggregator;
/// use qokit_core::FurSimulator;
/// use qokit_dist::{Axis, DistSweepOptions, DistSweepRunner, Grid2d};
/// use qokit_statevec::ExecPolicy;
/// use qokit_terms::labs::labs_terms;
/// use std::sync::Arc;
///
/// // 2 ranks on a 2-worker pool scan a 16 x 16 grid.
/// let runner = DistSweepRunner::with_options(
///     Arc::new(FurSimulator::new(&labs_terms(6))),
///     DistSweepOptions {
///         ranks: 2,
///         sweep: qokit_core::batch::SweepOptions {
///             exec: ExecPolicy::rayon().with_threads(2),
///             ..Default::default()
///         },
///         chunk: 32,
///     },
/// );
/// let grid = Grid2d::new(Axis::new(-0.5, 0.5, 16), Axis::new(-0.5, 0.5, 16));
/// let scan = runner.scan(&grid, LandscapeAggregator::new(4));
/// assert_eq!(scan.points, 256);
/// assert_eq!(scan.agg.count(), 256);
/// assert_eq!(scan.agg.top_k().len(), 4);
/// assert!(scan.agg.min_energy().unwrap().is_finite());
/// ```
#[derive(Debug)]
pub struct DistSweepRunner {
    sim: Arc<FurSimulator>,
    opts: DistSweepOptions,
}

impl DistSweepRunner {
    /// A runner sharding scans over `ranks` ranks with default sweep
    /// options.
    pub fn new(sim: FurSimulator, ranks: usize) -> Self {
        Self::with_options(
            Arc::new(sim),
            DistSweepOptions {
                ranks,
                ..Default::default()
            },
        )
    }

    /// A runner with explicit options over an already-shared simulator
    /// (the `2^n` cost vector is precomputed once and shared by reference
    /// across every rank's evaluations).
    ///
    /// # Panics
    /// If `opts.ranks` or `opts.chunk` is zero.
    pub fn with_options(sim: Arc<FurSimulator>, opts: DistSweepOptions) -> Self {
        assert!(opts.ranks > 0, "need at least one rank");
        assert!(opts.chunk > 0, "chunk size must be at least 1");
        DistSweepRunner { sim, opts }
    }

    /// The shared simulator.
    pub fn simulator(&self) -> &Arc<FurSimulator> {
        &self.sim
    }

    /// The configured options.
    pub fn options(&self) -> &DistSweepOptions {
        &self.opts
    }

    /// Runs the scan, folding every point into clones of `proto` (one per
    /// rank — carry the top-k size and histogram geometry there) and
    /// merging the per-rank aggregates in rank order.
    ///
    /// # Panics
    /// If a point's evaluation panicked (with that point's rank and global
    /// index); use [`try_scan`](Self::try_scan) for the recoverable form.
    pub fn scan<P>(&self, points: &P, proto: LandscapeAggregator) -> DistScan
    where
        P: PointSource + ?Sized,
    {
        self.try_scan(points, proto)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Options of the rank-local runners. A parallel scan policy becomes
    /// `threads: 0`, so rank kernels execute on the pool
    /// [`try_scan`](Self::try_scan) installed, never escaping into a
    /// differently-sized pool. A serial policy keeps `threads: 1`.
    fn rank_options(&self) -> SweepOptions {
        let exec = self.opts.sweep.exec;
        SweepOptions {
            exec: ExecPolicy {
                threads: if exec.threads == 1 { 1 } else { 0 },
                ..exec
            },
            ..self.opts.sweep
        }
    }

    /// Runs the scan on in-process ranks, pool tasks under
    /// [`DistSweepOptions::sweep`]'s policy, each a [`SweepRunner`] over
    /// this runner's own simulator (no `SweepInit`, no second precompute).
    /// A panicking point aborts the scan after its superstep drains,
    /// reporting the lowest-rank poisoned point with its global index.
    /// Sibling ranks complete the superstep and the pool stays reusable.
    pub fn try_scan<P>(
        &self,
        points: &P,
        proto: LandscapeAggregator,
    ) -> Result<DistScan, DistSweepError>
    where
        P: PointSource + ?Sized,
    {
        let rank_opts = self.rank_options();
        let mut ranks = InProcessTransport::with_sweep_runners(self.opts.ranks, || {
            SweepRunner::from_arc(Arc::clone(&self.sim), rank_opts)
        });
        let policy = self.opts.sweep.exec;
        policy.install(|| self.drive(&mut ranks, points, proto))
    }

    /// As [`try_scan`](Self::try_scan), the same superstep loop, but over
    /// the ranks of any [`Transport`]: with a [`TcpTransport`](crate::TcpTransport)
    /// the point chunks and energies genuinely leave the process. Each
    /// worker first rebuilds its simulator from `poly`, which must be the
    /// cost function of [`simulator`](Self::simulator), and evaluates each
    /// point with serial kernels on split planes, so the aggregate is
    /// **bit-identical** to a points-parallel `try_scan` for any rank
    /// count. Workers build only the X mixer from `|+⟩`; any other
    /// simulator is refused with [`DistSweepError::Unsupported`] before
    /// anything is sent.
    pub fn try_scan_on<P>(
        &self,
        transport: &mut dyn Transport,
        poly: &SpinPolynomial,
        points: &P,
        proto: LandscapeAggregator,
    ) -> Result<DistScan, DistSweepError>
    where
        P: PointSource + ?Sized,
    {
        let sim = self.sim.options();
        let plus = matches!(
            sim.initial,
            InitialState::Auto | InitialState::UniformSuperposition
        );
        if sim.mixer != Mixer::X || !plus {
            let initial = match &sim.initial {
                InitialState::Custom(_) => "Custom".to_string(),
                other => format!("{other:?}"),
            };
            return Err(DistSweepError::Unsupported(format!(
                "transport workers run only the X mixer from |+⟩, not the {:?} mixer \
                 from the {initial} initial state",
                sim.mixer
            )));
        }
        let spec = SweepSimSpec {
            precompute: sim.precompute,
            quantize_u16: sim.quantize_u16,
            layout: self.opts.sweep.exec.layout,
        };
        let init: Vec<Request> = (0..transport.size())
            .map(|_| Request::SweepInit {
                poly: poly.clone(),
                spec,
            })
            .collect();
        for (rank, resp) in transport.exchange(init)?.into_iter().enumerate() {
            transport::expect_ok(rank, resp)?;
        }
        self.drive(transport, points, proto)
    }

    /// The one superstep loop. Rank `r` owns the contiguous slice
    /// `[r·N/K, (r+1)·N/K)` and receives up to
    /// [`chunk`](DistSweepOptions::chunk) of its points per superstep.
    /// Every energy folds into that rank's aggregate in index order (the
    /// [`SweepRunner::fold_energies_into`] contract), the lowest-rank
    /// poisoned point ends the scan after its superstep, and the per-rank
    /// aggregates merge in rank order.
    fn drive<P>(
        &self,
        transport: &mut dyn Transport,
        points: &P,
        proto: LandscapeAggregator,
    ) -> Result<DistScan, DistSweepError>
    where
        P: PointSource + ?Sized,
    {
        let k = transport.size();
        let total = points.len();
        let chunk = self.opts.chunk as u64;
        let mut cursors: Vec<u64> = (0..k as u64).map(|r| total * r / k as u64).collect();
        let ends: Vec<u64> = (1..=k as u64).map(|r| total * r / k as u64).collect();
        let mut aggs: Vec<LandscapeAggregator> = (0..k).map(|_| proto.clone()).collect();
        let mut supersteps = 0u64;
        while cursors.iter().zip(&ends).any(|(c, e)| c < e) {
            let sent: Vec<u64> = (0..k)
                .map(|r| chunk.min(ends[r].saturating_sub(cursors[r])))
                .collect();
            let requests: Vec<Request> = (0..k)
                .map(|r| {
                    if sent[r] == 0 {
                        Request::Nop
                    } else {
                        Request::SweepChunk {
                            points: (cursors[r]..cursors[r] + sent[r])
                                .map(|i| points.point(i))
                                .collect(),
                        }
                    }
                })
                .collect();
            let responses = transport.exchange(requests)?;
            let mut failed: Vec<Option<(u64, String)>> = vec![None; k];
            for (rank, resp) in responses.into_iter().enumerate() {
                if sent[rank] == 0 {
                    transport::expect_ok(rank, resp)?;
                    continue;
                }
                let energies = transport::expect_energies(rank, resp)?;
                if energies.len() != sent[rank] as usize {
                    return Err(TransportError {
                        rank,
                        kind: crate::transport::TransportErrorKind::Protocol(format!(
                            "expected {} energies, got {}",
                            sent[rank],
                            energies.len()
                        )),
                    }
                    .into());
                }
                // Same fold contract as `fold_energies_into`: every Ok
                // point is observed; the first failure keeps its global
                // index.
                for (i, e) in energies.into_iter().enumerate() {
                    match e {
                        Ok(v) => aggs[rank].observe(cursors[rank] + i as u64, v),
                        Err(message) => {
                            if failed[rank].is_none() {
                                failed[rank] = Some((cursors[rank] + i as u64, message));
                            }
                        }
                    }
                }
                cursors[rank] += sent[rank];
            }
            supersteps += 1;
            if let Some((rank, (index, message))) = failed
                .iter()
                .enumerate()
                .find_map(|(r, f)| f.clone().map(|f| (r, f)))
            {
                return Err(DistSweepError::PointPanicked {
                    rank,
                    index,
                    message,
                });
            }
        }

        // The rank-order aggregate merge — the scan's one collective.
        let comm = BspComm::new(k);
        let agg = comm.allreduce_with(aggs, |mut a, b| {
            a.merge(b);
            a
        });
        Ok(DistScan {
            agg,
            points: total,
            ranks: k,
            supersteps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_core::batch::SweepNesting;
    use qokit_core::landscape::HistogramSpec;
    use qokit_core::QaoaSimulator;
    use qokit_core::SimOptions;
    use qokit_terms::labs::labs_terms;

    fn serial_sim(n: usize) -> FurSimulator {
        FurSimulator::with_options(
            &labs_terms(n),
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        )
    }

    /// The reference: a sequential loop over the whole grid feeding one
    /// aggregator.
    fn sequential_reference(
        sim: &FurSimulator,
        grid: &Grid2d,
        proto: LandscapeAggregator,
    ) -> LandscapeAggregator {
        use qokit_core::landscape::EnergySink;
        let mut agg = proto;
        for i in 0..grid.len() {
            let p = grid.point(i);
            agg.observe(i, sim.objective(&p.gammas, &p.betas));
        }
        agg
    }

    #[test]
    fn sharded_scan_matches_sequential_reference() {
        let grid = Grid2d::new(Axis::new(-0.6, 0.6, 9), Axis::new(-0.4, 0.4, 7));
        let reference = sequential_reference(
            &serial_sim(6),
            &grid,
            LandscapeAggregator::new(5).with_histogram(HistogramSpec {
                rows: 9,
                cols: 7,
                bin_rows: 3,
                bin_cols: 7,
            }),
        );
        for ranks in [1usize, 2, 3, 4] {
            for chunk in [1usize, 7, 64] {
                let runner = DistSweepRunner::with_options(
                    Arc::new(serial_sim(6)),
                    DistSweepOptions {
                        ranks,
                        sweep: SweepOptions {
                            exec: ExecPolicy::rayon().with_threads(2),
                            nested: SweepNesting::PointsParallel,
                        },
                        chunk,
                    },
                );
                let scan = runner.scan(
                    &grid,
                    LandscapeAggregator::new(5).with_histogram(HistogramSpec {
                        rows: 9,
                        cols: 7,
                        bin_rows: 3,
                        bin_cols: 7,
                    }),
                );
                assert_eq!(scan.points, 63);
                assert_eq!(scan.ranks, ranks);
                assert_eq!(scan.agg.count(), reference.count(), "K={ranks} c={chunk}");
                assert_eq!(scan.agg.argmin(), reference.argmin());
                // Points-parallel keeps kernels serial: the selection
                // aggregates are bit-identical for any rank/chunk split.
                assert_eq!(
                    scan.agg.min_energy().unwrap().to_bits(),
                    reference.min_energy().unwrap().to_bits()
                );
                assert_eq!(scan.agg.top_k(), reference.top_k());
                assert_eq!(scan.agg.histogram(), reference.histogram());
            }
        }
    }

    #[test]
    fn serial_scan_keeps_rank_runners_serial() {
        // Rank runners trade a parallel policy's worker count for the
        // rank's own context; a serial policy must stay serial even when
        // the scan runs inside a wider pool.
        let runner = |exec| {
            DistSweepRunner::with_options(
                Arc::new(serial_sim(6)),
                DistSweepOptions {
                    ranks: 2,
                    sweep: SweepOptions {
                        exec,
                        nested: SweepNesting::Auto,
                    },
                    chunk: 4,
                },
            )
        };
        let serial = runner(ExecPolicy::serial());
        let rank = SweepRunner::from_arc(Arc::clone(&serial.sim), serial.rank_options());
        let points: Vec<SweepPoint> = (0..5)
            .map(|i| SweepPoint::p1(0.1 * i as f64, 0.3))
            .collect();
        let threads = ExecPolicy::rayon()
            .with_threads(2)
            .install(|| rank.evaluate_with(&points, |_, _, policy| policy.threads));
        assert_eq!(threads.len(), points.len());
        for t in threads {
            assert_eq!(t.unwrap(), 1);
        }
        let parallel = runner(ExecPolicy::rayon().with_threads(2));
        assert_eq!(parallel.rank_options().exec.threads, 0);
    }

    #[test]
    fn superstep_count_follows_largest_shard() {
        let runner = DistSweepRunner::with_options(
            Arc::new(serial_sim(5)),
            DistSweepOptions {
                ranks: 2,
                sweep: SweepOptions::default(),
                chunk: 10,
            },
        );
        let grid = Grid2d::new(Axis::new(0.0, 1.0, 5), Axis::new(0.0, 1.0, 10));
        // 50 points → 25 per rank → 3 supersteps of chunk 10.
        let scan = runner.scan(&grid, LandscapeAggregator::new(1));
        assert_eq!(scan.supersteps, 3);
        assert_eq!(scan.agg.count(), 50);
    }

    #[test]
    fn slice_point_source_works() {
        let pts: Vec<SweepPoint> = (0..10)
            .map(|i| SweepPoint::new(vec![0.1 * i as f64, 0.2], vec![0.3, 0.4]))
            .collect();
        let runner = DistSweepRunner::new(serial_sim(5), 3);
        let scan = runner.scan(&pts[..], LandscapeAggregator::new(2));
        assert_eq!(scan.agg.count(), 10);
        let reference = SweepRunner::new(serial_sim(5)).energies(&pts);
        let best = reference
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(scan.agg.argmin(), Some(best.0 as u64));
    }

    #[test]
    fn empty_scan_is_empty() {
        let runner = DistSweepRunner::new(serial_sim(4), 2);
        let scan = runner.scan(&[][..], LandscapeAggregator::new(3));
        assert_eq!(scan.points, 0);
        assert_eq!(scan.supersteps, 0);
        assert_eq!(scan.agg.count(), 0);
        assert_eq!(scan.agg.argmin(), None);
    }

    #[test]
    fn more_ranks_than_points_degenerates_cleanly() {
        let pts: Vec<SweepPoint> = (0..3)
            .map(|i| SweepPoint::p1(0.1 * i as f64, 0.2))
            .collect();
        let runner = DistSweepRunner::new(serial_sim(4), 8);
        let scan = runner.scan(&pts[..], LandscapeAggregator::new(1));
        assert_eq!(scan.agg.count(), 3);
    }

    #[test]
    fn poisoned_point_reports_rank_and_global_index() {
        let mut pts: Vec<SweepPoint> = (0..12)
            .map(|i| SweepPoint::p1(0.1 * i as f64, 0.2))
            .collect();
        // Global index 7 lands in rank 2's slice of [6, 9).
        pts[7] = SweepPoint::new(vec![0.1, 0.2], vec![0.3]); // length mismatch
        let runner = DistSweepRunner::with_options(
            Arc::new(serial_sim(5)),
            DistSweepOptions {
                ranks: 4,
                sweep: SweepOptions::default(),
                chunk: 2,
            },
        );
        let err = runner
            .try_scan(&pts[..], LandscapeAggregator::new(1))
            .unwrap_err();
        match err {
            DistSweepError::PointPanicked {
                rank,
                index,
                message,
            } => {
                assert_eq!(rank, 2);
                assert_eq!(index, 7);
                assert!(message.contains("same length"), "{message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // The runner (and the pool) stays reusable.
        let ok = runner.scan(&pts[..7], LandscapeAggregator::new(1));
        assert_eq!(ok.agg.count(), 7);
    }

    #[test]
    fn grid_matches_optim_grid_points() {
        // Grid2d must enumerate exactly qokit-optim's row-major grid, so
        // scans and grid searches agree point for point. (Spacing formula
        // is shared; spot-check endpoints and interior.)
        let grid = Grid2d::new(Axis::new(-1.0, 1.0, 5), Axis::new(0.0, 0.5, 3));
        assert_eq!(grid.len(), 15);
        let p0 = grid.point(0);
        assert_eq!((p0.gammas[0], p0.betas[0]), (-1.0, 0.0));
        let p_last = grid.point(14);
        assert_eq!((p_last.gammas[0], p_last.betas[0]), (1.0, 0.5));
        let p = grid.point(7); // row 2, col 1
        assert_eq!((p.gammas[0], p.betas[0]), (0.0, 0.25));
    }

    #[test]
    #[should_panic(expected = "at least 2 points")]
    fn axis_rejects_degenerate_steps() {
        let _ = Axis::new(0.0, 1.0, 1);
    }

    #[test]
    fn transport_scan_matches_lane_engine_bit_for_bit() {
        use crate::transport::InProcessTransport;
        let poly = labs_terms(6);
        let grid = Grid2d::new(Axis::new(-0.6, 0.6, 9), Axis::new(-0.4, 0.4, 7));
        for ranks in [1usize, 2, 3] {
            let runner = DistSweepRunner::with_options(
                Arc::new(serial_sim(6)),
                DistSweepOptions {
                    ranks,
                    sweep: SweepOptions {
                        exec: ExecPolicy::rayon().with_threads(2),
                        nested: SweepNesting::PointsParallel,
                    },
                    chunk: 7,
                },
            );
            let classic = runner.scan(&grid, LandscapeAggregator::new(5));
            let mut t = InProcessTransport::new(ranks);
            let scan = runner
                .try_scan_on(&mut t, &poly, &grid, LandscapeAggregator::new(5))
                .unwrap();
            assert_eq!(scan.points, classic.points);
            assert_eq!(scan.supersteps, classic.supersteps);
            assert_eq!(scan.agg.count(), classic.agg.count());
            assert_eq!(scan.agg.argmin(), classic.agg.argmin());
            assert_eq!(
                scan.agg.min_energy().unwrap().to_bits(),
                classic.agg.min_energy().unwrap().to_bits(),
                "ranks = {ranks}"
            );
            assert_eq!(scan.agg.top_k(), classic.agg.top_k());
        }
    }

    #[test]
    fn transport_scan_reports_rank_and_global_index() {
        use crate::transport::InProcessTransport;
        let poly = labs_terms(5);
        let mut pts: Vec<SweepPoint> = (0..12)
            .map(|i| SweepPoint::p1(0.1 * i as f64, 0.2))
            .collect();
        pts[7] = SweepPoint::new(vec![0.1, 0.2], vec![0.3]); // length mismatch
        let runner = DistSweepRunner::with_options(
            Arc::new(serial_sim(5)),
            DistSweepOptions {
                ranks: 4,
                sweep: SweepOptions::default(),
                chunk: 2,
            },
        );
        let mut t = InProcessTransport::new(4);
        let err = runner
            .try_scan_on(&mut t, &poly, &pts[..], LandscapeAggregator::new(1))
            .unwrap_err();
        match err {
            DistSweepError::PointPanicked { rank, index, .. } => {
                assert_eq!(rank, 2);
                assert_eq!(index, 7);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // The transport stays reusable after a contained point panic.
        let ok = runner
            .try_scan_on(&mut t, &poly, &pts[..7], LandscapeAggregator::new(1))
            .unwrap();
        assert_eq!(ok.agg.count(), 7);
    }

    fn xy_ring_sim(n: usize) -> FurSimulator {
        FurSimulator::with_options(
            &labs_terms(n),
            SimOptions {
                mixer: Mixer::XyRing,
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        )
    }

    #[test]
    fn xy_mixer_scan_shares_the_runners_circuit() {
        // In-process ranks wrap the runner's own simulator, so a non-X
        // mixer (here from its Dicke initial state) scans exactly the
        // sequential loop's circuit.
        let grid = Grid2d::new(Axis::new(-0.6, 0.6, 6), Axis::new(-0.6, 0.6, 6));
        let reference = sequential_reference(&xy_ring_sim(6), &grid, LandscapeAggregator::new(4));
        for ranks in [1usize, 2, 3] {
            let runner = DistSweepRunner::with_options(
                Arc::new(xy_ring_sim(6)),
                DistSweepOptions {
                    ranks,
                    sweep: SweepOptions {
                        exec: ExecPolicy::rayon().with_threads(2),
                        nested: SweepNesting::PointsParallel,
                    },
                    chunk: 5,
                },
            );
            let scan = runner.try_scan(&grid, LandscapeAggregator::new(4)).unwrap();
            assert_eq!(scan.agg.count(), 36);
            assert_eq!(scan.agg.argmin(), reference.argmin(), "ranks = {ranks}");
            assert_eq!(
                scan.agg.min_energy().unwrap().to_bits(),
                reference.min_energy().unwrap().to_bits()
            );
            assert_eq!(scan.agg.top_k(), reference.top_k());
        }
    }

    #[test]
    fn transport_scan_refuses_a_circuit_workers_cannot_build() {
        use crate::transport::InProcessTransport;
        let poly = labs_terms(6);
        let grid = Grid2d::new(Axis::new(-0.6, 0.6, 6), Axis::new(-0.6, 0.6, 6));
        let opts = DistSweepOptions {
            ranks: 2,
            sweep: SweepOptions::default(),
            chunk: 8,
        };
        let mut t = InProcessTransport::new(2);
        let xy = DistSweepRunner::with_options(Arc::new(xy_ring_sim(6)), opts);
        let err = xy
            .try_scan_on(&mut t, &poly, &grid, LandscapeAggregator::new(1))
            .unwrap_err();
        assert!(
            matches!(&err, DistSweepError::Unsupported(m) if m.contains("XyRing")),
            "{err:?}"
        );
        let basis = DistSweepRunner::with_options(
            Arc::new(FurSimulator::with_options(
                &poly,
                SimOptions {
                    initial: InitialState::Basis(0),
                    ..SimOptions::default()
                },
            )),
            opts,
        );
        let err = basis
            .try_scan_on(&mut t, &poly, &grid, LandscapeAggregator::new(1))
            .unwrap_err();
        assert!(
            matches!(&err, DistSweepError::Unsupported(m) if m.contains("Basis(0)")),
            "{err:?}"
        );
        // Nothing reached the workers: the same transport then runs an
        // X-mixer scan to completion.
        let x = DistSweepRunner::with_options(Arc::new(serial_sim(6)), opts);
        let scan = x
            .try_scan_on(&mut t, &poly, &grid, LandscapeAggregator::new(1))
            .unwrap();
        assert_eq!(scan.agg.count(), 36);
        assert_eq!(
            scan.agg.argmin(),
            x.scan(&grid, LandscapeAggregator::new(1)).agg.argmin()
        );
    }
}
