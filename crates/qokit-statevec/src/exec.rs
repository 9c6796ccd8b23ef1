//! Execution policy for the kernels.
//!
//! The paper's simulator ships CPU (serial C / NumPy) and GPU variants of the
//! same algorithms. We mirror that split as `Serial` vs `Rayon`: the index
//! arithmetic is identical, only the executor changes — which is exactly the
//! property the paper relies on when comparing implementations.
//!
//! [`ExecPolicy`] is the one object every kernel consults, and it holds
//! **two** independent kernel knobs plus the splitting thresholds:
//!
//! 1. **Executor** ([`Backend`]): serial loops vs the work-stealing pool.
//!    [`Backend`] remains the thin two-variant selector it always was —
//!    every kernel accepts `impl Into<ExecPolicy>`, so passing a bare
//!    `Backend` keeps working and resolves to that backend with default
//!    thresholds (and the default [`Layout::Split`]).
//! 2. **Memory layout** ([`Layout`]): split-complex (structure-of-arrays)
//!    `re`/`im` `f64` planes ([`crate::split::SplitStateVec`]), the layout
//!    every policy constructor yields, vs interleaved `C64` amplitudes. The
//!    layout is consulted only where a caller evolves an interleaved
//!    [`crate::StateVec`] (`FurSimulator::evolve_in_place_with`); the
//!    objective, sweep, observer and light-cone paths run on planes
//!    whatever it says. Each kernel module provides an interleaved and a
//!    `*_split` plane-wise entry point with identical index arithmetic and
//!    identical bits. [`Layout::Interleaved`] remains as the comparison
//!    side of the layout-equivalence suites.
//!
//! # Thread-count resolution
//!
//! The `QOKIT_THREADS` environment variable governs the default worker
//! count: unset or `0` means the hardware thread count, `1` forces serial
//! execution in [`Backend::auto`] / [`ExecPolicy::auto`], any other value
//! sizes the global pool. An explicit [`ExecPolicy::threads`] (via
//! [`ExecPolicy::with_threads`]) overrides the global pool with a cached
//! per-size pool entered through [`ExecPolicy::install`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// How a kernel should execute: serial loops or the work-stealing pool.
/// The index arithmetic is the same under both, so the choice moves work
/// between threads but never changes what is computed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Single-threaded loops (the paper's "c"/"python" simulators).
    Serial,
    /// Work-stealing-pool data-parallel loops (our stand-in for the GPU
    /// kernels).
    Rayon,
}

impl Backend {
    /// Picks the backend the way QOKit's `choose_simulator(name='auto')`
    /// does: `Rayon` when the pool runtime would split over more than one
    /// worker, `Serial` otherwise. The worker count is asked of the runtime
    /// itself (`rayon::current_num_threads`, which resolves `QOKIT_THREADS`
    /// → `RAYON_NUM_THREADS` → hardware threads, or an already-latched pool
    /// size) — so `auto()` can never pick `Rayon` for a pool the
    /// environment pinned to one worker.
    pub fn auto() -> Backend {
        if rayon::current_num_threads() > 1 {
            Backend::Rayon
        } else {
            Backend::Serial
        }
    }
}

/// How amplitudes are stored while the hot kernels run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Array-of-structs: one `Vec<C64>` with `re`/`im` adjacent per
    /// amplitude — the layout every public `StateVec` API speaks. Selecting
    /// it makes `evolve_in_place_with` run the interleaved kernel twins.
    Interleaved,
    /// Structure-of-arrays: separate `re`/`im` `f64` planes
    /// ([`crate::split::SplitStateVec`]), the layout QOKit's fastest CPU
    /// backend uses so the kernels vectorize. The default.
    #[default]
    Split,
}

impl Layout {
    /// The layout default-policy simulators run in: always
    /// [`Layout::Split`]; the environment is not consulted. It stays only
    /// because the benchmark's host report (`perfbench/src/host.rs`) names
    /// it.
    pub const fn auto() -> Layout {
        Layout::Split
    }
}

/// Default for [`ExecPolicy::min_len`]: vectors shorter than this are always
/// processed serially — task spawning costs more than the sweep itself.
pub const PAR_MIN_LEN: usize = 1 << 13;

/// Default for [`ExecPolicy::min_chunk`]: minimum number of amplitudes a
/// parallel task should own, keeping per-task overhead amortized and chunks
/// cache-friendly.
pub const PAR_MIN_CHUNK: usize = 1 << 12;

/// The execution policy every kernel consults: which executor to use and how
/// to split the sweep across it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Executor selection.
    pub backend: Backend,
    /// Worker count for [`ExecPolicy::install`]; `0` inherits the ambient
    /// pool (the global pool sized by `QOKIT_THREADS`, or whatever pool the
    /// calling code already installed into).
    pub threads: usize,
    /// Vectors shorter than this run serially even under [`Backend::Rayon`].
    pub min_len: usize,
    /// Minimum elements per parallel task.
    pub min_chunk: usize,
    /// Amplitude layout `FurSimulator::evolve_in_place_with` evolves an
    /// interleaved state in. Kernel entry points ignore it — the slice
    /// types they take already fix the layout.
    pub layout: Layout,
}

impl ExecPolicy {
    /// Strictly serial execution.
    pub const fn serial() -> ExecPolicy {
        ExecPolicy {
            backend: Backend::Serial,
            threads: 0,
            min_len: PAR_MIN_LEN,
            min_chunk: PAR_MIN_CHUNK,
            layout: Layout::Split,
        }
    }

    /// Parallel execution on the ambient pool with default thresholds.
    pub const fn rayon() -> ExecPolicy {
        ExecPolicy {
            backend: Backend::Rayon,
            threads: 0,
            min_len: PAR_MIN_LEN,
            min_chunk: PAR_MIN_CHUNK,
            layout: Layout::Split,
        }
    }

    /// Backend from [`Backend::auto`] (which honors `QOKIT_THREADS`),
    /// default thresholds and layout.
    pub fn auto() -> ExecPolicy {
        ExecPolicy::from(Backend::auto())
    }

    /// Returns the policy with an explicit worker count (see
    /// [`ExecPolicy::install`]).
    pub const fn with_threads(mut self, threads: usize) -> ExecPolicy {
        self.threads = threads;
        self
    }

    /// Returns the policy with a custom serial-fallback threshold.
    pub const fn with_min_len(mut self, min_len: usize) -> ExecPolicy {
        self.min_len = min_len;
        self
    }

    /// Returns the policy with a custom per-task element floor.
    pub const fn with_min_chunk(mut self, min_chunk: usize) -> ExecPolicy {
        self.min_chunk = min_chunk;
        self
    }

    /// Returns the policy with an explicit amplitude [`Layout`].
    pub const fn with_layout(mut self, layout: Layout) -> ExecPolicy {
        self.layout = layout;
        self
    }

    /// `true` when a sweep of `len` elements should take the parallel path.
    #[inline]
    pub fn parallel(&self, len: usize) -> bool {
        matches!(self.backend, Backend::Rayon) && len >= self.min_len
    }

    /// Splits `len` into pool-friendly chunk lengths that are multiples of
    /// `block` (so no butterfly block straddles two tasks). Holds for any
    /// `min_chunk` value, not just powers of two: the target is rounded up
    /// to the next multiple of `block`.
    #[inline]
    pub fn chunk_len(&self, len: usize, block: usize) -> usize {
        debug_assert!(block.is_power_of_two() && len.is_multiple_of(block));
        if block >= self.min_chunk {
            block
        } else {
            (self.min_chunk.div_ceil(block) * block).min(len)
        }
    }

    /// Runs `op` under this policy's executor. With `threads == 0` (or the
    /// strictly serial backend) that is the calling context unchanged; with
    /// an explicit count, a cached pool of that size, so every parallel
    /// kernel inside `op` splits across exactly that many workers.
    pub fn install<R, OP>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        if self.threads == 0 || matches!(self.backend, Backend::Serial) {
            op()
        } else {
            sized_pool(self.threads).install(op)
        }
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::auto()
    }
}

impl From<Backend> for ExecPolicy {
    fn from(backend: Backend) -> ExecPolicy {
        ExecPolicy {
            backend,
            ..ExecPolicy::serial()
        }
    }
}

/// Process-wide cache of explicitly-sized pools, so repeated
/// `ExecPolicy::with_threads(k)` policies reuse one pool per size instead of
/// respawning workers.
fn sized_pool(threads: usize) -> Arc<rayon::ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().unwrap();
    Arc::clone(pools.entry(threads).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool construction never fails"),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_returns_some_backend() {
        // Smoke test: must not panic and must be one of the two variants.
        let b = Backend::auto();
        assert!(b == Backend::Serial || b == Backend::Rayon);
    }

    #[test]
    fn auto_mirrors_pool_size() {
        // auto() must agree with the runtime it will execute on: Rayon iff
        // the ambient pool would split over more than one worker. (The env
        // resolution itself — QOKIT_THREADS → RAYON_NUM_THREADS → hardware
        // — lives in vendor/rayon and is tested there; CI runs this whole
        // suite under QOKIT_THREADS=1 and =4.)
        let expect = if rayon::current_num_threads() > 1 {
            Backend::Rayon
        } else {
            Backend::Serial
        };
        assert_eq!(Backend::auto(), expect);
    }

    #[test]
    fn chunk_len_is_multiple_of_block() {
        for block_log in 0..16 {
            let block = 1usize << block_log;
            let len = 1usize << 20;
            let chunk = ExecPolicy::rayon().chunk_len(len, block);
            assert_eq!(chunk % block, 0, "block = {block}");
            assert!(chunk >= block);
            assert!(chunk <= len);
        }
    }

    #[test]
    fn chunk_len_caps_at_len() {
        let p = ExecPolicy::rayon();
        assert_eq!(p.chunk_len(1 << 4, 1 << 4), 1 << 4);
        assert_eq!(p.chunk_len(1 << 10, 2), PAR_MIN_CHUNK.min(1 << 10));
    }

    #[test]
    fn backend_converts_to_policy() {
        let p: ExecPolicy = Backend::Rayon.into();
        assert_eq!(p.backend, Backend::Rayon);
        assert_eq!(p.min_len, PAR_MIN_LEN);
        assert_eq!(p.min_chunk, PAR_MIN_CHUNK);
        assert_eq!(p.threads, 0);
    }

    #[test]
    fn parallel_gate_honors_min_len() {
        let p = ExecPolicy::rayon();
        assert!(!p.parallel(PAR_MIN_LEN - 1));
        assert!(p.parallel(PAR_MIN_LEN));
        assert!(!ExecPolicy::serial().parallel(1 << 30));
        let forced = ExecPolicy::rayon().with_min_len(1);
        assert!(forced.parallel(2));
    }

    #[test]
    fn install_with_explicit_threads_scopes_the_pool() {
        let p = ExecPolicy::rayon().with_threads(3);
        assert_eq!(p.install(rayon::current_num_threads), 3);
        // threads == 0 inherits the ambient context.
        let inherit = ExecPolicy::rayon();
        assert_eq!(
            inherit.install(rayon::current_num_threads),
            rayon::current_num_threads()
        );
        // Serial policies never enter a pool.
        let serial = ExecPolicy::serial().with_threads(5);
        assert_eq!(serial.install(|| 7), 7);
    }

    #[test]
    fn custom_thresholds_flow_through_chunking() {
        let p = ExecPolicy::rayon().with_min_chunk(1 << 6);
        assert_eq!(p.chunk_len(1 << 12, 2), 1 << 6);
        assert_eq!(p.chunk_len(1 << 12, 1 << 8), 1 << 8);
    }

    #[test]
    fn layout_defaults_and_builder() {
        assert_eq!(Layout::default(), Layout::Split);
        assert_eq!(Layout::auto(), Layout::Split);
        assert_eq!(ExecPolicy::serial().layout, Layout::Split);
        assert_eq!(ExecPolicy::rayon().layout, Layout::Split);
        assert_eq!(ExecPolicy::auto().layout, Layout::Split);
        let p: ExecPolicy = Backend::Rayon.into();
        assert_eq!(p.layout, Layout::Split);
        let s = ExecPolicy::rayon().with_layout(Layout::Interleaved);
        assert_eq!(s.layout, Layout::Interleaved);
        assert_eq!(s.backend, Backend::Rayon);
    }

    #[test]
    fn chunk_len_stays_block_aligned_for_odd_min_chunk() {
        // A hand-tuned min_chunk that is not a power of two (or not a
        // multiple of the block) must still produce block-aligned chunks,
        // or blocked kernels would silently skip chunk tails.
        for min_chunk in [3usize, 5, 7, 100, 1000] {
            let p = ExecPolicy::rayon().with_min_chunk(min_chunk);
            for block_log in 0..8 {
                let block = 1usize << block_log;
                let len = 1usize << 12;
                let chunk = p.chunk_len(len, block);
                assert_eq!(chunk % block, 0, "min_chunk={min_chunk}, block={block}");
                assert!(chunk >= block && chunk <= len);
                assert!(chunk >= min_chunk.min(len) || chunk == len || block >= min_chunk);
            }
        }
    }
}
