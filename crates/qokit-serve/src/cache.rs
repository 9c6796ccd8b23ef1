//! Problem-keyed precompute cache — the paper's amortization argument
//! (precompute the `2^n` cost diagonal once, reuse it across thousands of
//! parameter evaluations; Lykov et al., SC 2023 §IV) made persistent
//! across jobs in a long-lived server.
//!
//! Keys are the *full canonical encoding* of `(spec, polynomial)` — the
//! spec byte (without its layout bit: every layout runs the same split
//! planes with the same bits) followed by `n_vars` and every
//! `(weight bits, mask)` term —
//! hashed with FNV-1a-64 for bucket placement but compared byte-for-byte,
//! so two polynomials with the same terms on different variable counts
//! (different `n` → different `2^n` diagonal) can never collide into one
//! entry. Values are `Arc<FurSimulator>` (the simulator owns the
//! [`CostVec`](qokit_costvec::CostVec)); eviction is LRU by **resident
//! cost-vector bytes** against a byte budget, never by entry count, so a
//! few 26-qubit diagonals and many 16-qubit ones get the same treatment.

use crate::proto::CacheStatsView;
use qokit_core::simulator::{FurSimulator, InitialState, SimOptions};
use qokit_core::{Mixer, QaoaSimulator};
use qokit_dist::frame::{fnv1a64, ByteWriter};
use qokit_dist::wire::{put_poly, spec_byte, SweepSimSpec};
use qokit_statevec::exec::{ExecPolicy, Layout};
use qokit_terms::SpinPolynomial;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Canonical cache key: the byte encoding of `(spec, polynomial)`.
/// Hashed by FNV-1a-64, compared by full bytes (collision-proof).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    bytes: Vec<u8>,
}

impl CacheKey {
    /// The key for `poly` under simulator spec `spec`. The spec's layout
    /// is left out: it no longer changes what runs or its bits.
    pub fn new(poly: &SpinPolynomial, spec: SweepSimSpec) -> Self {
        let mut w = ByteWriter::new();
        w.u8(spec_byte(&SweepSimSpec {
            layout: Layout::Split,
            ..spec
        }));
        put_poly(&mut w, poly);
        CacheKey {
            bytes: w.into_vec(),
        }
    }

    /// The key's FNV-1a-64 hash (bucket placement only; equality is on
    /// the full encoding).
    pub fn hash64(&self) -> u64 {
        fnv1a64(&self.bytes)
    }
}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

struct Entry {
    sim: Arc<FurSimulator>,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Thread-safe LRU-by-bytes cache of precomputed simulators.
///
/// A single entry larger than the whole budget is admitted alone (the job
/// that built it needs it resident anyway) and becomes the next eviction
/// victim; everything else is evicted least-recently-used until the
/// resident cost-vector bytes fit the budget again.
pub struct PrecomputeCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
}

impl PrecomputeCache {
    /// An empty cache with a resident-bytes budget.
    pub fn new(capacity_bytes: usize) -> Self {
        PrecomputeCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity_bytes,
        }
    }

    /// The byte budget evictions keep the cache under.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// The simulator for `(poly, spec)`, from cache when resident
    /// (refreshing its recency) or freshly built. The boolean is `true`
    /// on a cache hit. The build runs outside the cache lock, so a slow
    /// `2^n` precompute never blocks sibling lanes' lookups; when two
    /// lanes race to build the same key the first insert wins and the
    /// loser adopts it.
    ///
    /// The simulator is built exactly as the transport workers build
    /// theirs (serial kernels, X mixer, `Auto` initial state), so cached
    /// and freshly built evaluations are bit-identical.
    pub fn get_or_build(
        &self,
        poly: &SpinPolynomial,
        spec: SweepSimSpec,
    ) -> (Arc<FurSimulator>, bool) {
        let key = CacheKey::new(poly, spec);
        {
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                let sim = Arc::clone(&entry.sim);
                inner.hits += 1;
                return (sim, true);
            }
            inner.misses += 1;
        }
        let sim = Arc::new(build_simulator(poly, spec));
        let bytes = sim.cost_diagonal().memory_bytes();
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            // Lost a build race; adopt the resident entry.
            entry.last_used = tick;
            return (Arc::clone(&entry.sim), false);
        }
        inner.map.insert(
            key.clone(),
            Entry {
                sim: Arc::clone(&sim),
                bytes,
                last_used: tick,
            },
        );
        inner.bytes += bytes;
        self.evict_over_budget(&mut inner, &key);
        (sim, false)
    }

    /// Evicts least-recently-used entries (never `just_inserted`) until
    /// the resident bytes fit the budget.
    fn evict_over_budget(&self, inner: &mut Inner, just_inserted: &CacheKey) {
        while inner.bytes > self.capacity_bytes {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| *k != just_inserted)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                return; // only the fresh entry remains; admit it oversized
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// `true` when `(poly, spec)` is resident. Does **not** refresh
    /// recency — safe for assertions.
    pub fn contains(&self, poly: &SpinPolynomial, spec: SweepSimSpec) -> bool {
        let key = CacheKey::new(poly, spec);
        self.inner.lock().unwrap().map.contains_key(&key)
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (the [`crate::proto::ServeResponse::CacheStats`]
    /// payload).
    pub fn stats(&self) -> CacheStatsView {
        let inner = self.inner.lock().unwrap();
        CacheStatsView {
            entries: inner.map.len() as u64,
            bytes: inner.bytes as u64,
            capacity_bytes: self.capacity_bytes as u64,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

/// Builds the shared simulator for a serve job: serial kernels — the same
/// construction as the transport workers' `sweep_runner_for`, so every
/// execution context (one-shot API, rank worker, serve lane) produces
/// bit-identical energies. The spec's layout is not used: sweeps run on
/// split planes whatever it says.
pub fn build_simulator(poly: &SpinPolynomial, spec: SweepSimSpec) -> FurSimulator {
    FurSimulator::with_options(
        poly,
        SimOptions {
            mixer: Mixer::X,
            exec: ExecPolicy::serial(),
            precompute: spec.precompute,
            quantize_u16: spec.quantize_u16,
            initial: InitialState::Auto,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_costvec::PrecomputeMethod;
    use qokit_terms::labs::labs_terms;
    use qokit_terms::Term;

    fn spec() -> SweepSimSpec {
        SweepSimSpec {
            precompute: PrecomputeMethod::Direct,
            quantize_u16: false,
            layout: Layout::Interleaved,
        }
    }

    /// Resident bytes of `poly`'s cached diagonal (level-coded for every
    /// polynomial below: a `u16` index per entry plus 8 bytes per level).
    fn entry_bytes(poly: &SpinPolynomial) -> usize {
        build_simulator(poly, spec()).cost_diagonal().memory_bytes()
    }

    #[test]
    fn hit_on_second_identical_lookup() {
        let cache = PrecomputeCache::new(1 << 20);
        let poly = labs_terms(6);
        let (a, hit_a) = cache.get_or_build(&poly, spec());
        let (b, hit_b) = cache.get_or_build(&poly, spec());
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, entry_bytes(&poly) as u64);
    }

    #[test]
    fn same_terms_different_n_are_distinct_keys() {
        // Identical term lists over different variable counts must not
        // collide: the diagonal has 2^n entries.
        let terms = vec![Term {
            weight: 1.0,
            mask: 0b11,
        }];
        let p5 = SpinPolynomial::new(5, terms.clone());
        let p6 = SpinPolynomial::new(6, terms);
        assert_ne!(CacheKey::new(&p5, spec()), CacheKey::new(&p6, spec()));

        let cache = PrecomputeCache::new(1 << 20);
        let (a, _) = cache.get_or_build(&p5, spec());
        let (b, hit) = cache.get_or_build(&p6, spec());
        assert!(!hit, "different n must be a miss");
        assert_eq!(cache.len(), 2);
        assert_eq!(a.n_qubits(), 5);
        assert_eq!(b.n_qubits(), 6);
    }

    #[test]
    fn spec_is_part_of_the_key() {
        let cache = PrecomputeCache::new(1 << 20);
        let poly = labs_terms(6);
        cache.get_or_build(&poly, spec());
        let (_, hit) = cache.get_or_build(
            &poly,
            SweepSimSpec {
                precompute: PrecomputeMethod::Fwht,
                ..spec()
            },
        );
        assert!(!hit, "different spec must be a miss");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn layout_is_not_part_of_the_key() {
        let cache = PrecomputeCache::new(1 << 20);
        let poly = labs_terms(6);
        let split = SweepSimSpec {
            layout: Layout::Split,
            ..spec()
        };
        let interleaved = SweepSimSpec {
            layout: Layout::Interleaved,
            ..spec()
        };
        assert_eq!(
            CacheKey::new(&poly, split),
            CacheKey::new(&poly, interleaved)
        );
        let (a, hit_a) = cache.get_or_build(&poly, split);
        let (b, hit_b) = cache.get_or_build(&poly, interleaved);
        assert!(!hit_a);
        assert!(hit_b, "a layout-only difference must hit");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_order_respects_recency() {
        let a = labs_terms(6);
        let b = SpinPolynomial::new(
            6,
            vec![Term {
                weight: 2.0,
                mask: 0b101,
            }],
        );
        let c = SpinPolynomial::new(
            6,
            vec![Term {
                weight: -1.0,
                mask: 0b110,
            }],
        );
        // Budget fits exactly A and B; C is as large as B.
        assert_eq!(entry_bytes(&b), entry_bytes(&c));
        let cache = PrecomputeCache::new(entry_bytes(&a) + entry_bytes(&b));

        cache.get_or_build(&a, spec());
        cache.get_or_build(&b, spec());
        assert_eq!(cache.len(), 2);

        // Touch A so B becomes least-recently-used, then insert C.
        let (_, hit) = cache.get_or_build(&a, spec());
        assert!(hit);
        cache.get_or_build(&c, spec());

        assert!(cache.contains(&a, spec()), "recently used entry must stay");
        assert!(!cache.contains(&b, spec()), "LRU entry must be evicted");
        assert!(cache.contains(&c, spec()));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_accounting_tracks_entry_sizes() {
        // 5-, 6-, 7-qubit LABS diagonals: 4, 4 and 9 levels, so
        // 96 + 160 + 328 bytes.
        let sizes = [5, 6, 7].map(|n| entry_bytes(&labs_terms(n)));
        assert_eq!(sizes, [96, 160, 328]);
        let cache = PrecomputeCache::new(sizes.iter().sum());
        cache.get_or_build(&labs_terms(5), spec());
        cache.get_or_build(&labs_terms(6), spec());
        cache.get_or_build(&labs_terms(7), spec());
        let s = cache.stats();
        assert_eq!(s.bytes as usize, sizes.iter().sum::<usize>());
        assert_eq!(s.evictions, 0);

        // One more 7-qubit entry of the same size (LABS with tripled
        // weights: other values, as many levels) overshoots the 584-byte
        // budget by exactly its own size: LRU eviction walks oldest-first
        // (5-, 6-, then the first 7-qubit entry) until the total fits,
        // leaving only the new entry resident.
        let d = SpinPolynomial::new(
            7,
            labs_terms(7)
                .terms()
                .iter()
                .map(|t| Term {
                    weight: 3.0 * t.weight,
                    mask: t.mask,
                })
                .collect(),
        );
        assert_eq!(entry_bytes(&d), sizes[2]);
        cache.get_or_build(&d, spec());
        let s = cache.stats();
        assert_eq!(s.bytes as usize, sizes[2]);
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 3);
        assert!(!cache.contains(&labs_terms(5), spec()));
        assert!(!cache.contains(&labs_terms(6), spec()));
        assert!(!cache.contains(&labs_terms(7), spec()));
        assert!(cache.contains(&d, spec()));
    }

    #[test]
    fn oversized_single_entry_is_admitted() {
        let cache = PrecomputeCache::new(16); // smaller than any diagonal
        let (sim, hit) = cache.get_or_build(&labs_terms(6), spec());
        assert!(!hit);
        assert_eq!(sim.n_qubits(), 6);
        assert_eq!(cache.len(), 1, "sole oversized entry stays resident");
        // The next insert evicts it immediately.
        cache.get_or_build(&labs_terms(5), spec());
        assert!(!cache.contains(&labs_terms(6), spec()));
    }

    #[test]
    fn quantized_entries_account_u16_bytes() {
        // A MaxCut-style integral polynomial quantizes onto the §V-B grid,
        // level-coded: a 2-byte index per amplitude instead of 8 bytes,
        // plus 8 bytes for each of its two levels (±1).
        let poly = SpinPolynomial::new(
            8,
            vec![Term {
                weight: 1.0,
                mask: 0b11,
            }],
        );
        let cache = PrecomputeCache::new(1 << 20);
        cache.get_or_build(
            &poly,
            SweepSimSpec {
                quantize_u16: true,
                ..spec()
            },
        );
        assert_eq!(cache.stats().bytes, (1u64 << 8) * 2 + 2 * 8);
    }
}
