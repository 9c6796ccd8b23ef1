//! Problem-keyed precompute cache — the paper's amortization argument
//! (precompute the `2^n` cost diagonal once, reuse it across thousands of
//! parameter evaluations; Lykov et al., SC 2023 §IV) made persistent
//! across jobs in a long-lived server. It holds two kinds of entry in one
//! LRU: cost diagonals for sweep and multi-start jobs, and light-cone
//! plans for light-cone jobs.
//!
//! - **Diagonals.** The key is the *full canonical encoding* of
//!   `(spec, polynomial)`: the spec byte (without its layout bit: every
//!   layout runs the same split planes with the same bits) followed by
//!   `n_vars` and every `(weight bits, mask)` term. Two polynomials with
//!   the same terms on different variable counts (different `n` →
//!   different `2^n` diagonal) are different keys. The value is an
//!   `Arc<FurSimulator>` (the simulator owns the
//!   [`CostVec`](qokit_costvec::CostVec)), priced at its resident
//!   cost-vector bytes.
//! - **Light-cone plans.** The key is the job's exact edge list (vertex
//!   count, endpoints, weight bits), its depth `p`, `max_cone_qubits` and
//!   `dedup`. The value is the [`ConePlan`] — group index and cone nets,
//!   which depend on the graph but never on the angles — next to the one
//!   copy of the edge list that is both the key and the weights the
//!   evaluation reads. It holds no adjacency. It is priced at the bytes
//!   it holds beyond its key ([`ConePlan::memory_bytes`]). A refused plan
//!   (an invalid edge list, a cone over the cap) is never cached.
//!
//! Keys are not priced, for either kind: a key is the job's own input,
//! and pricing a plan's edge list would let one large graph evict every
//! diagonal. Every key is hashed (the frame checksum's word-wise mix,
//! over a diagonal key's bytes or an edge list's fields) only to pick
//! its slot, and compared in full — outside the cache lock, so a
//! megabyte edge list never holds up sibling lanes.
//! A key whose hash lands on another key's slot is served from a fresh
//! build and not cached. Eviction is LRU by priced bytes against a byte
//! budget, never by entry count, so a few 26-qubit diagonals and many
//! 16-qubit ones (and plans) get the same treatment.

use crate::proto::{CacheStatsView, LightConeJob};
use qokit_core::lightcone::{ConePlan, LightConeEvaluator, LightConeOptions};
use qokit_core::simulator::{FurSimulator, InitialState, SimOptions};
use qokit_core::{Mixer, QaoaSimulator};
use qokit_dist::frame::{hash64, ByteWriter, WordHash};
use qokit_dist::wire::{put_poly, spec_byte, SweepSimSpec};
use qokit_statevec::exec::{ExecPolicy, Layout};
use qokit_terms::graphs::Graph;
use qokit_terms::SpinPolynomial;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Canonical cache key: the byte encoding of `(spec, polynomial)`.
/// Hashed by the frame checksum's word-wise hash, compared by full bytes
/// (collision-proof).
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

    /// The key's hash (slot placement only; equality is on the full
    /// encoding): [`hash64`] of its bytes.
    pub fn hash64(&self) -> u64 {
        hash64(&self.bytes)
    }
}

/// What a light-cone plan is keyed by. Weights compare by bits, so
/// `0.0` and `-0.0` are different keys and equal-bit NaNs the same one.
#[derive(Clone, Copy, Debug)]
struct PlanKey<'a> {
    n_vertices: usize,
    edges: &'a [(usize, usize, f64)],
    radius: usize,
    max_cone_qubits: usize,
    dedup: bool,
}

impl PartialEq for PlanKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        let scalars = |k: &Self| (k.n_vertices, k.radius, k.max_cone_qubits, k.dedup);
        let bits = |&(u, v, w): &(usize, usize, f64)| (u, v, w.to_bits());
        scalars(self) == scalars(other)
            && self.edges.iter().map(bits).eq(other.edges.iter().map(bits))
    }
}

impl<'a> PlanKey<'a> {
    /// The key of `job`, planned as the server plans it: default options
    /// but for the job's cap.
    fn of(job: &'a LightConeJob) -> Self {
        PlanKey {
            n_vertices: job.n_vertices,
            edges: &job.edges,
            radius: job.gammas.len(),
            max_cone_qubits: job.max_cone_qubits,
            dedup: LightConeOptions::default().dedup,
        }
    }

    /// A word-at-a-time multiply-rotate hash (slot placement only), the
    /// frame checksum's step over the key's fields without encoding them:
    /// an edge list is hundreds of kilobytes.
    fn hash64(&self) -> u64 {
        let mut h = WordHash::new();
        for word in [self.n_vertices, self.radius, self.max_cone_qubits] {
            h.mix(word as u64);
        }
        h.mix(self.dedup as u64);
        for &(u, v, w) in self.edges {
            h.mix(u as u64);
            h.mix(v as u64);
            h.mix(w.to_bits());
        }
        h.finish()
    }
}

/// A cached light-cone plan: the [`ConePlan`] next to the one copy of
/// the edge list it was planned from, which is both its key and the
/// weights [`ConePlan::try_evaluate`] reads.
#[derive(Debug)]
pub struct CachedPlan {
    n_vertices: usize,
    edges: Vec<(usize, usize, f64)>,
    max_cone_qubits: usize,
    dedup: bool,
    plan: ConePlan,
}

impl CachedPlan {
    /// The plan (group index and cone nets).
    pub fn plan(&self) -> &ConePlan {
        &self.plan
    }

    /// The job's edge list, exactly as it was submitted.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    fn key(&self) -> PlanKey<'_> {
        PlanKey {
            n_vertices: self.n_vertices,
            edges: &self.edges,
            radius: self.plan.radius(),
            max_cone_qubits: self.max_cone_qubits,
            dedup: self.dedup,
        }
    }
}

/// A resident value with its full key. Lookups clone it out of the lock
/// (a few `Arc` bumps) and compare the key afterwards.
#[derive(Clone)]
enum Item {
    Diagonal(Arc<CacheKey>, Arc<FurSimulator>),
    Plan(Arc<CachedPlan>),
}

struct Entry {
    item: Item,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    /// Entries by key hash, one per hash.
    map: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
    evictions: u64,
}

/// Lookup counters, kept outside the lock: a hit is known only after the
/// key compare, which runs unlocked.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

/// Thread-safe LRU-by-bytes cache of precomputed simulators and
/// light-cone plans.
///
/// A single entry larger than the whole budget is admitted alone (the job
/// that built it needs it resident anyway) and becomes the next eviction
/// victim; everything else is evicted least-recently-used until the
/// priced bytes fit the budget again.
pub struct PrecomputeCache {
    inner: Mutex<Inner>,
    counters: Counters,
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
                evictions: 0,
            }),
            counters: Counters::default(),
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
        let hash = key.hash64();
        if let Some(Item::Diagonal(resident, sim)) = self.get(hash) {
            if *resident == key {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return (sim, true);
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let sim = Arc::new(build_simulator(poly, spec));
        let bytes = sim.cost_diagonal().memory_bytes();
        let key = Arc::new(key);
        match self.admit(
            hash,
            Item::Diagonal(Arc::clone(&key), Arc::clone(&sim)),
            bytes,
        ) {
            // Lost a build race; adopt the resident entry.
            Some(Item::Diagonal(resident, won)) if resident == key => (won, false),
            _ => (sim, false),
        }
    }

    /// The light-cone plan for `job`, from cache when resident or freshly
    /// planned; the boolean is `true` on a hit. A hit skips validation,
    /// the adjacency and planning. A miss validates the edge list as sent
    /// (errors name the client's vertex ids), relabels the touched
    /// vertices to `0..k` in id order ([`Graph::compacted`], which keeps
    /// the plan and its bits) so the adjacency is sized by the edges
    /// whatever vertex count the job claims, and plans outside the lock.
    /// Errors — an invalid edge list, a cone over `max_cone_qubits` — are
    /// returned as their messages and never cached.
    pub fn get_or_plan(&self, job: &LightConeJob) -> Result<(Arc<CachedPlan>, bool), String> {
        let key = PlanKey::of(job);
        let hash = key.hash64();
        if let Some(Item::Plan(resident)) = self.get(hash) {
            if resident.key() == key {
                self.counters.plan_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((resident, true));
            }
        }
        self.counters.plan_misses.fetch_add(1, Ordering::Relaxed);
        let graph = Graph::try_new(job.n_vertices, job.edges.clone())?;
        let options = LightConeOptions {
            max_cone_qubits: key.max_cone_qubits,
            dedup: key.dedup,
            ..LightConeOptions::default()
        };
        let plan = LightConeEvaluator::with_options(graph.compacted(), options)
            .plan(key.radius)
            .map_err(|e| e.to_string())?;
        let fresh = Arc::new(CachedPlan {
            n_vertices: job.n_vertices,
            edges: job.edges.clone(),
            max_cone_qubits: key.max_cone_qubits,
            dedup: key.dedup,
            plan,
        });
        let bytes = fresh.plan.memory_bytes();
        match self.admit(hash, Item::Plan(Arc::clone(&fresh)), bytes) {
            // Lost a planning race; adopt the resident entry.
            Some(Item::Plan(resident)) if resident.key() == fresh.key() => Ok((resident, false)),
            _ => Ok((fresh, false)),
        }
    }

    /// The item in `hash`'s slot, its recency refreshed. The caller
    /// compares the full key after the lock is released.
    fn get(&self, hash: u64) -> Option<Item> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(&hash).map(|e| {
            e.last_used = tick;
            e.item.clone()
        })
    }

    /// Admits `item` into `hash`'s slot, priced at `bytes`, and evicts
    /// over budget — unless the slot is taken (a build race, or another
    /// key with this hash). Then the resident item is returned, untouched
    /// but for its recency, for the caller to compare outside the lock.
    fn admit(&self, hash: u64, item: Item, bytes: usize) -> Option<Item> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&hash) {
            e.last_used = tick;
            return Some(e.item.clone());
        }
        inner.map.insert(
            hash,
            Entry {
                item,
                bytes,
                last_used: tick,
            },
        );
        inner.bytes += bytes;
        self.evict_over_budget(&mut inner, hash);
        None
    }

    /// Evicts least-recently-used entries (never `just_inserted`) until
    /// the priced bytes fit the budget.
    fn evict_over_budget(&self, inner: &mut Inner, just_inserted: u64) {
        while inner.bytes > self.capacity_bytes {
            let victim = inner
                .map
                .iter()
                .filter(|(&k, _)| k != just_inserted)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else {
                return; // only the fresh entry remains; admit it oversized
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// `true` when `(poly, spec)`'s diagonal is resident. Does **not**
    /// refresh recency — safe for assertions.
    pub fn contains(&self, poly: &SpinPolynomial, spec: SweepSimSpec) -> bool {
        let key = CacheKey::new(poly, spec);
        let item = {
            let inner = self.inner.lock().unwrap();
            inner.map.get(&key.hash64()).map(|e| e.item.clone())
        };
        matches!(item, Some(Item::Diagonal(resident, _)) if *resident == key)
    }

    /// Resident entry count (diagonals and plans).
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
        let (entries, bytes, evictions) = {
            let inner = self.inner.lock().unwrap();
            (inner.map.len(), inner.bytes, inner.evictions)
        };
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStatsView {
            entries: entries as u64,
            bytes: bytes as u64,
            capacity_bytes: self.capacity_bytes as u64,
            hits: count(&self.counters.hits),
            misses: count(&self.counters.misses),
            plan_hits: count(&self.counters.plan_hits),
            plan_misses: count(&self.counters.plan_misses),
            evictions,
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

    fn ring_job(n_vertices: usize) -> LightConeJob {
        LightConeJob {
            n_vertices,
            edges: Graph::ring(20, 1.0).edges().to_vec(),
            gammas: vec![0.3],
            betas: vec![0.5],
            max_cone_qubits: 22,
            deadline_ms: 0,
        }
    }

    /// Priced bytes of `ring_job`'s p = 1 plan: 20 group slots, and one
    /// cone of 4 vertices (a vertex id and a distance each) and 3 edges.
    const RING_PLAN_BYTES: usize = 20 * 8 + 4 * (8 + 8) + 3 * 24;

    #[test]
    fn plan_entry_is_priced_at_its_group_index_and_cone_nets() {
        let cache = PrecomputeCache::new(1 << 20);
        let (cold, hit) = cache.get_or_plan(&ring_job(20)).unwrap();
        assert!(!hit);
        assert_eq!(cold.plan().memory_bytes(), RING_PLAN_BYTES);
        let s = cache.stats();
        assert_eq!(
            s.bytes as usize, RING_PLAN_BYTES,
            "the edge-list key is unpriced"
        );
        assert_eq!((s.entries, s.plan_hits, s.plan_misses), (1, 0, 1));
        let (warm, hit) = cache.get_or_plan(&ring_job(20)).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&cold, &warm));
        let s = cache.stats();
        assert_eq!((s.plan_hits, s.plan_misses), (1, 1));
        assert_eq!((s.hits, s.misses), (0, 0), "diagonal counters stay apart");
    }

    #[test]
    fn invalid_edge_lists_are_errors_and_never_cached() {
        let cache = PrecomputeCache::new(1 << 20);
        let edges = ring_job(20).edges;
        let mut out_of_range = ring_job(20);
        out_of_range.edges[0].1 = 20;
        let mut duplicated = ring_job(20);
        duplicated.edges.push(edges[3]);
        let mut self_loop = ring_job(20);
        self_loop.edges[5] = (7, 7, 1.0);
        for (i, (what, job)) in [
            ("out of range", out_of_range),
            ("duplicate edge", duplicated),
            ("self-loop", self_loop),
        ]
        .into_iter()
        .enumerate()
        {
            match cache.get_or_plan(&job) {
                Err(e) => assert!(e.contains(what), "{what}: {e}"),
                Ok((_, hit)) => panic!("{what}: planned (hit = {hit})"),
            }
            let s = cache.stats();
            assert_eq!((s.plan_misses, s.plan_hits), (i as u64 + 1, 0), "{what}");
            assert_eq!((cache.len(), s.bytes), (0, 0), "{what}");
        }
    }

    #[test]
    fn plans_and_diagonals_share_one_lru() {
        let (a, b) = (labs_terms(6), labs_terms(5));
        let plan = ring_job(20);
        assert_eq!((entry_bytes(&a), entry_bytes(&b)), (160, 96));
        let cache = PrecomputeCache::new(160 + RING_PLAN_BYTES);
        cache.get_or_build(&a, spec());
        cache.get_or_plan(&plan).unwrap();
        assert_eq!((cache.len(), cache.stats().evictions), (2, 0));
        // Touch the plan, so the diagonal is least recently used: a new
        // diagonal evicts it and leaves the plan resident.
        assert!(cache.get_or_plan(&plan).unwrap().1);
        cache.get_or_build(&b, spec());
        assert!(!cache.contains(&a, spec()));
        assert_eq!(cache.stats().evictions, 1);
        // Now the plan is the oldest: bringing the diagonal back evicts it.
        cache.get_or_build(&a, spec());
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.contains(&a, spec()) && cache.contains(&b, spec()));
        assert!(!cache.get_or_plan(&plan).unwrap().1, "the plan was evicted");
        assert_eq!(cache.stats().plan_misses, 2);
    }

    #[test]
    fn plan_keys_tell_vertex_counts_and_signed_zeros_apart() {
        let base = ring_job(20);
        let wider = ring_job(21);
        let mut zero = ring_job(20);
        zero.edges[7].2 = 0.0;
        let mut neg_zero = zero.clone();
        neg_zero.edges[7].2 = -0.0;
        let same = base.clone();
        assert_eq!(PlanKey::of(&base), PlanKey::of(&same));
        assert_ne!(PlanKey::of(&base), PlanKey::of(&wider));
        assert_ne!(PlanKey::of(&zero), PlanKey::of(&neg_zero));
        let cache = PrecomputeCache::new(1 << 20);
        for (i, job) in [&base, &wider, &zero, &neg_zero].into_iter().enumerate() {
            assert!(!cache.get_or_plan(job).unwrap().1, "job {i} must be a miss");
        }
        assert_eq!(cache.len(), 4);
        for job in [&base, &wider, &zero, &neg_zero] {
            assert!(cache.get_or_plan(job).unwrap().1);
        }
        let s = cache.stats();
        assert_eq!((s.plan_hits, s.plan_misses), (4, 4));
    }

    #[test]
    fn a_slot_held_by_another_key_serves_the_plan_uncached() {
        // Park a diagonal in the slot the ring job's key hashes to.
        let job = ring_job(20);
        let hash = PlanKey::of(&job).hash64();
        let poly = labs_terms(5);
        let sim = Arc::new(build_simulator(&poly, spec()));
        let squatter = Item::Diagonal(Arc::new(CacheKey::new(&poly, spec())), sim);
        let cache = PrecomputeCache::new(1 << 20);
        assert!(cache.admit(hash, squatter, 96).is_none());
        for _ in 0..2 {
            let (cached, hit) = cache.get_or_plan(&job).unwrap();
            assert!(!hit);
            assert_eq!(cached.plan().memory_bytes(), RING_PLAN_BYTES);
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.plan_misses), (1, 96, 2));
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
