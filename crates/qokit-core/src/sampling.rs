//! Measurement sampling and evolution observation.
//!
//! QAOA's output is ultimately a *sample*: the paper's premise is that
//! measuring `|γβ⟩` yields high-quality solutions with high probability.
//! This module draws bitstring samples from a simulated state (inverse-CDF
//! over the probability vector) and provides a per-layer observer hook so
//! studies can record energy/overlap trajectories without re-simulating
//! prefixes — the pattern behind depth-scaling analyses like the paper's
//! Ref. \[6\].
//!
//! The `O(2^n)` cumulative table is the hot part of sampling; under a
//! parallel [`ExecPolicy`] it is built with a two-pass blocked scan
//! (parallel per-block inclusive scans, serial block-offset accumulation,
//! parallel offset add) instead of one serial sweep.

use crate::simulator::{FurSimulator, QaoaSimulator, SimResult};
use qokit_statevec::{ExecPolicy, StateVec};
use rand::Rng;
use rayon::prelude::*;

/// Inclusive prefix sum of the measurement probabilities `|ψ_x|²` — the
/// cumulative table inverse-CDF sampling binary-searches. Parallel policies
/// use a blocked two-pass scan; block boundaries follow
/// [`ExecPolicy::min_chunk`], so the result is deterministic for a given
/// policy (associativity differs from the serial sweep only at the ~1e-16
/// rounding level).
pub fn cumulative_probabilities(state: &StateVec, exec: impl Into<ExecPolicy>) -> Vec<f64> {
    let policy = exec.into();
    let amps = state.amplitudes();
    let len = amps.len();
    if !policy.parallel(len) {
        let mut cdf = Vec::with_capacity(len);
        let mut acc = 0.0f64;
        for a in amps {
            acc += a.norm_sqr();
            cdf.push(acc);
        }
        return cdf;
    }
    // Run inside the policy's pool so an explicit thread count caps the
    // scan's workers just like the evolution kernels.
    policy.install(|| {
        let chunk = policy.min_chunk.max(1);
        let mut cdf = vec![0.0f64; len];
        // Pass 1: independent inclusive scans within each block.
        cdf.par_chunks_mut(chunk)
            .zip(amps.par_chunks(chunk))
            .for_each(|(c, a)| {
                let mut acc = 0.0f64;
                for (dst, amp) in c.iter_mut().zip(a.iter()) {
                    acc += amp.norm_sqr();
                    *dst = acc;
                }
            });
        // Block offsets: running sum of the per-block totals (serial over
        // len/chunk values — negligible next to the element passes).
        let n_blocks = len.div_ceil(chunk);
        let mut offsets = Vec::with_capacity(n_blocks);
        let mut acc = 0.0f64;
        for b in 0..n_blocks {
            offsets.push(acc);
            let last = ((b + 1) * chunk).min(len) - 1;
            acc += cdf[last];
        }
        // Pass 2: shift each block by its offset.
        cdf.par_chunks_mut(chunk).enumerate().for_each(|(b, c)| {
            let offset = offsets[b];
            if offset != 0.0 {
                for v in c {
                    *v += offset;
                }
            }
        });
        cdf
    })
}

/// Draws `shots` bitstring samples from the measurement distribution of a
/// state under an explicit execution policy.
/// `O(2^n + shots·log 2^n)` via the cumulative table + binary search.
pub fn sample_bitstrings_with<R: Rng>(
    state: &StateVec,
    shots: usize,
    rng: &mut R,
    exec: impl Into<ExecPolicy>,
) -> Vec<u64> {
    let cdf = cumulative_probabilities(state, exec);
    let total = cdf.last().copied().unwrap_or(0.0).max(f64::MIN_POSITIVE);
    (0..shots)
        .map(|_| {
            let u: f64 = rng.gen::<f64>() * total;
            // First index with cdf[i] >= u.
            let mut lo = 0usize;
            let mut hi = cdf.len() - 1;
            while lo < hi {
                let mid = (lo + hi) / 2;
                if cdf[mid] < u {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo as u64
        })
        .collect()
}

/// Draws `shots` bitstring samples with the automatic execution policy.
pub fn sample_bitstrings<R: Rng>(state: &StateVec, shots: usize, rng: &mut R) -> Vec<u64> {
    sample_bitstrings_with(state, shots, rng, ExecPolicy::auto())
}

/// Empirical best-cost estimate from samples: the minimum cost observed
/// over `shots` draws — the quantity a hardware run reports. Sampling uses
/// the simulator's configured execution policy.
pub fn best_sampled_cost<R: Rng>(
    sim: &FurSimulator,
    result: &SimResult,
    shots: usize,
    rng: &mut R,
) -> f64 {
    let samples = sample_bitstrings_with(result.state(), shots, rng, sim.options().exec);
    samples
        .into_iter()
        .map(|x| sim.cost_diagonal().value(x as usize))
        .fold(f64::INFINITY, f64::min)
}

/// Per-layer snapshot handed to [`evolve_with_observer`] callbacks.
#[derive(Clone, Copy, Debug)]
pub struct LayerSnapshot {
    /// 1-based layer index just applied.
    pub layer: usize,
    /// Objective `⟨ψ|Ĉ|ψ⟩` after this layer.
    pub energy: f64,
    /// Ground-state overlap after this layer.
    pub overlap: f64,
}

/// Runs the QAOA evolution, invoking `observer` after every layer with
/// the running energy and overlap. One simulation instead of `p` prefix
/// simulations — `O(p·2^n)` instead of `O(p²·2^n)`. The state stays on
/// split planes throughout and is interleaved once for the result; layer
/// `l`'s energy has the bits of the `l`-layer prefix's
/// [`QaoaSimulator::objective`].
pub fn evolve_with_observer<F>(
    sim: &FurSimulator,
    gammas: &[f64],
    betas: &[f64],
    mut observer: F,
) -> SimResult
where
    F: FnMut(LayerSnapshot),
{
    assert_eq!(gammas.len(), betas.len(), "gamma/beta length mismatch");
    let mut state = sim.initial_planes();
    for (l, (&g, &b)) in gammas.iter().zip(betas.iter()).enumerate() {
        sim.evolve_planes(&mut state, &[g], &[b], sim.options().exec);
        let (re, im) = state.planes();
        observer(LayerSnapshot {
            layer: l + 1,
            energy: sim.expectation_planes(&state),
            overlap: sim.cost_diagonal().overlap_split(re, im),
        });
    }
    SimResult::new(state.into_state_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{InitialState, SimOptions};
    use crate::Mixer;
    use qokit_statevec::Backend;
    use qokit_terms::labs::labs_terms;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sim(n: usize) -> FurSimulator {
        FurSimulator::with_options(
            &labs_terms(n),
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        )
    }

    #[test]
    fn basis_state_samples_are_deterministic() {
        let s = StateVec::basis_state(5, 19);
        let mut rng = StdRng::seed_from_u64(1);
        let samples = sample_bitstrings(&s, 50, &mut rng);
        assert!(samples.iter().all(|&x| x == 19));
    }

    #[test]
    fn uniform_samples_cover_support() {
        let s = StateVec::uniform_superposition(4);
        let mut rng = StdRng::seed_from_u64(2);
        let samples = sample_bitstrings(&s, 4000, &mut rng);
        let mut counts = [0usize; 16];
        for &x in &samples {
            counts[x as usize] += 1;
        }
        // Every outcome appears; frequencies within a loose band of 1/16.
        for (x, &c) in counts.iter().enumerate() {
            assert!(c > 100 && c < 450, "x = {x}: count {c}");
        }
    }

    #[test]
    fn dicke_samples_have_fixed_weight() {
        let s = StateVec::dicke_state(8, 3);
        let mut rng = StdRng::seed_from_u64(3);
        for x in sample_bitstrings(&s, 300, &mut rng) {
            assert_eq!(x.count_ones(), 3);
        }
    }

    #[test]
    fn parallel_cdf_matches_serial() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(16);
        for n in [4usize, 9, 12] {
            let sim = sim(n);
            let r = sim.simulate_qaoa(&[0.3], &[0.7]);
            let serial = cumulative_probabilities(r.state(), Backend::Serial);
            let parallel = cumulative_probabilities(r.state(), forced);
            assert_eq!(serial.len(), parallel.len());
            for (i, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
                assert!((a - b).abs() < 1e-12, "n = {n}, index {i}: {a} vs {b}");
            }
            assert!((serial.last().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_sampling_matches_distribution() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(8);
        let s = StateVec::dicke_state(8, 3);
        let mut rng = StdRng::seed_from_u64(9);
        for x in sample_bitstrings_with(&s, 300, &mut rng, forced) {
            assert_eq!(x.count_ones(), 3);
        }
    }

    #[test]
    fn best_sampled_cost_bounded_by_extrema() {
        let sim = sim(8);
        let r = sim.simulate_qaoa(&[0.2], &[-0.5]);
        let mut rng = StdRng::seed_from_u64(4);
        let best = best_sampled_cost(&sim, &r, 200, &mut rng);
        let (lo, hi) = sim.cost_diagonal().extrema();
        assert!(best >= lo && best <= hi);
    }

    #[test]
    fn more_shots_never_worse() {
        let sim = sim(8);
        let r = sim.simulate_qaoa(&[0.2, 0.15], &[-0.5, -0.2]);
        let best_few = best_sampled_cost(&sim, &r, 10, &mut StdRng::seed_from_u64(5));
        let best_many = best_sampled_cost(&sim, &r, 2000, &mut StdRng::seed_from_u64(5));
        assert!(best_many <= best_few);
    }

    #[test]
    fn observer_sees_every_layer_and_final_state_matches() {
        let sim = sim(7);
        let (g, b) = (vec![0.2, 0.1, 0.15], vec![-0.6, -0.4, -0.2]);
        let mut layers = Vec::new();
        let observed = evolve_with_observer(&sim, &g, &b, |snap| layers.push(snap));
        assert_eq!(layers.len(), 3);
        assert_eq!(layers.last().unwrap().layer, 3);
        let direct = sim.simulate_qaoa(&g, &b);
        assert!(observed.state().max_abs_diff(direct.state()) < 1e-12);
        assert!(
            (layers.last().unwrap().energy - sim.get_expectation(&direct)).abs() < 1e-10,
            "final snapshot must equal the direct result"
        );
        for s in &layers {
            assert!((0.0..=1.0 + 1e-12).contains(&s.overlap));
        }
    }

    #[test]
    fn observer_prefixes_match_separate_runs() {
        let problems = [
            (Mixer::X, InitialState::Auto),
            (Mixer::XyRing, InitialState::Auto),
            (Mixer::X, InitialState::Basis(5)),
        ];
        let (g, b) = (vec![0.3, -0.25, 0.4], vec![-0.5, 0.35, 0.2]);
        for (mixer, initial) in problems {
            for exec in [ExecPolicy::serial(), ExecPolicy::rayon().with_min_len(1)] {
                let sim = FurSimulator::with_options(
                    &labs_terms(9),
                    SimOptions {
                        mixer,
                        exec,
                        initial: initial.clone(),
                        ..SimOptions::default()
                    },
                );
                let mut snaps = Vec::new();
                let observed = evolve_with_observer(&sim, &g, &b, |snap| snaps.push(snap));
                for (l, snap) in snaps.iter().enumerate() {
                    let prefix = sim.objective(&g[..=l], &b[..=l]);
                    assert_eq!(
                        snap.energy.to_bits(),
                        prefix.to_bits(),
                        "{mixer:?} layer {l}"
                    );
                    let r = sim.simulate_qaoa(&g[..=l], &b[..=l]);
                    assert_eq!(snap.overlap.to_bits(), sim.get_overlap(&r).to_bits());
                }
                let direct = sim.simulate_qaoa(&g, &b);
                assert_eq!(observed.state().amplitudes(), direct.state().amplitudes());
            }
        }
    }
}
