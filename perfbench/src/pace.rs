//! Host pace: how fast the host runs a fixed reference computation right
//! now.
//!
//! The benchmark shares a few cores of a host whose speed drifts: work on
//! sibling hardware threads slows the same instructions by up to ~1.8× for
//! seconds to minutes at a time, so wall times of the same code taken
//! minutes apart differ by that much. A [`Pacer`] times a fixed reference
//! computation between requests, on as many threads as the pool has, and
//! the end-to-end timings are reported at the reference's nominal pace:
//! measured time × [`NOMINAL_MS`] / reference time around it. The
//! reference is this package's own code — a p = 1 QAOA point on a 10-qubit
//! state (phase, mixer, expectation), the same kind of arithmetic the
//! workloads run — so a change to the library moves the measured time but
//! not the reference, while drift of the host moves both.

use crate::outcome::Intervals;
use crate::stats::median;
use std::time::Instant;

/// Reference time, ms, the paced timings are scaled to: the reference's
/// typical time on the 2-core reference host, so paced and wall times are
/// of the same size there.
pub const NOMINAL_MS: f64 = 14.0;

/// Seconds between pace samples while a workload runs.
pub const EVERY_S: f64 = 0.5;

/// Qubits of the reference state.
const QUBITS: usize = 10;
/// QAOA points each thread evaluates per sample.
const POINTS: usize = 400;

/// One reference sample's work on one thread: `POINTS` p = 1 QAOA points
/// on a `2^QUBITS` state with cost table `costs`; returns the summed
/// energies so the work cannot be optimized away.
fn reference(costs: &[f64], state: &mut [[f64; 2]]) -> f64 {
    let amp0 = (1.0 / state.len() as f64).sqrt();
    let mut total = 0.0;
    for k in 0..POINTS {
        let gamma = 0.1 + 1e-3 * k as f64;
        state.fill([amp0, 0.0]);
        for (a, &c) in state.iter_mut().zip(costs) {
            let (s, co) = (gamma * c).sin_cos();
            *a = [a[0] * co + a[1] * s, a[1] * co - a[0] * s];
        }
        let (sb, cb) = (0.4 - 1e-3 * k as f64).sin_cos();
        for q in 0..QUBITS {
            let stride = 1 << q;
            for block in state.chunks_exact_mut(2 * stride) {
                let (lo, hi) = block.split_at_mut(stride);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let (a, b) = (*x, *y);
                    *x = [cb * a[0] + sb * b[1], cb * a[1] - sb * b[0]];
                    *y = [cb * b[0] + sb * a[1], cb * b[1] - sb * a[0]];
                }
            }
        }
        total += state
            .iter()
            .zip(costs)
            .map(|(a, &c)| c * (a[0] * a[0] + a[1] * a[1]))
            .sum::<f64>();
    }
    total
}

/// Samples the host pace between requests and scales timings by it. The
/// workload calls [`tick`](Self::tick) between requests (never during
/// one) and [`sample`](Self::sample) at the end of each measured phase.
pub struct Pacer {
    epoch: Instant,
    every_s: f64,
    costs: Vec<f64>,
    /// One reference state per thread.
    states: Vec<Vec<[f64; 2]>>,
    /// `(seconds since epoch at the sample's middle, reference ms)`.
    samples: Vec<(f64, f64)>,
    /// Seconds spent sampling.
    spent_s: f64,
}

impl Pacer {
    /// A pacer over `threads` threads that samples at most every `every_s`
    /// seconds through [`tick`](Self::tick). Takes one sample at once.
    pub fn new(threads: usize, every_s: f64) -> Pacer {
        let amps = 1usize << QUBITS;
        let mut p = Pacer {
            epoch: Instant::now(),
            every_s,
            // A cut-like cost: bit flips between neighbouring qubits.
            costs: (0..amps)
                .map(|i| (i ^ (i >> 1)).count_ones() as f64)
                .collect(),
            states: vec![vec![[0.0; 2]; amps]; threads.max(1)],
            samples: Vec::new(),
            spent_s: 0.0,
        };
        p.sample();
        p
    }

    /// Times the reference once: the mean of the threads' own times.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let costs = &self.costs;
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .states
                .iter_mut()
                .map(|state| {
                    scope.spawn(move || {
                        let t = Instant::now();
                        std::hint::black_box(reference(costs, state));
                        t.elapsed().as_secs_f64() * 1e3
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        let ms = times.iter().sum::<f64>() / times.len() as f64;
        let took = t.elapsed().as_secs_f64();
        self.spent_s += took;
        self.samples
            .push(((t - self.epoch).as_secs_f64() + 0.5 * took, ms));
    }

    /// Samples when the last sample is at least `every_s` old.
    pub fn tick(&mut self) {
        let last = self.samples.last().map_or(f64::NEG_INFINITY, |s| s.0);
        if self.epoch.elapsed().as_secs_f64() - last >= self.every_s {
            self.sample();
        }
    }

    /// Seconds since the epoch at `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Factor that scales a time measured over `[start, end]` to the
    /// nominal pace: [`NOMINAL_MS`] over the reference time interpolated
    /// at the interval's middle.
    pub fn scale(&self, start: Instant, end: Instant) -> f64 {
        let mid = 0.5 * (self.at(start) + self.at(end));
        NOMINAL_MS / interpolate(&self.samples, mid)
    }

    /// Each interval's wall time at the nominal pace, ms.
    pub fn paced(&self, iv: &Intervals) -> Vec<f64> {
        iv.ms
            .iter()
            .zip(&iv.at)
            .map(|(&ms, &(a, b))| ms * self.scale(a, b))
            .collect()
    }

    /// Median reference time over every sample, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Seconds spent sampling so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Samples taken so far.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}

/// Piecewise-linear value of `samples` (sorted by time) at `t`; the
/// nearest sample's value outside their range.
pub fn interpolate(samples: &[(f64, f64)], t: f64) -> f64 {
    let i = samples.partition_point(|s| s.0 <= t);
    match (i.checked_sub(1).map(|j| samples[j]), samples.get(i)) {
        (Some(a), Some(b)) if b.0 > a.0 => a.1 + (b.1 - a.1) * (t - a.0) / (b.0 - a.0),
        (Some(a), _) => a.1,
        (None, Some(b)) => b.1,
        (None, None) => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_and_clamps_outside() {
        let s = [(1.0, 4.0), (3.0, 8.0)];
        assert_eq!(interpolate(&s, 2.0), 6.0);
        assert_eq!(interpolate(&s, 0.0), 4.0);
        assert_eq!(interpolate(&s, 5.0), 8.0);
        assert_eq!(interpolate(&s, 3.0), 8.0);
        assert!(interpolate(&[], 1.0).is_nan());
    }

    #[test]
    fn scale_is_nominal_over_reference() {
        let mut p = Pacer::new(1, f64::INFINITY);
        p.samples = vec![(0.0, 2.0 * NOMINAL_MS), (10.0, 4.0 * NOMINAL_MS)];
        let t = p.epoch + std::time::Duration::from_secs(5);
        assert_eq!(p.scale(t, t), 1.0 / 3.0);
    }
}
