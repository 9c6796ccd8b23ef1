//! Sample summaries: medians, the tail-percentile rule, and failure
//! fractions.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Lowest percentile still reported as a tail; with fewer samples than that
/// needs, the tail is the maximum.
const TAIL_FLOOR: usize = 50;

/// A latency distribution reduced to its median and tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// The tail percentile, `100` when the tail is the maximum.
    pub tail_pct: usize,
    /// The sample value at `tail_pct` (nearest rank).
    pub tail: f64,
    /// Samples strictly above the tail's rank.
    pub beyond: usize,
}

/// The median of `v` (need not be sorted); `NaN` when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// The highest integer percentile `q` with at least [`TAIL_BEYOND`]
/// samples beyond its nearest rank `ceil(q·n/100)`, or `None` when that
/// percentile would fall below the median.
pub fn tail_percentile(n: usize) -> Option<usize> {
    if n < TAIL_BEYOND {
        return None;
    }
    let q = 100 * (n - TAIL_BEYOND) / n;
    (q >= TAIL_FLOOR).then_some(q)
}

/// Median plus tail of `v` by the rule of [`tail_percentile`]; with too few
/// samples for a tail the maximum is reported as percentile 100 with zero
/// samples beyond it.
///
/// # Panics
/// If `v` is empty.
pub fn summarize(v: &[f64]) -> Summary {
    assert!(!v.is_empty(), "cannot summarize zero samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (tail_pct, rank) = match tail_percentile(n) {
        Some(q) => (q, (q * n).div_ceil(100).max(1)),
        None => (100, n),
    };
    Summary {
        samples: n,
        median: median(&s),
        tail_pct,
        tail: s[rank - 1],
        beyond: n - rank,
    }
}

/// Failed share of attempted operations (`0` when nothing was attempted).
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Tallies attempted operations and failures of every kind the benchmark
/// distinguishes (wrong output, refusal, error, cancellation, transport).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub wrong: u64,
    /// Operations refused, cancelled, or failed with an error.
    pub errors: u64,
}

impl Tally {
    /// Counts one attempt.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempt whose output was checked: `ok == false` is a
    /// wrong output.
    pub fn checked(&mut self, ok: bool) {
        if !ok {
            self.wrong += 1;
        }
    }

    /// Counts one attempt that ended without a usable output.
    pub fn error(&mut self) {
        self.errors += 1;
    }

    /// All failures.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        fail_frac(self.failed(), self.attempted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in 20..2000 {
            let q = tail_percentile(n).expect("tail exists from 20 samples");
            let rank = (q * n).div_ceil(100);
            assert!(n - rank >= TAIL_BEYOND, "n = {n}, q = {q}");
            // One percentile higher would leave fewer than ten beyond.
            if q < 99 {
                let rank_up = ((q + 1) * n).div_ceil(100);
                assert!(n - rank_up < TAIL_BEYOND, "n = {n}, q = {q} not highest");
            }
        }
    }

    #[test]
    fn tail_percentile_examples() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn summary_reports_tail_with_its_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.samples, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail_pct, 90);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.beyond, 10);
    }

    #[test]
    fn few_samples_report_the_maximum() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.tail_pct, s.tail, s.beyond), (100, 5.0, 0));
    }

    #[test]
    fn fail_frac_counts_every_failure_kind() {
        let mut t = Tally::default();
        for i in 0..10 {
            t.attempt();
            match i {
                0 => t.checked(false),
                1 | 2 => t.error(),
                _ => t.checked(true),
            }
        }
        assert_eq!(t.failed(), 3);
        assert!((t.fail_frac() - 0.3).abs() < 1e-15);
        assert_eq!(fail_frac(0, 0), 0.0);
    }
}
