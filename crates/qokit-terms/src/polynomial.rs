//! Spin polynomials: the cost-function representation of the paper's Eq. 1,
//! `f(s) = Σ_k w_k Π_{i∈t_k} s_i` over `s ∈ {−1, +1}^n`.

use crate::term::Term;

/// A cost function on `n` spins expressed as a sum of terms (Eq. 1).
///
/// This is the input type of every simulator in the workspace, mirroring the
/// `terms` constructor argument of QOKit's simulator classes (Listing 1).
#[derive(Clone, Debug, PartialEq)]
pub struct SpinPolynomial {
    n: usize,
    terms: Vec<Term>,
}

impl SpinPolynomial {
    /// Builds a polynomial over `n` variables.
    ///
    /// # Panics
    /// If `n > 64` or a term references a variable `≥ n`.
    pub fn new(n: usize, terms: Vec<Term>) -> Self {
        SpinPolynomial::try_new(n, terms).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`SpinPolynomial::new`], but reports an invalid input as an
    /// error instead of panicking — for data from untrusted sources.
    pub fn try_new(n: usize, terms: Vec<Term>) -> Result<Self, String> {
        if n > 64 {
            return Err(format!(
                "at most 64 spin variables are supported, got n = {n}"
            ));
        }
        for t in &terms {
            if let Some(m) = t.max_index().filter(|&m| m >= n) {
                return Err(format!("term references variable {m} but n = {n}"));
            }
        }
        Ok(SpinPolynomial { n, terms })
    }

    /// Convenience constructor from `(weight, indices)` pairs — the shape of
    /// QOKit's Python `terms` argument.
    pub fn from_pairs(n: usize, pairs: &[(f64, Vec<usize>)]) -> Self {
        let terms = pairs.iter().map(|(w, ix)| Term::new(*w, ix)).collect();
        SpinPolynomial::new(n, terms)
    }

    /// Number of spin variables.
    #[inline(always)]
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// The terms, in storage order.
    #[inline(always)]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of terms `|T|` (including any constant offset).
    #[inline(always)]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Highest term degree (0 for an empty/constant polynomial).
    pub fn degree(&self) -> u32 {
        self.terms.iter().map(Term::degree).max().unwrap_or(0)
    }

    /// Evaluates `f` on the bit-encoded assignment `x` (`s_i = 1 − 2·bit_i`).
    #[inline]
    pub fn evaluate_bits(&self, x: u64) -> f64 {
        self.terms.iter().map(|t| t.eval_bits(x)).sum()
    }

    /// Evaluates `f` on explicit ±1 spins.
    ///
    /// # Panics
    /// If `spins.len() != n`.
    pub fn evaluate_spins(&self, spins: &[i8]) -> f64 {
        assert_eq!(spins.len(), self.n, "spin vector length mismatch");
        self.terms.iter().map(|t| t.eval_spins(spins)).sum()
    }

    /// `Σ_k |w_k|` — an a-priori bound on `max_x |f(x)|`, used to validate
    /// §V-B cost-vector quantization without scanning all `2^n` values.
    pub fn weight_norm(&self) -> f64 {
        self.terms.iter().map(|t| t.weight.abs()).sum()
    }

    /// Sum of the constant-offset weights.
    pub fn constant_offset(&self) -> f64 {
        self.terms
            .iter()
            .filter(|t| t.is_constant())
            .map(|t| t.weight)
            .sum()
    }

    /// Merges terms with equal masks, drops (near-)zero weights, and sorts
    /// by mask — the canonical form used for structural comparisons.
    pub fn canonicalize(&self) -> SpinPolynomial {
        let mut sorted: Vec<Term> = self.terms.clone();
        sorted.sort_by_key(|t| t.mask);
        let mut merged: Vec<Term> = Vec::with_capacity(sorted.len());
        for t in sorted {
            match merged.last_mut() {
                Some(last) if last.mask == t.mask => last.weight += t.weight,
                _ => merged.push(t),
            }
        }
        merged.retain(|t| t.weight.abs() > 1e-14);
        SpinPolynomial {
            n: self.n,
            terms: merged,
        }
    }

    /// Returns the polynomial with an added constant offset.
    pub fn with_offset(mut self, offset: f64) -> SpinPolynomial {
        self.terms.push(Term::constant(offset));
        self
    }

    /// Returns the polynomial with every weight scaled by `factor`.
    pub fn scaled(mut self, factor: f64) -> SpinPolynomial {
        for t in &mut self.terms {
            t.weight *= factor;
        }
        self
    }

    /// Exhaustively scans all `2^n` assignments and returns
    /// `(min f, argmin set)`. Exponential — intended for tests and small-n
    /// ground-truth generation only.
    ///
    /// # Panics
    /// If `n > 30` (guard against accidental huge scans).
    pub fn brute_force_minimum(&self) -> (f64, Vec<u64>) {
        assert!(self.n <= 30, "brute force limited to n ≤ 30");
        let mut best = f64::INFINITY;
        let mut arg: Vec<u64> = Vec::new();
        for x in 0u64..(1u64 << self.n) {
            let v = self.evaluate_bits(x);
            if v < best - 1e-12 {
                best = v;
                arg.clear();
                arg.push(x);
            } else if (v - best).abs() <= 1e-12 {
                arg.push(x);
            }
        }
        (best, arg)
    }

    /// Histogram of term degrees (`hist[d]` = number of degree-`d` terms).
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.degree() as usize + 1];
        for t in &self.terms {
            hist[t.degree() as usize] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> SpinPolynomial {
        // f = 2·s0·s1 − s2 + 0.5
        SpinPolynomial::new(
            3,
            vec![
                Term::new(2.0, &[0, 1]),
                Term::new(-1.0, &[2]),
                Term::constant(0.5),
            ],
        )
    }

    #[test]
    fn evaluate_bits_cases() {
        let f = example();
        // x = 000: s = (+,+,+): 2 − 1 + 0.5 = 1.5
        assert_eq!(f.evaluate_bits(0b000), 1.5);
        // x = 011: s = (−,−,+): 2 − 1 + 0.5 = 1.5
        assert_eq!(f.evaluate_bits(0b011), 1.5);
        // x = 100: s = (+,+,−): 2 + 1 + 0.5 = 3.5
        assert_eq!(f.evaluate_bits(0b100), 3.5);
        // x = 001: s = (−,+,+): −2 − 1 + 0.5 = −2.5
        assert_eq!(f.evaluate_bits(0b001), -2.5);
    }

    #[test]
    fn evaluate_spins_agrees() {
        let f = example();
        for x in 0u64..8 {
            let spins: Vec<i8> = (0..3)
                .map(|i| if x >> i & 1 == 0 { 1 } else { -1 })
                .collect();
            assert_eq!(f.evaluate_bits(x), f.evaluate_spins(&spins));
        }
    }

    #[test]
    fn brute_force_minimum_finds_all_argmins() {
        let f = example();
        let (min, args) = f.brute_force_minimum();
        assert_eq!(min, -2.5);
        // s0·s1 = −1 and s2 = +1: x ∈ {001, 010}.
        assert_eq!(args, vec![0b001, 0b010]);
    }

    #[test]
    fn canonicalize_merges_and_drops() {
        let f = SpinPolynomial::new(
            2,
            vec![
                Term::new(1.0, &[0]),
                Term::new(2.0, &[0]),
                Term::new(1.0, &[1]),
                Term::new(-1.0, &[1]),
            ],
        );
        let c = f.canonicalize();
        assert_eq!(c.num_terms(), 1);
        assert_eq!(c.terms()[0], Term::new(3.0, &[0]));
    }

    #[test]
    fn canonical_forms_of_equal_polynomials_match() {
        let a = SpinPolynomial::new(2, vec![Term::new(1.0, &[0, 1]), Term::new(0.5, &[0])]);
        let b = SpinPolynomial::new(2, vec![Term::new(0.5, &[0]), Term::new(1.0, &[1, 0])]);
        assert_eq!(a.canonicalize(), b.canonicalize());
    }

    #[test]
    fn weight_norm_bounds_values() {
        let f = example();
        let bound = f.weight_norm();
        for x in 0u64..8 {
            assert!(f.evaluate_bits(x).abs() <= bound + 1e-12);
        }
    }

    #[test]
    fn degree_and_histogram() {
        let f = example();
        assert_eq!(f.degree(), 2);
        assert_eq!(f.degree_histogram(), vec![1, 1, 1]);
    }

    #[test]
    fn offset_and_scale() {
        let f = example().with_offset(1.0).scaled(2.0);
        assert_eq!(f.evaluate_bits(0), 2.0 * (1.5 + 1.0));
        assert_eq!(f.constant_offset(), 3.0);
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn rejects_out_of_range_term() {
        let _ = SpinPolynomial::new(2, vec![Term::new(1.0, &[5])]);
    }

    #[test]
    fn from_pairs_matches_manual() {
        let via_pairs = SpinPolynomial::from_pairs(3, &[(2.0, vec![0, 1]), (-1.0, vec![2])]);
        let manual = SpinPolynomial::new(3, vec![Term::new(2.0, &[0, 1]), Term::new(-1.0, &[2])]);
        assert_eq!(via_pairs, manual);
    }

    #[test]
    fn empty_polynomial_is_zero() {
        let f = SpinPolynomial::new(4, vec![]);
        assert_eq!(f.evaluate_bits(7), 0.0);
        assert_eq!(f.degree(), 0);
        assert_eq!(f.weight_norm(), 0.0);
    }
}
