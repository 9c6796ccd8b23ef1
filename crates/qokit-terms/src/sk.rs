//! Sherrington–Kirkpatrick (SK) spin glasses: dense random all-to-all
//! couplings, the standard hard-landscape benchmark for QAOA parameter
//! studies (and the densest 2-local workload a MaxCut-style simulator
//! faces — `|T| = n(n−1)/2` quadratic terms with real weights, so the
//! §V-B integer-grid path does *not* apply and the `f64` diagonal is
//! exercised).

use crate::polynomial::SpinPolynomial;
use crate::term::Term;
use rand::Rng;

/// An SK instance: couplings `J_{ij}` for `i < j`.
#[derive(Clone, Debug)]
pub struct SkInstance {
    n: usize,
    /// Row-major upper-triangular couplings, indexed by `pair_index(i, j)`.
    couplings: Vec<f64>,
}

/// Index of pair `(i, j)`, `i < j`, in the packed upper triangle.
fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

impl SkInstance {
    /// Random ±1 couplings (the binary SK ensemble).
    pub fn random_pm1<R: Rng>(n: usize, rng: &mut R) -> Self {
        let couplings = (0..n * (n - 1) / 2)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        SkInstance { n, couplings }
    }

    /// Random standard-normal couplings scaled by `1/√n` (the classical
    /// normalization making the ground-state energy extensive).
    pub fn random_gaussian<R: Rng>(n: usize, rng: &mut R) -> Self {
        let scale = 1.0 / (n as f64).sqrt();
        let couplings = (0..n * (n - 1) / 2)
            .map(|_| {
                // Box–Muller from two uniforms.
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                scale * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        SkInstance { n, couplings }
    }

    /// Number of spins.
    pub fn n_spins(&self) -> usize {
        self.n
    }

    /// The coupling `J_{ij}` (`i ≠ j`, any order).
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (i.min(j), i.max(j));
        self.couplings[pair_index(self.n, a, b)]
    }

    /// Energy `H(s) = Σ_{i<j} J_{ij} s_i s_j` of a bit-encoded assignment.
    pub fn energy(&self, x: u64) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.n {
            let si = 1.0 - 2.0 * ((x >> i) & 1) as f64;
            for j in i + 1..self.n {
                let sj = 1.0 - 2.0 * ((x >> j) & 1) as f64;
                acc += self.coupling(i, j) * si * sj;
            }
        }
        acc
    }

    /// Expands the instance into the spin polynomial `Σ J_{ij} s_i s_j`.
    pub fn to_terms(&self) -> SpinPolynomial {
        let mut terms = Vec::with_capacity(self.couplings.len());
        for i in 0..self.n {
            for j in i + 1..self.n {
                terms.push(Term::new(self.coupling(i, j), &[i, j]));
            }
        }
        SpinPolynomial::new(self.n, terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pair_index_is_a_bijection() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in i + 1..n {
                assert!(seen.insert(pair_index(n, i, j)));
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
        assert!(seen.iter().all(|&k| k < n * (n - 1) / 2));
    }

    #[test]
    fn coupling_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SkInstance::random_gaussian(6, &mut rng);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    assert_eq!(sk.coupling(i, j), sk.coupling(j, i));
                }
            }
        }
    }

    #[test]
    fn polynomial_matches_energy() {
        let mut rng = StdRng::seed_from_u64(2);
        for sk in [
            SkInstance::random_pm1(7, &mut rng),
            SkInstance::random_gaussian(7, &mut rng),
        ] {
            let poly = sk.to_terms();
            for x in 0u64..128 {
                assert!(
                    (poly.evaluate_bits(x) - sk.energy(x)).abs() < 1e-9,
                    "x = {x:b}"
                );
            }
        }
    }

    #[test]
    fn energy_is_flip_symmetric() {
        // H(s) = H(−s): global spin flip leaves pair products unchanged.
        let mut rng = StdRng::seed_from_u64(3);
        let sk = SkInstance::random_gaussian(9, &mut rng);
        let mask = (1u64 << 9) - 1;
        for x in [0u64, 5, 100, 300, 511] {
            assert!((sk.energy(x) - sk.energy(!x & mask)).abs() < 1e-9);
        }
    }

    #[test]
    fn pm1_ground_energy_is_integralish() {
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SkInstance::random_pm1(8, &mut rng);
        let (min, _) = sk.to_terms().brute_force_minimum();
        assert!(
            (min - min.round()).abs() < 1e-9,
            "±1 couplings ⇒ integer energies"
        );
        assert!(min < 0.0, "frustrated glass has negative ground energy");
    }

    #[test]
    fn term_count_is_dense() {
        let mut rng = StdRng::seed_from_u64(5);
        let sk = SkInstance::random_gaussian(10, &mut rng);
        assert_eq!(sk.to_terms().num_terms(), 45);
        assert_eq!(sk.to_terms().degree(), 2);
    }
}
