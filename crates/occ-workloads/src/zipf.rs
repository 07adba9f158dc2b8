//! Hand-rolled Zipf samplers (no `rand_distr` in the dependency budget).
//!
//! Web/database page popularity is classically Zipfian; the SQLVM-style
//! multi-tenant experiments draw each tenant's accesses from a Zipf
//! distribution over its own pages. [`Zipf`] samples by inverse CDF: a
//! precomputed table and a binary search, exact, `O(log n)` per sample.

use rand::Rng;

/// Zipf distribution over `{0, 1, …, n−1}` with exponent `s ≥ 0`:
/// `P(i) ∝ 1/(i+1)^s`. `s = 0` is uniform; larger `s` is more skewed.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative probabilities, `cdf[i] = P(X ≤ i)`; `cdf[n-1] == 1`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler. Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "support must be non-empty");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against rounding: the last entry must be exactly 1.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Heap footprint of the CDF table in bytes (independent of how many
    /// samples are drawn).
    pub fn state_bytes(&self) -> usize {
        self.cdf.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_orders_masses() {
        let z = Zipf::new(10, 1.2);
        for i in 1..10 {
            assert!(z.pmf(i) < z.pmf(i - 1), "pmf must be decreasing");
        }
        let total: f64 = (0..10).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(8, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 8];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            assert!(
                (emp - z.pmf(i)).abs() < 0.01,
                "rank {i}: empirical {emp} vs pmf {}",
                z.pmf(i)
            );
        }
    }

    #[test]
    fn samples_in_range_and_reproducible() {
        let z = Zipf::new(3, 2.0);
        let draw = || {
            let mut rng = StdRng::seed_from_u64(11);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw();
        assert_eq!(a, draw());
        assert!(a.iter().all(|&i| i < 3));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_support_rejected() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn single_rank_always_draws_zero() {
        let z = Zipf::new(1, 1.7);
        assert_eq!(z.n(), 1);
        assert_eq!(z.pmf(0), 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
