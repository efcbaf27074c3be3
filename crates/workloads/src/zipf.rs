//! A fast power-law rank sampler used to give page popularity the skew the
//! paper measures (Fig 6: 400–800 pages cause 90 % of iSTLB misses).

use morrigan_types::rng::Xoshiro256StarStar;

/// Samples ranks in `[0, n)` with a power-law head: rank 0 is the most
/// popular, and popularity decays polynomially.
///
/// The distribution is the discretization of the inverse transform
/// `⌊n · u^alpha⌋`: rank `k` has probability
/// `((k+1)/n)^(1/alpha) − (k/n)^(1/alpha)`. For `alpha > 1` this
/// concentrates mass on low ranks — the density at rank fraction `x` is
/// proportional to `x^(1/alpha − 1)`, i.e. a Zipf-like (bounded Pareto)
/// distribution. `alpha = 1` degenerates to uniform.
///
/// Drawing uses a precomputed Vose alias table instead of evaluating
/// `powf` per sample: construction pays `n` `powf` calls once, and each
/// draw is then one uniform, one multiply, and one table probe — the
/// sampler sits on the workload-generation hot path, where a `powf` per
/// instruction is the single largest arithmetic cost. Each draw consumes
/// exactly one `next_f64`, the same RNG budget as the old closed form, so
/// every *other* random choice in a generator sees an unchanged stream.
///
/// This form is chosen over an exact Zipf sampler because its skew is
/// directly tunable — the workload generator calibrates `alpha` against
/// the paper's "hot pages cover 90 % of misses" target in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLawSampler {
    n: u64,
    alpha: f64,
    /// Vose alias table: bucket `k` yields `k` with probability
    /// `threshold[k]` (of the fractional part of the scaled uniform),
    /// otherwise `alias[k]`.
    threshold: Vec<f64>,
    alias: Vec<u64>,
}

impl PowerLawSampler {
    /// Creates a sampler over `[0, n)` with skew exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha < 1.0`.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "sampler needs a positive range");
        assert!(alpha >= 1.0, "alpha < 1 would invert the skew");
        let inv = 1.0 / alpha;
        let len = n as usize;
        // P(rank = k) scaled by n, so the "fair share" is exactly 1.0.
        let mut scaled: Vec<f64> = (0..len)
            .map(|k| {
                let lo = (k as f64 / n as f64).powf(inv);
                let hi = ((k + 1) as f64 / n as f64).powf(inv);
                (hi - lo) * n as f64
            })
            .collect();
        let mut threshold = vec![0.0f64; len];
        let mut alias: Vec<u64> = (0..n).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (k, &w) in scaled.iter().enumerate() {
            if w < 1.0 {
                small.push(k);
            } else {
                large.push(k);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            threshold[s] = scaled[s];
            alias[s] = l as u64;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers on either stack are within rounding error of a full
        // bucket; they keep their own index.
        for &k in small.iter().chain(large.iter()) {
            threshold[k] = 1.0;
        }
        Self {
            n,
            alpha,
            threshold,
            alias,
        }
    }

    /// The range size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draws one rank: one uniform split into a bucket index (high bits)
    /// and a threshold coin (fractional part).
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        let x = rng.next_f64() * self.n as f64;
        let k = (x as u64).min(self.n - 1);
        let frac = x - k as f64;
        if frac < self.threshold[k as usize] {
            k
        } else {
            self.alias[k as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_in_range() {
        let s = PowerLawSampler::new(100, 3.0);
        let mut rng = Xoshiro256StarStar::new(1);
        for _ in 0..10_000 {
            assert!(s.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn head_is_heavy() {
        let s = PowerLawSampler::new(1000, 3.0);
        let mut rng = Xoshiro256StarStar::new(2);
        let mut head = 0u64;
        let trials = 100_000;
        for _ in 0..trials {
            if s.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With alpha=3, P(rank < 10% of n) = 0.1^(1/3) ≈ 0.464.
        let frac = head as f64 / trials as f64;
        assert!(frac > 0.40 && frac < 0.53, "head fraction {frac}");
    }

    #[test]
    fn alias_table_preserves_the_exact_discretized_distribution() {
        // The alias table must encode P(k) = ((k+1)/n)^(1/a) − (k/n)^(1/a)
        // exactly (up to float rounding): the total mass each rank
        // receives across all buckets equals its analytic probability.
        let n = 257u64;
        let alpha = 2.5f64;
        let s = PowerLawSampler::new(n, alpha);
        let mut mass = vec![0.0f64; n as usize];
        for k in 0..n as usize {
            mass[k] += s.threshold[k];
            mass[s.alias[k] as usize] += 1.0 - s.threshold[k];
        }
        for (k, &got) in mass.iter().enumerate() {
            let lo = (k as f64 / n as f64).powf(1.0 / alpha);
            let hi = ((k + 1) as f64 / n as f64).powf(1.0 / alpha);
            let want = (hi - lo) * n as f64;
            assert!(
                (got - want).abs() < 1e-9,
                "rank {k}: alias mass {got} vs analytic {want}"
            );
        }
    }

    #[test]
    fn seed_stable_and_deterministic() {
        // Two independently constructed samplers over the same (n, alpha)
        // must produce identical sequences from the same seed — the table
        // construction has no hidden iteration-order or RNG dependence.
        let a = PowerLawSampler::new(1000, 3.0);
        let b = PowerLawSampler::new(1000, 3.0);
        assert_eq!(a, b);
        let mut rng_a = Xoshiro256StarStar::new(42);
        let mut rng_b = Xoshiro256StarStar::new(42);
        let seq_a: Vec<u64> = (0..10_000).map(|_| a.sample(&mut rng_a)).collect();
        let seq_b: Vec<u64> = (0..10_000).map(|_| b.sample(&mut rng_b)).collect();
        assert_eq!(seq_a, seq_b);
        // And each draw costs exactly one next_f64, so the RNGs stay in
        // lock-step with any other consumer of the same stream.
        assert_eq!(rng_a.next_f64(), rng_b.next_f64());
    }

    #[test]
    fn alpha_one_is_uniform() {
        let s = PowerLawSampler::new(10, 1.0);
        let mut rng = Xoshiro256StarStar::new(3);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "uniform bucket off: {counts:?}"
            );
        }
    }

    #[test]
    fn single_element_range() {
        let s = PowerLawSampler::new(1, 5.0);
        let mut rng = Xoshiro256StarStar::new(4);
        assert_eq!(s.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "positive range")]
    fn zero_range_rejected() {
        let _ = PowerLawSampler::new(0, 2.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn sub_one_alpha_rejected() {
        let _ = PowerLawSampler::new(10, 0.5);
    }
}
