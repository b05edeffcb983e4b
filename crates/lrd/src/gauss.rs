//! Standard-normal sampling on top of any [`rand::Rng`].
//!
//! We deliberately depend only on `rand`'s uniform source and implement the
//! Marsaglia polar method ourselves, so the whole numerical stack of this
//! reproduction is auditable in one place.

use rand::Rng;

/// A standard-normal N(0,1) sampler using the Marsaglia polar method.
///
/// The polar method produces two variates per acceptance; the spare one is
/// cached, so on average ~1.27 uniform pairs are consumed per normal variate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Normal {
    spare: Option<f64>,
}

impl Normal {
    /// Create a sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw one N(0,1) variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Draw one N(mean, var) variate (`var >= 0`).
    pub fn sample_with<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, var: f64) -> f64 {
        debug_assert!(var >= 0.0, "variance must be nonnegative");
        mean + var.sqrt() * self.sample(rng)
    }

    /// Fill a vector with `n` iid N(0,1) variates.
    pub fn sample_vec<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_are_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut g = Normal::new();
        let n = 200_000;
        let xs = g.sample_vec(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let skew = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n as f64;
        let kurt = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.05, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn sample_with_applies_affine() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = Normal::new();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample_with(&mut rng, 5.0, 4.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn zero_variance_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = Normal::new();
        assert_eq!(g.sample_with(&mut rng, 3.5, 0.0), 3.5);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = Normal::new();
        let mut b = Normal::new();
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.sample(&mut r1), b.sample(&mut r2));
        }
    }

    #[test]
    fn tail_probabilities_reasonable() {
        // P(|Z| > 2) ≈ 0.0455
        let mut rng = StdRng::seed_from_u64(123);
        let mut g = Normal::new();
        let n = 200_000;
        let count = (0..n).filter(|_| g.sample(&mut rng).abs() > 2.0).count() as f64;
        let p = count / n as f64;
        assert!((p - 0.0455).abs() < 0.004, "tail prob {p}");
    }
}
