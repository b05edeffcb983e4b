//! The short-range-dependent AR(1) baseline.
//!
//! Traditional traffic models are Markovian/ARMA-like and have exponentially
//! decaying autocorrelations; the paper's Fig. 17 contrasts an SRD-only
//! model against the unified SRD+LRD one. [`Ar1`] is the process whose ACF
//! is exactly the paper's SRD exponential component.

use crate::gauss::Normal;
use crate::LrdError;
use rand::Rng;

/// A stationary Gaussian AR(1) process `X_t = φ·X_{t−1} + ε_t`, standardized
/// to zero mean and unit variance, with ACF `r(k) = φ^k = e^{−λk}`.
#[derive(Debug, Clone)]
pub struct Ar1 {
    phi: f64,
}

impl Ar1 {
    /// Construct with `|φ| < 1`.
    pub fn new(phi: f64) -> Result<Self, LrdError> {
        if phi.abs() < 1.0 && phi.is_finite() {
            Ok(Self { phi })
        } else {
            Err(LrdError::InvalidParameter {
                name: "phi",
                constraint: "|phi| < 1",
            })
        }
    }

    /// The AR coefficient φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Generate `n` samples, started from the stationary distribution
    /// (so the output is stationary from the first sample).
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        let mut g = Normal::new();
        let mut out = Vec::with_capacity(n);
        if n == 0 {
            return out;
        }
        let innov_sd = (1.0 - self.phi * self.phi).sqrt();
        let mut x = g.sample(rng); // stationary N(0,1) start
        out.push(x);
        for _ in 1..n {
            x = self.phi * x + innov_sd * g.sample(rng);
            out.push(x);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_acf(xs: &[f64], k: usize) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        xs.iter()
            .zip(xs.iter().skip(k))
            .map(|(a, b)| (a - mean) * (b - mean))
            .sum::<f64>()
            / n
            / var
    }

    #[test]
    fn ar1_acf_is_geometric() -> Result<(), Box<dyn std::error::Error>> {
        let p = Ar1::new(0.8)?;
        let mut rng = StdRng::seed_from_u64(1);
        let xs = p.generate(100_000, &mut rng);
        for k in 1..=5 {
            let est = sample_acf(&xs, k);
            let target = 0.8f64.powi(k as i32);
            assert!((est - target).abs() < 0.02, "lag {k}: {est} vs {target}");
        }
        Ok(())
    }

    #[test]
    fn ar1_stationary_from_start() -> Result<(), Box<dyn std::error::Error>> {
        // First-sample variance must already be 1 (no ramp-up).
        let p = Ar1::new(0.9)?;
        let mut rng = StdRng::seed_from_u64(2);
        let firsts: Vec<f64> = (0..20_000).map(|_| p.generate(1, &mut rng)[0]).collect();
        let n = firsts.len() as f64;
        let mean = firsts.iter().sum::<f64>() / n;
        let var = firsts.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        Ok(())
    }

    #[test]
    fn ar1_rejects_non_stationary_phi() {
        assert!(Ar1::new(1.0).is_err());
        assert!(Ar1::new(-1.0).is_err());
        assert!(Ar1::new(f64::NAN).is_err());
    }

    #[test]
    fn ar1_empty_and_deterministic() -> Result<(), Box<dyn std::error::Error>> {
        let p = Ar1::new(0.5)?;
        let mut rng = StdRng::seed_from_u64(3);
        assert!(p.generate(0, &mut rng).is_empty());
        let mut r1 = StdRng::seed_from_u64(4);
        let mut r2 = StdRng::seed_from_u64(4);
        assert_eq!(p.generate(100, &mut r1), p.generate(100, &mut r2));
        Ok(())
    }
}
