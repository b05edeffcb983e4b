//! Short-range-dependent AR / MA / ARMA baselines.
//!
//! Traditional traffic models are Markovian/ARMA-like and have exponentially
//! decaying autocorrelations; the paper's Fig. 17 contrasts an SRD-only
//! model against the unified SRD+LRD one. This module provides the SRD
//! machinery: an [`ArmaFilter`] (used both standalone and inside
//! FARIMA(p,d,q)) and an [`Ar1`] convenience process whose ACF is exactly
//! the paper's SRD exponential component.

use crate::gauss::Normal;
use crate::LrdError;
use rand::Rng;

/// An ARMA(p,q) filter `X_t = Σφᵢ·X_{t−i} + ε_t + Σθⱼ·ε_{t−j}` applied to a
/// supplied innovation sequence.
#[derive(Debug, Clone)]
pub struct ArmaFilter {
    ar: Vec<f64>,
    ma: Vec<f64>,
}

impl ArmaFilter {
    /// Construct from AR coefficients `φ` and MA coefficients `θ`.
    ///
    /// A necessary stationarity condition `Σ|φᵢ| < 1` is enforced — it is
    /// conservative (sufficient, not necessary in general) but covers every
    /// model used in this reproduction and keeps validation trivial.
    pub fn new(ar: Vec<f64>, ma: Vec<f64>) -> Result<Self, LrdError> {
        let s: f64 = ar.iter().map(|c| c.abs()).sum();
        if s >= 1.0 {
            return Err(LrdError::InvalidParameter {
                name: "ar",
                constraint: "sum of |phi_i| < 1 (stationarity)",
            });
        }
        if ar.iter().chain(ma.iter()).any(|c| !c.is_finite()) {
            return Err(LrdError::InvalidParameter {
                name: "ar/ma",
                constraint: "finite coefficients",
            });
        }
        Ok(Self { ar, ma })
    }

    /// AR order p.
    pub fn ar_order(&self) -> usize {
        self.ar.len()
    }

    /// MA order q.
    pub fn ma_order(&self) -> usize {
        self.ma.len()
    }

    /// Run the filter over an innovation sequence (zero initial state).
    pub fn apply(&self, innovations: &[f64]) -> Vec<f64> {
        let p = self.ar.len();
        let q = self.ma.len();
        let mut out = Vec::with_capacity(innovations.len());
        for (t, &e) in innovations.iter().enumerate() {
            let mut x = e;
            for (j, &theta) in self.ma.iter().enumerate() {
                if t > j {
                    // t > j so 0 <= t-j-1 < t <= innovations.len()
                    x += theta * innovations[t - j - 1];
                }
            }
            for (i, &phi) in self.ar.iter().enumerate() {
                if t > i {
                    // t > i so 0 <= t-i-1 < t == out.len() here
                    x += phi * out[t - i - 1];
                }
            }
            let _ = (p, q);
            out.push(x);
        }
        out
    }
}

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

    /// Construct from an exponential-ACF decay rate: `φ = e^{−λ}`.
    pub fn from_rate(lambda: f64) -> Result<Self, LrdError> {
        if lambda > 0.0 && lambda.is_finite() {
            Self::new((-lambda).exp())
        } else {
            Err(LrdError::InvalidParameter {
                name: "lambda",
                constraint: "lambda > 0",
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

/// Fit an AR(p) model to a series by Yule–Walker, solved with the same
/// Durbin–Levinson recursion that powers Hosking's generator.
///
/// Returns the AR coefficients `φ_1..φ_p` and the innovation variance.
/// This is the classical "traditional model" fitting step — useful for
/// building matched SRD baselines from data (and for checking that AR fits
/// of LRD traffic need ever-growing order to track deep lags, the paper's
/// argument against ARMA-family models).
pub fn fit_ar(xs: &[f64], order: usize) -> Result<(Vec<f64>, f64), LrdError> {
    if order == 0 || xs.len() < order * 4 {
        return Err(LrdError::InvalidParameter {
            name: "order",
            constraint: "1 <= order <= len/4",
        });
    }
    // Sample autocovariance (biased) up to `order` lags.
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let cov = |k: usize| -> f64 {
        xs.iter()
            .zip(xs.iter().skip(k))
            .map(|(a, b)| (a - mean) * (b - mean))
            .sum::<f64>()
            / n
    };
    let c0 = cov(0);
    if c0 <= 0.0 {
        return Err(LrdError::InvalidParameter {
            name: "xs",
            constraint: "non-degenerate series",
        });
    }
    let r: Vec<f64> = (0..=order).map(|k| cov(k) / c0).collect();
    // Durbin–Levinson on the sample ACF.
    let mut phi = vec![0.0f64; order];
    let mut prev = vec![0.0f64; order];
    let mut v = 1.0f64;
    for k in 1..=order {
        let mut num = r[k];
        for j in 1..k {
            // 1 <= j < k <= order keeps j-1 and k-j in 0..order
            num -= prev[j - 1] * r[k - j];
        }
        let kappa = num / v;
        for j in 1..k {
            // 1 <= j < k <= order keeps j-1 and k-j-1 in 0..order
            phi[j - 1] = prev[j - 1] - kappa * prev[k - j - 1];
        }
        // k <= order == phi.len(), so k-1 is in bounds
        phi[k - 1] = kappa;
        v *= 1.0 - kappa * kappa;
        prev[..k].copy_from_slice(&phi[..k]);
    }
    Ok((phi, v * c0))
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
    fn pure_ma_filter() -> Result<(), Box<dyn std::error::Error>> {
        let f = ArmaFilter::new(vec![], vec![0.5])?;
        let out = f.apply(&[1.0, 0.0, 0.0, 2.0]);
        assert_eq!(out, vec![1.0, 0.5, 0.0, 2.0]);
        Ok(())
    }

    #[test]
    fn pure_ar_filter() -> Result<(), Box<dyn std::error::Error>> {
        let f = ArmaFilter::new(vec![0.5], vec![])?;
        let out = f.apply(&[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(out, vec![1.0, 0.5, 0.25, 0.125]);
        Ok(())
    }

    #[test]
    fn arma11_impulse_response() -> Result<(), Box<dyn std::error::Error>> {
        let f = ArmaFilter::new(vec![0.5], vec![0.3])?;
        let out = f.apply(&[1.0, 0.0, 0.0]);
        // ψ0=1, ψ1=φ+θ=0.8, ψ2=φψ1=0.4
        assert!((out[0] - 1.0).abs() < 1e-15);
        assert!((out[1] - 0.8).abs() < 1e-15);
        assert!((out[2] - 0.4).abs() < 1e-15);
        Ok(())
    }

    #[test]
    fn filter_rejects_explosive_ar() {
        assert!(ArmaFilter::new(vec![0.6, 0.5], vec![]).is_err());
        assert!(ArmaFilter::new(vec![f64::NAN], vec![]).is_err());
        assert!(ArmaFilter::new(vec![], vec![f64::INFINITY]).is_err());
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
    fn ar1_from_rate_matches_exponential_acf() -> Result<(), Box<dyn std::error::Error>> {
        let p = Ar1::from_rate(0.005_65)?;
        assert!((p.phi() - (-0.005_65f64).exp()).abs() < 1e-15);
        assert!(Ar1::from_rate(0.0).is_err());
        assert!(Ar1::new(1.0).is_err());
        Ok(())
    }

    #[test]
    fn fit_ar_recovers_ar1() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(10);
        let xs = Ar1::new(0.7)?.generate(200_000, &mut rng);
        let (phi, innov_var) = fit_ar(&xs, 1)?;
        assert!((phi[0] - 0.7).abs() < 0.01, "phi {}", phi[0]);
        assert!((innov_var - (1.0 - 0.49)).abs() < 0.02, "v {innov_var}");
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fit_ar_recovers_ar2() -> Result<(), Box<dyn std::error::Error>> {
        // X_t = 0.5 X_{t-1} + 0.3 X_{t-2} + ε
        let f = ArmaFilter::new(vec![0.5, 0.3], vec![])?;
        let mut rng = StdRng::seed_from_u64(11);
        let innov: Vec<f64> = {
            let mut g = crate::gauss::Normal::new();
            (0..300_000).map(|_| g.sample(&mut rng)).collect()
        };
        let xs = f.apply(&innov);
        let (phi, _) = fit_ar(&xs[1000..], 2)?;
        assert!((phi[0] - 0.5).abs() < 0.02, "phi1 {}", phi[0]);
        assert!((phi[1] - 0.3).abs() < 0.02, "phi2 {}", phi[1]);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fit_ar_higher_order_finds_near_zero_extras() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(12);
        let xs = Ar1::new(0.6)?.generate(200_000, &mut rng);
        let (phi, _) = fit_ar(&xs, 4)?;
        assert!((phi[0] - 0.6).abs() < 0.02);
        for p in &phi[1..] {
            assert!(p.abs() < 0.03, "spurious coefficient {p}");
        }
        Ok(())
    }

    #[test]
    fn fit_ar_validation() {
        assert!(fit_ar(&[1.0; 10], 0).is_err());
        assert!(fit_ar(&[1.0; 10], 5).is_err());
        assert!(fit_ar(&[2.0; 100], 2).is_err(), "degenerate series");
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
