//! Sample autocorrelation estimation (the data behind Figs. 5 and 7–11).

use crate::StatsError;
use svbr_lrd::fft::autocovariance_fft;

/// Sample autocovariance at lags `0..=max_lag`, using the biased
/// (divide-by-n) estimator, which guarantees a positive-definite sequence:
///
/// `ĉ(k) = (1/n) Σ_{t=0}^{n-1-k} (x_t − x̄)(x_{t+k} − x̄)`
pub fn sample_autocovariance(xs: &[f64], max_lag: usize) -> Result<Vec<f64>, StatsError> {
    if xs.len() <= max_lag {
        return Err(StatsError::TooShort {
            needed: max_lag + 1,
            got: xs.len(),
        });
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let mut out = Vec::with_capacity(max_lag + 1);
    for k in 0..=max_lag {
        let c = xs
            .iter()
            .zip(xs.iter().skip(k))
            .map(|(a, b)| (a - mean) * (b - mean))
            .sum::<f64>()
            / n;
        out.push(c);
    }
    Ok(out)
}

/// Sample autocorrelation at lags `0..=max_lag` (direct O(n·K) algorithm).
pub fn sample_acf(xs: &[f64], max_lag: usize) -> Result<Vec<f64>, StatsError> {
    let cov = sample_autocovariance(xs, max_lag)?;
    normalize(cov)
}

/// Sample autocorrelation via FFT — O(n log n), identical (to rounding) to
/// [`sample_acf`]; preferred when `max_lag` is large (e.g. the paper's
/// 490-lag plots over a 238k-frame trace).
pub fn sample_acf_fft(xs: &[f64], max_lag: usize) -> Result<Vec<f64>, StatsError> {
    if xs.len() <= max_lag {
        return Err(StatsError::TooShort {
            needed: max_lag + 1,
            got: xs.len(),
        });
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let centered: Vec<f64> = xs.iter().map(|x| x - mean).collect();
    let cov = autocovariance_fft(&centered, max_lag);
    normalize(cov)
}

/// Bartlett's large-sample standard error for the sample autocorrelation at
/// lag `k`, given the estimated ACF itself:
///
/// `se(r̂(k))² ≈ (1/n)·(1 + 2·Σ_{j<k} r̂(j)²)`
///
/// Under SRD the sum converges and the bands shrink as `1/√n`; under LRD
/// the sum is (nearly) non-summable and the bands stay wide at any feasible
/// `n` — the quantitative form of the warnings sprinkled through this
/// repo's tests about single-path LRD ACF estimates.
pub fn bartlett_se(acf: &[f64], n: usize, k: usize) -> Result<f64, StatsError> {
    if k >= acf.len() {
        return Err(StatsError::InvalidParameter {
            name: "k",
            constraint: "k < acf.len()",
        });
    }
    if n == 0 {
        return Err(StatsError::InvalidParameter {
            name: "n",
            constraint: "n >= 1",
        });
    }
    let sum_sq: f64 = acf[1..k].iter().map(|r| r * r).sum();
    Ok(((1.0 + 2.0 * sum_sq) / n as f64).sqrt())
}

fn normalize(cov: Vec<f64>) -> Result<Vec<f64>, StatsError> {
    let c0 = cov[0];
    if c0 <= 0.0 {
        return Err(StatsError::Degenerate("zero variance"));
    }
    Ok(cov.into_iter().map(|c| c / c0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use svbr_lrd::arma::Ar1;

    #[test]
    fn lag_zero_is_one() -> Result<(), Box<dyn std::error::Error>> {
        let xs = vec![1.0, 3.0, 2.0, 5.0, 4.0];
        let r = sample_acf(&xs, 2)?;
        assert_eq!(r[0], 1.0);
        Ok(())
    }

    #[test]
    fn direct_and_fft_agree() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(1);
        let xs = Ar1::new(0.7)?.generate(5_000, &mut rng);
        let a = sample_acf(&xs, 100)?;
        let b = sample_acf_fft(&xs, 100)?;
        for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-9, "lag {k}: {x} vs {y}");
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn direct_and_fft_agree_at_paper_length() -> Result<(), Box<dyn std::error::Error>> {
        // Fig. 8's geometry: 238,626 frames and 500 lags, where the FFT
        // path pads to 2^18 = next_power_of_two(n + max_lag). Measured
        // 1.5e−14 here; the 2n-padded recurrence-twiddle path read 1.2e−13.
        let mut rng = StdRng::seed_from_u64(8);
        let xs = Ar1::new(0.9)?.generate(238_626, &mut rng);
        let a = sample_acf(&xs, 500)?;
        let b = sample_acf_fft(&xs, 500)?;
        let worst = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(worst < 5e-14, "max |direct - fft| = {worst:e}");
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn ar1_acf_recovered() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(2);
        let xs = Ar1::new(0.8)?.generate(200_000, &mut rng);
        let r = sample_acf_fft(&xs, 10)?;
        for (k, rk) in r.iter().enumerate().take(6).skip(1) {
            assert!((rk - 0.8f64.powi(k as i32)).abs() < 0.02, "lag {k}: {rk}");
        }
        Ok(())
    }

    #[test]
    fn white_noise_acf_near_zero() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(3);
        let xs = Ar1::new(0.0)?.generate(50_000, &mut rng);
        let r = sample_acf(&xs, 5)?;
        for (k, rk) in r.iter().enumerate().take(6).skip(1) {
            assert!(rk.abs() < 0.02, "lag {k}: {rk}");
        }
        Ok(())
    }

    #[test]
    fn too_short_is_error() {
        assert!(sample_acf(&[1.0, 2.0], 2).is_err());
        assert!(sample_acf_fft(&[1.0, 2.0], 5).is_err());
    }

    #[test]
    fn constant_series_is_degenerate() {
        let xs = vec![4.0; 100];
        assert_eq!(
            sample_acf(&xs, 3),
            Err(StatsError::Degenerate("zero variance"))
        );
    }

    #[test]
    fn autocovariance_scale() -> Result<(), Box<dyn std::error::Error>> {
        // Var 4 series: covariance at lag 0 must be ≈ 4.
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<f64> = Ar1::new(0.0)?
            .generate(100_000, &mut rng)
            .iter()
            .map(|x| 2.0 * x)
            .collect();
        let c = sample_autocovariance(&xs, 0)?;
        assert!((c[0] - 4.0).abs() < 0.1, "c0 {}", c[0]);
        Ok(())
    }

    #[test]
    fn bartlett_bands_white_noise() -> Result<(), Box<dyn std::error::Error>> {
        // For white noise the band at any lag is ≈ 1/√n, and ~95% of
        // sample autocorrelations fall within ±1.96·se.
        let mut rng = StdRng::seed_from_u64(5);
        let xs = Ar1::new(0.0)?.generate(10_000, &mut rng);
        let r = sample_acf_fft(&xs, 50)?;
        let se = bartlett_se(&r, xs.len(), 10)?;
        assert!((se - 0.01).abs() < 0.002, "se {se}");
        let inside = (1..=50)
            .filter(|&k| bartlett_se(&r, xs.len(), k).is_ok_and(|se| r[k].abs() <= 1.96 * se))
            .count();
        assert!(inside >= 44, "coverage {inside}/50");
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn bartlett_bands_grow_under_persistence() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(6);
        let white = Ar1::new(0.0)?.generate(20_000, &mut rng);
        let persistent = Ar1::new(0.95)?.generate(20_000, &mut rng);
        let rw = sample_acf_fft(&white, 60)?;
        let rp = sample_acf_fft(&persistent, 60)?;
        let se_w = bartlett_se(&rw, 20_000, 50)?;
        let se_p = bartlett_se(&rp, 20_000, 50)?;
        assert!(
            se_p > 3.0 * se_w,
            "persistence inflates the bands: {se_p} vs {se_w}"
        );
        Ok(())
    }

    #[test]
    fn bartlett_validation() {
        let r = vec![1.0, 0.5];
        assert!(bartlett_se(&r, 100, 5).is_err());
        assert!(bartlett_se(&r, 0, 1).is_err());
        assert!(bartlett_se(&r, 100, 1).is_ok());
    }

    #[test]
    fn biased_estimator_shrinks_with_lag() -> Result<(), Box<dyn std::error::Error>> {
        // For an alternating series the biased estimator divides by n, so
        // high lags shrink deterministically; check exact small example.
        let xs = vec![1.0, -1.0, 1.0, -1.0];
        let c = sample_autocovariance(&xs, 3)?;
        assert!((c[0] - 1.0).abs() < 1e-15);
        assert!((c[1] + 0.75).abs() < 1e-15);
        assert!((c[2] - 0.5).abs() < 1e-15);
        assert!((c[3] + 0.25).abs() < 1e-15);
        Ok(())
    }
}
