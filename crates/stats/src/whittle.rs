//! Local Whittle (Gaussian semiparametric) Hurst estimator.
//!
//! The paper picks two estimators (variance-time, R/S) from the toolbox of
//! Leland et al.; the Whittle-type estimators are the toolbox's
//! statistically efficient members and serve here as an independent
//! cross-check of Step 1. The *local* Whittle estimator (Künsch/Robinson)
//! uses only the lowest `m` Fourier frequencies, so it is robust to
//! short-range structure — exactly what a knee-shaped ACF calls for:
//!
//! ```text
//! Ĥ = argmin_H  ln( (1/m) Σ_j I(λ_j)·λ_j^{2H−1} ) − (2H−1)·(1/m) Σ_j ln λ_j
//! ```

use crate::periodogram::periodogram;
use crate::StatsError;

/// Result of the local Whittle estimation.
#[derive(Debug, Clone, Copy)]
pub struct WhittleEstimate {
    /// The Hurst estimate.
    pub hurst: f64,
    /// Asymptotic standard error `1/(2√m)`.
    pub std_err: f64,
    /// Number of frequencies used.
    pub m_used: usize,
    /// The minimized objective value.
    pub objective: f64,
}

/// Local Whittle estimator over the lowest `m` Fourier frequencies
/// (`None` → `n^0.65`, a common bandwidth choice).
pub fn local_whittle(xs: &[f64], m: Option<usize>) -> Result<WhittleEstimate, StatsError> {
    let (freqs, ords) = periodogram(xs)?;
    local_whittle_from_periodogram(&freqs, &ords, xs.len(), m)
}

/// [`local_whittle`] on the [`periodogram`] `(freqs, ords)` of a series of
/// `n` samples, for callers that run several estimators on one periodogram.
pub fn local_whittle_from_periodogram(
    freqs: &[f64],
    ords: &[f64],
    n: usize,
    m: Option<usize>,
) -> Result<WhittleEstimate, StatsError> {
    let m = m
        .unwrap_or_else(|| (n as f64).powf(0.65).round() as usize)
        .min(freqs.len());
    if m < 8 {
        return Err(StatsError::InvalidParameter {
            name: "m",
            constraint: "at least 8 low frequencies",
        });
    }
    let lam: Vec<f64> = freqs[..m].to_vec();
    let i_vals: Vec<f64> = ords[..m].to_vec();
    if i_vals.iter().any(|&v| v <= 0.0) {
        return Err(StatsError::Degenerate("non-positive periodogram ordinate"));
    }
    let mean_log_lam = lam.iter().map(|l| l.ln()).sum::<f64>() / m as f64;
    let objective = |h: f64| -> f64 {
        let g = lam
            .iter()
            .zip(i_vals.iter())
            .map(|(&l, &i)| i * l.powf(2.0 * h - 1.0))
            .sum::<f64>()
            / m as f64;
        g.ln() - (2.0 * h - 1.0) * mean_log_lam
    };
    // Golden-section minimization over H ∈ (0.01, 0.99): the objective is
    // smooth and unimodal for all series exercised here.
    let (mut a, mut b) = (0.01f64, 0.99f64);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let mut fc = objective(c);
    let mut fd = objective(d);
    for _ in 0..120 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = objective(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = objective(d);
        }
        if (b - a).abs() < 1e-10 {
            break;
        }
    }
    let hurst = 0.5 * (a + b);
    Ok(WhittleEstimate {
        hurst,
        std_err: 0.5 / (m as f64).sqrt(),
        m_used: m,
        objective: objective(hurst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use svbr_lrd::acf::{CompositeAcf, FgnAcf};
    use svbr_lrd::arma::Ar1;
    use svbr_lrd::DaviesHarte;

    fn fgn(h: f64, n: usize, seed: u64) -> Vec<f64> {
        let dh = DaviesHarte::new(FgnAcf::new(h).unwrap(), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        dh.generate(&mut rng)
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn recovers_hurst_across_range() -> Result<(), Box<dyn std::error::Error>> {
        for (h, tol) in [(0.55, 0.05), (0.7, 0.05), (0.9, 0.06)] {
            let xs = fgn(h, 65_536, 1);
            let est = local_whittle(&xs, None)?;
            assert!(
                (est.hurst - h).abs() < tol,
                "H = {h}: estimated {}",
                est.hurst
            );
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn white_noise_reads_half() -> Result<(), Box<dyn std::error::Error>> {
        let xs = fgn(0.5, 32_768, 2);
        let est = local_whittle(&xs, None)?;
        assert!((est.hurst - 0.5).abs() < 0.05, "H {}", est.hurst);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn robust_to_srd_contamination() -> Result<(), Box<dyn std::error::Error>> {
        // Composite knee ACF: local Whittle at low frequencies must read the
        // LRD exponent (H = 0.9), not the exponential part.
        let acf = CompositeAcf::paper_fit();
        let dh = DaviesHarte::new_approx(&acf, 65_536, 1e-2)?;
        let mut rng = StdRng::seed_from_u64(3);
        let xs = dh.generate(&mut rng);
        let est = local_whittle(&xs, Some(256))?;
        assert!(
            (est.hurst - 0.9).abs() < 0.1,
            "composite-knee H: {}",
            est.hurst
        );
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn ar1_is_not_mistaken_for_lrd_at_low_frequencies() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(4);
        let xs = Ar1::new(0.7)?.generate(131_072, &mut rng);
        // Narrow bandwidth → only the flat low-frequency part is seen.
        let est = local_whittle(&xs, Some(128))?;
        assert!(est.hurst < 0.65, "AR(1) H: {}", est.hurst);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn std_err_shrinks_with_bandwidth() -> Result<(), Box<dyn std::error::Error>> {
        let xs = fgn(0.8, 32_768, 5);
        let narrow = local_whittle(&xs, Some(64))?;
        let wide = local_whittle(&xs, Some(1024))?;
        assert!(wide.std_err < narrow.std_err);
        assert_eq!(narrow.m_used, 64);
        Ok(())
    }

    #[test]
    fn validation() {
        let xs = fgn(0.7, 256, 6);
        assert!(local_whittle(&xs, Some(4)).is_err());
        assert!(local_whittle(&[1.0, 2.0], None).is_err());
    }
}
