//! Abry–Veitch wavelet Hurst estimator (Haar basis).
//!
//! A fourth member of the Hurst toolbox, structurally different from the
//! time-domain (variance-time, R/S) and frequency-domain (GPH, Whittle)
//! estimators: the variance of the discrete wavelet detail coefficients
//! `d_{j,k}` at octave `j` of an LRD process scales as
//!
//! ```text
//! E[d_{j,·}²] ∝ 2^{j(2H−1)}
//! ```
//!
//! so the slope of `log2(μ_j)` against `j` (weighted by the per-octave
//! coefficient counts) estimates `2H − 1`. We use the Haar wavelet — a
//! two-tap pyramid that needs no boundary handling beyond truncation.

use crate::regression::linear_fit;
use crate::StatsError;

/// Per-octave energies of the Haar wavelet decomposition.
#[derive(Debug, Clone)]
pub struct WaveletSpectrum {
    /// Octave indices `j = 1..`.
    pub octaves: Vec<usize>,
    /// Mean squared detail coefficient per octave.
    pub energy: Vec<f64>,
    /// Number of coefficients per octave.
    pub counts: Vec<usize>,
}

/// Compute the Haar detail energies down to octaves with at least
/// `min_coeffs` coefficients.
pub fn haar_spectrum(xs: &[f64], min_coeffs: usize) -> Result<WaveletSpectrum, StatsError> {
    if xs.len() < 2 * min_coeffs.max(2) {
        return Err(StatsError::TooShort {
            needed: 2 * min_coeffs.max(2),
            got: xs.len(),
        });
    }
    let mut approx: Vec<f64> = xs.to_vec();
    let mut octaves = Vec::new();
    let mut energy = Vec::new();
    let mut counts = Vec::new();
    let mut j = 1usize;
    let sqrt2_inv = std::f64::consts::FRAC_1_SQRT_2;
    loop {
        let pairs = approx.len() / 2;
        if pairs < min_coeffs.max(2) {
            break;
        }
        let mut next = Vec::with_capacity(pairs);
        let mut e = 0.0;
        for p in 0..pairs {
            let a = approx[2 * p];
            let b = approx[2 * p + 1];
            let detail = (a - b) * sqrt2_inv;
            e += detail * detail;
            next.push((a + b) * sqrt2_inv);
        }
        octaves.push(j);
        energy.push(e / pairs as f64);
        counts.push(pairs);
        approx = next;
        j += 1;
    }
    if octaves.len() < 3 {
        return Err(StatsError::Degenerate("fewer than three usable octaves"));
    }
    Ok(WaveletSpectrum {
        octaves,
        energy,
        counts,
    })
}

/// Abry–Veitch estimate.
#[derive(Debug, Clone, Copy)]
pub struct WaveletEstimate {
    /// The Hurst estimate `(slope + 1)/2`.
    pub hurst: f64,
    /// The fitted log2-energy slope.
    pub slope: f64,
    /// Octave range used `(j_min, j_max)`.
    pub range: (usize, usize),
}

/// Estimate H from the wavelet spectrum over octaves `j_min..=j_max`
/// (clipped to the available range), weighting each octave by its
/// coefficient count.
#[expect(
    clippy::expect_used,
    reason = "`used` length was checked >= 2 before the fit"
)]
pub fn wavelet_hurst(
    xs: &[f64],
    j_min: usize,
    j_max: usize,
) -> Result<WaveletEstimate, StatsError> {
    if j_min == 0 || j_max < j_min {
        return Err(StatsError::InvalidParameter {
            name: "j_min/j_max",
            constraint: "1 <= j_min <= j_max",
        });
    }
    let spec = haar_spectrum(xs, 8)?;
    // Weighted LS: replicate points proportionally to sqrt(count) via
    // scaling — implemented by duplicating each point's contribution in a
    // plain fit on pre-weighted coordinates would distort the intercept, so
    // use explicit weighted normal equations instead.
    let mut sw = 0.0;
    let mut swx = 0.0;
    let mut swy = 0.0;
    let mut swxx = 0.0;
    let mut swxy = 0.0;
    let mut used = Vec::new();
    for ((&j, &e), &c) in spec
        .octaves
        .iter()
        .zip(spec.energy.iter())
        .zip(spec.counts.iter())
    {
        if j < j_min || j > j_max || e <= 0.0 {
            continue;
        }
        let w = c as f64;
        let x = j as f64;
        let y = e.log2();
        sw += w;
        swx += w * x;
        swy += w * y;
        swxx += w * x * x;
        swxy += w * x * y;
        used.push(j);
    }
    if used.len() < 3 {
        return Err(StatsError::Degenerate("fewer than three octaves in range"));
    }
    let det = sw * swxx - swx * swx;
    if det <= 0.0 {
        return Err(StatsError::Degenerate("singular weighted design"));
    }
    let slope = (sw * swxy - swx * swy) / det;
    Ok(WaveletEstimate {
        hurst: (slope + 1.0) / 2.0,
        slope,
        range: (
            *used.first().expect("non-empty"),
            *used.last().expect("non-empty"),
        ),
    })
}

/// Convenience: an unweighted fit over all octaves (diagnostic).
#[expect(clippy::expect_used, reason = "spectrum always contains octave 1")]
pub fn wavelet_hurst_unweighted(xs: &[f64]) -> Result<WaveletEstimate, StatsError> {
    let spec = haar_spectrum(xs, 8)?;
    let pts: Vec<(f64, f64)> = spec
        .octaves
        .iter()
        .zip(spec.energy.iter())
        .filter(|(_, &e)| e > 0.0)
        .map(|(&j, &e)| (j as f64, e.log2()))
        .collect();
    let fit = linear_fit(&pts)?;
    Ok(WaveletEstimate {
        hurst: (fit.slope + 1.0) / 2.0,
        slope: fit.slope,
        range: (
            *spec.octaves.first().expect("non-empty"),
            *spec.octaves.last().expect("non-empty"),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use svbr_lrd::acf::FgnAcf;
    use svbr_lrd::arma::Ar1;
    use svbr_lrd::DaviesHarte;

    fn fgn(h: f64, n: usize, seed: u64) -> Vec<f64> {
        let dh = DaviesHarte::new(FgnAcf::new(h).unwrap(), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        dh.generate(&mut rng)
    }

    #[test]
    fn haar_pyramid_shape() -> Result<(), Box<dyn std::error::Error>> {
        let xs: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.1).sin()).collect();
        let spec = haar_spectrum(&xs, 8)?;
        assert_eq!(spec.octaves[0], 1);
        assert_eq!(spec.counts[0], 512);
        for w in spec.counts.windows(2) {
            assert_eq!(w[1], w[0] / 2);
        }
        assert!(*spec.counts.last().ok_or("empty")? >= 8);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn haar_detail_energy_of_white_noise_is_flat() -> Result<(), Box<dyn std::error::Error>> {
        let xs = fgn(0.5, 65_536, 1);
        let spec = haar_spectrum(&xs, 32)?;
        // Orthonormal transform of white noise: unit mean energy at every
        // octave. The mean of `count` squared coefficients has sd
        // √(2/count), so the acceptance band must widen with depth (the
        // deepest octave here has only 32 coefficients, sd = 0.25).
        for ((&j, &e), &count) in spec
            .octaves
            .iter()
            .zip(spec.energy.iter())
            .zip(spec.counts.iter())
        {
            let sd = (2.0 / count as f64).sqrt();
            assert!(
                (e - 1.0).abs() < 4.0 * sd,
                "octave {j} (count {count}): energy {e}"
            );
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn recovers_hurst_for_fgn() -> Result<(), Box<dyn std::error::Error>> {
        for (h, tol) in [(0.6, 0.06), (0.8, 0.06), (0.9, 0.07)] {
            let xs = fgn(h, 131_072, 2);
            let est = wavelet_hurst(&xs, 3, 12)?;
            assert!(
                (est.hurst - h).abs() < tol,
                "H = {h}: estimated {} (slope {})",
                est.hurst,
                est.slope
            );
        }
        Ok(())
    }

    #[test]
    fn srd_reads_half_at_coarse_octaves() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(3);
        let xs = Ar1::new(0.8)?.generate(131_072, &mut rng);
        // Skip the fine octaves contaminated by the AR(1) correlation.
        let est = wavelet_hurst(&xs, 6, 13)?;
        assert!(est.hurst < 0.65, "AR(1) coarse-octave H: {}", est.hurst);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn unweighted_agrees_roughly() -> Result<(), Box<dyn std::error::Error>> {
        let xs = fgn(0.75, 65_536, 4);
        let a = wavelet_hurst(&xs, 2, 11)?;
        let b = wavelet_hurst_unweighted(&xs)?;
        assert!(
            (a.hurst - b.hurst).abs() < 0.12,
            "{} vs {}",
            a.hurst,
            b.hurst
        );
        Ok(())
    }

    #[test]
    fn validation() {
        let xs = fgn(0.7, 64, 5);
        assert!(wavelet_hurst(&xs, 0, 5).is_err());
        assert!(wavelet_hurst(&xs, 5, 3).is_err());
        assert!(haar_spectrum(&[1.0; 8], 8).is_err());
        // Range with too few octaves inside:
        let long = fgn(0.7, 4096, 6);
        assert!(wavelet_hurst(&long, 20, 25).is_err());
    }
}
