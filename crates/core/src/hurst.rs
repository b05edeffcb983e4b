//! Step 1: Hurst-parameter estimation (§3.2, Figs. 3–4).
//!
//! The paper runs variance-time and R/S analyses, gets 0.89 and 0.92, and
//! "combining the results of above two approaches, we decided to set
//! Ĥ = 0.9". We do the same combination (the mean, rounded to the nearest
//! 0.05 by default) and additionally report the GPH log-periodogram
//! estimate as a cross-check.

use crate::CoreError;
use svbr_stats::{
    gph_from_periodogram, local_whittle_from_periodogram, periodogram, rs_hurst,
    variance_time_hurst, wavelet_hurst, RsOptions, VtOptions,
};

/// Options for the combined Hurst estimation.
#[derive(Debug, Clone)]
pub struct HurstOptions {
    /// Variance-time options.
    pub vt: VtOptions,
    /// R/S options.
    pub rs: RsOptions,
    /// Number of low frequencies for GPH (`None` → `sqrt(n)`).
    pub gph_frequencies: Option<usize>,
    /// Also run the local-Whittle and wavelet estimators (diagnostics;
    /// they do not enter the combined value, which follows the paper's
    /// VT+R/S recipe).
    pub extended_estimators: bool,
    /// Round the combined estimate to the nearest multiple of this
    /// (the paper rounds 0.89/0.92 to 0.9). Set `0.0` to disable.
    pub round_to: f64,
}

impl Default for HurstOptions {
    fn default() -> Self {
        Self {
            vt: VtOptions::default(),
            rs: RsOptions::default(),
            gph_frequencies: None,
            extended_estimators: true,
            round_to: 0.05,
        }
    }
}

/// The three estimates plus the combined value.
#[derive(Debug, Clone, Copy)]
pub struct HurstEstimates {
    /// Variance-time estimate (Fig. 3).
    pub vt: f64,
    /// R/S estimate (Fig. 4).
    pub rs: f64,
    /// GPH log-periodogram estimate (cross-check; `NaN` if it failed).
    pub gph: f64,
    /// Local Whittle estimate (`NaN` if skipped or failed).
    pub whittle: f64,
    /// Abry–Veitch wavelet estimate (`NaN` if skipped or failed).
    pub wavelet: f64,
    /// Combined value: mean of VT and R/S, rounded per options, clamped to
    /// the open interval (0.5, 1) — the LRD regime the model assumes.
    pub combined: f64,
}

impl HurstEstimates {
    /// The LRD exponent `β = 2 − 2H` implied by the combined estimate.
    pub fn beta(&self) -> f64 {
        2.0 - 2.0 * self.combined
    }
}

/// Run the full Step-1 estimation on a bytes-per-frame series.
pub fn estimate_hurst(series: &[f64], opts: &HurstOptions) -> Result<HurstEstimates, CoreError> {
    let vt = variance_time_hurst(series, &opts.vt)?.hurst;
    let rs = rs_hurst(series, &opts.rs)?.hurst;
    // GPH and local Whittle both regress on the same periodogram.
    let pg = periodogram(series);
    let n = series.len();
    let gph = pg.as_ref().map_or(f64::NAN, |(freqs, ords)| {
        gph_from_periodogram(freqs, ords, n, opts.gph_frequencies).map_or(f64::NAN, |g| g.hurst)
    });
    let (whittle, wavelet) = if opts.extended_estimators {
        (
            pg.as_ref().map_or(f64::NAN, |(freqs, ords)| {
                local_whittle_from_periodogram(freqs, ords, n, None).map_or(f64::NAN, |w| w.hurst)
            }),
            wavelet_hurst(series, 4, 16)
                .map(|w| w.hurst)
                .unwrap_or(f64::NAN),
        )
    } else {
        (f64::NAN, f64::NAN)
    };
    let mut combined = 0.5 * (vt + rs);
    if opts.round_to > 0.0 {
        combined = (combined / opts.round_to).round() * opts.round_to;
    }
    combined = combined.clamp(0.55, 0.975);
    Ok(HurstEstimates {
        vt,
        rs,
        gph,
        whittle,
        wavelet,
        combined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use svbr_lrd::acf::FgnAcf;
    use svbr_lrd::DaviesHarte;

    fn fgn(h: f64, n: usize, seed: u64) -> Vec<f64> {
        let dh = DaviesHarte::new(FgnAcf::new(h).unwrap(), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        dh.generate(&mut rng)
    }

    fn opts() -> HurstOptions {
        HurstOptions {
            vt: VtOptions {
                min_m: 30,
                max_m: 3000,
                points: 12,
                min_blocks: 15,
            },
            rs: RsOptions {
                min_n: 64,
                max_n: 1 << 14,
                sizes: 10,
                starts: 8,
            },
            gph_frequencies: Some(256),
            extended_estimators: true,
            round_to: 0.05,
        }
    }

    #[test]
    fn recovers_strong_lrd() -> Result<(), Box<dyn std::error::Error>> {
        let xs = fgn(0.9, 200_000, 1);
        let est = estimate_hurst(&xs, &opts())?;
        assert!((est.vt - 0.9).abs() < 0.1, "vt {}", est.vt);
        assert!((est.rs - 0.9).abs() < 0.12, "rs {}", est.rs);
        assert!(
            (est.combined - 0.9).abs() <= 0.05,
            "combined {}",
            est.combined
        );
        assert!((est.beta() - 0.2).abs() <= 0.11);
        assert!(est.gph.is_finite());
        assert!((est.whittle - 0.9).abs() < 0.1, "whittle {}", est.whittle);
        assert!((est.wavelet - 0.9).abs() < 0.12, "wavelet {}", est.wavelet);
        Ok(())
    }

    #[test]
    fn rounding_behaviour() -> Result<(), Box<dyn std::error::Error>> {
        let xs = fgn(0.7, 100_000, 2);
        let mut o = opts();
        o.round_to = 0.05;
        let est = estimate_hurst(&xs, &o)?;
        let multiple = est.combined / 0.05;
        assert!((multiple - multiple.round()).abs() < 1e-9);
        o.round_to = 0.0;
        let raw = estimate_hurst(&xs, &o)?;
        assert!((raw.combined - 0.5 * (raw.vt + raw.rs)).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn combined_clamped_to_lrd_regime() -> Result<(), Box<dyn std::error::Error>> {
        // Anti-persistent input: combined must still land in (0.5, 1) so the
        // downstream power-law model stays valid.
        let xs = fgn(0.5, 100_000, 3);
        let est = estimate_hurst(&xs, &opts())?;
        assert!(est.combined >= 0.55 && est.combined <= 0.975);
        Ok(())
    }

    #[test]
    fn shared_periodogram_matches_separate_estimators() -> Result<(), Box<dyn std::error::Error>> {
        let xs = fgn(0.8, 100_000, 5);
        let o = opts();
        let est = estimate_hurst(&xs, &o)?;
        let gph = svbr_stats::gph_estimate(&xs, o.gph_frequencies)?.hurst;
        let whittle = svbr_stats::local_whittle(&xs, None)?.hurst;
        assert_eq!(est.gph.to_bits(), gph.to_bits());
        assert_eq!(est.whittle.to_bits(), whittle.to_bits());
        Ok(())
    }

    #[test]
    fn errors_propagate() {
        assert!(estimate_hurst(&[1.0; 10], &opts()).is_err());
    }
}
