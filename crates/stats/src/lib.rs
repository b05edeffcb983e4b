//! # svbr-stats — estimators for self-similar traffic analysis
//!
//! Everything §3 of the paper *measures* lives here:
//!
//! * [`summary`] — moments (mean, variance, skewness, kurtosis).
//! * [`acf`] — sample autocorrelation, direct and FFT-accelerated (Fig. 5).
//! * [`variance_time`] — aggregated-variance Hurst estimator (Fig. 3).
//! * [`rs_analysis`] — R/S (rescaled adjusted range) pox analysis (Fig. 4).
//! * [`periodogram`] — periodogram and the Geweke–Porter-Hudak (GPH)
//!   log-periodogram Hurst estimator (a third estimator from the toolbox the
//!   paper cites, used for cross-validation).
//! * [`whittle`] — the local Whittle (Gaussian semiparametric) estimator.
//! * [`wavelet`] — the Abry–Veitch Haar-wavelet estimator.
//! * [`regression`] — ordinary least squares on (x, y) points, the
//!   work-horse of all three Hurst estimators.
//! * [`fitting`] — least-squares fitting of the paper's composite SRD+LRD
//!   autocorrelation model with knee search (Fig. 6, eqs. 10–13).
//! * [`histogram`] — histograms for marginal-distribution comparison
//!   (Figs. 1, 12).
//! * [`quantiles`] — empirical quantiles and Q-Q data (Fig. 13).
//! * [`ks`] — Kolmogorov–Smirnov distances for marginal-match validation.
//! * [`mavar`] — the Modified Allan Variance Hurst estimator (Bregni),
//!   the code-independent cross-check behind the vectorization ablation.
//! * [`aggregate`] — the `X^{(m)}` block-mean aggregation underlying the
//!   variance-time method.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acf;
pub mod aggregate;
pub mod fitting;
pub mod histogram;
pub mod ks;
pub mod mavar;
pub mod periodogram;
pub mod quantiles;
pub mod regression;
pub mod rs_analysis;
pub mod summary;
pub mod variance_time;
pub mod wavelet;
pub mod whittle;

pub use acf::{bartlett_se, sample_acf, sample_acf_fft, sample_autocovariance};
pub use aggregate::aggregate;
pub use fitting::{fit_composite, refine_mixture, CompositeFit, FitOptions, MixtureFit};
pub use histogram::Histogram;
pub use ks::{ks_distance_sorted, two_sample_ks};
pub use mavar::{mavar_hurst, mavar_points, MavarEstimate, MavarOptions};
pub use periodogram::{gph_estimate, gph_from_periodogram, periodogram};
pub use quantiles::{qq_points, quantile_sorted, quantiles};
pub use regression::{linear_fit, LinearFit};
pub use rs_analysis::{rs_hurst, rs_pox, RsOptions};
pub use summary::Summary;
pub use variance_time::{variance_time_hurst, variance_time_points, VtOptions};
pub use wavelet::{haar_spectrum, wavelet_hurst, WaveletEstimate};
pub use whittle::{local_whittle, local_whittle_from_periodogram, WhittleEstimate};

/// Errors produced by the estimators in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The input series is too short for the requested analysis.
    TooShort {
        /// Samples required.
        needed: usize,
        /// Samples supplied.
        got: usize,
    },
    /// The input series is degenerate (e.g. zero variance).
    Degenerate(&'static str),
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::TooShort { needed, got } => {
                write!(f, "series too short: need {needed} samples, got {got}")
            }
            StatsError::Degenerate(what) => write!(f, "degenerate input: {what}"),
            StatsError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: must satisfy {constraint}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = StatsError::TooShort { needed: 10, got: 3 };
        assert!(e.to_string().contains("10"));
        assert!(StatsError::Degenerate("zero variance")
            .to_string()
            .contains("zero variance"));
        let e = StatsError::InvalidParameter {
            name: "bins",
            constraint: "bins >= 1",
        };
        assert!(e.to_string().contains("bins"));
    }
}
