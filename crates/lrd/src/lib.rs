//! # svbr-lrd — long-range-dependent Gaussian process machinery
//!
//! This crate implements the stochastic-process substrate of the SIGCOMM '95
//! paper *"Modeling and Simulation of Self-Similar Variable Bit Rate
//! Compressed Video: A Unified Approach"* (Huang, Devetsikiotis, Lambadaris,
//! Kaye):
//!
//! * [`acf`] — autocorrelation-function models: exact fractional Gaussian
//!   noise (fGn), FARIMA(0,d,0), decaying exponentials (SRD), power laws
//!   (LRD), and the paper's *composite knee* model (eqs. 10–14) combining
//!   both, plus lag rescaling (eq. 15) and attenuation compensation.
//! * [`hosking`] — Hosking's exact sampling method for a stationary Gaussian
//!   process with arbitrary ACF, via the Durbin–Levinson recursion
//!   (the algorithm of §2 of the paper). The sampler exposes the conditional
//!   mean/variance and innovation of every step, which is exactly what the
//!   importance-sampling likelihood ratios of Appendix B require.
//! * [`davies_harte`] — the circulant-embedding exact generator
//!   (O(n log n)), used as a fast alternative for fGn and any ACF whose
//!   circulant embedding is nonnegative definite.
//! * [`cache`] — process-global, `Arc`-shared caches for the
//!   sample-independent precomputations (Hosking's Durbin–Levinson
//!   coefficient schedule, the Davies–Harte eigenvalue vector), memory
//!   capped with a documented fallback to the streaming recursion.
//! * [`fft`] — a self-contained radix-4 complex FFT (no external deps) on
//!   a precomputed [`fft::FftPlan`] (exact per-stage twiddles, shared by
//!   every power-of-two length up to the plan's), and [`fft::RealFft`], the
//!   half-length real-input transform the Davies–Harte generator and the
//!   sample ACF run on.
//! * [`kernels`] — lane-batched (4-accumulator) dot-product kernels shared
//!   by every Durbin–Levinson consumer, with documented per-kernel
//!   bit-identity decisions.
//! * [`arma`] — the AR(1) short-range-dependent baseline, whose ACF is the
//!   paper's SRD exponential.
//! * [`tes`] — TES⁺/TES⁻ processes (Melamed et al.), the exact-marginal SRD
//!   baseline the paper's approach generalizes.
//! * [`gauss`] — standard-normal sampling (polar Box–Muller) so that the
//!   crate only needs `rand`'s uniform source.
//!
//! All generators are deterministic given an RNG seed, which the test-suite
//! and the figure-reproduction harness rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acf;
pub mod arma;
pub mod cache;
pub mod davies_harte;
pub mod fft;
pub mod gauss;
pub mod hosking;
pub mod kernels;
pub mod tes;

pub use acf::{
    Acf, CompositeAcf, ExponentialAcf, FarimaAcf, FgnAcf, LagScaledAcf, PowerLawAcf, ScaledAcf,
};
pub use cache::{
    acf_fingerprint, davies_harte_cached, fft_plan, hosking_coefficients, CachedHosking,
};
pub use davies_harte::{pd_project, DaviesHarte};
pub use fft::{FftPlan, RealFft};
pub use hosking::{regularize_to_pd, HoskingSampler, HoskingStep, PreparedHosking};
pub use svbr_domain::{Attenuation, Correlation, Hurst, Probability, SvbrError};

/// Errors produced by the generators in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LrdError {
    /// The supplied autocorrelation sequence is not positive definite:
    /// the Durbin–Levinson recursion produced a partial correlation with
    /// magnitude ≥ 1 at the given lag.
    NotPositiveDefinite {
        /// Lag at which positive definiteness first failed.
        lag: usize,
    },
    /// The circulant embedding of the autocorrelation has a negative
    /// eigenvalue, so the Davies–Harte construction is not applicable.
    NegativeCirculantEigenvalue {
        /// Index of the offending eigenvalue.
        index: usize,
        /// The (negative) eigenvalue.
        value: f64,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
    },
    /// A validated-newtype constraint failed (see [`svbr_domain`]).
    Domain(SvbrError),
}

impl From<SvbrError> for LrdError {
    fn from(e: SvbrError) -> Self {
        LrdError::Domain(e)
    }
}

impl From<LrdError> for SvbrError {
    fn from(e: LrdError) -> Self {
        match e {
            LrdError::Domain(d) => d,
            LrdError::NotPositiveDefinite { lag } => SvbrError::NotPositiveDefinite { lag },
            LrdError::NegativeCirculantEigenvalue { index, .. } => {
                SvbrError::NotPositiveDefinite { lag: index }
            }
            LrdError::InvalidParameter { name, constraint } => {
                SvbrError::OutOfRange { name, constraint }
            }
        }
    }
}

impl std::fmt::Display for LrdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LrdError::NotPositiveDefinite { lag } => {
                write!(f, "autocorrelation not positive definite at lag {lag}")
            }
            LrdError::NegativeCirculantEigenvalue { index, value } => write!(
                f,
                "circulant embedding has negative eigenvalue {value} at index {index}"
            ),
            LrdError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: must satisfy {constraint}")
            }
            LrdError::Domain(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LrdError {}

/// Validate a Hurst parameter, returning it if `0 < H < 1`.
///
/// Thin wrapper over [`Hurst::new`] for call sites that want the raw `f64`
/// back with a crate-local error.
pub fn check_hurst(h: f64) -> Result<f64, LrdError> {
    Ok(Hurst::new(h)?.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hurst_validation() {
        assert!(check_hurst(0.5).is_ok());
        assert!(check_hurst(0.9).is_ok());
        assert!(check_hurst(0.0).is_err());
        assert!(check_hurst(1.0).is_err());
        assert!(check_hurst(f64::NAN).is_err());
        assert!(check_hurst(-0.1).is_err());
    }

    #[test]
    fn error_display() {
        let e = LrdError::NotPositiveDefinite { lag: 7 };
        assert!(e.to_string().contains("lag 7"));
        let e = LrdError::NegativeCirculantEigenvalue {
            index: 3,
            value: -0.5,
        };
        assert!(e.to_string().contains("-0.5"));
        let e = LrdError::InvalidParameter {
            name: "d",
            constraint: "0 < d < 0.5",
        };
        assert!(e.to_string().contains('d'));
    }
}
