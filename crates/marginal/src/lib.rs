//! # svbr-marginal — marginal distributions and the Gaussian transform
//!
//! The paper's unified model imposes an arbitrary marginal distribution on a
//! self-similar Gaussian background process through the inverse-CDF
//! transform `Y = h(X) = F_Y⁻¹(F_X(X))` (eq. 7). This crate provides:
//!
//! * [`special`] — the numerical substrate: `ln Γ`, regularized incomplete
//!   gamma (and its inverse), `erfc`, Gauss–Hermite quadrature. All
//!   hand-rolled; no external numerics dependencies.
//! * [`normal`] — standard normal CDF `Φ` and quantile `Φ⁻¹` (Acklam's
//!   rational approximation polished by a Halley step).
//! * [`gamma`], [`pareto`], [`lognormal`] — parametric marginals, used as
//!   transform targets and heavy-tailed test inputs.
//! * [`empirical`] — the paper's own choice: "inverting the empirical
//!   distribution directly", both from raw samples and from histograms.
//! * [`transform`] — the transform `h` itself, plus the *attenuation
//!   factor* `a = E[h(Z)Z]²/Var[h(Z)]` of Appendix A (eq. 30), computed by
//!   Gauss–Hermite quadrature. The paper measures `a` from simulations;
//!   Appendix A derives it analytically and we provide both routes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod empirical;
pub mod gamma;
pub mod lognormal;
pub mod normal;
pub mod pareto;
pub mod special;
pub mod transform;

pub use empirical::{BinnedEmpirical, EmpiricalCdf};
pub use gamma::Gamma;
pub use lognormal::Lognormal;
pub use normal::{norm_cdf, norm_quantile, Normal};
pub use pareto::Pareto;
pub use transform::{attenuation_factor, GaussianTransform, HermiteExpansion};

/// A continuous marginal distribution, object-safe so models can hold
/// `Box<dyn Marginal>`.
pub trait Marginal {
    /// Cumulative distribution function `F(x) = P(Y <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse CDF). `p` is clamped to a safe open interval
    /// internally; implementations must return finite values for
    /// `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Distribution mean.
    fn mean(&self) -> f64;

    /// Distribution variance (may be infinite, e.g. Pareto with α ≤ 2).
    fn variance(&self) -> f64;

    /// Transform a uniform variate into a sample (inverse-CDF sampling).
    fn sample_u(&self, u: f64) -> f64 {
        self.quantile(u)
    }
}

impl<M: Marginal + ?Sized> Marginal for &M {
    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        (**self).quantile(p)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn variance(&self) -> f64 {
        (**self).variance()
    }
}

impl Marginal for Box<dyn Marginal + Send + Sync> {
    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        (**self).quantile(p)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn variance(&self) -> f64 {
        (**self).variance()
    }
}

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MarginalError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
    },
    /// Not enough data to build an empirical distribution.
    TooFewSamples {
        /// Samples required.
        needed: usize,
        /// Samples supplied.
        got: usize,
    },
}

impl std::fmt::Display for MarginalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarginalError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: must satisfy {constraint}")
            }
            MarginalError::TooFewSamples { needed, got } => {
                write!(f, "too few samples: need {needed}, got {got}")
            }
        }
    }
}

impl std::error::Error for MarginalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = MarginalError::InvalidParameter {
            name: "alpha",
            constraint: "alpha > 0",
        };
        assert!(e.to_string().contains("alpha"));
        let e = MarginalError::TooFewSamples { needed: 2, got: 0 };
        assert!(e.to_string().contains('2'));
    }

    #[test]
    fn trait_objects_work() -> Result<(), Box<dyn std::error::Error>> {
        let d: Box<dyn Marginal + Send + Sync> = Box::new(Pareto::new(1.0, 2.5)?);
        assert!(d.cdf(2.0) > 0.0);
        assert!(d.quantile(0.5) >= 1.0);
        assert!(d.mean().is_finite());
        assert!(d.sample_u(0.5) == d.quantile(0.5));
        Ok(())
    }
}
