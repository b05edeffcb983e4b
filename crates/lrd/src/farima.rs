//! FARIMA (fractional ARIMA) generators.
//!
//! The paper's precursor work (Garrett & Willinger, SIGCOMM '94) modeled the
//! LRD of VBR video by transforming a FARIMA(0,d,0) process; the paper
//! itself notes that a full ARIMA(p,d,q) can represent SRD and LRD jointly
//! but that estimating `p`/`q` is impractical — which is what motivates the
//! composite-ACF approach. We provide both:
//!
//! * [`Farima0d0`] — exact (via Hosking's method on the exact FARIMA ACF) or
//!   fast approximate (truncated MA(∞) representation convolved by FFT)
//!   generation of FARIMA(0,d,0).
//! * [`Farima`] — FARIMA(p,d,q): the fractionally integrated core filtered
//!   through an ARMA(p,q) recursion.

use crate::acf::FarimaAcf;
use crate::arma::ArmaFilter;
use crate::fft::{next_power_of_two, RealFft};
use crate::gauss::Normal;
use crate::hosking::HoskingSampler;
use crate::LrdError;
use rand::Rng;

/// FARIMA(0,d,0): `(1−B)^d X_t = ε_t` with `−½ < d < ½`.
///
/// For `0 < d < ½` the process is long-range dependent with `H = d + ½`.
#[derive(Debug, Clone)]
pub struct Farima0d0 {
    d: f64,
}

impl Farima0d0 {
    /// Construct for `−0.5 < d < 0.5`.
    pub fn new(d: f64) -> Result<Self, LrdError> {
        FarimaAcf::new(d)?;
        Ok(Self { d })
    }

    /// Construct from a Hurst parameter (`d = H − ½`).
    pub fn from_hurst(h: f64) -> Result<Self, LrdError> {
        Ok(Self {
            d: FarimaAcf::from_hurst(h)?.d(),
        })
    }

    /// The fractional-differencing parameter.
    pub fn d(&self) -> f64 {
        self.d
    }

    /// The exact autocorrelation function.
    #[expect(
        clippy::expect_used,
        reason = "`d` was range-checked when this sampler was built"
    )]
    pub fn acf(&self) -> FarimaAcf {
        FarimaAcf::new(self.d).expect("validated at construction")
    }

    /// MA(∞) coefficients `ψ_j = Γ(j+d) / (Γ(d)·Γ(j+1))`, computed by the
    /// stable recursion `ψ_0 = 1`, `ψ_j = ψ_{j−1}·(j−1+d)/j`.
    pub fn ma_coefficients(&self, n: usize) -> Vec<f64> {
        let mut psi = Vec::with_capacity(n);
        let mut prev = 1.0f64;
        psi.push(prev);
        for j in 1..n {
            let jf = j as f64;
            prev = prev * (jf - 1.0 + self.d) / jf;
            psi.push(prev);
        }
        psi
    }

    /// Exact generation via Hosking's method — O(n²) but distributionally
    /// exact, normalized to unit variance.
    pub fn generate_exact<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, LrdError> {
        HoskingSampler::new(self.acf())?.generate(n, rng)
    }

    /// Fast approximate generation: truncated MA(∞) convolution by FFT,
    /// O((n+m) log(n+m)) with truncation length `m`. Output is rescaled to
    /// unit variance using `Σ ψ_j²` over the kept terms.
    ///
    /// The truncation bias decays like `m^{2d−1}`; `m = 10·n` keeps the
    /// realized lag-1 autocorrelation within ~1% for `d ≤ 0.45`.
    pub fn generate_truncated<R: Rng + ?Sized>(
        &self,
        n: usize,
        truncation: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, LrdError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        if truncation == 0 {
            return Err(LrdError::InvalidParameter {
                name: "truncation",
                constraint: "truncation >= 1",
            });
        }
        let m = truncation;
        let psi = self.ma_coefficients(m);
        let var: f64 = psi.iter().map(|p| p * p).sum();
        let scale = 1.0 / var.sqrt();
        // Convolve m+n−1 innovations with ψ by FFT.
        let total = n + m - 1;
        let fft_len = next_power_of_two(total + m);
        let mut noise = Vec::with_capacity(total);
        let mut g = Normal::new();
        noise.extend((0..total).map(|_| g.sample(rng)));
        let rfft = RealFft::new(fft_len);
        let (mut spec, mut kernel) = (Vec::new(), Vec::new());
        rfft.r2c(&noise, &mut spec);
        rfft.r2c(&psi, &mut kernel);
        for (a, b) in spec.iter_mut().zip(kernel.iter()) {
            *a = *a * *b;
        }
        // c2r is unnormalized (× fft_len).
        rfft.c2r(&mut spec, &mut noise, m - 1 + n);
        let scale = scale / fft_len as f64;
        // The first m−1 outputs are ramp-up (incomplete history); discard.
        Ok(noise[m - 1..].iter().map(|z| z * scale).collect())
    }
}

/// FARIMA(p,d,q): `Φ(B)·(1−B)^d·X_t = Θ(B)·ε_t`.
///
/// Generation is exact in the fractional core (Hosking) and exact in the
/// ARMA filtering, but the *joint* output is normalized empirically rather
/// than analytically — matching how the paper treats ARIMA(p,d,q) as a
/// modeling device whose second-order structure is then measured.
#[derive(Debug, Clone)]
pub struct Farima {
    core: Farima0d0,
    filter: ArmaFilter,
}

impl Farima {
    /// Construct from `d`, AR coefficients `φ` and MA coefficients `θ`.
    pub fn new(d: f64, ar: Vec<f64>, ma: Vec<f64>) -> Result<Self, LrdError> {
        Ok(Self {
            core: Farima0d0::new(d)?,
            filter: ArmaFilter::new(ar, ma)?,
        })
    }

    /// The fractional-differencing parameter.
    pub fn d(&self) -> f64 {
        self.core.d()
    }

    /// Generate `n` samples (exact fractional core, standardized output).
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Result<Vec<f64>, LrdError> {
        // Warm-up so the ARMA filter forgets its zero initial state.
        let warm = 50 * (self.filter.ar_order() + self.filter.ma_order() + 1);
        let core = self.core.generate_exact(n + warm, rng)?;
        let mut out = self.filter.apply(&core);
        out.drain(..warm);
        standardize(&mut out);
        Ok(out)
    }
}

/// In-place standardization to zero mean, unit variance.
pub fn standardize(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd > 0.0 {
        for x in xs.iter_mut() {
            *x = (*x - mean) / sd;
        }
    } else {
        for x in xs.iter_mut() {
            *x = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::Acf;
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
    fn ma_coefficients_match_gamma_ratio() -> Result<(), Box<dyn std::error::Error>> {
        let f = Farima0d0::new(0.3)?;
        let psi = f.ma_coefficients(6);
        assert_eq!(psi[0], 1.0);
        assert!((psi[1] - 0.3).abs() < 1e-12);
        assert!((psi[2] - 0.3 * 1.3 / 2.0).abs() < 1e-12);
        assert!((psi[3] - 0.3 * 1.3 * 2.3 / 6.0).abs() < 1e-12);
        // All positive and decreasing for 0 < d < 1 (after ψ1).
        for w in psi.windows(2).skip(1) {
            assert!(w[1] < w[0]);
            assert!(w[1] > 0.0);
        }
        Ok(())
    }

    #[test]
    fn ma_coefficients_negative_d() -> Result<(), Box<dyn std::error::Error>> {
        let f = Farima0d0::new(-0.3)?;
        let psi = f.ma_coefficients(4);
        assert!((psi[1] + 0.3).abs() < 1e-12);
        assert!(psi[2] != 0.0); // finite
        assert!(psi.iter().all(|p| p.is_finite()));
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn exact_generation_matches_acf() -> Result<(), Box<dyn std::error::Error>> {
        let f = Farima0d0::new(0.35)?;
        let mut rng = StdRng::seed_from_u64(1);
        let xs = f.generate_exact(20_000, &mut rng)?;
        let acf = f.acf();
        for k in 1..=5 {
            let est = sample_acf(&xs, k);
            assert!(
                (est - acf.r(k)).abs() < 0.06,
                "lag {k}: {est} vs {}",
                acf.r(k)
            );
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn truncated_generation_matches_acf() -> Result<(), Box<dyn std::error::Error>> {
        let f = Farima0d0::new(0.3)?;
        let mut rng = StdRng::seed_from_u64(2);
        let xs = f.generate_truncated(30_000, 4096, &mut rng)?;
        assert_eq!(xs.len(), 30_000);
        let var = sample_acf(&xs, 0);
        assert!((var - 1.0).abs() < 1e-12, "normalized");
        let acf = f.acf();
        for k in 1..=5 {
            let est = sample_acf(&xs, k);
            assert!(
                (est - acf.r(k)).abs() < 0.06,
                "lag {k}: {est} vs {}",
                acf.r(k)
            );
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn truncated_unit_variance_scaling() -> Result<(), Box<dyn std::error::Error>> {
        let f = Farima0d0::new(0.4)?;
        let mut rng = StdRng::seed_from_u64(3);
        let xs = f.generate_truncated(50_000, 2048, &mut rng)?;
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!((var - 1.0).abs() < 0.15, "var {var}");
        Ok(())
    }

    #[test]
    fn truncated_edge_cases() -> Result<(), Box<dyn std::error::Error>> {
        let f = Farima0d0::new(0.2)?;
        let mut rng = StdRng::seed_from_u64(4);
        assert!(f.generate_truncated(10, 0, &mut rng).is_err());
        assert!(f.generate_truncated(0, 16, &mut rng)?.is_empty());
        Ok(())
    }

    #[test]
    fn from_hurst_roundtrip() -> Result<(), Box<dyn std::error::Error>> {
        let f = Farima0d0::from_hurst(0.9)?;
        assert!((f.d() - 0.4).abs() < 1e-12);
        assert!(Farima0d0::from_hurst(1.2).is_err());
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn farima_pdq_generates_and_is_standardized() -> Result<(), Box<dyn std::error::Error>> {
        let f = Farima::new(0.3, vec![0.5], vec![0.2])?;
        assert!((f.d() - 0.3).abs() < 1e-15);
        let mut rng = StdRng::seed_from_u64(5);
        let xs = f.generate(5_000, &mut rng)?;
        assert_eq!(xs.len(), 5_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 1e-9, "standardized mean {mean}");
        let var = sample_acf(&xs, 0);
        assert!((var - 1.0).abs() < 1e-9);
        // AR(1) filtering must raise lag-1 correlation above the pure d=0.3 core.
        let core_r1 = FarimaAcf::new(0.3)?.r(1);
        assert!(sample_acf(&xs, 1) > core_r1);
        Ok(())
    }

    #[test]
    fn farima_rejects_nonstationary_ar() {
        assert!(Farima::new(0.2, vec![1.5], vec![]).is_err());
    }

    #[test]
    fn standardize_handles_degenerate() {
        let mut xs = vec![3.0, 3.0, 3.0];
        standardize(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 0.0]);
        let mut empty: Vec<f64> = vec![];
        standardize(&mut empty);
        assert!(empty.is_empty());
    }
}
