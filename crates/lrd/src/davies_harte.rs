//! Davies–Harte circulant-embedding generator.
//!
//! An *exact* O(n log n) sampler for stationary Gaussian processes whose
//! autocovariance sequence embeds into a nonnegative-definite circulant
//! matrix — which is provably the case for fractional Gaussian noise at any
//! Hurst parameter, and empirically the case for the paper's composite
//! SRD+LRD model.
//!
//! The construction: for `n` samples, build the length-`m` (power of two,
//! `m ≥ 2(n−1)`) circulant first row
//!
//! ```text
//! c = [r(0), r(1), …, r(m/2), r(m/2−1), …, r(1)]
//! ```
//!
//! take its FFT to get eigenvalues `λ_j ≥ 0`, draw independent complex
//! Gaussians `Z_j` with the required Hermitian symmetry, scale by
//! `sqrt(λ_j/m)` and inverse-transform; the real part of the first `n`
//! outputs is an exact sample path.
//!
//! The paper itself uses Hosking's O(n²) method; this generator is the
//! standard fast alternative and is benchmarked against it in
//! `svbr-bench` (ablation: exact-slow vs exact-fast).

use crate::acf::{Acf, TabulatedAcf};
use crate::fft::{fft, ifft, next_power_of_two, Complex, FftPlan};
use crate::gauss::Normal;
use crate::LrdError;
use rand::Rng;
use std::sync::Arc;

/// A prepared Davies–Harte sampler: the eigenvalue square roots are
/// precomputed once and each trace costs one FFT.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use svbr_lrd::acf::FgnAcf;
/// use svbr_lrd::DaviesHarte;
///
/// let dh = DaviesHarte::new(FgnAcf::new(0.8).unwrap(), 1024).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = dh.generate(&mut rng);
/// let b = dh.generate(&mut rng); // same sampler, fresh path
/// assert_eq!(a.len(), 1024);
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct DaviesHarte {
    /// `sqrt(λ_j / m)` for each circulant eigenvalue.
    scale: Vec<f64>,
    /// Number of usable samples per generated path.
    n: usize,
    /// Shared FFT plan for the length-`m` per-path transform (bitwise
    /// identical to the unplanned transform; see [`FftPlan`]).
    plan: Arc<FftPlan>,
}

impl DaviesHarte {
    /// Prepare a sampler for `n` samples of a zero-mean unit-variance
    /// process with the given ACF.
    ///
    /// Returns [`LrdError::NegativeCirculantEigenvalue`] if the embedding is
    /// not nonnegative definite (tolerating tiny negative rounding noise,
    /// which is clamped to zero).
    pub fn new<A: Acf>(acf: A, n: usize) -> Result<Self, LrdError> {
        Self::build(acf, n, 0.0)
    }

    /// Like [`Self::new`], but tolerate an *almost* nonnegative-definite
    /// embedding: eigenvalues are clamped to zero as long as the total
    /// negative mass is at most `rel_tol` times the positive mass.
    ///
    /// The paper's composite SRD+LRD model is fitted piecewise and its
    /// embedding carries a few eigenvalues around −1e−4; clamping them
    /// perturbs the realized ACF by O(rel_tol), which is far below the
    /// sampling error of any experiment in the paper. (This is the standard
    /// "approximate circulant embedding" remedy.)
    pub fn new_approx<A: Acf>(acf: A, n: usize, rel_tol: f64) -> Result<Self, LrdError> {
        Self::build(acf, n, rel_tol)
    }

    fn build<A: Acf>(acf: A, n: usize, rel_tol: f64) -> Result<Self, LrdError> {
        // Times the one-off FFT *setup* cost (eigenvalue computation), as
        // opposed to the per-path cost timed by `davies_harte.generate`.
        let mut span = svbr_obsv::span("davies_harte.setup");
        span.field("n", n as f64);
        if n == 0 {
            return Err(LrdError::InvalidParameter {
                name: "n",
                constraint: "n >= 1",
            });
        }
        if n == 1 {
            return Ok(Self {
                scale: vec![1.0],
                n,
                plan: crate::cache::fft_plan(1),
            });
        }
        let m = next_power_of_two(2 * (n - 1)).max(2);
        let half = m / 2;
        let mut row = vec![Complex::default(); m];
        for (j, item) in row.iter_mut().enumerate().take(half + 1) {
            *item = Complex::real(acf.r(j));
        }
        for (j, item) in row.iter_mut().enumerate().skip(half + 1) {
            *item = Complex::real(acf.r(m - j));
        }
        fft(&mut row);
        let pos_mass: f64 = row.iter().map(|z| z.re.max(0.0)).sum();
        let neg_mass: f64 = row.iter().map(|z| (-z.re).max(0.0)).sum();
        // Always forgive rounding noise; beyond that, honor rel_tol.
        let budget = pos_mass * rel_tol.max(1e-12);
        if neg_mass > budget {
            #[expect(
                clippy::expect_used,
                reason = "the eigenvalue row has 2n-2 >= 2 entries by construction"
            )]
            let (j, z) = row
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.re.total_cmp(&b.1.re))
                .expect("row is non-empty");
            return Err(LrdError::NegativeCirculantEigenvalue {
                index: j,
                value: z.re,
            });
        }
        let scale = row
            .iter()
            .map(|z| (z.re.max(0.0) / m as f64).sqrt())
            .collect();
        // The per-path transform reuses one shared plan for length m; the
        // planned butterflies are bitwise-identical to the unplanned ones,
        // so committed fixed-seed traces are unchanged.
        let plan = crate::cache::fft_plan(m);
        Ok(Self { scale, n, plan })
    }

    /// Number of samples each generated path contains.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (n ≥ 1 is enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Generate one exact sample path of length `n`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.generate_into(rng, &mut out, &mut scratch);
        out
    }

    /// Generate one exact sample path of length `n` into `out`, reusing
    /// `scratch` for the length-`m` spectrum.
    ///
    /// Identical output (same values, same RNG consumption) to
    /// [`Self::generate`]; once both buffers have been warmed to capacity —
    /// `out` to `n`, `scratch` to the embedding length — repeated calls
    /// allocate nothing, which is what the pipeline arenas thread through
    /// replication fan-outs and the serve chunk generator.
    pub fn generate_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut Vec<f64>,
        scratch: &mut Vec<Complex>,
    ) {
        let mut span = svbr_obsv::span("davies_harte.generate");
        span.field("n", self.n as f64);
        svbr_obsv::counter("lrd.davies_harte.samples").add(self.n as u64);
        if svbr_obsv::enabled() {
            svbr_obsv::counter_with("lrd.generator.samples", &[("backend", "davies_harte")])
                .add(self.n as u64);
            svbr_obsv::record_tick(1);
        }
        out.clear();
        if self.n == 1 {
            let mut g = Normal::new();
            out.push(g.sample(rng));
            return;
        }
        let m = self.scale.len();
        let half = m / 2;
        let mut g = Normal::new();
        scratch.clear();
        scratch.resize(m, Complex::default());
        let spec = &mut scratch[..];
        // Hermitian-symmetric Gaussian spectrum:
        //  - j = 0 and j = m/2: real N(0,1)
        //  - 0 < j < m/2: (N + iN)/√2, mirrored conjugate at m−j.
        spec[0] = Complex::real(self.scale[0] * g.sample(rng));
        spec[half] = Complex::real(self.scale[half] * g.sample(rng));
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        for j in 1..half {
            let a = g.sample(rng) * inv_sqrt2;
            let b = g.sample(rng) * inv_sqrt2;
            spec[j] = Complex::new(self.scale[j] * a, self.scale[j] * b);
            // svbr-analyze: allow(panic-surface) 1 <= j < half = m/2, so half < m-j <= m-1 < m
            spec[m - j] = Complex::new(self.scale[m - j] * a, -self.scale[m - j] * b);
        }
        // One forward FFT of the Hermitian spectrum yields a real path; the
        // shared plan is bitwise-identical to the unplanned transform.
        self.plan.fft(spec);
        out.extend(spec[..self.n].iter().map(|z| z.re));
    }

    /// Generate `paths` independent sample paths.
    pub fn generate_many<R: Rng + ?Sized>(&self, paths: usize, rng: &mut R) -> Vec<Vec<f64>> {
        (0..paths).map(|_| self.generate(rng)).collect()
    }
}

/// Project an ACF onto the positive-definite cone over its first `n` lags.
///
/// The paper's composite SRD+LRD autocorrelation (eq. 13) is fitted
/// *piecewise* and turns out not to be positive definite: the
/// Durbin–Levinson recursion hits a partial correlation ≥ 1 right at the
/// knee lag, after which exact sampling is impossible. This routine applies
/// the standard circulant spectral fix: embed the first `n` lags in a
/// circulant of length ≥ 2(n−1), clamp the (few, tiny) negative eigenvalues
/// to zero, transform back, and renormalize to a correlation sequence.
///
/// The returned [`TabulatedAcf`] is the nearest-in-spectrum valid ACF; for
/// the paper's model the pointwise correction is O(10⁻³), far below every
/// estimation error in the reproduction, and Hosking's method runs on it
/// without clamping. Any principal Toeplitz minor of a PSD circulant is
/// PSD, so the projected table is valid for *any* trace length ≤ `n`.
pub fn pd_project<A: Acf>(acf: A, n: usize) -> Result<TabulatedAcf, LrdError> {
    if n == 0 {
        return Err(LrdError::InvalidParameter {
            name: "n",
            constraint: "n >= 1",
        });
    }
    if n == 1 {
        return TabulatedAcf::new(vec![1.0]);
    }
    // Extra margin keeps boundary effects of the clamping away from the
    // lags the caller will actually use.
    let m = next_power_of_two(4 * (n - 1)).max(2);
    let half = m / 2;
    let mut row = vec![Complex::default(); m];
    for (j, item) in row.iter_mut().enumerate().take(half + 1) {
        *item = Complex::real(acf.r(j));
    }
    for (j, item) in row.iter_mut().enumerate().skip(half + 1) {
        *item = Complex::real(acf.r(m - j));
    }
    fft(&mut row);
    // Flooring at a small *positive* value (rather than zero) keeps the
    // circulant strictly PD, so every Toeplitz minor is strictly PD and the
    // Durbin–Levinson recursion stays away from |κ| = 1 at deep lags.
    let pos_mass: f64 = row.iter().map(|z| z.re.max(0.0)).sum();
    let floor = 1e-6 * pos_mass / m as f64;
    for z in row.iter_mut() {
        *z = Complex::real(z.re.max(floor));
    }
    ifft(&mut row);
    let norm = row[0].re;
    if norm <= 0.0 {
        return Err(LrdError::InvalidParameter {
            name: "acf",
            constraint: "projection produced a degenerate (zero) variance",
        });
    }
    let values: Vec<f64> = row[..n]
        .iter()
        .map(|z| (z.re / norm).clamp(-1.0, 1.0))
        .collect();
    let mut values = values;
    values[0] = 1.0;
    TabulatedAcf::new(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::{CompositeAcf, ExponentialAcf, FgnAcf};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_acov(xs: &[f64], k: usize) -> f64 {
        let n = xs.len() as f64;
        xs.iter()
            .zip(xs.iter().skip(k))
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / n
    }

    #[test]
    fn fgn_embedding_is_valid_across_hurst_range() -> Result<(), Box<dyn std::error::Error>> {
        for h in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let acf = FgnAcf::new(h)?;
            assert!(DaviesHarte::new(acf, 1024).is_ok(), "H = {h}");
        }
        Ok(())
    }

    #[test]
    fn white_noise_path_statistics() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.5)?;
        let dh = DaviesHarte::new(acf, 4096)?;
        let mut rng = StdRng::seed_from_u64(1);
        let xs = dh.generate(&mut rng);
        assert_eq!(xs.len(), 4096);
        let var = sample_acov(&xs, 0);
        assert!((var - 1.0).abs() < 0.08, "var {var}");
        assert!(sample_acov(&xs, 1).abs() < 0.05);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fgn_acf_reproduced() -> Result<(), Box<dyn std::error::Error>> {
        let h = 0.85;
        let acf = FgnAcf::new(h)?;
        let dh = DaviesHarte::new(acf, 8192)?;
        let mut rng = StdRng::seed_from_u64(2);
        // Average the sample ACF over several paths to tame LRD noise.
        let mut acc = [0.0; 21];
        let paths = 20;
        for _ in 0..paths {
            let xs = dh.generate(&mut rng);
            let var = sample_acov(&xs, 0);
            for (k, a) in acc.iter_mut().enumerate() {
                *a += sample_acov(&xs, k) / var / paths as f64;
            }
        }
        for (k, a) in acc.iter().enumerate().take(21).skip(1) {
            assert!(
                (a - acf.r(k)).abs() < 0.05,
                "lag {k}: est {} vs {}",
                acc[k],
                acf.r(k)
            );
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn composite_model_needs_approximate_embedding() -> Result<(), Box<dyn std::error::Error>> {
        // The paper's piecewise-fitted ACF is *not* exactly positive
        // definite: the strict construction must refuse it…
        let acf = CompositeAcf::paper_fit();
        let strict = DaviesHarte::new(&acf, 4096);
        assert!(matches!(
            strict,
            Err(LrdError::NegativeCirculantEigenvalue { .. })
        ));
        // …while the approximate construction (tiny negative mass clamped)
        // succeeds and produces a path whose ACF still matches the target.
        let dh = DaviesHarte::new_approx(&acf, 2048, 1e-2)?;
        let mut rng = StdRng::seed_from_u64(3);
        // LRD sample-ACF noise is large (Bartlett variance is dominated by
        // the non-summable Σr²), so average covariances over many paths.
        let mut acc = vec![0.0; 61];
        let paths = 200;
        for _ in 0..paths {
            let xs = dh.generate(&mut rng);
            for (k, a) in acc.iter_mut().enumerate() {
                *a += sample_acov(&xs, k) / paths as f64;
            }
        }
        for k in [1usize, 10, 30, 60] {
            let est = acc[k] / acc[0];
            assert!(
                (est - acf.r(k)).abs() < 0.1,
                "lag {k}: est {est} vs {}",
                acf.r(k)
            );
        }
        Ok(())
    }

    #[test]
    fn exponential_acf_embeds() -> Result<(), Box<dyn std::error::Error>> {
        let acf = ExponentialAcf::new(0.005_65)?;
        assert!(DaviesHarte::new(acf, 2048).is_ok());
        Ok(())
    }

    #[test]
    fn single_sample_path() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        let dh = DaviesHarte::new(acf, 1)?;
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(dh.generate(&mut rng).len(), 1);
        assert_eq!(dh.len(), 1);
        assert!(!dh.is_empty());
        Ok(())
    }

    #[test]
    fn zero_samples_rejected() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        assert!(DaviesHarte::new(acf, 0).is_err());
        Ok(())
    }

    #[test]
    fn deterministic_given_seed() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.75)?;
        let dh = DaviesHarte::new(acf, 512)?;
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(dh.generate(&mut r1), dh.generate(&mut r2));
        Ok(())
    }

    #[test]
    fn generate_into_is_bit_identical_to_generate() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.82)?;
        let dh = DaviesHarte::new(acf, 300)?;
        let mut r1 = StdRng::seed_from_u64(21);
        let mut r2 = StdRng::seed_from_u64(21);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        // Two rounds through the same buffers: same bits as the allocating
        // path each time, and the second round reuses warmed capacity.
        for _ in 0..2 {
            dh.generate_into(&mut r1, &mut out, &mut scratch);
            let fresh = dh.generate(&mut r2);
            assert_eq!(out, fresh);
            let (out_cap, scratch_cap) = (out.capacity(), scratch.capacity());
            assert!(out_cap >= 300 && scratch_cap >= 512);
        }
        Ok(())
    }

    #[test]
    fn generate_many_counts() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.6)?;
        let dh = DaviesHarte::new(acf, 64)?;
        let mut rng = StdRng::seed_from_u64(6);
        let paths = dh.generate_many(5, &mut rng);
        assert_eq!(paths.len(), 5);
        assert!(paths.iter().all(|p| p.len() == 64));
        Ok(())
    }

    #[test]
    fn pd_projection_repairs_composite_acf() -> Result<(), Box<dyn std::error::Error>> {
        let acf = CompositeAcf::paper_fit();
        let projected = pd_project(&acf, 1024)?;
        // The correction is tiny…
        for k in 0..1024 {
            assert!(
                (projected.r(k) - acf.r(k)).abs() < 5e-3,
                "lag {k}: projected {} vs raw {}",
                projected.r(k),
                acf.r(k)
            );
        }
        // …and the result is strictly usable by the exact recursion.
        let mut s = crate::hosking::HoskingSampler::new(&projected)?;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1024 {
            let st = s.step(&mut rng)?;
            assert!(st.cond_var > 0.0);
            assert!(st.value.is_finite());
        }
        Ok(())
    }

    #[test]
    fn pd_projection_is_identity_for_valid_acf() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        let projected = pd_project(acf, 256)?;
        for k in 0..256 {
            assert!(
                (projected.r(k) - acf.r(k)).abs() < 1e-10,
                "fGn is already PD; projection must not move it (lag {k})"
            );
        }
        Ok(())
    }

    #[test]
    fn pd_projection_edge_cases() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.7)?;
        assert!(pd_project(acf, 0).is_err());
        let one = pd_project(acf, 1)?;
        assert_eq!(one.r(0), 1.0);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn agreement_with_hosking_in_distribution() -> Result<(), Box<dyn std::error::Error>> {
        // Compare lag-1 sample autocovariance between the two exact
        // generators over many short paths: both are exact so the estimates
        // must agree within Monte-Carlo error.
        let h = 0.8;
        let acf = FgnAcf::new(h)?;
        let n = 128;
        let paths = 200;
        let dh = DaviesHarte::new(acf, n)?;
        let mut rng = StdRng::seed_from_u64(7);
        let mut dh_r1 = 0.0;
        for _ in 0..paths {
            let xs = dh.generate(&mut rng);
            dh_r1 += sample_acov(&xs, 1) / paths as f64;
        }
        let mut ho_r1 = 0.0;
        for _ in 0..paths {
            let xs = crate::hosking::generate(acf, n, &mut rng)?;
            ho_r1 += sample_acov(&xs, 1) / paths as f64;
        }
        assert!(
            (dh_r1 - ho_r1).abs() < 0.05,
            "Davies–Harte {dh_r1} vs Hosking {ho_r1}"
        );
        assert!((dh_r1 - acf.r(1)).abs() < 0.05);
        Ok(())
    }
}
