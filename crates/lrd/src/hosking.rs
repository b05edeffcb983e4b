//! Hosking's exact method for sampling a stationary Gaussian process with an
//! arbitrary autocorrelation function (§2 of the paper).
//!
//! The Durbin–Levinson recursion maintains the partial linear-regression
//! coefficients `φ_{k,j}` and the prediction-error variance `v_k` so that
//!
//! ```text
//! m_k = Σ_{j=1..k} φ_{k,j} · x_{k-j}          (conditional mean, eq. 1)
//! v_k = v_{k-1} · (1 − φ_{k,k}²),  v_0 = 1    (conditional variance, eq. 2)
//! ```
//!
//! and each sample is drawn as `x_k ~ N(m_k, v_k)`. (The paper's eq. 3 has a
//! typo — the sum must run over `r(k−j)`, not `r(k)`; we implement the
//! standard recursion, which is what the authors' other equations assume.)
//!
//! Beyond plain generation, the sampler exposes per-step conditional
//! moments, innovations, and `Σ_j φ_{k,j}`: these are exactly the quantities
//! the importance-sampling likelihood ratio of Appendix B (eqs. 42–48)
//! needs, so the `svbr-is` crate drives this type directly.
//!
//! Cost is O(k) per step (O(n²) per trace) and O(n) memory. For long traces
//! use the O(n log n) exact [`crate::davies_harte::DaviesHarte`] generator.
//! A table that is not positive definite is an error here
//! ([`LrdError::NotPositiveDefinite`]); repair it up front with
//! [`crate::davies_harte::pd_project`] or [`regularize_to_pd`].

use crate::acf::{Acf, TabulatedAcf};
use crate::gauss::Normal;
use crate::kernels;
use crate::LrdError;
use rand::Rng;
use svbr_domain::{Correlation, SvbrError};

/// Conditional moments of the next sample given the history so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CondMoments {
    /// Conditional mean `m_k = Σ φ_{k,j} x_{k-j}`.
    pub mean: f64,
    /// Conditional variance `v_k`.
    pub var: f64,
    /// `Σ_j φ_{k,j}` — the regression weights' sum, used by the
    /// importance-sampling likelihood ratio.
    pub phi_sum: f64,
}

/// Everything produced by one generation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoskingStep {
    /// The generated value `x_k`.
    pub value: f64,
    /// Conditional mean `m_k` given the history.
    pub cond_mean: f64,
    /// Conditional variance `v_k`.
    pub cond_var: f64,
    /// The innovation `x_k − m_k`.
    pub innovation: f64,
    /// `Σ_j φ_{k,j}`.
    pub phi_sum: f64,
}

/// Incremental exact sampler for a zero-mean, unit-variance stationary
/// Gaussian process with autocorrelation `r(k)`.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use svbr_lrd::acf::FgnAcf;
/// use svbr_lrd::hosking::HoskingSampler;
///
/// let acf = FgnAcf::new(0.9).unwrap();
/// let mut rng = StdRng::seed_from_u64(7);
/// let path = HoskingSampler::new(&acf)
///     .unwrap()
///     .generate(256, &mut rng)
///     .unwrap();
/// assert_eq!(path.len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct HoskingSampler<A> {
    acf: A,
    /// Cached `r(0..)` values, extended lazily.
    r: Vec<f64>,
    /// `φ_{k,j}` for the most recently completed step, `phi[j-1] = φ_{k,j}`.
    phi: Vec<f64>,
    /// Scratch buffer holding the previous step's coefficients.
    phi_prev: Vec<f64>,
    /// Generated history `x_0 … x_{k-1}`.
    history: Vec<f64>,
    /// Current prediction-error variance `v_{k-1}` (v for the *next* sample
    /// is computed during [`Self::next_moments`]).
    v: f64,
    /// Moments already computed for the next step but not yet consumed.
    pending: Option<CondMoments>,
    normal: Normal,
}

impl<A: Acf> HoskingSampler<A> {
    /// Create a sampler that errors on non-positive-definite ACFs.
    ///
    /// Validates the ACF at the boundary: `r(0)` must equal 1 (the sampler
    /// assumes a unit-variance process) and `r(1)` must be a correlation
    /// in `[-1, 1]`. Deeper positive-definiteness violations surface from
    /// the recursion itself as [`LrdError::NotPositiveDefinite`].
    pub fn new(acf: A) -> Result<Self, SvbrError> {
        let r0 = acf.r(0);
        if !r0.is_finite() {
            return Err(SvbrError::NotFinite { name: "r(0)" });
        }
        if (r0 - 1.0).abs() > 1e-9 {
            return Err(SvbrError::OutOfRange {
                name: "r(0)",
                constraint: "r(0) == 1 (unit-variance process)",
            });
        }
        Correlation::new_clamped(acf.r(1), 1e-9)?;
        Ok(Self {
            acf,
            r: vec![1.0],
            phi: Vec::new(),
            phi_prev: Vec::new(),
            history: Vec::new(),
            v: 1.0,
            pending: None,
            normal: Normal::new(),
        })
    }

    /// Rebuild a sampler from previously captured recursion state, so a
    /// checkpointed run can continue exactly where it stopped.
    ///
    /// `history`, `phi` and `v` must come from a sampler over the *same*
    /// ACF, captured at a step boundary (after a [`Self::push`], i.e. with
    /// no pending moments). The Durbin–Levinson invariants are validated:
    /// `phi.len() == history.len().saturating_sub(1)`, `v` is a variance
    /// in `(0, 1]`, and every stored value is finite.
    ///
    /// The internal Gaussian cache starts empty; a caller that needs a
    /// bit-identical *random* stream across a resume drives the sampler
    /// through [`Self::next_moments`]/[`Self::push`] with its own generator
    /// and normal sampler (serve's chunk generator does).
    pub fn resume(acf: A, history: Vec<f64>, phi: Vec<f64>, v: f64) -> Result<Self, SvbrError> {
        let mut s = Self::new(acf)?;
        if !v.is_finite() || v <= 0.0 || v > 1.0 + 1e-12 {
            return Err(SvbrError::OutOfRange {
                name: "v",
                constraint: "0 < v <= 1 (innovation variance)",
            });
        }
        if history.iter().any(|x| !x.is_finite()) {
            return Err(SvbrError::NotFinite { name: "history" });
        }
        if phi.iter().any(|x| !x.is_finite()) {
            return Err(SvbrError::NotFinite { name: "phi" });
        }
        if phi.len() != history.len().saturating_sub(1) {
            return Err(SvbrError::OutOfRange {
                name: "phi",
                constraint: "phi.len() == history.len() - 1",
            });
        }
        s.history = history;
        s.phi = phi;
        s.v = v;
        Ok(s)
    }

    /// The current regression coefficients `φ_{k,1..k}` (`phi()[j-1]` is
    /// `φ_{k,j}`). Together with [`Self::innovation_variance`] and
    /// [`Self::history`] this is the full recursion state a checkpoint
    /// needs; feed it back through [`Self::resume`].
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// The current prediction-error variance `v_k`.
    pub fn innovation_variance(&self) -> f64 {
        self.v
    }

    /// Number of samples generated (or pushed) so far.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The generated history so far.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    fn r_at(&mut self, k: usize) -> f64 {
        while self.r.len() <= k {
            let v = self.acf.r(self.r.len());
            self.r.push(v);
        }
        self.r[k]
    }

    /// Advance the Durbin–Levinson recursion for the next step and return
    /// the conditional moments of `X_k | x_{k-1}, …, x_0`.
    ///
    /// Idempotent: calling twice without an intervening [`Self::push`]
    /// returns the same moments.
    pub fn next_moments(&mut self) -> Result<CondMoments, LrdError> {
        if let Some(m) = self.pending {
            return Ok(m);
        }
        let k = self.history.len();
        let m = if k == 0 {
            CondMoments {
                mean: 0.0,
                var: 1.0,
                phi_sum: 0.0,
            }
        } else {
            // Numerator: r(k) − Σ_{j=1}^{k−1} φ_{k−1,j}·r(k−j), as a
            // lane-batched reversed dot over the ACF cache. `r_at(k)`
            // extends the cache through index k first, so the slice
            // `r[1..k]` (length k−1 == phi.len()) is fully populated.
            let rk = self.r_at(k);
            let num = rk - kernels::dot_rev(&self.phi, &self.r[1..k]);
            let kappa = num / self.v;
            if kappa.abs() >= 1.0 {
                return Err(LrdError::NotPositiveDefinite { lag: k });
            }
            // φ_{k,j} = φ_{k−1,j} − κ·φ_{k−1,k−j} — elementwise, so the
            // kernel is bit-identical to the textbook loop.
            self.phi_prev.clear();
            self.phi_prev.extend_from_slice(&self.phi);
            kernels::reflect_update(&mut self.phi, &self.phi_prev, kappa);
            self.phi.push(kappa);
            let prev_v = self.v;
            self.v *= 1.0 - kappa * kappa;
            // Kernel invariant: |φ_kk| < 1 here, so the innovation variance
            // is non-negative and non-increasing.
            debug_assert!(
                self.v >= 0.0 && self.v <= prev_v,
                "innovation variance must be non-increasing and >= 0: {prev_v} -> {}",
                self.v
            );
            // The moments regress the current coefficient vector on the
            // most recent phi.len() values — the same lane-batched kernel
            // every other consumer uses, so prepared/streaming/resumed
            // paths agree bit-for-bit.
            debug_assert!(self.phi.len() <= self.history.len());
            CondMoments {
                mean: kernels::dot_rev(&self.phi, &self.history),
                var: self.v,
                phi_sum: kernels::sum(&self.phi),
            }
        };
        self.pending = Some(m);
        Ok(m)
    }

    /// Append an externally chosen value for the step whose moments were
    /// returned by [`Self::next_moments`]. Used by the importance-sampling
    /// driver, which draws from a *twisted* conditional distribution.
    ///
    /// # Panics
    /// Panics if called without a preceding `next_moments`.
    pub fn push(&mut self, value: f64) {
        assert!(
            self.pending.take().is_some(),
            "push() requires a preceding next_moments()"
        );
        self.history.push(value);
    }

    /// Generate one sample `x_k ~ N(m_k, v_k)`.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<HoskingStep, LrdError> {
        let m = self.next_moments()?;
        let value = self.normal.sample_with(rng, m.mean, m.var);
        self.push(value);
        Ok(HoskingStep {
            value,
            cond_mean: m.mean,
            cond_var: m.var,
            innovation: value - m.mean,
            phi_sum: m.phi_sum,
        })
    }

    /// Generate `n` samples, consuming and returning the full history.
    ///
    /// With a trace sink installed this emits a `hosking.generate` span
    /// (with `n` and `samples_per_sec`) plus one `hosking.progress` point
    /// per [`PROGRESS_CHUNK`] samples carrying the Durbin–Levinson step
    /// index, the current innovation variance `v_k`, and a running
    /// aggregated-variance Hurst estimate (see [`RunningHurst`]). Two
    /// convergence watermarks record when the run settled:
    /// `hosking.hurst_drift` (per-chunk drift of the running H below
    /// [`HURST_DRIFT_TARGET`]) and `hosking.vtrend` (relative per-chunk
    /// decrease of `v_k` below [`VTREND_TARGET`]). The instrumentation
    /// never touches `rng`, so fixed-seed output is identical with tracing
    /// on or off.
    pub fn generate<R: Rng + ?Sized>(
        mut self,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, LrdError> {
        let mut span = svbr_obsv::span("hosking.generate");
        // Streaming telemetry exists only when a sink is installed: the
        // estimator update is O(1) per sample but still not free.
        let mut telemetry = svbr_obsv::enabled().then(|| {
            (
                RunningHurst::new(HURST_SCALE),
                svbr_obsv::Watermark::below("hosking.hurst_drift", HURST_DRIFT_TARGET),
                svbr_obsv::Watermark::below("hosking.vtrend", VTREND_TARGET),
                f64::NAN, // previous chunk's running H
                f64::NAN, // previous chunk's innovation variance
            )
        });
        while self.history.len() < n {
            let step = self.step(rng)?;
            let Some((hurst, hurst_wm, vtrend_wm, prev_h, prev_v)) = telemetry.as_mut() else {
                continue;
            };
            hurst.push(step.value);
            let k = self.history.len();
            if !k.is_multiple_of(PROGRESS_CHUNK) {
                continue;
            }
            // amortized: telemetry path only, once per PROGRESS_CHUNK samples, capacity <= 4 fields
            let mut fields = vec![("k", k as f64), ("innovation_variance", self.v)];
            if let Some(h) = hurst.estimate() {
                fields.push(("running_hurst", h));
                svbr_obsv::gauge("lrd.hosking.running_hurst").set(h);
                if prev_h.is_finite() {
                    hurst_wm.observe(k as u64, (h - *prev_h).abs());
                }
                *prev_h = h;
            }
            if prev_v.is_finite() && *prev_v > 0.0 {
                vtrend_wm.observe(k as u64, (*prev_v - self.v) / *prev_v);
            }
            *prev_v = self.v;
            svbr_obsv::point("hosking.progress", &fields);
        }
        self.history.truncate(n);
        svbr_obsv::counter_with("lrd.generator.samples", &[("backend", "hosking")]).add(n as u64);
        if svbr_obsv::enabled() {
            svbr_obsv::record_tick(1);
        }
        svbr_obsv::gauge("lrd.hosking.innovation_variance").set(self.v);
        let elapsed = span.elapsed_secs();
        if span.is_live() && elapsed > 0.0 {
            let rate = n as f64 / elapsed;
            span.field("n", n as f64);
            span.field("samples_per_sec", rate);
            span.field("innovation_variance", self.v);
        }
        Ok(self.history)
    }
}

/// Interval (in samples) between `hosking.progress` trace points emitted by
/// [`HoskingSampler::generate`].
pub const PROGRESS_CHUNK: usize = 4096;

/// Aggregation scale of the running Hurst estimate (samples per block).
pub const HURST_SCALE: usize = 64;

/// `hosking.hurst_drift` watermark: the running Hurst estimate is
/// considered converged once its per-chunk drift falls below this.
pub const HURST_DRIFT_TARGET: f64 = 0.01;

/// `hosking.vtrend` watermark: the Durbin–Levinson innovation variance is
/// considered flat once its relative per-chunk decrease falls below this.
pub const VTREND_TARGET: f64 = 1e-4;

/// Streaming aggregated-variance Hurst estimator.
///
/// Maintains sample variance at two scales — individual samples and
/// averages over blocks of `m` — in O(1) time and memory per sample. For
/// fractional Gaussian noise the block means scale as
/// `Var(X̄_m) = m^{2H−2}·Var(X)`, so
///
/// ```text
/// Ĥ = 1 + log(Var_m / Var_1) / (2·log m)
/// ```
///
/// This is the aggregated-variance method of §3.2 restated as an online
/// computation: no buffering, usable from inside the generation loop.
#[derive(Debug, Clone)]
pub struct RunningHurst {
    m: usize,
    n: u64,
    sum: f64,
    sum_sq: f64,
    block_fill: usize,
    block_sum: f64,
    blocks: u64,
    block_mean_sum: f64,
    block_mean_sum_sq: f64,
}

impl RunningHurst {
    /// Estimator aggregating over blocks of `m` samples (`m >= 2`).
    pub fn new(m: usize) -> Self {
        Self {
            m: m.max(2),
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            block_fill: 0,
            block_sum: 0.0,
            blocks: 0,
            block_mean_sum: 0.0,
            block_mean_sum_sq: 0.0,
        }
    }

    /// Feed one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.block_sum += x;
        self.block_fill += 1;
        if self.block_fill == self.m {
            let mean = self.block_sum / self.m as f64;
            self.blocks += 1;
            self.block_mean_sum += mean;
            self.block_mean_sum_sq += mean * mean;
            self.block_fill = 0;
            self.block_sum = 0.0;
        }
    }

    /// Samples fed so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The current estimate, or `None` until at least two full blocks have
    /// been seen or while either variance is degenerate.
    pub fn estimate(&self) -> Option<f64> {
        if self.blocks < 2 {
            return None;
        }
        let n = self.n as f64;
        let var1 = (self.sum_sq / n - (self.sum / n).powi(2)).max(0.0);
        let nb = self.blocks as f64;
        let varm = (self.block_mean_sum_sq / nb - (self.block_mean_sum / nb).powi(2)).max(0.0);
        if var1 <= 0.0 || varm <= 0.0 {
            return None;
        }
        Some(1.0 + (varm / var1).ln() / (2.0 * (self.m as f64).ln()))
    }
}

/// Repair a non-positive-definite ACF by geometric damping.
///
/// Tabulates `r(k)·ρᵏ` over the first `n` lags with `ρ = 1 − shrink`,
/// growing `shrink` from 0 until the Durbin–Levinson recursion completes
/// all `n` steps without a partial correlation escaping `(−1, 1)`. Damping
/// multiplies the ACF by the (positive-definite) AR(1) sequence `ρᵏ`, and
/// at `ρ ≤ 0.49` the Toeplitz matrix is strictly diagonally dominant, so
/// the search always terminates.
///
/// Returns the repaired table and the `shrink` that was needed (0.0 when
/// the input was already PD over these lags). This is the resilience
/// fallback when [`crate::davies_harte::pd_project`] is unavailable or has
/// itself failed; projection is the accurate fix, damping is the blunt one
/// — the caller should record the applied `shrink` as an accuracy caveat.
pub fn regularize_to_pd<A: Acf>(acf: A, n: usize) -> Result<(TabulatedAcf, f64), LrdError> {
    if n == 0 {
        return Err(LrdError::InvalidParameter {
            name: "n",
            constraint: "n >= 1",
        });
    }
    let mut shrink = 0.0_f64;
    loop {
        let rho = 1.0 - shrink;
        // one-time setup: a handful of shrink attempts at table preparation, never on the per-sample path
        let table: Vec<f64> = (0..n).map(|k| acf.r(k) * rho.powi(k as i32)).collect();
        let attempt = TabulatedAcf::new(table.clone()).and_then(|t| {
            let mut s = HoskingSampler::new(&t)?;
            for _ in 0..n {
                s.next_moments().map_err(SvbrError::from)?;
                s.push(0.0);
            }
            Ok(t)
        });
        match attempt {
            Ok(t) => {
                svbr_obsv::point("lrd.regularize", &[("n", n as f64), ("shrink", shrink)]);
                return Ok((t, shrink));
            }
            Err(_) if shrink < 0.51 => {
                shrink = if shrink < 1e-9 { 1e-6 } else { shrink * 2.0 };
                shrink = shrink.min(0.51);
            }
            // Unreachable for any bounded correlation table (ρ = 0.49 is
            // diagonally dominant), but surface it rather than loop.
            Err(e) => return Err(e),
        }
    }
}

/// Precomputed Durbin–Levinson state for generating many replications of
/// the *same* process.
///
/// The regression rows `φ_{k,·}` and variances `v_k` depend only on the
/// ACF, not on the sample path, so a replicated experiment (the paper runs
/// 1000 replications per point in Figs. 14–17) should compute them once.
/// Memory is O(n²/2) f64s — ~25 MB at n = 2500, the paper's longest
/// horizon.
///
/// [`PreparedHosking::moments`] exposes the same conditional moments as
/// [`HoskingSampler::next_moments`], which is what the importance-sampling
/// driver consumes.
#[derive(Debug, Clone)]
pub struct PreparedHosking {
    /// `rows[k]` = `φ_{k,1..k}` (row 0 is empty).
    rows: Vec<Vec<f64>>,
    /// `v[k]` = conditional variance of step k.
    v: Vec<f64>,
    /// `phi_sum[k]` = Σ_j φ_{k,j}.
    phi_sum: Vec<f64>,
}

impl PreparedHosking {
    /// Run the recursion once for a horizon of `n` steps.
    pub fn new<A: Acf>(acf: A, n: usize) -> Result<Self, LrdError> {
        let mut span = svbr_obsv::span("hosking.prepare");
        span.field("n", n as f64);
        let mut s = HoskingSampler::new(&acf)?;
        let mut rows = Vec::with_capacity(n);
        let mut v = Vec::with_capacity(n);
        let mut phi_sum = Vec::with_capacity(n);
        for _ in 0..n {
            let m = s.next_moments()?;
            rows.push(s.phi.clone());
            v.push(m.var);
            phi_sum.push(m.phi_sum);
            s.push(0.0); // history values don't affect the recursion
        }
        Ok(Self { rows, v, phi_sum })
    }

    /// Horizon (number of prepared steps).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no steps were prepared.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Conditional moments of step `k` given `history` (`history.len()`
    /// must be ≥ k; only the most recent k values are read).
    ///
    /// # Panics
    /// Panics if `k >= len()` or the history is shorter than `k`.
    pub fn moments(&self, k: usize, history: &[f64]) -> CondMoments {
        let row = &self.rows[k];
        assert!(history.len() >= k, "need k history values");
        // Same kernel as the incremental sampler: row.len() == k <= history
        // length, so the reversed window reads the most recent k values.
        CondMoments {
            mean: kernels::dot_rev(row, history),
            var: self.v[k],
            phi_sum: self.phi_sum[k],
        }
    }

    /// Generate one path of length `len()`.
    pub fn sample_path<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut normal = Normal::new();
        let mut xs = Vec::with_capacity(self.len());
        for k in 0..self.len() {
            let m = self.moments(k, &xs);
            xs.push(normal.sample_with(rng, m.mean, m.var));
        }
        xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::{CompositeAcf, ExponentialAcf, FgnAcf};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_acf(xs: &[f64], max_lag: usize) -> Vec<f64> {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (0..=max_lag)
            .map(|k| {
                xs.iter()
                    .zip(xs.iter().skip(k))
                    .map(|(a, b)| (a - mean) * (b - mean))
                    .sum::<f64>()
                    / n
                    / var
            })
            .collect()
    }

    #[test]
    fn white_noise_has_unit_conditional_variance() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.5)?;
        let mut s = HoskingSampler::new(acf)?;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let st = s.step(&mut rng)?;
            assert!((st.cond_var - 1.0).abs() < 1e-9);
            assert!(st.cond_mean.abs() < 1e-9);
            assert!(st.phi_sum.abs() < 1e-9);
        }
        Ok(())
    }

    #[test]
    fn ar1_conditional_structure() -> Result<(), Box<dyn std::error::Error>> {
        // ACF exp(-λk) is AR(1) with φ = e^{-λ}: after the first step the
        // conditional mean must be φ·x_{k-1} and variance 1−φ².
        let lambda = 0.3_f64;
        let phi = (-lambda).exp();
        let acf = ExponentialAcf::new(lambda)?;
        let mut s = HoskingSampler::new(acf)?;
        let mut rng = StdRng::seed_from_u64(2);
        let first = s.step(&mut rng)?;
        for _ in 0..20 {
            let prev = *s.history().last().ok_or("empty")?;
            let st = s.step(&mut rng)?;
            assert!((st.cond_mean - phi * prev).abs() < 1e-9, "AR(1) mean");
            assert!((st.cond_var - (1.0 - phi * phi)).abs() < 1e-9, "AR(1) var");
            assert!((st.phi_sum - phi).abs() < 1e-9);
        }
        assert!((first.cond_var - 1.0).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn variance_decreases_monotonically_for_persistent_process(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.85)?;
        let mut s = HoskingSampler::new(acf)?;
        let mut rng = StdRng::seed_from_u64(3);
        let mut last_v = f64::INFINITY;
        for _ in 0..100 {
            let st = s.step(&mut rng)?;
            assert!(st.cond_var <= last_v + 1e-12);
            assert!(st.cond_var > 0.0);
            last_v = st.cond_var;
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn generated_acf_matches_target_fgn() -> Result<(), Box<dyn std::error::Error>> {
        let h = 0.8;
        let acf = FgnAcf::new(h)?;
        let mut rng = StdRng::seed_from_u64(4);
        let xs = HoskingSampler::new(acf)?.generate(20_000, &mut rng)?;
        let est = sample_acf(&xs, 10);
        for (k, e) in est.iter().enumerate().take(11).skip(1) {
            assert!(
                (e - acf.r(k)).abs() < 0.05,
                "lag {k}: est {} vs target {}",
                est[k],
                acf.r(k)
            );
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn generated_acf_matches_composite_target() -> Result<(), Box<dyn std::error::Error>> {
        // The raw piecewise fit is not PD; project it first (the unified
        // pipeline does the same), then Hosking runs with the strict policy.
        let acf = CompositeAcf::paper_fit();
        let projected = crate::davies_harte::pd_project(&acf, 2048)?;
        let mut rng = StdRng::seed_from_u64(5);
        // Average the per-lag sample autocovariance across paths: LRD
        // single-path ACF estimates are far too noisy to test against.
        let n = 1024;
        let paths = 30;
        let mut cov = vec![0.0; 61];
        for _ in 0..paths {
            let xs = HoskingSampler::new(&projected)?.generate(n, &mut rng)?;
            for (k, c) in cov.iter_mut().enumerate() {
                *c += xs
                    .iter()
                    .zip(xs.iter().skip(k))
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
                    / n as f64
                    / paths as f64;
            }
        }
        for k in [1usize, 5, 20, 59] {
            let est = cov[k] / cov[0];
            assert!(
                (est - acf.r(k)).abs() < 0.1,
                "lag {k}: est {est} vs target {}",
                acf.r(k)
            );
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn marginal_is_standard_normal() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        let mut rng = StdRng::seed_from_u64(6);
        let xs = HoskingSampler::new(acf)?.generate(20_000, &mut rng)?;
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        // For H = 0.9 the sample mean has sd ≈ n^{H-1} ≈ 0.37 at n = 20000 —
        // LRD converges *slowly*; the bounds are ±3σ-ish, not tight.
        assert!(mean.abs() < 1.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.35, "var {var}");
        Ok(())
    }

    #[test]
    fn push_without_moments_panics() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.7)?;
        let mut s = HoskingSampler::new(acf)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "asserts that pushing before preparing moments panics"
        )]
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.push(0.0)));
        assert!(result.is_err());
        Ok(())
    }

    #[test]
    fn next_moments_is_idempotent() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.7)?;
        let mut s = HoskingSampler::new(acf)?;
        let a = s.next_moments()?;
        let b = s.next_moments()?;
        assert_eq!(a, b);
        s.push(1.5);
        let c = s.next_moments()?;
        assert!(c.mean != 0.0, "conditioned on pushed value");
        Ok(())
    }

    #[test]
    fn deterministic_given_seed() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.9)?;
        let mut r1 = StdRng::seed_from_u64(77);
        let mut r2 = StdRng::seed_from_u64(77);
        let a = HoskingSampler::new(acf)?.generate(500, &mut r1)?;
        let b = HoskingSampler::new(acf)?.generate(500, &mut r2)?;
        assert_eq!(a, b);
        Ok(())
    }

    #[test]
    fn non_pd_acf_is_rejected() -> Result<(), Box<dyn std::error::Error>> {
        // r(1) = 0.99, r(k)=0 afterwards is far from positive definite
        // (needs r(2) >= 2·0.99² − 1 ≈ 0.96).
        let t = crate::acf::TabulatedAcf::new(vec![1.0, 0.99])?;
        let mut s = HoskingSampler::new(t)?;
        let mut rng = StdRng::seed_from_u64(8);
        let mut failed = None;
        for k in 0..10 {
            if let Err(e) = s.step(&mut rng) {
                failed = Some((k, e));
                break;
            }
        }
        // r(2) = 0 violates r(2) >= 2·0.99² − 1, so the third step fails
        // and names lag 2.
        let (k, e) = failed.expect("should fail");
        assert_eq!(k, 2);
        assert!(matches!(e, LrdError::NotPositiveDefinite { lag: 2 }));
        Ok(())
    }

    #[test]
    fn prepared_matches_incremental_moments() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.85)?;
        let prep = PreparedHosking::new(acf, 50)?;
        assert_eq!(prep.len(), 50);
        assert!(!prep.is_empty());
        let mut s = HoskingSampler::new(&acf)?;
        let mut rng = StdRng::seed_from_u64(21);
        let mut history = Vec::new();
        for k in 0..50 {
            let inc = s.next_moments()?;
            let pre = prep.moments(k, &history);
            assert!((inc.mean - pre.mean).abs() < 1e-12, "mean at {k}");
            assert!((inc.var - pre.var).abs() < 1e-12, "var at {k}");
            assert!((inc.phi_sum - pre.phi_sum).abs() < 1e-12, "phi_sum at {k}");
            let x = inc.mean + inc.var.sqrt() * rng.gen_range(-1.0..1.0);
            s.push(x);
            history.push(x);
        }
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn prepared_sample_path_statistics() -> Result<(), Box<dyn std::error::Error>> {
        let acf = ExponentialAcf::new(0.2)?;
        let prep = PreparedHosking::new(acf, 200)?;
        let mut rng = StdRng::seed_from_u64(22);
        let mut r1_acc = 0.0;
        let reps = 300;
        for _ in 0..reps {
            let xs = prep.sample_path(&mut rng);
            let c1: f64 = xs.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (xs.len() - 1) as f64;
            r1_acc += c1 / reps as f64;
        }
        let target = (-0.2f64).exp();
        assert!((r1_acc - target).abs() < 0.02, "r1 {r1_acc} vs {target}");
        Ok(())
    }

    #[test]
    fn prepared_rejects_non_pd() -> Result<(), Box<dyn std::error::Error>> {
        let t = crate::acf::TabulatedAcf::new(vec![1.0, 0.99])?;
        assert!(PreparedHosking::new(&t, 10).is_err());
        Ok(())
    }

    #[test]
    fn resume_continues_bit_identically() -> Result<(), Box<dyn std::error::Error>> {
        // Drive the recursion with externally chosen values (as the IS and
        // resilience drivers do), snapshot mid-stream, resume, and check
        // the conditional moments agree bit-for-bit.
        let acf = FgnAcf::new(0.85)?;
        let values: Vec<f64> = (0..200)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
            .collect();
        let mut full = HoskingSampler::new(&acf)?;
        let mut snapshot = None;
        for (i, &x) in values.iter().enumerate() {
            full.next_moments()?;
            full.push(x);
            if i == 99 {
                snapshot = Some((
                    full.history().to_vec(),
                    full.phi().to_vec(),
                    full.innovation_variance(),
                ));
            }
        }
        let (history, phi, v) = snapshot.ok_or("no snapshot")?;
        let mut resumed = HoskingSampler::resume(&acf, history, phi, v)?;
        let mut reference = HoskingSampler::new(&acf)?;
        for &x in &values[..100] {
            reference.next_moments()?;
            reference.push(x);
        }
        for &x in &values[100..] {
            let a = resumed.next_moments()?;
            let b = reference.next_moments()?;
            assert_eq!(a, b, "resumed moments must match bit-for-bit");
            resumed.push(x);
            reference.push(x);
        }
        assert_eq!(resumed.history(), full.history());
        Ok(())
    }

    #[test]
    fn resume_validates_state_invariants() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.7)?;
        // phi length inconsistent with history.
        assert!(HoskingSampler::resume(&acf, vec![0.1; 5], vec![0.2; 5], 0.9).is_err());
        assert!(HoskingSampler::resume(&acf, vec![0.1, 0.2, 0.3], vec![0.2], 0.9).is_err());
        // Non-finite history.
        assert!(HoskingSampler::resume(&acf, vec![f64::NAN, 0.0], vec![0.2], 0.9).is_err());
        // Invalid variance.
        assert!(HoskingSampler::resume(&acf, vec![0.1, 0.2], vec![0.2], -0.5).is_err());
        // A consistent state resumes.
        assert!(HoskingSampler::resume(&acf, vec![0.1, 0.2], vec![0.2], 0.9).is_ok());
        Ok(())
    }

    #[test]
    fn regularize_leaves_pd_acf_untouched() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.8)?;
        let (table, shrink) = regularize_to_pd(acf, 64)?;
        assert_eq!(shrink, 0.0);
        for k in 0..64 {
            assert!((table.r(k) - acf.r(k)).abs() < 1e-15, "lag {k} unchanged");
        }
        Ok(())
    }

    #[test]
    fn regularize_repairs_non_pd_table() -> Result<(), Box<dyn std::error::Error>> {
        let t = crate::acf::TabulatedAcf::new(vec![1.0, 0.99])?;
        let (repaired, shrink) = regularize_to_pd(&t, 16)?;
        assert!(shrink > 0.0, "a non-PD table needs shrinking");
        // The repaired table must run the strict recursion to completion
        // over the lags it was validated for.
        let mut rng = StdRng::seed_from_u64(14);
        let xs = HoskingSampler::new(&repaired)?.generate(16, &mut rng)?;
        assert!(xs.iter().all(|x| x.is_finite()));
        Ok(())
    }

    #[test]
    fn history_accessors() -> Result<(), Box<dyn std::error::Error>> {
        let acf = FgnAcf::new(0.6)?;
        let mut s = HoskingSampler::new(acf)?;
        assert!(s.is_empty());
        let mut rng = StdRng::seed_from_u64(11);
        s.step(&mut rng)?;
        s.step(&mut rng)?;
        assert_eq!(s.len(), 2);
        assert_eq!(s.history().len(), 2);
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn running_hurst_recovers_known_exponents() -> Result<(), Box<dyn std::error::Error>> {
        // White noise: H ≈ 0.5.
        let mut rng = StdRng::seed_from_u64(5);
        let mut normal = Normal::new();
        let mut est = RunningHurst::new(32);
        assert!(est.is_empty() && est.estimate().is_none());
        for _ in 0..20_000 {
            est.push(normal.sample(&mut rng));
        }
        assert_eq!(est.len(), 20_000);
        let h = est.estimate().ok_or("estimate available")?;
        assert!((h - 0.5).abs() < 0.08, "white noise H ≈ 0.5, got {h}");

        // Persistent FGN: the estimate must move decisively toward H = 0.9.
        let path = HoskingSampler::new(FgnAcf::new(0.9)?)?.generate(8192, &mut rng)?;
        let mut est = RunningHurst::new(32);
        for &x in &path {
            est.push(x);
        }
        let h = est.estimate().ok_or("estimate available")?;
        assert!((h - 0.9).abs() < 0.12, "FGN H = 0.9, got {h}");
        Ok(())
    }

    #[test]
    fn running_hurst_needs_two_blocks_and_nonzero_variance() {
        let mut est = RunningHurst::new(4);
        for _ in 0..7 {
            est.push(1.0);
        }
        // One full block only, then constant data: no estimate either way.
        assert!(est.estimate().is_none());
        est.push(1.0);
        assert!(est.estimate().is_none(), "zero variance is degenerate");
    }
}
