//! Steps 1–4 assembled: fit a unified model to an empirical series and
//! generate synthetic traffic from it (§3.1–§3.2, Figs. 6–8).

use crate::attenuation::theoretical_attenuation;
use crate::hurst::{estimate_hurst, HurstEstimates, HurstOptions};
use crate::CoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use svbr_lrd::acf::{
    Acf, CompensatedAcf, CompositeAcf, ExpTerm, ExponentialAcf, FgnAcf, TabulatedAcf,
};
use svbr_lrd::cache::{hosking_coefficients, CachedHosking};
use svbr_lrd::davies_harte::{pd_project, DaviesHarte};
use svbr_lrd::fft::Complex;
use svbr_lrd::hosking::HoskingSampler;
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::BinnedEmpirical;
use svbr_stats::{
    fit_composite, refine_mixture, sample_acf_fft, CompositeFit, FitOptions, MixtureFit,
};

/// Options for the unified fitting pipeline.
#[derive(Debug, Clone)]
pub struct UnifiedOptions {
    /// Hurst-estimation options (Step 1).
    pub hurst: HurstOptions,
    /// Number of sample-ACF lags estimated (Fig. 5's x-axis; Step 2 input).
    pub acf_lags: usize,
    /// Composite-fit options (Step 2).
    pub fit: FitOptions,
    /// Force the LRD exponent to `β = 2 − 2Ĥ` instead of the freely fitted
    /// one (the paper pins β = 0.2 from Ĥ = 0.9).
    pub force_beta_from_hurst: bool,
    /// Refine the SRD piece into a two-exponential mixture (eq. 10 with
    /// j = 2). The paper uses a single exponential; the mixture helps when
    /// the empirical ACF has a fast "nugget" drop at the first lags that a
    /// single exponential through the origin cannot follow (see the
    /// `ablation` binary).
    pub srd_mixture: bool,
    /// Histogram bins for the empirical marginal (Figs. 1–2).
    pub marginal_bins: usize,
    /// Gauss–Hermite points for the attenuation factor (Step 3).
    pub quad_points: usize,
}

impl Default for UnifiedOptions {
    fn default() -> Self {
        Self {
            hurst: HurstOptions::default(),
            acf_lags: 500,
            fit: FitOptions::default(),
            force_beta_from_hurst: true,
            srd_mixture: false,
            marginal_bins: 200,
            quad_points: 80,
        }
    }
}

/// Options for [`UnifiedFit::refine_attenuation`] — the measure-and-correct
/// loop that replaces the closed-form attenuation with an empirical one.
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Maximum correction iterations.
    pub max_iterations: usize,
    /// Replications averaged per ACF measurement (per-path sample ACFs of
    /// an LRD process are far too noisy to compare individually).
    pub reps: usize,
    /// Length of each generated measurement path.
    pub path_len: usize,
    /// Inclusive lag window `(lo, hi)` the ACF error is averaged over.
    pub lag_window: (usize, usize),
    /// Stop once the mean absolute ACF error falls below this.
    pub tolerance: f64,
}

impl Default for RefineOptions {
    fn default() -> Self {
        Self {
            max_iterations: 6,
            reps: 16,
            path_len: 4096,
            lag_window: (5, 100),
            tolerance: 0.01,
        }
    }
}

/// One accepted iteration of the attenuation refinement loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Attenuation factor `a` used for this iteration.
    pub attenuation: f64,
    /// Mean absolute foreground-ACF error over the lag window.
    pub acf_error: f64,
}

/// The convergence trajectory returned by
/// [`UnifiedFit::refine_attenuation`]. `iterations` is monotone decreasing
/// in `acf_error` (non-improving steps are rejected).
#[derive(Debug, Clone, PartialEq)]
pub struct AttenuationRefinement {
    /// The refined attenuation factor (the best iterate's `a`).
    pub attenuation: f64,
    /// Accepted iterations, in order.
    pub iterations: Vec<IterationRecord>,
}

/// Which autocorrelation structure the background process carries —
/// the three models compared in Fig. 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundKind {
    /// The unified model: SRD exponential below the knee, LRD power law
    /// above (attenuation-compensated).
    SrdLrd,
    /// SRD only: the exponential part everywhere (a "traditional" model).
    SrdOnly,
    /// LRD only: exact fGn at the fitted Hurst parameter (the
    /// Garrett–Willinger-style single-mechanism model).
    LrdOnly,
}

/// A fitted unified model.
#[derive(Debug, Clone)]
pub struct UnifiedFit {
    /// Step 1 output.
    pub hurst: HurstEstimates,
    /// Step 2 output: the raw composite fit (before compensation).
    pub acf_fit: CompositeFit,
    /// The empirical ACF table the fit was made against
    /// (`empirical_acf[k] = r̂(k)`).
    pub empirical_acf: Vec<f64>,
    /// Optional two-exponential SRD refinement (when `srd_mixture` is set
    /// and the refinement actually reduced the SRD residual).
    pub mixture: Option<MixtureFit>,
    /// Step 3 output: the attenuation factor `a`.
    pub attenuation: f64,
    /// The empirical marginal (histogram inversion, as in the paper).
    pub marginal: BinnedEmpirical,
}

impl UnifiedFit {
    /// Run Steps 1–3 on an empirical bytes-per-frame series.
    pub fn fit(series: &[f64], opts: &UnifiedOptions) -> Result<Self, CoreError> {
        let mut span = svbr_obsv::span("pipeline.fit");
        if svbr_obsv::enabled() {
            svbr_obsv::counter_with("pipeline.stage.calls", &[("stage", "fit")]).inc();
        }
        // Step 1: Hurst parameter.
        let hurst = estimate_hurst(series, &opts.hurst)?;
        // Step 2: sample ACF + composite fit.
        let empirical_acf = sample_acf_fft(series, opts.acf_lags)?;
        let mut acf_fit = fit_composite(&empirical_acf, &opts.fit)?;
        if opts.force_beta_from_hurst {
            // Re-anchor the power law at the pinned β, preserving the value
            // of the fitted curve at the knee (so the two pieces still
            // meet): L' = r(Kt)·Kt^β'.
            let beta = hurst.beta().clamp(0.05, 0.95);
            let at_knee = acf_fit.l * (acf_fit.knee as f64).powf(-acf_fit.beta);
            acf_fit.beta = beta;
            acf_fit.l = at_knee * (acf_fit.knee as f64).powf(beta);
        }
        // Optional eq.-10 mixture refinement of the SRD piece.
        let mixture = if opts.srd_mixture {
            refine_mixture(&empirical_acf, &acf_fit)
                .ok()
                .filter(|m| m.to_acf().is_ok())
        } else {
            None
        };
        // Marginal (histogram inversion).
        let marginal = BinnedEmpirical::from_samples(series, opts.marginal_bins)?;
        // Step 3: attenuation factor (Appendix A closed form).
        let attenuation = theoretical_attenuation(&marginal, opts.quad_points);
        // Publish the fitted parameters (H, β, Kt, a) as gauges so any run
        // manifest can capture them, and annotate the fit span.
        svbr_obsv::gauge("pipeline.hurst").set(hurst.combined);
        svbr_obsv::gauge("pipeline.beta").set(acf_fit.beta);
        svbr_obsv::gauge("pipeline.knee").set(acf_fit.knee as f64);
        svbr_obsv::gauge("pipeline.attenuation").set(attenuation);
        if span.is_live() {
            span.field("n", series.len() as f64);
            span.field("h", hurst.combined);
            span.field("beta", acf_fit.beta);
            span.field("knee", acf_fit.knee as f64);
            span.field("attenuation", attenuation);
        }
        Ok(Self {
            hurst,
            acf_fit,
            empirical_acf,
            mixture,
            attenuation,
            marginal,
        })
    }

    /// Refine the attenuation factor `a` by closing the loop the paper
    /// describes after eq. 14: generate synthetic traffic from the
    /// `a`-compensated background, measure the *foreground* ACF after the
    /// marginal transform, and correct `a` by the measured-to-target ratio
    /// until the ACF error stops improving.
    ///
    /// Each accepted iteration is recorded in the returned trajectory and —
    /// when a trace sink is installed — emitted as a `pipeline.iteration`
    /// point with fields `iteration`, `attenuation`, and `acf_error`. Only
    /// improving iterations are accepted, so the recorded trajectory is
    /// monotone decreasing in ACF error by construction; the fit's
    /// `attenuation` is updated to the best iterate.
    pub fn refine_attenuation<R: Rng + ?Sized>(
        &mut self,
        opts: &RefineOptions,
        rng: &mut R,
    ) -> Result<AttenuationRefinement, CoreError> {
        let transform = GaussianTransform::new(self.marginal.clone());
        let reps = opts.reps.max(1);
        let path_len = opts.path_len;
        // Measurement buffers live in an arena across iterations: each
        // iteration takes them warm, every replication reuses them in
        // place (generate_into/apply_into are bit-identical to their
        // allocating forms), and they return to the pool on the way out.
        let mut arena: svbr_par::Arena<f64> = svbr_par::Arena::new();
        let mut fft_arena: svbr_par::Arena<Complex> = svbr_par::Arena::new();
        self.refine_with(opts, |model, hi, _iter_no| {
            let dh = DaviesHarte::new_approx(model, path_len, 5e-2)?;
            let mut acc = vec![0.0; hi + 1];
            let mut xs = arena.take(path_len);
            let mut ys = arena.take(path_len);
            let mut scratch = fft_arena.take(0);
            for _ in 0..reps {
                dh.generate_into(rng, &mut xs, &mut scratch);
                transform.apply_into(&xs, &mut ys);
                let r = sample_acf_fft(&ys, hi)?;
                for (slot, v) in acc.iter_mut().zip(r.iter()) {
                    *slot += v / reps as f64;
                }
            }
            arena.put(xs);
            arena.put(ys);
            fft_arena.put(scratch);
            Ok(acc)
        })
    }

    /// Deterministic-parallel form of [`Self::refine_attenuation`].
    ///
    /// Iteration `j`'s measurement replications form their own seed
    /// sub-schedule rooted at `svbr_par::derive_seed(master_seed, j)`, with
    /// replication `i` drawing from `derive_seed(sub, i)`; per-replication
    /// sample ACFs are averaged in replication-index order, so the accepted
    /// trajectory is **bit-identical for any thread count**. Each
    /// iteration builds its own Davies–Harte sampler, shared by its
    /// workers: a new candidate `a` changes the ACF, so the set-up never
    /// recurs and is kept out of the process cache.
    pub fn refine_attenuation_seeded(
        &mut self,
        opts: &RefineOptions,
        master_seed: u64,
        threads: usize,
    ) -> Result<AttenuationRefinement, CoreError> {
        let transform = GaussianTransform::new(self.marginal.clone());
        let reps = opts.reps.max(1);
        let path_len = opts.path_len;
        self.refine_with(opts, |model, hi, iter_no| {
            let dh = DaviesHarte::new_approx(model, path_len, 5e-2)?;
            let sub_seed = svbr_par::derive_seed(master_seed, iter_no as u64);
            let per_rep = svbr_par::par_map_blocks(reps, threads, |range| {
                // Per-worker arena: the generate/transform buffers warm up
                // on the block's first replication and are reused in place
                // for the rest — the seed schedule is exactly
                // `run_replications`' (`derive_seed(sub_seed, rep)`), so
                // the fold below stays bit-identical for any thread count.
                let mut arena: svbr_par::Arena<f64> = svbr_par::Arena::new();
                let mut fft_arena: svbr_par::Arena<Complex> = svbr_par::Arena::new();
                let mut xs = arena.take(path_len);
                let mut ys = arena.take(path_len);
                let mut scratch = fft_arena.take(0);
                let mut out = Vec::with_capacity(range.len());
                for rep in range {
                    let mut rng =
                        StdRng::seed_from_u64(svbr_par::derive_seed(sub_seed, rep as u64));
                    dh.generate_into(&mut rng, &mut xs, &mut scratch);
                    transform.apply_into(&xs, &mut ys);
                    out.push(sample_acf_fft(&ys, hi).map_err(CoreError::from));
                }
                out
            });
            let mut acc = vec![0.0; hi + 1];
            for r in per_rep {
                for (slot, v) in acc.iter_mut().zip(r?.iter()) {
                    *slot += v / reps as f64;
                }
            }
            Ok(acc)
        })
    }

    /// The shared measure-and-correct loop behind both refinement variants:
    /// `measure(model, hi, iter_no)` returns the replication-averaged
    /// foreground sample ACF (lags `0..=hi`) under the candidate model.
    fn refine_with<F>(
        &mut self,
        opts: &RefineOptions,
        mut measure: F,
    ) -> Result<AttenuationRefinement, CoreError>
    where
        F: FnMut(&CompensatedAcf, usize, usize) -> Result<Vec<f64>, CoreError>,
    {
        let mut span = svbr_obsv::span("pipeline.refine_attenuation");
        if svbr_obsv::enabled() {
            svbr_obsv::counter_with("pipeline.stage.calls", &[("stage", "refine_attenuation")])
                .inc();
        }
        let composite = self.composite_acf()?;
        let lo = opts.lag_window.0.max(1);
        let hi = opts.lag_window.1.min(opts.path_len / 2).max(lo);
        let mut a = self.attenuation;
        let mut best_err = f64::INFINITY;
        let mut iterations: Vec<IterationRecord> = Vec::new();
        let gauge = svbr_obsv::gauge("pipeline.attenuation");
        let l2_gauge = svbr_obsv::gauge("pipeline.acf_l2");
        // Convergence watermark: records the first iteration whose ACF L2
        // error reaches the declared tolerance.
        let mut l2_watermark = svbr_obsv::Watermark::below("pipeline.acf_l2", opts.tolerance);
        for iter_no in 0..opts.max_iterations {
            // Generate with the current candidate `a` and measure the mean
            // foreground ACF over the lag window.
            let model = composite.compensate(a)?;
            let acc = measure(&model, hi, iter_no)?;
            let (mut err, mut err_sq, mut measured, mut target) = (0.0, 0.0, 0.0, 0.0);
            for (k, &m) in acc.iter().enumerate().take(hi + 1).skip(lo) {
                let t = composite.r(k);
                err += (m - t).abs();
                err_sq += (m - t) * (m - t);
                measured += m;
                target += t;
            }
            let lags = (hi - lo + 1) as f64;
            err /= lags;
            let err_l2 = (err_sq / lags).sqrt();
            // The L2 error is streamed for every candidate (accepted or
            // not): the watermark tracks the fitting loop itself, not the
            // monotone accepted trajectory.
            l2_gauge.set(err_l2);
            l2_watermark.observe(iter_no as u64, err_l2);
            if err >= best_err {
                break; // no improvement — keep the previous iterate
            }
            best_err = err;
            iterations.push(IterationRecord {
                iteration: iterations.len(),
                attenuation: a,
                acf_error: err,
            });
            gauge.set(a);
            svbr_obsv::point(
                "pipeline.iteration",
                &[
                    ("iteration", (iterations.len() - 1) as f64),
                    ("attenuation", a),
                    ("acf_error", err),
                    ("acf_error_l2", err_l2),
                ],
            );
            if err <= opts.tolerance {
                break;
            }
            // Foreground came out weaker than the target ⇒ the transform
            // attenuates more than assumed ⇒ lower `a` (more compensation).
            let ratio = if target > 1e-9 && measured > 0.0 {
                (measured / target).clamp(0.5, 2.0)
            } else {
                1.0
            };
            let next = (a * ratio).clamp(0.05, 1.0);
            if (next - a).abs() < 1e-6 {
                break;
            }
            a = next;
        }
        if let Some(last) = iterations.last() {
            self.attenuation = last.attenuation;
        }
        if span.is_live() {
            span.field("iterations", iterations.len() as f64);
            span.field("attenuation", self.attenuation);
            span.field("acf_error", best_err);
        }
        Ok(AttenuationRefinement {
            attenuation: self.attenuation,
            iterations,
        })
    }

    /// The Step-2 composite ACF as a generator-facing model (uses the
    /// mixture refinement when it was fitted).
    pub fn composite_acf(&self) -> Result<CompositeAcf, CoreError> {
        if let Some(m) = &self.mixture {
            return m.to_acf().map_err(CoreError::from);
        }
        CompositeAcf::new(
            vec![ExpTerm {
                weight: 1.0,
                rate: self.acf_fit.lambda,
            }],
            self.acf_fit.l,
            self.acf_fit.beta,
            self.acf_fit.knee,
        )
        .map_err(CoreError::from)
    }

    /// The Step-4 background model ACF for the requested kind (the smooth
    /// analytical form — what the Davies–Harte generator embeds directly).
    pub fn background_model(&self, kind: BackgroundKind) -> Result<BackgroundAcf, CoreError> {
        match kind {
            BackgroundKind::SrdLrd => Ok(BackgroundAcf::SrdLrd(
                self.composite_acf()?.compensate(self.attenuation)?,
            )),
            BackgroundKind::SrdOnly => {
                // Exponential everywhere; lift by the same compensation
                // logic at the knee so small-lag behaviour matches the
                // unified model's (eq. 14 applied to the SRD piece alone).
                let comp = self.composite_acf()?.compensate(self.attenuation)?;
                let rate = comp.composite().terms()[0].rate;
                Ok(BackgroundAcf::SrdOnly(ExponentialAcf::new(rate)?))
            }
            BackgroundKind::LrdOnly => Ok(BackgroundAcf::LrdOnly(FgnAcf::new(
                self.hurst.combined.clamp(0.55, 0.975),
            )?)),
        }
    }

    /// The Step-4 background ACF as a positive-definite table valid for
    /// traces up to `max_len` samples (what Hosking's method consumes; see
    /// `svbr_lrd::davies_harte::pd_project`).
    pub fn background_table(
        &self,
        kind: BackgroundKind,
        max_len: usize,
    ) -> Result<TabulatedAcf, CoreError> {
        Ok(pd_project(&self.background_model(kind)?, max_len)?)
    }

    /// Build a generator for the given model kind, able to produce traces
    /// up to `max_len` samples.
    ///
    /// Nothing is precomputed here: the PD table Hosking's method needs is
    /// projected on the first exact draw (or [`UnifiedGenerator::background_acf`]
    /// call), and the Davies–Harte set-up happens on the first fast draw.
    pub fn generator(
        &self,
        kind: BackgroundKind,
        max_len: usize,
    ) -> Result<UnifiedGenerator, CoreError> {
        if max_len == 0 {
            return Err(CoreError::InvalidParameter {
                name: "max_len",
                constraint: "max_len >= 1",
            });
        }
        Ok(UnifiedGenerator {
            model: self.background_model(kind)?,
            max_len,
            table: OnceLock::new(),
            fast: Mutex::new(None),
            transform: GaussianTransform::new(self.marginal.clone()),
        })
    }
}

/// The background ACF in its smooth analytical form — one variant per
/// Fig. 17 model kind, plus a raw-table escape hatch.
#[derive(Debug, Clone)]
pub enum BackgroundAcf {
    /// Compensated composite SRD+LRD (the unified model).
    SrdLrd(CompensatedAcf),
    /// Pure exponential (traditional model).
    SrdOnly(ExponentialAcf),
    /// Exact fGn (LRD-only model).
    LrdOnly(FgnAcf),
    /// An explicit table (assumed already positive definite).
    Table(TabulatedAcf),
}

impl Acf for BackgroundAcf {
    fn r(&self, k: usize) -> f64 {
        match self {
            BackgroundAcf::SrdLrd(a) => a.r(k),
            BackgroundAcf::SrdOnly(a) => a.r(k),
            BackgroundAcf::LrdOnly(a) => a.r(k),
            BackgroundAcf::Table(a) => a.r(k),
        }
    }
}

/// A generator of synthetic VBR traffic with the fitted marginal and
/// autocorrelation structure.
#[derive(Debug)]
pub struct UnifiedGenerator {
    /// Smooth model ACF — embedded directly by the fast generator, so no
    /// truncation discontinuity enters the circulant.
    model: BackgroundAcf,
    /// Longest trace the generator produces.
    max_len: usize,
    /// PD projection of the model over `max_len` lags — consumed by
    /// Hosking's method, built on first use.
    table: OnceLock<TabulatedAcf>,
    /// The Davies–Harte sampler of the most recent fast length: repeated
    /// draws at one length share one circulant set-up. Only ever replaced
    /// whole, so a poisoned lock still holds a valid sampler.
    fast: Mutex<Option<Arc<DaviesHarte>>>,
    transform: GaussianTransform<BinnedEmpirical>,
}

impl Clone for UnifiedGenerator {
    fn clone(&self) -> Self {
        let fast = self
            .fast
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Self {
            model: self.model.clone(),
            max_len: self.max_len,
            table: self.table.clone(),
            fast: Mutex::new(fast),
            transform: self.transform.clone(),
        }
    }
}

impl UnifiedGenerator {
    /// Construct directly from a background ACF table and a marginal.
    ///
    /// Prefer [`UnifiedFit::generator`]: with only a finite table, the fast
    /// generator sees the table end as a hard drop to zero, which costs
    /// some embedding accuracy near the maximum length.
    ///
    /// Validates the table as a correlation sequence: `r(0) = 1` and every
    /// entry in `[-1, 1]` (construction via [`TabulatedAcf::new`] already
    /// guarantees this; the check here keeps the invariant local).
    pub fn from_parts(
        background: TabulatedAcf,
        marginal: BinnedEmpirical,
    ) -> Result<Self, svbr_domain::SvbrError> {
        if background.is_empty() || (background.r(0) - 1.0).abs() > 1e-9 {
            return Err(svbr_domain::SvbrError::OutOfRange {
                name: "background",
                constraint: "non-empty table with r(0) == 1",
            });
        }
        for k in 0..background.len() {
            svbr_domain::Correlation::new_clamped(background.r(k), 1e-9)?;
        }
        Ok(Self {
            model: BackgroundAcf::Table(background.clone()),
            max_len: background.len(),
            table: OnceLock::from(background),
            fast: Mutex::new(None),
            transform: GaussianTransform::new(marginal),
        })
    }

    /// The background ACF table (PD-projected over `max_len()` lags; from
    /// [`Self::from_parts`], the given table). Projected on the first call,
    /// bit-identical to [`UnifiedFit::background_table`] at the same kind
    /// and length.
    pub fn background_acf(&self) -> Result<&TabulatedAcf, CoreError> {
        if let Some(table) = self.table.get() {
            return Ok(table);
        }
        let table = pd_project(&self.model, self.max_len)?;
        Ok(self.table.get_or_init(|| table))
    }

    /// The smooth background model.
    pub fn background_model(&self) -> &BackgroundAcf {
        &self.model
    }

    /// The marginal transform.
    pub fn transform(&self) -> &GaussianTransform<BinnedEmpirical> {
        &self.transform
    }

    /// Maximum trace length the generator supports.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Generate the background Gaussian path with Hosking's exact method
    /// (O(n²); the paper's generator).
    ///
    /// The Durbin–Levinson coefficient schedule comes from the process
    /// cache ([`hosking_coefficients`]) — replications over the same
    /// `(ACF, n)` share one schedule and only pay the per-sample dot
    /// products. The path is bit-identical to the streaming
    /// [`HoskingSampler`] at the same RNG state (the cache stores exactly
    /// the coefficients the recursion would recompute).
    pub fn background_hosking<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, CoreError> {
        if n > self.max_len() {
            return Err(CoreError::InvalidParameter {
                name: "n",
                constraint: "n <= max_len()",
            });
        }
        let table = self.background_acf()?;
        match hosking_coefficients(table, n)? {
            CachedHosking::Shared(prepared) => Ok(prepared.sample_path(rng)),
            // Horizon past the cache's memory cap: stream the recursion.
            CachedHosking::Streaming => Ok(HoskingSampler::new(table)?.generate(n, rng)?),
        }
    }

    /// Generate the background Gaussian path with the Davies–Harte
    /// circulant method (O(n log n)), embedding the smooth model ACF.
    ///
    /// The circulant set-up is kept for the next call at the same `n`, so
    /// replications pay only the per-path transform. The path is
    /// bit-identical to a fresh `DaviesHarte::new_approx(model, n, 5e-2)`
    /// at the same RNG state.
    pub fn background_fast<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, CoreError> {
        if n > self.max_len() {
            return Err(CoreError::InvalidParameter {
                name: "n",
                constraint: "n <= max_len()",
            });
        }
        Ok(self.fast_sampler(n)?.generate(rng))
    }

    /// The memoized Davies–Harte sampler for length `n`, built (under the
    /// lock, so concurrent callers set up once) when the length changes.
    fn fast_sampler(&self, n: usize) -> Result<Arc<DaviesHarte>, CoreError> {
        let mut slot = self.fast.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(dh) = slot.as_ref().filter(|dh| dh.len() == n) {
            return Ok(Arc::clone(dh));
        }
        let dh = Arc::new(DaviesHarte::new_approx(&self.model, n, 5e-2)?);
        *slot = Some(Arc::clone(&dh));
        Ok(dh)
    }

    /// Generate a foreground (bytes-per-frame) trace: background +
    /// inverse-CDF transform (eq. 7). `fast` picks Davies–Harte over
    /// Hosking.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        n: usize,
        fast: bool,
        rng: &mut R,
    ) -> Result<Vec<f64>, CoreError> {
        let xs = if fast {
            self.background_fast(n, rng)?
        } else {
            self.background_hosking(n, rng)?
        };
        Ok(self.transform.apply_slice(&xs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use svbr_lrd::acf::Acf;
    use svbr_video::reference_trace_intra_of_len;

    fn quick_opts() -> UnifiedOptions {
        UnifiedOptions {
            hurst: HurstOptions {
                vt: svbr_stats::VtOptions {
                    min_m: 50,
                    max_m: 3000,
                    points: 12,
                    min_blocks: 10,
                },
                rs: svbr_stats::RsOptions {
                    min_n: 64,
                    max_n: 1 << 14,
                    sizes: 10,
                    starts: 8,
                },
                gph_frequencies: Some(128),
                extended_estimators: false,
                round_to: 0.05,
            },
            acf_lags: 400,
            fit: FitOptions {
                knee_min: 20,
                knee_max: 120,
                max_lag: 400,
                min_correlation: 0.05,
            },
            ..Default::default()
        }
    }

    fn reference_fit() -> Result<UnifiedFit, CoreError> {
        let trace = reference_trace_intra_of_len(120_000);
        UnifiedFit::fit(&trace.as_f64(), &quick_opts())
    }

    #[test]
    fn fit_on_reference_trace_recovers_structure() -> Result<(), Box<dyn std::error::Error>> {
        let fit = reference_fit()?;
        // Hurst in the strongly-LRD band.
        assert!(
            fit.hurst.combined >= 0.7 && fit.hurst.combined <= 0.975,
            "H {}",
            fit.hurst.combined
        );
        // Knee within the searched range, SRD rate positive.
        assert!(fit.acf_fit.knee >= 20 && fit.acf_fit.knee <= 120);
        assert!(fit.acf_fit.lambda > 0.0);
        // β pinned from Ĥ.
        assert!((fit.acf_fit.beta - fit.hurst.beta()).abs() < 1e-9);
        // Attenuation in (0, 1] and plausibly close to the paper's 0.94
        // (long-tailed marginal ⇒ mild attenuation).
        assert!(
            fit.attenuation > 0.6 && fit.attenuation <= 1.0,
            "a = {}",
            fit.attenuation
        );
        Ok(())
    }

    #[test]
    fn generated_marginal_matches_empirical() -> Result<(), Box<dyn std::error::Error>> {
        let trace = reference_trace_intra_of_len(60_000);
        let series = trace.as_f64();
        let fit = UnifiedFit::fit(&series, &quick_opts())?;
        let generator = fit.generator(BackgroundKind::SrdLrd, 2_048)?;
        let mut rng = StdRng::seed_from_u64(1);
        // A single LRD path's sample mean wanders with sd ≈ n^{H−1}, so its
        // one-path marginal is *expected* to sit far from F_Y; pool over
        // independent replications (as a statistician validating the model
        // must) before comparing distributions.
        let mut synth = Vec::new();
        for _ in 0..40 {
            synth.extend(generator.generate(2_048, true, &mut rng)?);
        }
        let ks = svbr_stats::two_sample_ks(&series, &synth)?;
        assert!(ks < 0.08, "KS distance {ks}");
        let m_e = series.iter().sum::<f64>() / series.len() as f64;
        let m_s = synth.iter().sum::<f64>() / synth.len() as f64;
        assert!((m_e - m_s).abs() / m_e < 0.1, "means {m_e} vs {m_s}");
        Ok(())
    }

    #[test]
    fn generated_acf_tracks_empirical_after_compensation() -> Result<(), Box<dyn std::error::Error>>
    {
        let trace = reference_trace_intra_of_len(120_000);
        let series = trace.as_f64();
        let fit = UnifiedFit::fit(&series, &quick_opts())?;
        let generator = fit.generator(BackgroundKind::SrdLrd, 8_192)?;
        let mut rng = StdRng::seed_from_u64(2);
        // Average foreground ACF over replications: the per-path sample ACF
        // of a process this persistent has sd ≈ 0.5 at LRD lags (the
        // Bartlett sum Σr² is nearly non-convergent), so only a replication
        // average is testable at all — and even then the tolerance must be
        // a couple of tenths.
        let reps = 24;
        let mut acc = vec![0.0; 101];
        for _ in 0..reps {
            let synth = generator.generate(8_192, true, &mut rng)?;
            let r = sample_acf_fft(&synth, 100)?;
            for (a, v) in acc.iter_mut().zip(r.iter()) {
                *a += v / reps as f64;
            }
        }
        // Compare against the *fitted* composite model (what Step 4 targets)
        // at a few lags spanning SRD and LRD regions.
        for k in [5usize, 20, 60] {
            let target = fit.acf_fit.r(k);
            assert!(
                (acc[k] - target).abs() < 0.17,
                "lag {k}: synth {} vs fitted {}",
                acc[k],
                target
            );
        }
        Ok(())
    }

    #[test]
    fn background_kinds_differ_correctly() -> Result<(), Box<dyn std::error::Error>> {
        let fit = reference_fit()?;
        let full = fit.background_table(BackgroundKind::SrdLrd, 600)?;
        let srd = fit.background_table(BackgroundKind::SrdOnly, 600)?;
        let lrd = fit.background_table(BackgroundKind::LrdOnly, 600)?;
        // At large lags the SRD-only table must be far below the unified one.
        assert!(
            srd.r(500) < 0.5 * full.r(500).max(1e-9) + 1e-6,
            "srd {} vs full {}",
            srd.r(500),
            full.r(500)
        );
        // The unified model keeps substantial correlation at large lags.
        assert!(full.r(400) > 0.1, "full r(400) = {}", full.r(400));
        // fGn-only decays faster than the unified model at *small* lags
        // (no exponential hump) — Fig. 17's "decays too fast for small b".
        assert!(
            lrd.r(5) < full.r(5),
            "lrd {} vs full {}",
            lrd.r(5),
            full.r(5)
        );
        Ok(())
    }

    #[test]
    fn mixture_option_refines_srd_fit() -> Result<(), Box<dyn std::error::Error>> {
        let trace = reference_trace_intra_of_len(120_000);
        let series = trace.as_f64();
        let mut opts = quick_opts();
        opts.srd_mixture = true;
        let fit = UnifiedFit::fit(&series, &opts)?;
        let m = fit.mixture.as_ref().ok_or("mixture should fit here")?;
        // The mixture must not be worse than the single exponential over
        // the SRD region.
        let single_sse: f64 = (1..fit.acf_fit.knee)
            .map(|k| {
                let e = fit.empirical_acf[k] - fit.acf_fit.r(k);
                e * e
            })
            .sum();
        assert!(m.srd_sse <= single_sse + 1e-12);
        // The composite model now carries two terms…
        let acf = fit.composite_acf()?;
        assert_eq!(acf.terms().len(), 2);
        // …and the generator still works end-to-end.
        let g = fit.generator(BackgroundKind::SrdLrd, 1024)?;
        let mut rng = StdRng::seed_from_u64(9);
        let ys = g.generate(1024, true, &mut rng)?;
        assert_eq!(ys.len(), 1024);
        Ok(())
    }

    #[test]
    fn seeded_refinement_is_bit_identical_across_thread_counts(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let fit = reference_fit()?;
        let opts = RefineOptions {
            max_iterations: 2,
            reps: 4,
            path_len: 512,
            lag_window: (2, 40),
            tolerance: 0.0,
        };
        let mut base_fit = fit.clone();
        let baseline = base_fit.refine_attenuation_seeded(&opts, 17, 1)?;
        assert!(!baseline.iterations.is_empty());
        for threads in [2usize, 8] {
            let mut f = fit.clone();
            let refined = f.refine_attenuation_seeded(&opts, 17, threads)?;
            assert_eq!(refined, baseline, "threads={threads}");
            assert_eq!(f.attenuation.to_bits(), base_fit.attenuation.to_bits());
        }
        Ok(())
    }

    #[test]
    fn generator_respects_max_len() -> Result<(), Box<dyn std::error::Error>> {
        let fit = reference_fit()?;
        let g = fit.generator(BackgroundKind::SrdLrd, 256)?;
        assert_eq!(g.max_len(), 256);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(g.generate(300, true, &mut rng).is_err());
        assert!(g.generate(256, true, &mut rng).is_ok());
        assert!(g.generate(128, false, &mut rng).is_ok());
        Ok(())
    }

    #[test]
    fn hosking_and_fast_share_distribution() -> Result<(), Box<dyn std::error::Error>> {
        let fit = reference_fit()?;
        let g = fit.generator(BackgroundKind::SrdLrd, 512)?;
        let mut rng = StdRng::seed_from_u64(4);
        let reps = 40;
        // Pooled lag-1 correlation ratio Σxy/Σx²: the per-path lag-1
        // covariance wanders with the LRD level shift (sd ≈ 0.1 even at
        // 200 reps), while the ratio cancels the wander and is stable to
        // ±0.002 at 40 reps.
        let (mut num_h, mut den_h, mut num_f, mut den_f) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..reps {
            let h = g.background_hosking(512, &mut rng)?;
            num_h += h.windows(2).map(|w| w[0] * w[1]).sum::<f64>();
            den_h += h.iter().map(|x| x * x).sum::<f64>();
            let f = g.background_fast(512, &mut rng)?;
            num_f += f.windows(2).map(|w| w[0] * w[1]).sum::<f64>();
            den_f += f.iter().map(|x| x * x).sum::<f64>();
        }
        let (r1_h, r1_f) = (num_h / den_h, num_f / den_f);
        assert!((r1_h - r1_f).abs() < 0.01, "hosking {r1_h} vs fast {r1_f}");
        Ok(())
    }

    #[test]
    fn generator_fast_path_is_bit_identical_to_fresh_sampler(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let fit = reference_fit()?;
        let g = fit.generator(BackgroundKind::SrdLrd, 2_048)?;
        let model = fit.background_model(BackgroundKind::SrdLrd)?;
        let transform = GaussianTransform::new(fit.marginal.clone());
        let mut r1 = StdRng::seed_from_u64(31);
        let mut r2 = StdRng::seed_from_u64(31);
        // Repeats at one length reuse the memoized set-up; a length change
        // replaces it, and returning to the first length rebuilds it.
        for n in [2_048usize, 2_048, 2_048, 700, 2_048] {
            let ys = g.generate(n, true, &mut r1)?;
            let fresh = DaviesHarte::new_approx(&model, n, 5e-2)?.generate(&mut r2);
            let expect = transform.apply_slice(&fresh);
            assert_eq!(ys.len(), n);
            assert!(
                ys.iter()
                    .zip(&expect)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n = {n}"
            );
        }
        // A clone carries the memo and draws the same bits.
        let h = g.clone();
        let mut r3 = StdRng::seed_from_u64(32);
        let mut r4 = StdRng::seed_from_u64(32);
        assert_eq!(
            h.generate(2_048, true, &mut r3)?,
            g.generate(2_048, true, &mut r4)?
        );
        Ok(())
    }

    #[test]
    fn generator_lazy_table_matches_background_table() -> Result<(), Box<dyn std::error::Error>> {
        let fit = reference_fit()?;
        for kind in [
            BackgroundKind::SrdLrd,
            BackgroundKind::SrdOnly,
            BackgroundKind::LrdOnly,
        ] {
            let g = fit.generator(kind, 600)?;
            let lazy = g.background_acf()?;
            let eager = fit.background_table(kind, 600)?;
            assert_eq!(lazy.len(), eager.len());
            assert!(
                (0..eager.len()).all(|k| lazy.r(k).to_bits() == eager.r(k).to_bits()),
                "{kind:?}"
            );
            // The second call returns the same table, not a new projection.
            assert!(std::ptr::eq(lazy, g.background_acf()?));
        }
        assert!(fit.generator(BackgroundKind::SrdLrd, 0).is_err());
        Ok(())
    }

    #[test]
    fn from_parts_roundtrip() -> Result<(), Box<dyn std::error::Error>> {
        let fit = reference_fit()?;
        let table = fit.background_table(BackgroundKind::SrdLrd, 128)?;
        let g = UnifiedGenerator::from_parts(table.clone(), fit.marginal.clone())?;
        assert_eq!(g.background_acf()?.len(), table.len());
        let mut rng = StdRng::seed_from_u64(5);
        let xs = g.generate(64, true, &mut rng)?;
        assert_eq!(xs.len(), 64);
        assert!(xs.iter().all(|&x| x >= 0.0));
        let _ = g.transform();
        Ok(())
    }
}
