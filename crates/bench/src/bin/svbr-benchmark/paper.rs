//! The paper workloads. `paper_fit` rebuilds Fig. 8 from scratch (§3: fit
//! → attenuation refinement → generate → transform → ACF) on a fresh
//! seeded trace per job, so the process caches keyed on the model miss
//! across jobs as they do for a user regenerating the figure on new data.
//! `paper_overflow` rebuilds the Fig. 16 overflow curves (§4: queue →
//! importance sampling) on the reference movie's fitted model, with fresh
//! IS seeds per job.

use crate::layers::{Attribution, Capture};
use crate::metrics::{median, Report};
use crate::{proc_cpu_ms, RunConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use svbr::is::{valley_search, IsEstimator, IsEvent};
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::Marginal;
use svbr::model::{BackgroundKind, HurstOptions, RefineOptions, UnifiedFit, UnifiedOptions};
use svbr::par::derive_seed;
use svbr::queue::{tail_curve_from_path, Mux};
use svbr::stats::{
    ks_distance_sorted, mavar_hurst, sample_acf_fft, MavarOptions, RsOptions, VtOptions,
};
use svbr::video::{
    reference_trace_intra_of_len, CodecConfig, GopPattern, SceneConfig, VirtualCodec,
};
use svbr_obsv::{span, Stopwatch};

/// Sizes of the paper workloads.
pub struct PaperScale {
    /// Frames per input trace (the paper's movie has 238,626).
    pub frames: usize,
    /// Full-length synthetic traces per Fig. 8 artifact.
    pub gen_reps: usize,
    /// ACF lags compared in Fig. 8.
    pub acf_lags: usize,
    /// Fig. 16 utilizations.
    pub utilizations: &'static [f64],
    /// Fig. 16 normalized buffers `b` (horizon `k = 10b`).
    pub buffers: &'static [f64],
    /// IS replications per twist in the valley search.
    pub valley_reps: usize,
    /// Fewest timed jobs per run.
    pub min_jobs: usize,
}

/// The Fig. 16 twist grid.
const TWISTS: [f64; 9] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0];
/// IS precision target (relative standard error), batch and budget.
const TARGET_REL_ERR: f64 = 0.1;
const IS_BATCH: usize = 64;
const IS_MAX_REPS: usize = 4000;
/// Slots discarded before the trace's steady-state tail is read.
const TAIL_BURN_IN: usize = 1_000;

/// Band for the fitted Ĥ of an input trace: long-range dependent and
/// stationary, around the paper's 0.9. Across seeds the reference scene
/// process fits Ĥ = 0.75–0.90 (rounded to 0.05, as the paper does).
const FIT_HURST_BAND: (f64, f64) = (0.7, 0.999);
/// Least MAVAR-Ĥ of a generated trace: long-range dependent. One path
/// reads 0.75–1.0 across seeds, and up to 1.47 when the fitted SRD
/// correlation time is long (the exponential dominates the regression's
/// lower octaves), so only the lower end separates a working generator
/// from a broken one (Ĥ → ½).
const OUT_HURST_MIN: f64 = 0.65;
/// Refinement seed of the reference context (the same in every run).
const CONTEXT_SEED: u64 = 0x7168;
/// The composite fit's knee lies inside the fitted lag window, away from
/// both ends (DESIGN §4 fig5; across seeds it falls at lags 20–150).
const KNEE_RANGE: (usize, usize) = (10, 300);
/// Set-up samples after each Fig. 16 job. A run has only 3–5 such jobs,
/// and one sample per job left `setup_s` the median of about five.
const OVERFLOW_SETUPS_PER_JOB: usize = 3;

/// MAVAR regression from past the SRD knee up to a third of the path.
fn mavar_options(n: usize) -> MavarOptions {
    MavarOptions {
        min_n: 100,
        max_n: (n.saturating_sub(49) / 3).min(8192),
        points: 16,
        min_terms: 50,
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Step-1 estimator options scaled to the trace length — the ones the
/// repro harness fits Fig. 8 with.
fn fit_options(n: usize) -> UnifiedOptions {
    UnifiedOptions {
        hurst: HurstOptions {
            vt: VtOptions {
                min_m: 100,
                max_m: (n / 50).clamp(500, 10_000),
                points: 20,
                min_blocks: 50,
            },
            rs: RsOptions {
                min_n: 64,
                max_n: (n / 4).next_power_of_two().min(1 << 16),
                sizes: 20,
                starts: 10,
            },
            gph_frequencies: None,
            extended_estimators: true,
            round_to: 0.05,
        },
        ..UnifiedOptions::default()
    }
}

/// A fresh intraframe trace from the reference codec, seeded by `seed`.
fn input_trace(seed: u64, frames: usize) -> Result<Vec<f64>, String> {
    let codec = VirtualCodec::new(
        SceneConfig::default(),
        CodecConfig {
            pattern: GopPattern::intra_only(),
            ..CodecConfig::default()
        },
    )
    .map_err(err)?;
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(codec.encode(frames, &mut rng).as_f64())
}

/// Steps 1–3 plus the attenuation refinement; returns the refinement's
/// accepted iterations too.
fn fit_model(trace: &[f64], seed: u64, threads: usize) -> Result<(UnifiedFit, usize), String> {
    let mut fit = {
        let _span = span("core.fit");
        UnifiedFit::fit(trace, &fit_options(trace.len())).map_err(err)?
    };
    let refined = {
        let _span = span("core.refine");
        fit.refine_attenuation_seeded(&RefineOptions::default(), seed, threads)
            .map_err(err)?
    };
    Ok((fit, refined.iterations.len()))
}

/// Set-up samples: the time to build the model context (fit + refine).
/// The first build, before any job, fits the reference movie (pinned
/// seed) — the context `paper_overflow` keeps, because Fig. 16's cost
/// depends strongly on the fitted model and a seeded context would make
/// it swing from run to run. More builds on fresh seeded traces follow
/// every job: a shared virtual machine's speed can shift by a third for
/// seconds at a time, so samples spread over the run give a median that
/// does not hang on one such phase. Each build fits a different
/// trace, so none hits the caches an earlier one filled. A seeded trace
/// the pipeline rejects is replaced by the next draw; as with jobs, more
/// than a fifth rejected is a failure.
struct Setups {
    secs: Vec<f64>,
    draws: u64,
    rejected: u64,
}

impl Setups {
    /// Build the reference context: the first set-up sample.
    fn reference(cfg: &RunConfig) -> Result<(Self, Vec<f64>, UnifiedFit), String> {
        let trace = reference_trace_intra_of_len(cfg.scale.paper.frames).as_f64();
        let clock = Stopwatch::start();
        let (fit, _) = fit_model(&trace, CONTEXT_SEED, cfg.threads)?;
        let first = Self {
            secs: vec![clock.elapsed_secs()],
            draws: 0,
            rejected: 0,
        };
        Ok((first, trace, fit))
    }

    /// Time one more build on a fresh seeded trace.
    fn sample(&mut self, cfg: &RunConfig) -> Result<(), String> {
        loop {
            let seed = derive_seed(cfg.seed, u64::MAX - self.draws);
            self.draws += 1;
            let trace = input_trace(seed, cfg.scale.paper.frames)?;
            let clock = Stopwatch::start();
            match fit_model(&trace, derive_seed(seed, 1), cfg.threads) {
                Ok(_) => {
                    self.secs.push(clock.elapsed_secs());
                    return Ok(());
                }
                Err(e) => {
                    self.rejected += 1;
                    if self.rejected > 2 + self.secs.len() as u64 / 5 {
                        return Err(format!("{} set-up draws rejected: {e}", self.rejected));
                    }
                }
            }
        }
    }

    fn report(&self, report: &mut Report) {
        let secs = median(&self.secs);
        report.set("setup_s", secs, self.secs.len());
        report.set("core.context_ms", secs * 1e3, self.secs.len());
    }
}

/// The run's job schedule and timings. A job starts while the elapsed
/// time plus half the median job so far fits in the run, and at least
/// `min_jobs` run. In a traced run odd jobs are traced and even ones are
/// not, so one run also measures what tracing costs.
///
/// `paper_fit` inputs are draws from the seeded codec. About one draw in
/// fifty yields a trace the pipeline rejects (no valid knee, eq. 12
/// continuity violated, or a compensated ACF Davies–Harte cannot embed):
/// such a job is not timed, its input counts in `core.inputs_rejected`,
/// and the next draw replaces it. More than a fifth of the jobs rejected
/// is a failure.
struct Jobs {
    clock: Stopwatch,
    seconds: f64,
    min_jobs: usize,
    trace: bool,
    draws: u64,
    rejected: Vec<String>,
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    traced_cpu_ms: Vec<f64>,
    traced_wall_us: u64,
    layers: Attribution,
}

impl Jobs {
    fn new(cfg: &RunConfig) -> Self {
        Self {
            clock: Stopwatch::start(),
            seconds: cfg.seconds,
            min_jobs: cfg.scale.paper.min_jobs,
            trace: cfg.trace,
            draws: 0,
            rejected: Vec::new(),
            wall_ms: Vec::new(),
            cpu_ms: Vec::new(),
            traced_cpu_ms: Vec::new(),
            traced_wall_us: 0,
            layers: Attribution::default(),
        }
    }

    fn too_many_rejected(&self) -> bool {
        self.rejected.len() > 2 + self.wall_ms.len() / 5
    }

    /// The next job's input draw and whether it is traced, if one should
    /// run.
    fn next(&self) -> Option<(u64, bool)> {
        let k = self.wall_ms.len();
        let expected = median(&self.wall_ms) / 2e3;
        let more = k < self.min_jobs || self.clock.elapsed_secs() + expected < self.seconds;
        (more && !self.too_many_rejected()).then_some((self.draws, self.trace && k % 2 == 1))
    }

    /// Time one job (wall and process CPU), capturing its spans if traced.
    /// A job that fails is not timed.
    fn run<T>(
        &mut self,
        report: &mut Report,
        traced: bool,
        job: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        report.attempted += 1;
        self.draws += 1;
        let capture = traced.then(Capture::start);
        let cpu0 = proc_cpu_ms()?;
        let clock = Stopwatch::start();
        let out = job();
        let wall_us = clock.elapsed_us();
        let cpu = proc_cpu_ms()? - cpu0;
        let events = capture.map(Capture::finish);
        let out = out?;
        if let Some(events) = events {
            self.layers.add(&Attribution::of_thread(
                &events,
                svbr_obsv::thread_ordinal(),
            ));
            self.traced_wall_us += wall_us;
            self.traced_cpu_ms.push(cpu);
        }
        self.wall_ms.push(wall_us as f64 / 1e3);
        self.cpu_ms.push(cpu);
        Ok(out)
    }

    fn traced_jobs(&self) -> f64 {
        self.traced_cpu_ms.len().max(1) as f64
    }

    /// Per-artifact latency and CPU, and in a traced run the tracing
    /// overhead and the share of traced wall time the layers account for.
    fn report(&self, report: &mut Report) {
        let n = self.wall_ms.len();
        report.set("core.inputs_rejected", self.rejected.len() as f64, n);
        if self.too_many_rejected() {
            report.fail(format!(
                "{} of {} inputs rejected, e.g.: {}",
                self.rejected.len(),
                self.draws,
                self.rejected.join("; ")
            ));
        }
        report.set("latency_ms_p50", median(&self.wall_ms), n);
        // CPU per untraced artifact: every artifact in an untraced run.
        let cpu_total: f64 = self.cpu_ms.iter().sum();
        let traced: f64 = self.traced_cpu_ms.iter().sum();
        let untraced = n - self.traced_cpu_ms.len();
        let per_untraced = (cpu_total - traced) / untraced.max(1) as f64;
        report.set("cpu_ms_per_op", per_untraced, untraced);
        if self.trace {
            let per_traced = traced / self.traced_jobs();
            report.set(
                "obsv.trace_overhead_pct",
                100.0 * (per_traced / per_untraced.max(1e-9) - 1.0),
                n,
            );
            report.set(
                "profile.coverage_pct",
                100.0 * self.layers.attributed_us() as f64 / self.traced_wall_us.max(1) as f64,
                self.traced_cpu_ms.len(),
            );
        }
    }

    /// Per traced artifact: the self time of each layer metric.
    fn report_layers(&self, report: &mut Report, metrics: &[&'static str]) {
        if !self.trace {
            return;
        }
        for &m in metrics {
            report.set(
                m,
                self.layers.ms(m) / self.traced_jobs(),
                self.traced_cpu_ms.len(),
            );
        }
    }
}

fn in_band(x: f64, (lo, hi): (f64, f64)) -> bool {
    (lo..=hi).contains(&x)
}

/// Root-mean-square gap over lags `1..`.
fn rms_gap(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let sq: f64 = (1..n).map(|k| (a[k] - b[k]).powi(2)).sum();
    (sq / (n - 1) as f64).sqrt()
}

/// `paper_fit`: Fig. 8 from scratch per job.
pub fn paper_fit(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let s = &cfg.scale.paper;
    let (mut setups, _, _) = Setups::reference(cfg)?;
    let lags = s.acf_lags.min(s.frames - 1);
    let mut jobs = Jobs::new(cfg);
    let (mut iters, mut h_err, mut acf_l2, mut ks) = (0.0, 0.0, 0.0, 0.0);
    while let Some((k, traced)) = jobs.next() {
        let seed = derive_seed(cfg.seed, k);
        let trace = input_trace(seed, s.frames)?;
        let job = jobs.run(report, traced, || {
            let (fit, refine_iters) = fit_model(&trace, derive_seed(seed, 1), cfg.threads)?;
            let generator = {
                let _span = span("lrd.pd_project");
                fit.generator(BackgroundKind::SrdLrd, s.frames)
                    .map_err(err)?
            };
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2));
            let mut acf = vec![0.0; lags + 1];
            let mut ys = Vec::new();
            for _ in 0..s.gen_reps {
                ys = {
                    let _span = span("core.generate");
                    generator.generate(s.frames, true, &mut rng).map_err(err)?
                };
                let r = {
                    let _span = span("stats.acf");
                    sample_acf_fft(&ys, lags).map_err(err)?
                };
                for (a, v) in acf.iter_mut().zip(&r) {
                    *a += v / s.gen_reps as f64;
                }
            }
            Ok((fit, refine_iters, ys, acf))
        });
        setups.sample(cfg)?;
        let (fit, refine_iters, ys, acf) = match job {
            Ok(out) => out,
            Err(why) => {
                jobs.rejected.push(why);
                continue;
            }
        };
        let h = fit.hurst.combined;
        let mavar_h = mavar_hurst(&ys, &mavar_options(ys.len()))
            .map_err(err)?
            .hurst;
        let knee = fit.acf_fit.knee;
        report.check(in_band(h, FIT_HURST_BAND), || {
            format!("paper_fit job {k}: fitted H {h} outside {FIT_HURST_BAND:?}")
        });
        report.check(mavar_h >= OUT_HURST_MIN, || {
            format!("paper_fit job {k}: generated MAVAR-H {mavar_h} below {OUT_HURST_MIN}")
        });
        report.check((KNEE_RANGE.0..=KNEE_RANGE.1).contains(&knee), || {
            format!("paper_fit job {k}: knee {knee} outside {KNEE_RANGE:?}")
        });
        let mut sorted = ys;
        sorted.sort_by(f64::total_cmp);
        iters += refine_iters as f64;
        h_err += (mavar_h - h).abs();
        acf_l2 += rms_gap(&acf, &fit.empirical_acf);
        ks += ks_distance_sorted(&sorted, |x| fit.marginal.cdf(x)).map_err(err)?;
    }
    setups.report(report);
    jobs.report(report);
    let n = jobs.wall_ms.len();
    let per_job = |total: f64| total / n.max(1) as f64;
    let frames = (s.gen_reps * s.frames * n) as f64;
    let wall_s: f64 = jobs.wall_ms.iter().sum::<f64>() / 1e3;
    report.set("frames_per_s", frames / wall_s.max(1e-9), n);
    report.set("core.refine_iters", per_job(iters), n);
    report.set("hurst_abs_err", per_job(h_err), n);
    report.set("acf_l2", per_job(acf_l2), n);
    report.set("ks_dist", per_job(ks), n);
    jobs.report_layers(
        report,
        &[
            "core.fit_ms",
            "core.refine_ms",
            "lrd.pd_project_ms",
            "lrd.dh_setup_ms",
            "lrd.dh_generate_ms",
            "marginal.transform_ms",
            "stats.acf_ms",
        ],
    );
    if cfg.trace {
        report.set(
            "lrd.dh_setup_count",
            jobs.layers.count("davies_harte.setup") as f64 / jobs.traced_jobs(),
            jobs.traced_cpu_ms.len(),
        );
    }
    Ok(())
}

/// One Fig. 16 point.
struct Point {
    p: f64,
    rel_err: f64,
    hits: usize,
    reps: usize,
    mean_slots: f64,
    ess: f64,
    run_s: f64,
    p_trace: f64,
}

/// One Fig. 16 artifact: for every utilization, the trace's steady-state
/// tail, then per buffer the background table, the valley search over
/// the twist grid, and IS at the chosen twist to the target precision.
fn overflow_curve(
    cfg: &RunConfig,
    trace: &[f64],
    fit: &UnifiedFit,
    seed: u64,
) -> Result<Vec<Vec<Point>>, String> {
    let s = &cfg.scale.paper;
    let mut curves = Vec::new();
    for (ui, &utilization) in s.utilizations.iter().enumerate() {
        let mux = Mux::new(fit.marginal.mean(), utilization).map_err(err)?;
        let buffers: Vec<f64> = s.buffers.iter().map(|&b| mux.buffer(b)).collect();
        let tail = {
            let _span = span("queue.trace_tail");
            tail_curve_from_path(trace, mux.service_rate(), TAIL_BURN_IN, &buffers).map_err(err)?
        };
        let mut curve = Vec::new();
        for (bi, &b) in s.buffers.iter().enumerate() {
            let point_seed = derive_seed(seed, (ui * s.buffers.len() + bi) as u64);
            let horizon = ((10.0 * b) as usize).max(2);
            let transform = GaussianTransform::new(fit.marginal.clone());
            let table = {
                let _span = span("lrd.table");
                fit.background_table(BackgroundKind::SrdLrd, horizon)
                    .map_err(err)?
            };
            let (valley, best) = {
                let _span = span("is.valley");
                valley_search(
                    &table,
                    horizon,
                    transform.clone(),
                    mux.service_rate(),
                    buffers[bi],
                    IsEvent::FirstPassage,
                    &TWISTS,
                    s.valley_reps,
                    point_seed,
                    cfg.threads,
                )
                .map_err(err)?
            };
            // No hit at any twist: fall back to the strongest one.
            let twist = if valley.iter().all(|v| v.estimate.hits == 0) {
                TWISTS[TWISTS.len() - 1]
            } else {
                valley[best].twist
            };
            let estimator = {
                let _span = span("is.new");
                IsEstimator::new(
                    &table,
                    horizon,
                    transform,
                    mux.service_rate(),
                    buffers[bi],
                    twist,
                    IsEvent::FirstPassage,
                )
                .map_err(err)?
            };
            let clock = Stopwatch::start();
            let e = {
                let _span = span("is.run");
                estimator.run_to_relative_error(
                    TARGET_REL_ERR,
                    IS_BATCH,
                    IS_MAX_REPS,
                    derive_seed(point_seed, 1),
                    cfg.threads,
                )
            };
            curve.push(Point {
                p: e.p,
                rel_err: e.relative_error(),
                hits: e.hits,
                reps: e.n,
                mean_slots: e.mean_slots,
                ess: e.effective_sample_size(),
                run_s: clock.elapsed_secs(),
                p_trace: tail[bi].1,
            });
        }
        curves.push(curve);
    }
    Ok(curves)
}

/// The DESIGN §4 fig16 shape on one artifact: every point reached the
/// precision target with hits; each curve does not rise from its smallest
/// to its largest buffer (beyond 4σ of the two estimates); the curves are
/// ordered by utilization (mean log P over the buffers).
fn check_fig16(report: &mut Report, job: u64, utilizations: &[f64], curves: &[Vec<Point>]) {
    for (u, curve) in utilizations.iter().zip(curves) {
        for p in curve {
            report.check(p.hits > 0 && p.rel_err <= TARGET_REL_ERR, || {
                format!(
                    "paper_overflow job {job}: util {u}: IS stopped at relative error {} \
                     with {} hits after {} reps",
                    p.rel_err, p.hits, p.reps
                )
            });
        }
        if let (Some(first), Some(last)) = (curve.first(), curve.last()) {
            let slack = 4.0 * (first.rel_err.powi(2) + last.rel_err.powi(2)).sqrt();
            report.check(last.p.ln() <= first.p.ln() + slack, || {
                format!(
                    "paper_overflow job {job}: util {u}: P rises with b ({} -> {})",
                    first.p, last.p
                )
            });
        }
    }
    let levels: Vec<f64> = curves
        .iter()
        .map(|c| c.iter().map(|p| p.p.max(1e-300).ln()).sum::<f64>() / c.len().max(1) as f64)
        .collect();
    report.check(levels.windows(2).all(|w| w[0] < w[1]), || {
        format!("paper_overflow job {job}: curves not ordered by utilization: {levels:?}")
    });
}

/// `paper_overflow`: the Fig. 16 curves per job, on one fitted context.
pub fn paper_overflow(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let (mut setups, trace, fit) = Setups::reference(cfg)?;
    let mut jobs = Jobs::new(cfg);
    let (mut reps, mut run_s, mut slots) = (0usize, 0.0, 0.0);
    let mut ess_min = f64::INFINITY;
    let mut dev = Vec::new();
    while let Some((k, traced)) = jobs.next() {
        let seed = derive_seed(cfg.seed, k);
        let curves = jobs.run(report, traced, || overflow_curve(cfg, &trace, &fit, seed))?;
        for _ in 0..OVERFLOW_SETUPS_PER_JOB {
            setups.sample(cfg)?;
        }
        check_fig16(report, k, cfg.scale.paper.utilizations, &curves);
        for p in curves.iter().flatten() {
            reps += p.reps;
            run_s += p.run_s;
            slots += p.mean_slots * p.reps as f64;
            ess_min = ess_min.min(p.ess);
            if p.p > 0.0 && p.p_trace > 0.0 {
                dev.push((p.p.log10() - p.p_trace.log10()).abs());
            }
        }
    }
    setups.report(report);
    jobs.report(report);
    let n = jobs.wall_ms.len();
    report.set("is.reps", reps as f64 / n.max(1) as f64, n);
    report.set("is.reps_per_s", reps as f64 / run_s.max(1e-9), n);
    report.set("is.mean_slots", slots / reps.max(1) as f64, reps);
    report.set(
        "is.ess_min",
        if ess_min.is_finite() { ess_min } else { 0.0 },
        n,
    );
    report.set(
        "overflow_log10_dev",
        dev.iter().sum::<f64>() / dev.len().max(1) as f64,
        dev.len(),
    );
    jobs.report_layers(
        report,
        &[
            "lrd.table_ms",
            "lrd.hosking_prepare_ms",
            "is.valley_ms",
            "is.run_ms",
            "queue.trace_tail_ms",
        ],
    );
    if cfg.trace {
        report.set(
            "lrd.hosking_prepare_count",
            jobs.layers.count("hosking.prepare") as f64 / jobs.traced_jobs(),
            jobs.traced_cpu_ms.len(),
        );
    }
    Ok(())
}
