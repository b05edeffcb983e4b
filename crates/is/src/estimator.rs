//! The IS replication loop and replicated estimator (§4 procedure,
//! steps 1–8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use svbr_domain::SvbrError;
use svbr_lrd::acf::Acf;
use svbr_lrd::gauss::Normal;
use svbr_lrd::hosking::PreparedHosking;
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::Marginal;

/// Replication interval between streaming-telemetry emissions in
/// [`IsEstimator::run`] (a final emission always lands on the last
/// replication, so short runs still report once).
pub const PROGRESS_CHUNK: usize = 256;

/// Kish effective sample size at which the `is.ess` convergence watermark
/// declares the weighted sample healthy. Below this, a handful of huge
/// likelihood ratios carry the estimate (cf. [`IsEstimator::run_checked`]).
pub const ESS_TARGET: f64 = 64.0;

/// Relative 95% CI half-width (`1.96·σ̂/P̂`) at which the
/// `is.rel_ci_half_width` watermark declares the estimate converged —
/// ±25%, roughly the precision of the paper's Fig. 16 points.
pub const REL_CI_TARGET: f64 = 0.25;

/// Which overflow event a replication scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IsEvent {
    /// `sup_{i ≤ k} W_i > b` — the paper's procedure. Equivalent in
    /// distribution to `Q_k > b` for a queue started empty (eq. 17), and
    /// allows early termination on the first crossing (step 5).
    FirstPassage,
    /// `Q_k > b` at the horizon for the Lindley recursion started at the
    /// given level: the one-stop-time case of
    /// [`IsEstimator::transient_curve`]. No early termination.
    LevelAtHorizon {
        /// Initial queue level `Q_0`.
        initial: f64,
    },
}

/// Outcome of one IS replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsReplication {
    /// Whether the overflow event occurred (`I_n`).
    pub hit: bool,
    /// `I_n · L` — the unbiased contribution of this replication.
    pub weight: f64,
    /// Accumulated log-likelihood ratio at termination.
    pub log_lr: f64,
    /// Slots actually simulated (early termination makes this < horizon).
    pub slots_used: usize,
}

/// Replicated IS estimate of `Pr(Q_k > b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsEstimate {
    /// Point estimate `P̂ = (1/N) Σ I_n L_n`.
    pub p: f64,
    /// Number of replications.
    pub n: usize,
    /// Estimated variance of the estimator (sample variance of the
    /// weights divided by N).
    pub variance: f64,
    /// Number of replications in which the event occurred.
    pub hits: usize,
    /// Mean slots simulated per replication.
    pub mean_slots: f64,
}

impl IsEstimate {
    /// Standard error.
    pub fn std_err(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Normalized variance `Var[P̂]/P̂²` — the y-axis of Fig. 14.
    pub fn normalized_variance(&self) -> f64 {
        if self.p > 0.0 {
            self.variance / (self.p * self.p)
        } else {
            f64::INFINITY
        }
    }

    /// 95% normal-approximation confidence interval.
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.96 * self.std_err();
        ((self.p - half).max(0.0), self.p + half)
    }

    /// Variance-reduction factor vs. plain Monte Carlo at the same
    /// replication count: `p(1−p)/N` over this estimator's variance.
    /// (The paper reports ≈1000 at the near-optimal twist.)
    pub fn variance_reduction(&self) -> f64 {
        if self.variance > 0.0 {
            (self.p * (1.0 - self.p) / self.n as f64) / self.variance
        } else {
            f64::INFINITY
        }
    }

    /// Kish effective sample size `(Σw)²/Σw²`, recovered exactly from
    /// `(p, variance, n)` (the weight sums are invertible from the stored
    /// moments, the same identity [`Self::merge`] uses). 0 when no weight
    /// was collected.
    ///
    /// This is the estimator-health number: `n` replications whose weights
    /// are dominated by a handful of huge likelihood ratios are worth far
    /// fewer than `n` i.i.d. draws, and an ESS collapse means the twist is
    /// past the Fig. 14 valley and the estimate cannot be trusted.
    pub fn effective_sample_size(&self) -> f64 {
        // sum = n·p, sum_sq = n·(n·variance + p²) ⇒ ESS = n·p²/(n·variance + p²)
        let denom = self.n as f64 * self.variance + self.p * self.p;
        if denom > 0.0 {
            self.n as f64 * self.p * self.p / denom
        } else {
            0.0
        }
    }

    /// Relative error `std_err/p` (∞ when the estimate is 0).
    pub fn relative_error(&self) -> f64 {
        if self.p > 0.0 {
            self.std_err() / self.p
        } else {
            f64::INFINITY
        }
    }

    /// Relative 95% CI half-width `1.96·std_err/p` (∞ when the estimate
    /// is 0) — the streaming convergence quantity watched by the
    /// `is.rel_ci_half_width` watermark in [`IsEstimator::run`].
    pub fn rel_ci_half_width(&self) -> f64 {
        1.96 * self.relative_error()
    }

    /// Merge two independent estimates of the same quantity (pooling their
    /// replications). Exact: the weight sums and sums of squares are
    /// recovered from `(p, variance, n)`.
    pub fn merge(&self, other: &IsEstimate) -> IsEstimate {
        let n = self.n + other.n;
        if n == 0 {
            return *self;
        }
        let sum = self.p * self.n as f64 + other.p * other.n as f64;
        let sum_sq = |e: &IsEstimate| {
            // variance = (sum_sq/n − p²)/n  ⇒  sum_sq = n·(n·variance + p²)
            e.n as f64 * (e.n as f64 * e.variance + e.p * e.p)
        };
        let total_sq = sum_sq(self) + sum_sq(other);
        let p = sum / n as f64;
        let var_w = (total_sq / n as f64 - p * p).max(0.0);
        IsEstimate {
            p,
            n,
            variance: var_w / n as f64,
            hits: self.hits + other.hits,
            mean_slots: (self.mean_slots * self.n as f64 + other.mean_slots * other.n as f64)
                / n as f64,
        }
    }
}

/// Check the queueing configuration every estimator needs: a horizon of at
/// least one slot, a finite positive service rate, and a finite buffer.
fn check_system(horizon: usize, service: f64, buffer: f64) -> Result<(), SvbrError> {
    if horizon == 0 {
        return Err(SvbrError::OutOfRange {
            name: "horizon",
            constraint: ">= 1",
        });
    }
    if !service.is_finite() {
        return Err(SvbrError::NotFinite { name: "service" });
    }
    if service <= 0.0 {
        return Err(SvbrError::OutOfRange {
            name: "service",
            constraint: "> 0",
        });
    }
    if !buffer.is_finite() {
        return Err(SvbrError::NotFinite { name: "buffer" });
    }
    Ok(())
}

/// The IS estimator for a fixed system configuration.
///
/// Construction runs the Durbin–Levinson recursion once
/// ([`PreparedHosking`]); each replication then costs O(slots²) in dot
/// products only — and early termination (step 5 of the paper's procedure)
/// usually keeps `slots ≪ horizon` at a good twist. The prepared schedule
/// sits behind an [`Arc`], so clones and [`Self::with_twist`] share it.
#[derive(Debug, Clone)]
pub struct IsEstimator<M> {
    prepared: Arc<PreparedHosking>,
    transform: GaussianTransform<M>,
    service: f64,
    buffer: f64,
    twist: f64,
    event: IsEvent,
}

impl<M: Marginal> IsEstimator<M> {
    /// Build from the background ACF (twisting happens on this process),
    /// the foreground transform, and the queueing configuration.
    pub fn new<A: Acf>(
        acf: A,
        horizon: usize,
        transform: GaussianTransform<M>,
        service: f64,
        buffer: f64,
        twist: f64,
        event: IsEvent,
    ) -> Result<Self, SvbrError> {
        check_system(horizon, service, buffer)?;
        if !twist.is_finite() {
            return Err(SvbrError::NotFinite { name: "twist" });
        }
        Ok(Self {
            prepared: Arc::new(PreparedHosking::new(acf, horizon).map_err(SvbrError::from)?),
            transform,
            service,
            buffer,
            twist,
            event,
        })
    }

    /// The horizon `k`.
    pub fn horizon(&self) -> usize {
        self.prepared.len()
    }

    /// The twist `m*`.
    pub fn twist(&self) -> f64 {
        self.twist
    }

    /// The buffer threshold `b`.
    pub(crate) fn buffer(&self) -> f64 {
        self.buffer
    }

    /// Clone with a different twist. The prepared recursion is shared, not
    /// copied.
    pub fn with_twist(&self, twist: f64) -> Self
    where
        M: Clone,
    {
        Self {
            twist,
            ..self.clone()
        }
    }

    /// Run one replication (steps 2–7 of the paper's procedure).
    ///
    /// Allocates its path buffer per call; the `run*` methods reuse one
    /// buffer across replications instead.
    pub fn replicate<R: Rng + ?Sized>(&self, rng: &mut R) -> IsReplication {
        self.replicate_one(rng, &mut PathScratch::default())
    }

    /// [`Self::replicate`] on caller-owned buffers.
    fn replicate_one<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut PathScratch,
    ) -> IsReplication {
        let horizon = [self.horizon()];
        let (initial, scoring) = self.scoring(&horizon);
        let lane = LaneSpec {
            twist: self.twist,
            initial,
        };
        self.replicate_lanes(&[lane], scoring, rng, scratch);
        scratch.outcomes[0]
    }

    /// The initial level and scoring of this estimator's event; `horizon`
    /// holds the one stop time a [`IsEvent::LevelAtHorizon`] lane is
    /// scored at.
    fn scoring<'a>(&self, horizon: &'a [usize; 1]) -> (f64, Scoring<'a>) {
        match self.event {
            IsEvent::FirstPassage => (0.0, Scoring::FirstPassage),
            IsEvent::LevelAtHorizon { initial } => (initial, Scoring::Levels(horizon)),
        }
    }

    /// The IS replication kernel: one replication scoring every lane in
    /// `lanes` on one shared background path (this estimator's own twist
    /// is not used). Leaves the outcomes in `scratch.outcomes`: one per
    /// lane under [`Scoring::FirstPassage`], one per lane and stop time
    /// (stop-major) under [`Scoring::Levels`].
    ///
    /// The twisted conditional mean is `m_i(x) + m*·(1 − Σφ)` (eqs. 35–36),
    /// and `m_i` is linear in the history, so the path twisted by `m*` is
    /// exactly `x = y + m*` with `y` the *untwisted* path driven by the same
    /// innovations `ε`. Each slot therefore costs one Durbin–Levinson dot
    /// product and one normal draw however many lanes are scored; per lane
    /// it adds only the likelihood-ratio increment, `h(y + m*)` and the
    /// workload or queue update. First-passage lanes stop at their
    /// crossing and the path stops once every lane has; level lanes run to
    /// the last stop time.
    fn replicate_lanes<R: Rng + ?Sized>(
        &self,
        specs: &[LaneSpec],
        scoring: Scoring<'_>,
        rng: &mut R,
        scratch: &mut PathScratch,
    ) {
        let slots = match scoring {
            Scoring::FirstPassage => self.prepared.len(),
            Scoring::Levels(stops) => stops.last().copied().unwrap_or(0),
        };
        let PathScratch {
            path,
            lanes,
            outcomes,
        } = scratch;
        path.clear();
        path.reserve(slots);
        lanes.clear();
        lanes.extend(specs.iter().map(|spec| Lane {
            twist: spec.twist,
            log_lr: 0.0,
            level: spec.initial,
            stopped_at: None,
        }));
        outcomes.clear();
        let mut live = lanes.len();
        let mut next_stop = 0;
        let mut normal = Normal::new();
        for i in 0..slots {
            if live == 0 {
                break;
            }
            let m = self.prepared.moments(i, path);
            let eps = normal.sample(rng) * m.var.sqrt();
            let y = m.mean + eps;
            path.push(y);
            for lane in lanes.iter_mut() {
                if lane.stopped_at.is_some() {
                    continue;
                }
                // ln L_i = −shift·(2ε + shift)/(2v), shift = m*·(1 − Σφ)
                // (see crate docs).
                let shift = lane.twist * (1.0 - m.phi_sum);
                // Exact zero: untwisted replications must skip the LR update entirely
                if shift != 0.0 {
                    lane.log_lr -= shift * (2.0 * eps + shift) / (2.0 * m.var);
                    debug_assert!(
                        lane.log_lr.is_finite(),
                        "likelihood-ratio accumulator left the finite range at slot {i}"
                    );
                }
                let arrivals = self.transform.apply(y + lane.twist);
                match scoring {
                    Scoring::FirstPassage => {
                        lane.level += arrivals - self.service;
                        if lane.level > self.buffer {
                            lane.stopped_at = Some(i + 1);
                            live -= 1;
                        }
                    }
                    Scoring::Levels(_) => {
                        lane.level = (lane.level + arrivals - self.service).max(0.0);
                    }
                }
            }
            if let Scoring::Levels(stops) = scoring {
                while stops.get(next_stop) == Some(&(i + 1)) {
                    outcomes.extend(
                        lanes
                            .iter()
                            .map(|lane| lane.outcome(lane.level > self.buffer, i + 1)),
                    );
                    next_stop += 1;
                }
            }
        }
        if let Scoring::FirstPassage = scoring {
            outcomes.extend(lanes.iter().map(|lane| {
                lane.outcome(lane.stopped_at.is_some(), lane.stopped_at.unwrap_or(slots))
            }));
        }
    }

    /// Importance-sampled transient curves (Fig. 15): for each initial
    /// queue level `Q_0` in `initials`, the estimates of `Pr(Q_k > b)` at
    /// each stop time `k` in `stop_times` (nondecreasing, each in
    /// `1..=horizon`), as `curves[j][s]` for `initials[j]` and
    /// `stop_times[s]`. The estimate's `mean_slots` is its stop time.
    ///
    /// Every initial level is a lane of one twisted path per replication,
    /// at this estimator's twist (its event is not used): the queue
    /// `Q_i = max(Q_{i−1} + h(y_i + m*) − c, 0)` runs from each level, and
    /// at stop time `k` each lane scores `1{Q_k > b}·L_k`. The lanes share
    /// the path and the likelihood ratio, and the Lindley step is monotone
    /// in `Q_0` under IEEE rounding, so a higher start never estimates a
    /// lower probability at any stop time. Replications run to the last
    /// stop time (no early termination).
    ///
    /// Replication `i` draws from `svbr_par::derive_seed(master_seed, i)`
    /// and outcomes are folded in replication order, so the curves are
    /// bit-identical for any thread count.
    pub fn transient_curve(
        &self,
        initials: &[f64],
        stop_times: &[usize],
        n_reps: usize,
        master_seed: u64,
        threads: usize,
    ) -> Result<Vec<Vec<IsEstimate>>, crate::IsError>
    where
        M: Sync,
    {
        if initials.is_empty() || !initials.iter().all(|q| q.is_finite() && *q >= 0.0) {
            return Err(crate::IsError::InvalidParameter {
                name: "initials",
                constraint: "non-empty, each finite and >= 0",
            });
        }
        if stop_times.first().is_none_or(|&k| k == 0)
            || stop_times.last().is_none_or(|&k| k > self.horizon())
            || stop_times.windows(2).any(|w| w[1] < w[0])
        {
            return Err(crate::IsError::InvalidParameter {
                name: "stop_times",
                constraint: "non-empty, nondecreasing, each in 1..=horizon",
            });
        }
        if n_reps == 0 {
            return Err(crate::IsError::InvalidParameter {
                name: "n_reps",
                constraint: ">= 1",
            });
        }
        let lanes: Vec<LaneSpec> = initials
            .iter()
            .map(|&initial| LaneSpec {
                twist: self.twist,
                initial,
            })
            .collect();
        let scoring = Scoring::Levels(stop_times);
        let estimates = self.run_lanes_from(&lanes, scoring, n_reps, master_seed, 0, threads);
        Ok((0..lanes.len())
            .map(|j| {
                estimates
                    .iter()
                    .skip(j)
                    .step_by(lanes.len())
                    .copied()
                    .collect()
            })
            .collect())
    }

    /// Run `n` replications sequentially.
    ///
    /// When tracing is enabled, every [`PROGRESS_CHUNK`] replications (and
    /// once more on the last) this streams the running Kish effective
    /// sample size and relative 95% CI half-width as `is.progress` points
    /// plus `is.ess` / `is.rel_ci_half_width` gauges, and two
    /// [`svbr_obsv::Watermark`]s record *when* each quantity first crossed
    /// its declared target ([`ESS_TARGET`], [`REL_CI_TARGET`]). None of it
    /// consumes randomness, so traced and untraced runs are bit-identical.
    pub fn run<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> IsEstimate {
        let mut acc = Accumulator::default();
        let mut scratch = PathScratch::default();
        let mut telemetry = svbr_obsv::enabled().then(|| {
            (
                svbr_obsv::Watermark::above("is.ess", ESS_TARGET),
                svbr_obsv::Watermark::below("is.rel_ci_half_width", REL_CI_TARGET),
            )
        });
        for i in 0..n {
            acc.add(&self.replicate_one(rng, &mut scratch));
            let Some((ess_wm, ci_wm)) = telemetry.as_mut() else {
                continue;
            };
            let done = i + 1;
            if !done.is_multiple_of(PROGRESS_CHUNK) && done != n {
                continue;
            }
            let running = acc.finish();
            let ess = acc.effective_sample_size();
            let rel_ci = running.rel_ci_half_width();
            svbr_obsv::gauge("is.ess").set(ess);
            svbr_obsv::gauge("is.rel_ci_half_width").set(rel_ci);
            svbr_obsv::point(
                "is.progress",
                &[
                    ("n", done as f64),
                    ("p", running.p),
                    ("effective_sample_size", ess),
                    ("rel_ci_half_width", rel_ci),
                ],
            );
            ess_wm.observe(done as u64, ess);
            ci_wm.observe(done as u64, rel_ci);
        }
        let est = acc.finish();
        self.observe_run(self.twist, &acc, &est, "sequential");
        est
    }

    /// Publish per-run diagnostics to the obsv layer: likelihood-ratio
    /// mean/variance (in log space), Kish effective sample size, and the
    /// twist used — the quantities that tell whether the change of measure
    /// is healthy.
    fn observe_run(&self, twist: f64, acc: &Accumulator, est: &IsEstimate, mode: &str) {
        svbr_obsv::counter_with("is.batch.replications", &[("mode", mode)]).add(acc.n as u64);
        if svbr_obsv::enabled() {
            svbr_obsv::record_tick(acc.n as u64);
        }
        svbr_obsv::counter("is.hits").add(acc.hits as u64);
        let ess = acc.effective_sample_size();
        svbr_obsv::gauge("is.ess").set(ess);
        if !svbr_obsv::enabled() {
            return;
        }
        let nf = acc.n.max(1) as f64;
        let log_lr_mean = acc.log_lr_sum / nf;
        let log_lr_var = (acc.log_lr_sum_sq / nf - log_lr_mean * log_lr_mean).max(0.0);
        svbr_obsv::point(
            "is.run",
            &[
                ("twist", twist),
                ("buffer", self.buffer),
                ("horizon", self.prepared.len() as f64),
                ("n", nf),
                ("p", est.p),
                ("hits", acc.hits as f64),
                ("effective_sample_size", ess),
                ("log_lr_mean", log_lr_mean),
                ("log_lr_variance", log_lr_var),
                ("mean_slots", est.mean_slots),
            ],
        );
    }

    /// Like [`Self::run`], but abort-and-report when the Kish effective
    /// sample size of the weighted sample falls below `min_ess`.
    ///
    /// A collapsed ESS means a few enormous likelihood ratios carry the
    /// whole estimate — the classic silent IS failure mode. Rather than
    /// hand back a confidently wrong number, this returns
    /// [`crate::IsError::EssCollapse`] carrying both the measured ESS and
    /// the (untrustworthy) estimate so the caller can record a degraded
    /// result, and bumps the `is.ess_collapse` counter for the manifest.
    pub fn run_checked<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        min_ess: f64,
    ) -> Result<IsEstimate, crate::IsError> {
        self.check_ess(self.run(n, rng), min_ess)
    }

    /// Like [`Self::run_parallel`], with the same ESS floor as
    /// [`Self::run_checked`].
    pub fn run_parallel_checked(
        &self,
        n: usize,
        master_seed: u64,
        threads: usize,
        min_ess: f64,
    ) -> Result<IsEstimate, crate::IsError>
    where
        M: Sync,
    {
        self.check_ess(self.run_parallel(n, master_seed, threads), min_ess)
    }

    fn check_ess(&self, estimate: IsEstimate, min_ess: f64) -> Result<IsEstimate, crate::IsError> {
        let ess = estimate.effective_sample_size();
        if ess < min_ess {
            svbr_obsv::counter("is.ess_collapse").add(1);
            svbr_obsv::point(
                "is.ess_collapse",
                &[("ess", ess), ("floor", min_ess), ("twist", self.twist)],
            );
            return Err(crate::IsError::EssCollapse {
                ess,
                floor: min_ess,
                estimate,
            });
        }
        Ok(estimate)
    }

    /// Run batches of replications until the estimate's relative error
    /// drops to `target` (e.g. 0.1 for ±10% at one σ) or `max_reps` is
    /// exhausted. Returns the pooled estimate.
    ///
    /// This is how a practitioner actually drives the paper's method:
    /// pick a precision, not a replication count.
    pub fn run_to_relative_error(
        &self,
        target: f64,
        batch: usize,
        max_reps: usize,
        master_seed: u64,
        threads: usize,
    ) -> IsEstimate
    where
        M: Sync,
    {
        let batch = batch.max(16);
        let mut pooled: Option<IsEstimate> = None;
        while pooled.map_or(0, |e| e.n) < max_reps {
            let done = pooled.map_or(0, |e| e.n);
            let remaining = max_reps - done;
            // Each batch is the next contiguous slice of ONE master
            // replication schedule, so the pooled run at any stopping point
            // is a prefix of the run that a bigger budget would produce.
            let e = self.run_parallel_from(batch.min(remaining), master_seed, done as u64, threads);
            pooled = Some(match pooled {
                Some(prev) => prev.merge(&e),
                None => e,
            });
            #[expect(
                clippy::expect_used,
                reason = "`pooled` is assigned on every loop iteration before this read"
            )]
            if pooled.expect("just set").relative_error() <= target {
                break;
            }
        }
        pooled.unwrap_or(IsEstimate {
            p: 0.0,
            n: 0,
            variance: 0.0,
            hits: 0,
            mean_slots: 0.0,
        })
    }

    /// Run `n` replications across `threads` OS threads via
    /// [`svbr_par::run_replications`].
    ///
    /// Replication `i` gets its own `StdRng` seeded with
    /// `svbr_par::derive_seed(master_seed, i)`, and outcomes are folded into
    /// the accumulator in replication-index order — the estimate is
    /// **bit-identical for any thread count**, and replication `i` is the
    /// same random experiment no matter how the run is sharded or batched
    /// (see [`Self::run_parallel_from`]).
    pub fn run_parallel(&self, n: usize, master_seed: u64, threads: usize) -> IsEstimate
    where
        M: Sync,
    {
        self.run_parallel_from(n, master_seed, 0, threads)
    }

    /// Run replications `first_rep .. first_rep + n` of the master schedule
    /// identified by `master_seed`.
    ///
    /// Because each replication's RNG stream depends only on
    /// `(master_seed, global index)`, a run interrupted after `k`
    /// replications (e.g. by an svbr-resilience checkpoint) can be resumed
    /// with `first_rep = k` and will execute exactly the replications the
    /// uninterrupted run would have.
    pub fn run_parallel_from(
        &self,
        n: usize,
        master_seed: u64,
        first_rep: u64,
        threads: usize,
    ) -> IsEstimate
    where
        M: Sync,
    {
        self.run_twists_from(&[self.twist], n, master_seed, first_rep, threads)[0]
    }

    /// Run replications `first_rep .. first_rep + n` of the master schedule
    /// `master_seed`, scoring every twist in `twists` on each replication's
    /// one shared background path (this estimator's own twist is not used).
    /// Returns one estimate per twist, in twist order.
    ///
    /// Every twist sees the same innovations — common random numbers — and
    /// estimate `j` is bit-identical to
    /// `self.with_twist(twists[j]).run_parallel_from(n, master_seed,
    /// first_rep, threads)`: each twist's outcomes are folded in
    /// replication order, and its per-slot arithmetic does not depend on
    /// which other twists share the path.
    pub(crate) fn run_twists_from(
        &self,
        twists: &[f64],
        n: usize,
        master_seed: u64,
        first_rep: u64,
        threads: usize,
    ) -> Vec<IsEstimate>
    where
        M: Sync,
    {
        let horizon = [self.horizon()];
        let (initial, scoring) = self.scoring(&horizon);
        let lanes: Vec<LaneSpec> = twists
            .iter()
            .map(|&twist| LaneSpec { twist, initial })
            .collect();
        self.run_lanes_from(&lanes, scoring, n, master_seed, first_rep, threads)
    }

    /// Run replications `first_rep .. first_rep + n` of the master schedule
    /// `master_seed` through [`Self::replicate_lanes`], folding each
    /// outcome slot of a replication into its own [`Accumulator`] in
    /// replication order. Returns one estimate per outcome slot. Each
    /// worker block reuses one [`PathScratch`] across its replications.
    fn run_lanes_from(
        &self,
        lanes: &[LaneSpec],
        scoring: Scoring<'_>,
        n: usize,
        master_seed: u64,
        first_rep: u64,
        threads: usize,
    ) -> Vec<IsEstimate>
    where
        M: Sync,
    {
        let per_rep = lanes.len()
            * match scoring {
                Scoring::FirstPassage => 1,
                Scoring::Levels(stops) => stops.len(),
            };
        // Replication-major: the outcomes of replication i occupy
        // `per_rep` consecutive entries.
        let outcomes = svbr_par::par_map_blocks(n, threads, |range| {
            let mut scratch = PathScratch::default();
            let mut block = Vec::with_capacity(range.len() * per_rep);
            for i in range {
                let seed = svbr_par::derive_seed(master_seed, first_rep + i as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                self.replicate_lanes(lanes, scoring, &mut rng, &mut scratch);
                block.extend_from_slice(&scratch.outcomes);
            }
            block
        });
        let mut totals = vec![Accumulator::default(); per_rep];
        for rep in outcomes.chunks_exact(per_rep) {
            for (total, r) in totals.iter_mut().zip(rep) {
                total.add(r);
            }
        }
        // Each lane is observed once, at its last outcome slot, so the
        // replication and hit counters do not count a lane per stop time.
        let last_stop = per_rep - lanes.len();
        totals
            .iter()
            .zip(lanes.iter().cycle())
            .enumerate()
            .map(|(j, (total, lane))| {
                let est = total.finish();
                if j >= last_stop {
                    self.observe_run(lane.twist, total, &est, "parallel");
                }
                est
            })
            .collect()
    }
}

/// How [`IsEstimator::replicate_lanes`] scores its lanes.
#[derive(Debug, Clone, Copy)]
enum Scoring<'a> {
    /// Workload `W_i` from 0 against `b`; a lane stops at its first
    /// crossing (step 5) and yields one outcome.
    FirstPassage,
    /// Queue level `Q_i` from the lane's initial level, scored at each of
    /// these stop times (nondecreasing, at most the horizon).
    Levels(&'a [usize]),
}

/// One lane of the shared-path kernel: a twist and the level its
/// recursion starts from.
#[derive(Debug, Clone, Copy)]
struct LaneSpec {
    twist: f64,
    initial: f64,
}

/// Reusable per-replication buffers for the shared-path kernel
/// ([`IsEstimator::replicate_lanes`]); one per worker block, so
/// replications allocate nothing once the buffers reach their high-water
/// mark.
#[derive(Debug, Default)]
struct PathScratch {
    /// The untwisted background path `y` so far.
    path: Vec<f64>,
    /// Running state per lane, in lane order.
    lanes: Vec<Lane>,
    /// Outcomes of the last replication (see
    /// [`IsEstimator::replicate_lanes`]).
    outcomes: Vec<IsReplication>,
}

/// One lane's running state on the shared background path.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// The twist `m*`.
    twist: f64,
    /// Accumulated log-likelihood ratio.
    log_lr: f64,
    /// Running workload `W_i` (first passage) or queue level `Q_i`.
    level: f64,
    /// Slots simulated when the workload crossed the buffer; `None` while
    /// the lane is live.
    stopped_at: Option<usize>,
}

impl Lane {
    /// The lane's outcome after `slots` slots, weighted `1{hit}·L`.
    fn outcome(&self, hit: bool, slots: usize) -> IsReplication {
        IsReplication {
            hit,
            weight: if hit { self.log_lr.exp() } else { 0.0 },
            log_lr: self.log_lr,
            slots_used: slots,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct Accumulator {
    n: usize,
    sum: f64,
    sum_sq: f64,
    hits: usize,
    slots: u64,
    // Log-likelihood-ratio moments over *all* replications (hit or not) —
    // pure diagnostics for the obsv layer; never enter the estimate.
    log_lr_sum: f64,
    log_lr_sum_sq: f64,
}

impl Accumulator {
    fn add(&mut self, r: &IsReplication) {
        self.n += 1;
        self.sum += r.weight;
        self.sum_sq += r.weight * r.weight;
        self.hits += usize::from(r.hit);
        self.slots += r.slots_used as u64;
        self.log_lr_sum += r.log_lr;
        self.log_lr_sum_sq += r.log_lr * r.log_lr;
    }

    /// Kish effective sample size of the weighted sample,
    /// `(Σw)² / Σw²` — the number of i.i.d. draws the weighted estimate is
    /// worth. 0 when no weight has been collected.
    fn effective_sample_size(&self) -> f64 {
        if self.sum_sq > 0.0 {
            self.sum * self.sum / self.sum_sq
        } else {
            0.0
        }
    }

    fn finish(&self) -> IsEstimate {
        let n = self.n.max(1) as f64;
        let p = self.sum / n;
        let var_w = (self.sum_sq / n - p * p).max(0.0);
        IsEstimate {
            p,
            n: self.n,
            variance: var_w / n,
            hits: self.hits,
            mean_slots: self.slots as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svbr_lrd::acf::{ExponentialAcf, FgnAcf};
    use svbr_marginal::Normal as NormalDist;

    fn white_noise_system(
        horizon: usize,
        service: f64,
        buffer: f64,
        twist: f64,
        event: IsEvent,
    ) -> IsEstimator<NormalDist> {
        IsEstimator::new(
            FgnAcf::new(0.5).unwrap(),
            horizon,
            GaussianTransform::new(NormalDist::standard()),
            service,
            buffer,
            twist,
            event,
        )
        .unwrap()
    }

    #[test]
    fn effective_sample_size_recovers_weight_moments() {
        // Weights {1, 1, 2}: sum = 4, sum_sq = 6 ⇒ ESS = 16/6 = 8/3.
        let n = 3usize;
        let p = 4.0 / 3.0;
        let var_w = 6.0 / 3.0 - p * p;
        let est = IsEstimate {
            p,
            n,
            variance: var_w / n as f64,
            hits: 3,
            mean_slots: 1.0,
        };
        assert!((est.effective_sample_size() - 8.0 / 3.0).abs() < 1e-12);
        // Degenerate estimate: no weight collected.
        let zero = IsEstimate {
            p: 0.0,
            n: 0,
            variance: 0.0,
            hits: 0,
            mean_slots: 0.0,
        };
        assert_eq!(zero.effective_sample_size(), 0.0);
    }

    #[test]
    fn checked_run_reports_ess_collapse() {
        let est = white_noise_system(30, 0.5, 3.0, 1.0, IsEvent::FirstPassage);
        let mut rng = StdRng::seed_from_u64(31);
        // An infinite floor always trips the guard; the error must carry
        // the measured ESS and the degraded estimate.
        match est.run_checked(200, &mut rng, f64::INFINITY) {
            Err(crate::IsError::EssCollapse {
                ess,
                floor,
                estimate,
            }) => {
                assert!(ess.is_finite());
                assert!(floor.is_infinite());
                assert_eq!(estimate.n, 200);
            }
            other => panic!("expected EssCollapse, got {other:?}"),
        }
        // A floor of 0 never trips.
        let mut rng = StdRng::seed_from_u64(31);
        assert!(est.run_checked(200, &mut rng, 0.0).is_ok());
        // The parallel variant applies the same guard.
        assert!(matches!(
            est.run_parallel_checked(100, 7, 2, f64::INFINITY),
            Err(crate::IsError::EssCollapse { .. })
        ));
        assert!(est.run_parallel_checked(100, 7, 2, 0.0).is_ok());
    }

    #[test]
    fn zero_twist_is_plain_mc() {
        let est = white_noise_system(50, 0.5, 3.0, 0.0, IsEvent::FirstPassage);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let r = est.replicate(&mut rng);
            assert_eq!(r.log_lr, 0.0);
            assert!(r.weight == 0.0 || r.weight == 1.0);
            assert_eq!(r.weight == 1.0, r.hit);
        }
    }

    #[test]
    fn likelihood_ratio_mean_is_one() {
        // With an always-true event the estimator targets probability 1, so
        // the mean weight E[L] must be 1 for any twist — the unbiasedness
        // identity E_{p'}[L] = 1. The twist must be kept small here: ln L is
        // N(−σ²/2, σ²) with σ² = m*²·k for white noise, so a large twist
        // makes the sample mean of L collapse below 1 at any feasible
        // replication count (the classic IS-degeneracy effect — exactly why
        // the valley in Fig. 14 rises again on the right).
        let est = white_noise_system(20, 0.5, -1.0, 0.1, IsEvent::LevelAtHorizon { initial: 0.0 });
        let mut rng = StdRng::seed_from_u64(2);
        let e = est.run(40_000, &mut rng);
        assert_eq!(e.hits, 40_000, "Q_k > −1 always");
        assert!(
            (e.p - 1.0).abs() < 4.0 * e.std_err(),
            "p {} ± {}",
            e.p,
            e.std_err()
        );
    }

    #[test]
    fn is_estimate_agrees_with_mc() {
        // Moderate-probability event: IS (twist 1.0) and MC (twist 0) must
        // agree within joint CIs.
        let mc = white_noise_system(30, 0.6, 4.0, 0.0, IsEvent::FirstPassage);
        let is = mc.with_twist(0.7);
        let mut rng = StdRng::seed_from_u64(3);
        let e_mc = mc.run(30_000, &mut rng);
        let e_is = is.run(30_000, &mut rng);
        let tol = 3.0 * (e_mc.std_err() + e_is.std_err());
        assert!(
            (e_mc.p - e_is.p).abs() < tol,
            "MC {} vs IS {} (tol {tol})",
            e_mc.p,
            e_is.p
        );
        assert!(e_mc.p > 0.001, "event should not be too rare for MC");
    }

    #[test]
    fn variance_reduction_on_rare_event() {
        // Rare event: with a sensible twist the normalized variance must
        // drop well below plain MC's.
        let mc = white_noise_system(50, 1.0, 8.0, 0.0, IsEvent::FirstPassage);
        let is = mc.with_twist(1.3);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let e_is = is.run(n, &mut rng);
        assert!(e_is.p > 0.0, "IS must find the rare event");
        assert!(
            e_is.variance_reduction() > 5.0,
            "VRF {} (p = {})",
            e_is.variance_reduction(),
            e_is.p
        );
        // MC at the same budget almost never sees the event.
        let e_mc = mc.run(n, &mut rng);
        assert!(
            e_mc.hits < e_is.hits,
            "MC hits {} IS hits {}",
            e_mc.hits,
            e_is.hits
        );
    }

    #[test]
    fn early_termination_shortens_replications() {
        let is = white_noise_system(200, 0.8, 5.0, 1.5, IsEvent::FirstPassage);
        let mut rng = StdRng::seed_from_u64(5);
        let e = is.run(2_000, &mut rng);
        assert!(e.hits > 1_000, "strong twist makes hits common");
        assert!(
            e.mean_slots < 100.0,
            "early termination: mean slots {}",
            e.mean_slots
        );
    }

    #[test]
    fn parallel_matches_sequential_statistically() {
        let est = white_noise_system(30, 0.6, 3.0, 0.8, IsEvent::FirstPassage);
        let par = est.run_parallel(20_000, 42, 4);
        let mut rng = StdRng::seed_from_u64(43);
        let seq = est.run(20_000, &mut rng);
        let tol = 3.0 * (par.std_err() + seq.std_err());
        assert!((par.p - seq.p).abs() < tol, "par {} seq {}", par.p, seq.p);
        assert_eq!(par.n, 20_000);
    }

    #[test]
    fn with_twist_shares_the_prepared_schedule() {
        let est = white_noise_system(20, 0.6, 2.0, 0.5, IsEvent::FirstPassage);
        let twisted = est.with_twist(1.5);
        assert!(Arc::ptr_eq(&est.prepared, &twisted.prepared));
        assert_eq!(twisted.twist(), 1.5);
    }

    #[test]
    fn parallel_is_deterministic_given_seed() {
        let est = white_noise_system(20, 0.6, 2.0, 0.5, IsEvent::FirstPassage);
        let a = est.run_parallel(1_000, 7, 3);
        let b = est.run_parallel(1_000, 7, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        let est = white_noise_system(20, 0.6, 2.0, 0.5, IsEvent::FirstPassage);
        let baseline = est.run_parallel(1_000, 11, 1);
        assert!(baseline.hits > 0 && baseline.hits < 1_000);
        for threads in [2usize, 8] {
            let e = est.run_parallel(1_000, 11, threads);
            assert_eq!(e.p.to_bits(), baseline.p.to_bits(), "threads={threads}");
            assert_eq!(
                e.variance.to_bits(),
                baseline.variance.to_bits(),
                "threads={threads}"
            );
            assert_eq!(e.hits, baseline.hits);
            assert_eq!(e.mean_slots.to_bits(), baseline.mean_slots.to_bits());
        }
    }

    #[test]
    fn batched_runs_reproduce_one_master_schedule() {
        // Replications 60..100 of the schedule must be the same experiments
        // whether run in one call or as a resumed continuation.
        let est = white_noise_system(20, 0.6, 2.0, 0.5, IsEvent::FirstPassage);
        let full = est.run_parallel(100, 13, 4);
        let head = est.run_parallel_from(60, 13, 0, 2);
        let tail = est.run_parallel_from(40, 13, 60, 8);
        assert_eq!(head.hits + tail.hits, full.hits);
        let merged = head.merge(&tail);
        assert_eq!(merged.n, full.n);
        assert!((merged.p - full.p).abs() < 1e-12);
        assert!((merged.mean_slots - full.mean_slots).abs() < 1e-9);
    }

    #[test]
    fn works_with_lrd_background() -> Result<(), Box<dyn std::error::Error>> {
        // The real use case: fGn background, H = 0.8.
        let est = IsEstimator::new(
            FgnAcf::new(0.8)?,
            100,
            GaussianTransform::new(NormalDist::standard()),
            0.8,
            6.0,
            1.0,
            IsEvent::FirstPassage,
        )?;
        let mut rng = StdRng::seed_from_u64(6);
        let e = est.run(5_000, &mut rng);
        assert!(e.p > 0.0 && e.p < 1.0, "p = {}", e.p);
        assert!(e.variance_reduction() > 1.0);
        Ok(())
    }

    #[test]
    fn srd_background_twist_shift_uses_phi_sum() -> Result<(), Box<dyn std::error::Error>> {
        // For an AR(1) exponential ACF the twist shift after step 1 must be
        // m*(1−φ), not m* — regression through the conditional mean.
        let est = IsEstimator::new(
            ExponentialAcf::new(0.5)?,
            10,
            GaussianTransform::new(NormalDist::standard()),
            1.0,
            100.0,
            2.0,
            IsEvent::FirstPassage,
        )?;
        let mut rng = StdRng::seed_from_u64(7);
        // Long-run mean of the twisted process must approach m*, not m*(1+…).
        let mut sum = 0.0;
        let reps = 20_000;
        for _ in 0..reps {
            let r = est.replicate(&mut rng);
            assert!(!r.hit, "buffer is unreachable");
            sum += r.log_lr;
        }
        // E[ln L] = −Σ (m* s_i)²/(2 v_i) < 0 under the twisted measure.
        assert!((sum / reps as f64) < 0.0);
        Ok(())
    }

    #[test]
    fn merge_is_exact_pooling() {
        // Split one run into two halves: merge must equal the full run.
        let est = white_noise_system(30, 0.6, 3.0, 0.8, IsEvent::FirstPassage);
        let mut rng = StdRng::seed_from_u64(50);
        let mut acc_all = Vec::new();
        for _ in 0..2000 {
            acc_all.push(est.replicate(&mut rng));
        }
        let build = |reps: &[IsReplication]| {
            let n = reps.len() as f64;
            let sum: f64 = reps.iter().map(|r| r.weight).sum();
            let sum_sq: f64 = reps.iter().map(|r| r.weight * r.weight).sum();
            let p = sum / n;
            IsEstimate {
                p,
                n: reps.len(),
                variance: (sum_sq / n - p * p).max(0.0) / n,
                hits: reps.iter().filter(|r| r.hit).count(),
                mean_slots: reps.iter().map(|r| r.slots_used as f64).sum::<f64>() / n,
            }
        };
        let full = build(&acc_all);
        let merged = build(&acc_all[..700]).merge(&build(&acc_all[700..]));
        assert!((full.p - merged.p).abs() < 1e-12);
        assert!((full.variance - merged.variance).abs() < 1e-14);
        assert_eq!(full.hits, merged.hits);
        assert_eq!(full.n, merged.n);
        assert!((full.mean_slots - merged.mean_slots).abs() < 1e-9);
    }

    #[test]
    fn run_to_relative_error_stops_when_precise() {
        let est = white_noise_system(30, 0.6, 3.0, 0.8, IsEvent::FirstPassage);
        let e = est.run_to_relative_error(0.1, 500, 50_000, 1, 2);
        assert!(
            e.relative_error() <= 0.1 || e.n == 50_000,
            "re {} at n {}",
            e.relative_error(),
            e.n
        );
        assert!(e.n >= 500);
        // A looser target needs fewer replications.
        let loose = est.run_to_relative_error(0.5, 500, 50_000, 2, 2);
        assert!(loose.n <= e.n);
    }

    /// The transient system of the Fig. 15 kernel tests: service 0.7 and
    /// buffer 3 on an fGn(`hurst`) background, horizon the last stop time.
    fn transient(
        hurst: f64,
        stop_times: &[usize],
        twist: f64,
        initials: &[f64],
        n_reps: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Vec<Vec<IsEstimate>>, Box<dyn std::error::Error>> {
        let est = IsEstimator::new(
            FgnAcf::new(hurst)?,
            stop_times.last().copied().unwrap_or(1),
            GaussianTransform::new(NormalDist::standard()),
            0.7,
            3.0,
            twist,
            IsEvent::FirstPassage,
        )?;
        Ok(est.transient_curve(initials, stop_times, n_reps, seed, threads)?)
    }

    #[test]
    fn transient_matches_plain_mc_at_zero_twist() -> Result<(), Box<dyn std::error::Error>> {
        let est = transient(0.5, &[10, 50, 150], 0.0, &[0.0], 20_000, 1, 4)?.remove(0);
        // Plain-MC comparison via the queue crate.
        let mut rng = StdRng::seed_from_u64(99);
        let mut normal = Normal::new();
        let mc = svbr_queue::transient_curve(
            |_| (0..150).map(|_| normal.sample(&mut rng)).collect(),
            20_000,
            &[10, 50, 150],
            0.7,
            3.0,
            svbr_queue::InitialCondition::Empty,
        )?;
        for (i, (e, &p_mc)) in est.iter().zip(mc.iter()).enumerate() {
            let tol = 4.0 * (e.variance.sqrt() + (p_mc * (1.0 - p_mc) / 20_000.0).sqrt()) + 1e-4;
            assert!(
                (e.p - p_mc).abs() < tol,
                "stop {i}: IS {} vs MC {p_mc}",
                e.p
            );
        }
        Ok(())
    }

    #[test]
    fn twisted_transient_agrees_with_untwisted() -> Result<(), Box<dyn std::error::Error>> {
        let a = transient(0.5, &[40], 0.0, &[0.0], 40_000, 2, 4)?[0][0];
        let b = transient(0.5, &[40], 0.5, &[0.0], 40_000, 3, 4)?[0][0];
        let tol = 4.0 * (a.variance.sqrt() + b.variance.sqrt());
        assert!(
            (a.p - b.p).abs() < tol,
            "untwisted {} vs twisted {}",
            a.p,
            b.p
        );
        Ok(())
    }

    #[test]
    fn full_start_exceeds_empty_start_early() -> Result<(), Box<dyn std::error::Error>> {
        let curves = transient(0.5, &[5, 100], 0.3, &[0.0, 3.0], 10_000, 4, 4)?;
        let (empty, full) = (&curves[0], &curves[1]);
        assert!(
            full[0].p > empty[0].p,
            "early: full {} vs empty {}",
            full[0].p,
            empty[0].p
        );
        // Late: closer together (both near steady state).
        assert!((full[1].p - empty[1].p).abs() < (full[0].p - empty[0].p));
        Ok(())
    }

    #[test]
    fn transient_curve_is_bit_identical_across_thread_counts(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let stops = [5, 20, 60];
        let baseline = transient(0.7, &stops, 0.4, &[0.0], 400, 21, 1)?.remove(0);
        assert!(baseline.iter().any(|e| e.p > 0.0), "need non-trivial hits");
        for threads in [2usize, 8] {
            let curve = transient(0.7, &stops, 0.4, &[0.0], 400, 21, threads)?.remove(0);
            for (i, (e, b)) in curve.iter().zip(&baseline).enumerate() {
                assert_eq!(e.p.to_bits(), b.p.to_bits(), "p[{i}] at threads={threads}");
                assert_eq!(
                    e.variance.to_bits(),
                    b.variance.to_bits(),
                    "variance[{i}] at threads={threads}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn transient_curve_shape() -> Result<(), Box<dyn std::error::Error>> {
        let curve = transient(0.5, &[5, 10], 0.2, &[0.0], 500, 6, 2)?.remove(0);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].mean_slots, 5.0, "mean_slots is the stop time");
        assert!(curve.iter().all(|e| e.p >= 0.0 && e.std_err() >= 0.0));
        Ok(())
    }

    #[test]
    fn transient_curve_validation() -> Result<(), Box<dyn std::error::Error>> {
        let est = white_noise_system(10, 0.7, 3.0, 0.0, IsEvent::FirstPassage);
        assert!(est.transient_curve(&[0.0], &[], 10, 1, 1).is_err());
        assert!(est.transient_curve(&[0.0], &[0, 5], 10, 1, 1).is_err());
        assert!(est.transient_curve(&[0.0], &[5, 3], 10, 1, 1).is_err());
        assert!(est.transient_curve(&[0.0], &[5, 11], 10, 1, 1).is_err());
        assert!(est.transient_curve(&[0.0], &[5], 0, 1, 1).is_err());
        assert!(est.transient_curve(&[-1.0], &[5], 10, 1, 1).is_err());
        assert!(est.transient_curve(&[], &[5], 10, 1, 1).is_err());
        assert!(est.transient_curve(&[0.0, 3.0], &[5, 10], 10, 1, 1).is_ok());
        Ok(())
    }

    #[test]
    fn level_at_horizon_is_the_last_stop_of_a_transient_curve() {
        // One kernel: a level-at-horizon run is the one-stop-time transient
        // curve from the same schedule, bit for bit.
        let est = white_noise_system(40, 0.7, 3.0, 0.4, IsEvent::LevelAtHorizon { initial: 2.0 });
        let run = est.run_parallel(300, 17, 3);
        let curve = est.transient_curve(&[2.0], &[10, 40], 300, 17, 3).unwrap();
        assert!(run.hits > 0);
        assert_eq!(run, curve[0][1]);
    }

    #[test]
    fn estimate_helpers() {
        let e = IsEstimate {
            p: 0.01,
            n: 1000,
            variance: 1e-8,
            hits: 500,
            mean_slots: 42.0,
        };
        assert!((e.std_err() - 1e-4).abs() < 1e-12);
        assert!((e.normalized_variance() - 1e-4).abs() < 1e-12);
        let (lo, hi) = e.ci95();
        assert!(lo < 0.01 && hi > 0.01);
        let vr = e.variance_reduction();
        assert!((vr - (0.01 * 0.99 / 1000.0) / 1e-8).abs() < 1e-9);
    }

    #[test]
    fn validation() -> Result<(), Box<dyn std::error::Error>> {
        let t = GaussianTransform::new(NormalDist::standard());
        assert!(IsEstimator::new(
            FgnAcf::new(0.5)?,
            0,
            t.clone(),
            1.0,
            1.0,
            0.0,
            IsEvent::FirstPassage
        )
        .is_err());
        assert!(IsEstimator::new(
            FgnAcf::new(0.5)?,
            5,
            t.clone(),
            0.0,
            1.0,
            0.0,
            IsEvent::FirstPassage
        )
        .is_err());
        assert!(IsEstimator::new(
            FgnAcf::new(0.5)?,
            5,
            t,
            1.0,
            1.0,
            f64::NAN,
            IsEvent::FirstPassage
        )
        .is_err());
        Ok(())
    }
}
