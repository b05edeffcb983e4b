//! Standard Monte-Carlo overflow estimation.
//!
//! Two estimation modes, matching the two data sources in the paper's
//! Fig. 16:
//!
//! * **replicated** ([`estimate_overflow`]) — `N` iid synthetic arrival
//!   paths; the estimator is the fraction of replications in which the
//!   workload crosses `b` within the horizon (≡ `Pr(Q_k > b)` by eq. 17).
//! * **single long path** ([`tail_curve_from_path`]) — the empirical-trace
//!   mode: one long replication, steady-state tail estimated as the
//!   fraction of slots with `Q > b` (the paper notes this was their only
//!   option with one trace, and that it is why synthetic and empirical
//!   curves disagree slightly).
//!
//! [`estimate_overflow_seeded`] is the deterministic-parallel form of the
//! replicated mode: replication `i` draws its arrivals from the seed
//! `svbr_par::derive_seed(master_seed, i)`, replications are sharded over
//! worker threads, and hits are folded in replication order — the estimate
//! is bit-identical for any thread count, including 1.

use crate::lindley::{first_passage_slot, validate_arrivals, LindleyQueue, QueueStats};
use crate::QueueError;

/// Replication interval between streaming-telemetry emissions in
/// [`estimate_overflow`] (a final emission always lands on the last
/// replication, so short runs still report once).
pub const PROGRESS_CHUNK: usize = 512;

/// Overflow-probability 95% CI half-width at which the
/// `queue.mc.ci_half_width` convergence watermark fires — an absolute
/// ±0.01 on `Pr(Q_k > b)`, the resolution of the paper's Fig. 16 curves.
pub const CI_TARGET: f64 = 0.01;

/// A Monte-Carlo estimate with its sampling error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Point estimate of the probability.
    pub p: f64,
    /// Number of replications.
    pub n: usize,
    /// Variance of the *estimator* (`Var[indicator]/n` for plain MC).
    pub variance: f64,
}

impl McEstimate {
    /// Standard error of the estimate.
    pub fn std_err(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Normalized variance `Var[P̂]/P̂²` — the figure of merit the paper
    /// plots in Fig. 14 (infinite when the estimate is 0).
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
        ((self.p - half).max(0.0), (self.p + half).min(1.0))
    }
}

fn validate_overflow_params(
    n_reps: usize,
    horizon: usize,
    service: f64,
    b: f64,
) -> Result<(), QueueError> {
    if n_reps == 0 {
        return Err(QueueError::InvalidParameter {
            name: "n_reps",
            constraint: ">= 1",
        });
    }
    if horizon == 0 {
        return Err(QueueError::InvalidParameter {
            name: "horizon",
            constraint: ">= 1",
        });
    }
    if !service.is_finite() || service <= 0.0 {
        return Err(QueueError::InvalidParameter {
            name: "service",
            constraint: "finite and > 0",
        });
    }
    if !b.is_finite() || b < 0.0 {
        return Err(QueueError::InvalidParameter {
            name: "b",
            constraint: "finite and >= 0",
        });
    }
    Ok(())
}

fn overflow_estimate_from_hits(hits: usize, n_reps: usize, horizon: usize, b: f64) -> McEstimate {
    svbr_obsv::counter("queue.mc.replications").add(n_reps as u64);
    svbr_obsv::counter("queue.overflows").add(hits as u64);
    let p = hits as f64 / n_reps as f64;
    if svbr_obsv::enabled() {
        svbr_obsv::point(
            "queue.overflow",
            &[
                ("buffer", b),
                ("horizon", horizon as f64),
                ("n", n_reps as f64),
                ("overflows", hits as f64),
                ("p", p),
            ],
        );
    }
    McEstimate {
        p,
        n: n_reps,
        variance: p * (1.0 - p) / n_reps as f64,
    }
}

/// Estimate `Pr(Q_k > b)` (queue started empty) by first-passage of the
/// workload over `N` replications. `make_path` is called once per
/// replication and must yield at least `horizon` slots of arrivals.
pub fn estimate_overflow<F>(
    mut make_path: F,
    n_reps: usize,
    horizon: usize,
    service: f64,
    b: f64,
) -> Result<McEstimate, QueueError>
where
    F: FnMut(usize) -> Vec<f64>,
{
    validate_overflow_params(n_reps, horizon, service, b)?;
    let mut hits = 0usize;
    // Streaming convergence telemetry: the running CI half-width of the
    // overflow probability, with a watermark recording when it first drops
    // to the declared target. Gated so untraced runs pay nothing.
    let mut telemetry = svbr_obsv::enabled()
        .then(|| svbr_obsv::Watermark::below("queue.mc.ci_half_width", CI_TARGET));
    for rep in 0..n_reps {
        let path = make_path(rep);
        if path.len() < horizon {
            return Err(QueueError::PathTooShort {
                needed: horizon,
                got: path.len(),
            });
        }
        validate_arrivals(&path[..horizon])?;
        if first_passage_slot(&path[..horizon], service, b).is_some() {
            hits += 1;
        }
        let Some(wm) = telemetry.as_mut() else {
            continue;
        };
        let done = rep + 1;
        if !done.is_multiple_of(PROGRESS_CHUNK) && done != n_reps {
            continue;
        }
        let p_run = hits as f64 / done as f64;
        let half = 1.96 * (p_run * (1.0 - p_run) / done as f64).sqrt();
        svbr_obsv::gauge("queue.mc.ci_half_width").set(half);
        svbr_obsv::point(
            "queue.mc.progress",
            &[("n", done as f64), ("p", p_run), ("ci_half_width", half)],
        );
        wm.observe(done as u64, half);
    }
    Ok(overflow_estimate_from_hits(hits, n_reps, horizon, b))
}

/// Deterministic-parallel form of [`estimate_overflow`].
///
/// Replication `i` is handed the derived seed
/// `svbr_par::derive_seed(master_seed, i)`; `make_path(i, seed)` must be a
/// pure function of its arguments. Replications are sharded over `threads`
/// workers (clamped by [`svbr_par::par_map_blocks`]) and per-replication
/// outcomes are folded in replication-index order, so the returned estimate
/// is **bit-identical for any thread count** and any error reported is the
/// one of the lowest failing replication index.
///
/// Unlike the sequential form, no streaming convergence telemetry is
/// emitted (replications complete out of order across workers); the final
/// `queue.overflow` point and counters are identical.
pub fn estimate_overflow_seeded<F>(
    make_path: F,
    master_seed: u64,
    n_reps: usize,
    horizon: usize,
    service: f64,
    b: f64,
    threads: usize,
) -> Result<McEstimate, QueueError>
where
    F: Fn(usize, u64) -> Vec<f64> + Sync,
{
    validate_overflow_params(n_reps, horizon, service, b)?;
    let outcomes = svbr_par::run_replications(master_seed, n_reps, threads, |rep, seed| {
        let path = make_path(rep, seed);
        if path.len() < horizon {
            return Err(QueueError::PathTooShort {
                needed: horizon,
                got: path.len(),
            });
        }
        validate_arrivals(&path[..horizon])?;
        Ok(first_passage_slot(&path[..horizon], service, b).is_some())
    });
    let mut hits = 0usize;
    for outcome in outcomes {
        if outcome? {
            hits += 1;
        }
    }
    Ok(overflow_estimate_from_hits(hits, n_reps, horizon, b))
}

/// Steady-state tail curve from one long arrival path: for each requested
/// buffer level, the fraction of (post-burn-in) slots with `Q > b`.
///
/// Returns `(b, Pr(Q > b))` pairs in the order given.
pub fn tail_curve_from_path(
    arrivals: &[f64],
    service: f64,
    burn_in: usize,
    buffers: &[f64],
) -> Result<Vec<(f64, f64)>, QueueError> {
    if arrivals.len() <= burn_in {
        return Err(QueueError::PathTooShort {
            needed: burn_in + 1,
            got: arrivals.len(),
        });
    }
    if buffers.iter().any(|b| !b.is_finite()) {
        return Err(QueueError::InvalidParameter {
            name: "buffers",
            constraint: "every buffer level finite",
        });
    }
    validate_arrivals(arrivals)?;
    let mut q = LindleyQueue::new(service)?;
    let mut counts = vec![0usize; buffers.len()];
    let mut slots = 0usize;
    let mut stats = QueueStats::new();
    for (i, &y) in arrivals.iter().enumerate() {
        let level = q.step(y);
        if i < burn_in {
            continue;
        }
        stats.observe(level);
        slots += 1;
        for (c, &b) in counts.iter_mut().zip(buffers.iter()) {
            if level > b {
                *c += 1;
            }
        }
    }
    svbr_obsv::counter("queue.tail_slots").add(slots as u64);
    svbr_obsv::counter("queue.overflows").add(counts.iter().map(|&c| c as u64).sum::<u64>());
    svbr_obsv::gauge("queue.max_depth").set(stats.max_depth);
    if svbr_obsv::enabled() {
        // One point per buffer level keeps the trace schema uniform
        // (buffer, overflows, p) and lets obsv-report track min/max over b.
        for (&b, &c) in buffers.iter().zip(counts.iter()) {
            svbr_obsv::point(
                "queue.tail",
                &[
                    ("buffer", b),
                    ("slots", slots as f64),
                    ("overflows", c as f64),
                    ("p", c as f64 / slots as f64),
                ],
            );
        }
        svbr_obsv::point(
            "queue.busy",
            &[
                ("max_depth", stats.max_depth),
                ("busy_periods", stats.busy_periods as f64),
                ("mean_busy_len", stats.mean_busy_len()),
                ("utilization", stats.utilization()),
            ],
        );
    }
    Ok(buffers
        .iter()
        .zip(counts.iter())
        .map(|(&b, &c)| (b, c as f64 / slots as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn estimate_matches_exact_geometric_queue() -> Result<(), Box<dyn std::error::Error>> {
        // Bernoulli(p) arrivals of size 1, service 1 per slot with batch
        // semantics won't queue at all; instead use batch arrivals of size 2
        // w.p. p, service 1: random walk +1 w.p. p, −1 w.p. 1−p. For p<1/2
        // the max of the walk is geometric: Pr(sup > b) = (p/(1−p))^{b+1}…
        // Use b = 2, p = 0.3: ρ... exact: (0.3/0.7)^3 ≈ 0.0787.
        let p = 0.3_f64;
        let mut rng = StdRng::seed_from_u64(1);
        let est = estimate_overflow(
            |_| {
                (0..4000)
                    .map(|_| {
                        if rng.gen_range(0.0..1.0) < p {
                            2.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            },
            20_000,
            4000,
            1.0,
            2.0,
        )?;
        let exact = (p / (1.0 - p)).powi(3);
        assert!(
            (est.p - exact).abs() < 3.0 * est.std_err().max(1e-3),
            "est {} vs exact {exact}",
            est.p
        );
        Ok(())
    }

    #[test]
    fn estimator_fields_consistent() {
        let est = McEstimate {
            p: 0.1,
            n: 1000,
            variance: 0.1 * 0.9 / 1000.0,
        };
        assert!((est.std_err() - (9e-5f64).sqrt()).abs() < 1e-12);
        assert!((est.normalized_variance() - est.variance / 0.01).abs() < 1e-15);
        let (lo, hi) = est.ci95();
        assert!(lo < 0.1 && hi > 0.1);
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn zero_probability_estimate() -> Result<(), Box<dyn std::error::Error>> {
        let est = estimate_overflow(|_| vec![0.0; 100], 100, 100, 1.0, 5.0)?;
        assert_eq!(est.p, 0.0);
        assert!(est.normalized_variance().is_infinite());
        Ok(())
    }

    #[test]
    fn certain_overflow() -> Result<(), Box<dyn std::error::Error>> {
        let est = estimate_overflow(|_| vec![10.0; 10], 50, 10, 1.0, 5.0)?;
        assert_eq!(est.p, 1.0);
        assert_eq!(est.variance, 0.0);
        Ok(())
    }

    #[test]
    fn horizon_respected() -> Result<(), Box<dyn std::error::Error>> {
        // Arrival burst only after the horizon: never counted.
        let mut path = vec![0.0; 10];
        path.extend(vec![100.0; 10]);
        let est = estimate_overflow(|_| path.clone(), 10, 10, 1.0, 5.0)?;
        assert_eq!(est.p, 0.0);
        Ok(())
    }

    #[test]
    fn validation() {
        assert!(estimate_overflow(|_| vec![0.0; 5], 0, 5, 1.0, 1.0).is_err());
        assert!(estimate_overflow(|_| vec![0.0; 5], 10, 6, 1.0, 1.0).is_err());
        assert!(tail_curve_from_path(&[1.0, 2.0], 1.0, 2, &[1.0]).is_err());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        // Empty trace / zero horizon.
        assert!(matches!(
            estimate_overflow(|_| Vec::new(), 10, 0, 1.0, 1.0),
            Err(QueueError::InvalidParameter {
                name: "horizon",
                ..
            })
        ));
        assert!(matches!(
            estimate_overflow(|_| Vec::new(), 10, 1, 1.0, 1.0),
            Err(QueueError::PathTooShort { needed: 1, got: 0 })
        ));
        assert!(matches!(
            tail_curve_from_path(&[], 1.0, 0, &[1.0]),
            Err(QueueError::PathTooShort { .. })
        ));
        // Non-finite / non-positive service rate.
        assert!(estimate_overflow(|_| vec![0.0; 5], 5, 5, f64::NAN, 1.0).is_err());
        assert!(estimate_overflow(|_| vec![0.0; 5], 5, 5, 0.0, 1.0).is_err());
        assert!(tail_curve_from_path(&[1.0, 2.0], f64::INFINITY, 0, &[1.0]).is_err());
        // Non-finite buffer threshold.
        assert!(estimate_overflow(|_| vec![0.0; 5], 5, 5, 1.0, f64::NAN).is_err());
        assert!(tail_curve_from_path(&[1.0, 2.0], 1.0, 0, &[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn rejects_non_finite_arrivals_before_recursion() {
        let err = estimate_overflow(|_| vec![0.0, f64::NAN, 0.0], 5, 3, 1.0, 1.0);
        assert!(matches!(err, Err(QueueError::NonFiniteArrival { slot: 1 })));
        let err = tail_curve_from_path(&[0.0, 0.0, f64::INFINITY], 1.0, 0, &[1.0]);
        assert!(matches!(err, Err(QueueError::NonFiniteArrival { slot: 2 })));
        // A NaN *after* the horizon is never fed to the queue, so it is fine.
        let ok = estimate_overflow(|_| vec![0.0, 0.0, f64::NAN], 5, 2, 1.0, 1.0);
        assert!(ok.is_ok());
    }

    /// Pure Bernoulli-batch arrival path derived from a replication seed —
    /// the same recipe at the same seed must yield the same path, which is
    /// the contract `estimate_overflow_seeded` requires of `make_path`.
    fn seeded_bernoulli_path(seed: u64, len: usize, p: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < p {
                    2.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn seeded_estimate_is_bit_identical_across_thread_counts(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let make_path = |_rep: usize, seed: u64| seeded_bernoulli_path(seed, 500, 0.3);
        let baseline = estimate_overflow_seeded(make_path, 42, 600, 500, 1.0, 2.0, 1)?;
        assert!(
            baseline.p > 0.0 && baseline.p < 1.0,
            "test must exercise both outcomes"
        );
        for threads in [2usize, 8] {
            let est = estimate_overflow_seeded(make_path, 42, 600, 500, 1.0, 2.0, threads)?;
            assert_eq!(est.p.to_bits(), baseline.p.to_bits(), "threads={threads}");
            assert_eq!(est.n, baseline.n);
            assert_eq!(
                est.variance.to_bits(),
                baseline.variance.to_bits(),
                "threads={threads}"
            );
        }
        Ok(())
    }

    #[test]
    fn seeded_estimate_matches_sequential_fold_of_derived_seeds(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // The parallel estimator over derived seeds must equal the plain
        // sequential estimator fed the identical seed schedule.
        let par = estimate_overflow_seeded(
            |_rep, seed| seeded_bernoulli_path(seed, 400, 0.35),
            7,
            300,
            400,
            1.0,
            2.0,
            4,
        )?;
        let seq = estimate_overflow(
            |rep| seeded_bernoulli_path(svbr_par::derive_seed(7, rep as u64), 400, 0.35),
            300,
            400,
            1.0,
            2.0,
        )?;
        assert_eq!(par.p.to_bits(), seq.p.to_bits());
        Ok(())
    }

    #[test]
    fn seeded_estimate_reports_lowest_index_error() {
        // Replications 3 and 7 are too short; index order means rep 3's
        // error must win regardless of which worker hits it first.
        let err = estimate_overflow_seeded(
            |rep, _seed| {
                if rep == 3 || rep == 7 {
                    vec![0.0; 2]
                } else {
                    vec![0.0; 10]
                }
            },
            1,
            16,
            10,
            1.0,
            1.0,
            8,
        );
        assert!(matches!(
            err,
            Err(QueueError::PathTooShort { needed: 10, got: 2 })
        ));
        // Validation failures short-circuit before any path is built.
        assert!(estimate_overflow_seeded(|_, _| vec![0.0; 5], 1, 0, 5, 1.0, 1.0, 1).is_err());
        assert!(estimate_overflow_seeded(|_, _| vec![0.0; 5], 1, 5, 5, 0.0, 1.0, 1).is_err());
    }

    #[test]
    fn tail_curve_monotone_decreasing_in_b() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(2);
        let arrivals: Vec<f64> = (0..200_000)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.4 {
                    2.0
                } else {
                    0.0
                }
            })
            .collect();
        let buffers = [0.0, 1.0, 2.0, 4.0, 8.0];
        let curve = tail_curve_from_path(&arrivals, 1.0, 1000, &buffers)?;
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1, "tail must decrease in b");
        }
        // Geometric walk: Pr(Q > b) = (2/3)^{b+1} at ρ = 0.8.
        let exact = |b: f64| (0.4f64 / 0.6).powf(b + 1.0);
        for &(b, p) in &curve {
            assert!(
                (p - exact(b)).abs() < 0.05,
                "b={b}: est {p} vs exact {}",
                exact(b)
            );
        }
        Ok(())
    }
}
