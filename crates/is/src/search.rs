//! Heuristic "valley" search for the near-optimal twist (Fig. 14).
//!
//! "The IS estimator … is always unbiased, while the sample path properties
//! as well as the variance of the IS estimator are dramatically affected by
//! the choice of twisting parameter values. Typically … the normalized
//! variance exhibits a clear 'valley' around the most favorable parameter
//! values." (§4)

use crate::estimator::{IsEstimate, IsEstimator, IsEvent};
use crate::IsError;
use svbr_lrd::acf::Acf;
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::Marginal;

/// One evaluated point of the valley plot.
#[derive(Debug, Clone, Copy)]
pub struct TwistPoint {
    /// The twist `m*`.
    pub twist: f64,
    /// The IS estimate at this twist.
    pub estimate: IsEstimate,
}

impl TwistPoint {
    /// Normalized variance (`∞` when the estimate is 0 — i.e. the twist was
    /// too weak for any replication to reach the event).
    pub fn normalized_variance(&self) -> f64 {
        self.estimate.normalized_variance()
    }
}

impl<M: Marginal + Sync> IsEstimator<M> {
    /// Evaluate the normalized variance at each candidate twist and return
    /// the full valley plus the index of its minimum. This estimator's
    /// twist is not used; its prepared Hosking schedule is, so a caller
    /// that goes on to run the chosen twist ([`Self::with_twist`]) prepares
    /// once.
    ///
    /// Replication `i` draws one untwisted background path `y` from
    /// `svbr_par::derive_seed(base_seed, i)` and scores every twist on it,
    /// since the path twisted by `m*` is exactly `y + m*`: the twists see
    /// common random numbers, which sharpens the comparison of the valley's
    /// shape, and each slot's O(k) dot product is paid once instead of once
    /// per twist. Point `j` is bit-identical to
    /// `self.with_twist(twists[j]).run_parallel(n_reps, base_seed,
    /// threads)`.
    ///
    /// The returned index is the twist with the smallest normalized
    /// variance; when no twist has a finite one (no replication hit at any
    /// twist), it is the largest twist — the one most likely to reach the
    /// event.
    ///
    /// Errors with [`IsError::InvalidParameter`] on an empty or non-finite
    /// twist list or `n_reps == 0`.
    pub fn valley(
        &self,
        twists: &[f64],
        n_reps: usize,
        base_seed: u64,
        threads: usize,
    ) -> Result<(Vec<TwistPoint>, usize), IsError> {
        if twists.is_empty() {
            return Err(IsError::InvalidParameter {
                name: "twists",
                constraint: "at least one candidate",
            });
        }
        if !twists.iter().all(|t| t.is_finite()) {
            return Err(IsError::InvalidParameter {
                name: "twists",
                constraint: "every candidate finite",
            });
        }
        if n_reps == 0 {
            return Err(IsError::InvalidParameter {
                name: "n_reps",
                constraint: ">= 1",
            });
        }
        let estimates = self.run_twists_from(twists, n_reps, base_seed, 0, threads);
        let mut points = Vec::with_capacity(twists.len());
        for (&twist, estimate) in twists.iter().zip(estimates) {
            if svbr_obsv::enabled() {
                svbr_obsv::point(
                    "is.valley",
                    &[
                        ("twist", twist),
                        ("buffer", self.buffer()),
                        ("p", estimate.p),
                        ("normalized_variance", estimate.normalized_variance()),
                        ("hits", estimate.hits as f64),
                    ],
                );
            }
            points.push(TwistPoint { twist, estimate });
        }
        let best = best_point(&points);
        Ok((points, best))
    }
}

/// [`IsEstimator::valley`] on a freshly built estimator. It remains
/// because the end-to-end benchmark's Fig. 16 workload calls it; every
/// other caller builds one [`IsEstimator`] and calls
/// [`IsEstimator::valley`] and then [`IsEstimator::with_twist`] on it, so
/// the Hosking schedule is prepared once.
///
/// Errors as [`IsEstimator::new`] and [`IsEstimator::valley`] do.
#[expect(
    clippy::too_many_arguments,
    reason = "the IS system (ACF, horizon, transform, service, buffer, event) plus the search grid and its seeding; mirrors IsEstimator::new and valley"
)]
pub fn valley_search<A: Acf, M: Marginal + Sync>(
    acf: A,
    horizon: usize,
    transform: GaussianTransform<M>,
    service: f64,
    buffer: f64,
    event: IsEvent,
    twists: &[f64],
    n_reps: usize,
    base_seed: u64,
    threads: usize,
) -> Result<(Vec<TwistPoint>, usize), IsError> {
    IsEstimator::new(acf, horizon, transform, service, buffer, 0.0, event)?
        .valley(twists, n_reps, base_seed, threads)
}

/// Index of the smallest finite normalized variance, else of the largest
/// twist (0 for an empty slice).
fn best_point(points: &[TwistPoint]) -> usize {
    let valley_floor = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.normalized_variance().is_finite())
        .min_by(|a, b| {
            a.1.normalized_variance()
                .total_cmp(&b.1.normalized_variance())
        });
    let strongest = || {
        points
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.twist.total_cmp(&b.1.twist))
    };
    valley_floor.or_else(strongest).map_or(0, |(i, _)| i)
}

/// A large-deviations starting point for the twist search.
///
/// The most likely overflow path crosses the buffer at some time `t ≤ k`;
/// under a constant background twist `m`, crossing by `t` requires the
/// *foreground* mean to satisfy `E[h(Z + m)] ≈ service + buffer/t`, and
/// (white-noise large deviations) the measure-change cost of sustaining
/// the twist for `t` slots is `≈ t·m²/2`. This routine scans crossing
/// times on a log grid, solves the drift equation for `m(t)` by bisection
/// (the mean is nondecreasing in the twist because `h` is monotone), and
/// returns the cost-minimizing twist, clamped to `[0, 6]`.
///
/// The paper reports that closed-form optimization is intractable after
/// the transform and falls back to the empirical valley (Fig. 14); this
/// initializer doesn't replace the valley — correlations and the exact
/// variance criterion shift the optimum — but lands inside it, so only a
/// *local* search around it is needed (see
/// `suggested_twist_lands_in_valley`).
pub fn suggest_twist<M: Marginal>(
    target: &M,
    service: f64,
    buffer: f64,
    horizon: usize,
    quad_points: usize,
) -> Result<f64, IsError> {
    if !(service > 0.0 && buffer >= 0.0 && horizon > 0) {
        return Err(IsError::InvalidParameter {
            name: "service/buffer/horizon",
            constraint: "service > 0, buffer >= 0, horizon >= 1",
        });
    }
    let mean_at = |m: f64| -> f64 {
        svbr_marginal::special::normal_expectation(
            |z| target.quantile(svbr_marginal::norm_cdf(z + m)),
            quad_points,
        )
    };
    let twist_for_drift = |needed: f64| -> Option<f64> {
        if mean_at(0.0) >= needed {
            return Some(0.0);
        }
        if mean_at(6.0) < needed {
            return None; // even a 6σ shift can't supply this drift
        }
        let (mut lo, mut hi) = (0.0f64, 6.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if mean_at(mid) < needed {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    };
    // Log grid of candidate crossing times 1..=horizon.
    let mut best: Option<(f64, f64)> = None; // (cost, twist)
    let steps = 24usize;
    for i in 0..=steps {
        let t = ((horizon as f64).ln() * i as f64 / steps as f64)
            .exp()
            .round();
        let t = t.clamp(1.0, horizon as f64);
        let needed = service + buffer / t;
        let Some(m) = twist_for_drift(needed) else {
            continue;
        };
        // Exact zero sentinel returned by the heuristic, not a computed value
        if m == 0.0 {
            return Ok(0.0); // the event is not rare; no twist required
        }
        let cost = t * m * m / 2.0;
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, m));
        }
    }
    Ok(best.map(|(_, m)| m).unwrap_or(6.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svbr_lrd::acf::FgnAcf;
    use svbr_marginal::Normal as NormalDist;

    #[test]
    fn valley_has_interior_minimum() -> Result<(), Box<dyn std::error::Error>> {
        // Rare event under white noise: untwisted MC sees almost nothing
        // (∞ or huge normalized variance), over-twisting inflates weights,
        // a middle twist wins.
        let twists = [0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0];
        let (points, best) = valley_search(
            FgnAcf::new(0.5)?,
            60,
            GaussianTransform::new(NormalDist::standard()),
            1.0,
            10.0,
            IsEvent::FirstPassage,
            &twists,
            4_000,
            11,
            4,
        )?;
        assert_eq!(points.len(), twists.len());
        assert!(best > 0, "twist 0 cannot be optimal for a rare event");
        assert!(
            best < twists.len() - 1,
            "extreme over-twisting should not be optimal (best = {})",
            points[best].twist
        );
        // The winning estimate must be usable.
        assert!(points[best].estimate.p > 0.0);
        assert!(points[best].normalized_variance().is_finite());
        Ok(())
    }

    #[test]
    fn untwisted_point_misses_rare_event() -> Result<(), Box<dyn std::error::Error>> {
        let (points, _) = valley_search(
            FgnAcf::new(0.5)?,
            40,
            GaussianTransform::new(NormalDist::standard()),
            1.2,
            12.0,
            IsEvent::FirstPassage,
            &[0.0, 2.0],
            2_000,
            5,
            2,
        )?;
        // At twist 0 the event {W crosses 12 under drift −1.2} is
        // essentially invisible at 2000 reps.
        assert_eq!(points[0].estimate.hits, 0);
        assert!(points[0].normalized_variance().is_infinite());
        assert!(points[1].estimate.hits > 0);
        Ok(())
    }

    #[test]
    fn suggested_twist_matches_ld_optimum_for_gaussian_target(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // For a standard-normal target h is the identity: E[h(Z+m)] = m.
        // Cost(t) = t·(service + b/t)²/2 is minimized at t* = b/service,
        // giving m* = 2·service.
        let m = suggest_twist(&NormalDist::standard(), 1.0, 10.0, 60, 60)?;
        assert!((m - 2.0).abs() < 0.15, "m* = {m}");
        // Horizon shorter than t*: crossing must happen by k, m* = 1 + b/k.
        let m = suggest_twist(&NormalDist::standard(), 1.0, 10.0, 5, 60)?;
        assert!((m - 3.0).abs() < 0.25, "m* = {m}");
        // Not rare (target mean already exceeds the needed drift) → 0.
        let rich = NormalDist::new(5.0, 1.0)?;
        let z = suggest_twist(&rich, 1.0, 10.0, 1_000, 60)?;
        assert_eq!(z, 0.0);
        Ok(())
    }

    #[test]
    fn suggested_twist_saturates_when_unreachable() -> Result<(), Box<dyn std::error::Error>> {
        // No 6σ shift of a standard normal reaches drift 100: saturate at 6.
        let m = suggest_twist(&NormalDist::standard(), 100.0, 10.0, 1, 60)?;
        assert!((m - 6.0).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn suggested_twist_lands_in_valley() -> Result<(), Box<dyn std::error::Error>> {
        // The drift-matching twist must be competitive: within 10x of the
        // best normalized variance found by a full grid search.
        let service = 1.0;
        let buffer = 10.0;
        let horizon = 60;
        let suggested = suggest_twist(&NormalDist::standard(), service, buffer, horizon, 60)?;
        let grid: Vec<f64> = (1..=12).map(|i| i as f64 * 0.5).collect();
        let mut twists = grid.clone();
        twists.push(suggested);
        let (points, best) = valley_search(
            FgnAcf::new(0.5)?,
            horizon,
            GaussianTransform::new(NormalDist::standard()),
            service,
            buffer,
            IsEvent::FirstPassage,
            &twists,
            4_000,
            7,
            4,
        )?;
        let suggested_point = points.last().expect("non-empty");
        let best_nv = points[best].normalized_variance();
        assert!(
            suggested_point.normalized_variance() < 10.0 * best_nv,
            "suggested m* = {suggested}: nv {} vs best {}",
            suggested_point.normalized_variance(),
            best_nv
        );
        Ok(())
    }

    #[test]
    fn suggest_twist_validation() {
        assert!(suggest_twist(&NormalDist::standard(), 0.0, 1.0, 10, 40).is_err());
        assert!(suggest_twist(&NormalDist::standard(), 1.0, -1.0, 10, 40).is_err());
        assert!(suggest_twist(&NormalDist::standard(), 1.0, 1.0, 0, 40).is_err());
    }

    #[test]
    fn rejects_empty_twists() -> Result<(), Box<dyn std::error::Error>> {
        let r = valley_search(
            FgnAcf::new(0.5)?,
            10,
            GaussianTransform::new(NormalDist::standard()),
            1.0,
            1.0,
            IsEvent::FirstPassage,
            &[],
            10,
            0,
            1,
        );
        assert!(r.is_err());
        Ok(())
    }

    fn bits(e: &IsEstimate) -> [u64; 5] {
        [
            e.p.to_bits(),
            e.n as u64,
            e.variance.to_bits(),
            e.hits as u64,
            e.mean_slots.to_bits(),
        ]
    }

    #[test]
    fn valley_points_match_single_twist_runs_bit_for_bit() -> Result<(), Box<dyn std::error::Error>>
    {
        // The shared path must not change any twist's result: point j is
        // the run a lone estimator at twist j makes from the same seed.
        let acf = FgnAcf::new(0.8)?;
        let transform = GaussianTransform::new(NormalDist::standard());
        let (horizon, service, buffer, n_reps, seed, threads) = (40, 0.8, 4.0, 300, 19, 3);
        let twists = [0.0, 0.5, 1.25, 2.0, 3.5];
        for event in [
            IsEvent::FirstPassage,
            IsEvent::LevelAtHorizon { initial: 2.0 },
        ] {
            let est =
                IsEstimator::new(acf, horizon, transform.clone(), service, buffer, 0.0, event)?;
            let (points, _) = est.valley(&twists, n_reps, seed, threads)?;
            assert!(
                points.iter().any(|p| p.estimate.hits > 0),
                "{event:?}: no twist hit"
            );
            for p in &points {
                let single = est.with_twist(p.twist).run_parallel(n_reps, seed, threads);
                assert_eq!(
                    bits(&p.estimate),
                    bits(&single),
                    "{event:?} at twist {}",
                    p.twist
                );
            }
        }
        Ok(())
    }

    #[test]
    fn valley_search_is_bit_identical_across_thread_counts(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let run = |threads: usize| {
            valley_search(
                FgnAcf::new(0.8)?,
                50,
                GaussianTransform::new(NormalDist::standard()),
                0.8,
                5.0,
                IsEvent::FirstPassage,
                &[0.0, 0.5, 1.0, 2.0, 3.0],
                400,
                23,
                threads,
            )
        };
        let (baseline, best) = run(1)?;
        assert!(baseline.iter().any(|p| p.estimate.hits > 0));
        for threads in [2usize, 8] {
            let (points, b) = run(threads)?;
            assert_eq!(b, best, "threads={threads}");
            for (p, q) in points.iter().zip(&baseline) {
                assert_eq!(
                    bits(&p.estimate),
                    bits(&q.estimate),
                    "threads={threads} twist={}",
                    p.twist
                );
            }
        }
        Ok(())
    }

    #[test]
    fn rejects_non_finite_twists_and_zero_reps() -> Result<(), Box<dyn std::error::Error>> {
        let run = |twists: &[f64], n_reps: usize| {
            valley_search(
                FgnAcf::new(0.5)?,
                10,
                GaussianTransform::new(NormalDist::standard()),
                1.0,
                1.0,
                IsEvent::FirstPassage,
                twists,
                n_reps,
                0,
                1,
            )
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    run(&[1.0, bad], 10),
                    Err(IsError::InvalidParameter { name: "twists", .. })
                ),
                "twist {bad} accepted"
            );
        }
        assert!(matches!(
            run(&[1.0], 0),
            Err(IsError::InvalidParameter { name: "n_reps", .. })
        ));
        assert!(run(&[1.0], 10).is_ok());
        Ok(())
    }

    #[test]
    fn no_hit_anywhere_picks_the_largest_twist() -> Result<(), Box<dyn std::error::Error>> {
        // An unreachable buffer: every normalized variance is ∞, so the
        // choice falls to the strongest twist, wherever it sits in the list.
        let (points, best) = valley_search(
            FgnAcf::new(0.5)?,
            10,
            GaussianTransform::new(NormalDist::standard()),
            1.0,
            1e6,
            IsEvent::FirstPassage,
            &[0.5, 3.0, 1.0],
            50,
            3,
            2,
        )?;
        assert!(points.iter().all(|p| p.estimate.hits == 0));
        assert_eq!(best, 1);
        Ok(())
    }
}
