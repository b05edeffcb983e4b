//! Superposition of traffic sources — statistical multiplexing.
//!
//! The paper's opening motivation: packet networks win because they can
//! "support variable bit rate connections, thus allowing efficient
//! statistical multiplexing of bursty traffic". This module aggregates N
//! independent per-slot arrival paths and quantifies the multiplexing gain
//! (how much less than N× capacity the superposition needs for the same
//! loss target). Under LRD sources the gain is famously *smaller* than
//! Markovian models predict — a claim the `superposition` integration
//! tests verify against the workspace's own sources.

use crate::lindley::LindleyQueue;
use crate::QueueError;

/// Element-wise sum of `n` arrival paths (all must share the shortest
/// length; longer paths are truncated).
pub fn superpose(paths: &[Vec<f64>]) -> Result<Vec<f64>, QueueError> {
    if paths.is_empty() {
        return Err(QueueError::InvalidParameter {
            name: "paths",
            constraint: "at least one source",
        });
    }
    #[expect(
        clippy::expect_used,
        reason = "`paths` emptiness is rejected by the guard above"
    )]
    let len = paths.iter().map(|p| p.len()).min().expect("non-empty");
    if len == 0 {
        return Err(QueueError::PathTooShort { needed: 1, got: 0 });
    }
    let mut out = vec![0.0; len];
    for p in paths {
        for (o, &v) in out.iter_mut().zip(p.iter()) {
            *o += v;
        }
    }
    if svbr_obsv::enabled() {
        // Per-source arrival telemetry, labeled by source ordinal — the
        // landing pad for N-source multiplexing runs. Past the registry's
        // per-name cardinality cap, extra sources aggregate into the
        // reserved `{other="true"}` series, so this stays bounded for any
        // N.
        for (i, p) in paths.iter().enumerate() {
            let source = i.to_string();
            svbr_obsv::counter_with("queue.source.arrivals", &[("source", source.as_str())])
                .add(len as u64);
            let mean = p.iter().take(len).sum::<f64>() / len as f64;
            svbr_obsv::gauge_with("queue.source.mean", &[("source", source.as_str())]).set(mean);
        }
        svbr_obsv::counter("queue.superpositions").inc();
        svbr_obsv::record_tick(1);
    }
    Ok(out)
}

/// Result of a capacity search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityEstimate {
    /// Smallest service rate meeting the loss target.
    pub service: f64,
    /// Steady-state overflow fraction achieved at that rate.
    pub achieved: f64,
    /// The per-source mean of the superposed load.
    pub mean_arrival: f64,
}

impl CapacityEstimate {
    /// Capacity in units of the mean load (`service / mean_arrival`);
    /// 1.0 would be a perfectly smoothed source.
    pub fn overprovision_factor(&self) -> f64 {
        self.service / self.mean_arrival
    }
}

/// Find (by bisection) the minimum deterministic service rate such that
/// the fraction of slots with `Q > buffer` stays at or below `target`,
/// running the Lindley recursion over the given path.
///
/// This is the "effective bandwidth by simulation" primitive used to
/// quantify multiplexing gain: run it on one source, then on the
/// superposition of N, and compare `N·C(1)` with `C(N)`.
pub fn required_capacity(
    arrivals: &[f64],
    buffer: f64,
    target: f64,
    burn_in: usize,
) -> Result<CapacityEstimate, QueueError> {
    if arrivals.len() <= burn_in {
        return Err(QueueError::PathTooShort {
            needed: burn_in + 1,
            got: arrivals.len(),
        });
    }
    if !(target > 0.0 && target < 1.0) {
        return Err(QueueError::InvalidParameter {
            name: "target",
            constraint: "0 < target < 1",
        });
    }
    if !matches!(
        buffer.partial_cmp(&0.0),
        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
    ) {
        return Err(QueueError::InvalidParameter {
            name: "buffer",
            constraint: ">= 0",
        });
    }
    let mean = arrivals.iter().sum::<f64>() / arrivals.len() as f64;
    let peak = arrivals.iter().copied().fold(0.0f64, f64::max);
    if mean <= 0.0 {
        return Err(QueueError::InvalidParameter {
            name: "arrivals",
            constraint: "positive mean",
        });
    }
    let overflow_frac = |service: f64| -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "caller-side binary search only probes positive service rates"
        )]
        let mut q = LindleyQueue::new(service).expect("service > 0");
        let mut count = 0usize;
        let mut slots = 0usize;
        for (i, &y) in arrivals.iter().enumerate() {
            let level = q.step(y);
            if i >= burn_in {
                slots += 1;
                if level > buffer {
                    count += 1;
                }
            }
        }
        count as f64 / slots as f64
    };
    // Bisection between the stability bound and the peak rate: the
    // overflow fraction is nonincreasing in the service rate.
    let mut lo = mean * 1.0001;
    let mut hi = peak.max(lo * 1.001);
    if overflow_frac(hi) > target {
        // Even peak-rate allocation misses the target (tiny buffer +
        // boundary effects): report the peak rate.
        let achieved = overflow_frac(hi);
        return Ok(CapacityEstimate {
            service: hi,
            achieved,
            mean_arrival: mean,
        });
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if overflow_frac(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(CapacityEstimate {
        service: hi,
        achieved: overflow_frac(hi),
        mean_arrival: mean,
    })
}

/// Multiplexing gain of `n` sources: `n·C(1) / C(n)` where `C(k)` is the
/// capacity required for the superposition of `k` sources at the same
/// buffer-per-source and loss target. Values > 1 mean statistical
/// multiplexing pays.
pub fn multiplexing_gain(
    single: &CapacityEstimate,
    superposed: &CapacityEstimate,
    n: usize,
) -> f64 {
    (n as f64 * single.service) / superposed.service
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn onoff_source(rng: &mut StdRng, n: usize) -> Vec<f64> {
        // Bursty ON/OFF: geometric ON (rate 4.0) / OFF (rate 0) periods.
        let mut on = false;
        (0..n)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.1 {
                    on = !on;
                }
                if on {
                    4.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn superpose_sums_elementwise() -> Result<(), Box<dyn std::error::Error>> {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![10.0, 20.0, 30.0, 40.0];
        let s = superpose(&[a, b])?;
        assert_eq!(s, vec![11.0, 22.0, 33.0]);
        assert!(superpose(&[]).is_err());
        assert!(superpose(&[vec![]]).is_err());
        Ok(())
    }

    #[test]
    fn required_capacity_between_mean_and_peak() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(1);
        let src = onoff_source(&mut rng, 100_000);
        let est = required_capacity(&src, 10.0, 0.01, 1000)?;
        assert!(est.service > est.mean_arrival, "above stability bound");
        assert!(est.service <= 4.0 + 1e-6, "at most the peak rate");
        assert!(est.achieved <= 0.01 + 1e-9);
        assert!(est.overprovision_factor() > 1.0);
        Ok(())
    }

    #[test]
    fn capacity_monotone_in_target() -> Result<(), Box<dyn std::error::Error>> {
        let mut rng = StdRng::seed_from_u64(2);
        let src = onoff_source(&mut rng, 100_000);
        let strict = required_capacity(&src, 10.0, 0.001, 1000)?;
        let loose = required_capacity(&src, 10.0, 0.05, 1000)?;
        assert!(
            strict.service >= loose.service,
            "stricter target needs more capacity"
        );
        Ok(())
    }

    #[test]
    fn multiplexing_gain_positive_for_independent_onoff() -> Result<(), Box<dyn std::error::Error>>
    {
        // N independent ON/OFF sources smooth each other out: the
        // superposition needs less than N× the single-source capacity.
        let mut rng = StdRng::seed_from_u64(3);
        let n_src = 8;
        let len = 120_000;
        let paths: Vec<Vec<f64>> = (0..n_src).map(|_| onoff_source(&mut rng, len)).collect();
        let single = required_capacity(&paths[0], 10.0, 0.01, 1000)?;
        let agg = superpose(&paths)?;
        let superposed = required_capacity(&agg, 10.0 * n_src as f64, 0.01, 1000)?;
        let gain = multiplexing_gain(&single, &superposed, n_src);
        assert!(gain > 1.2, "gain = {gain}");
        Ok(())
    }

    #[test]
    fn validation() {
        let src = vec![1.0; 100];
        assert!(required_capacity(&src, 1.0, 0.0, 10).is_err());
        assert!(required_capacity(&src, 1.0, 1.0, 10).is_err());
        assert!(required_capacity(&src, -1.0, 0.1, 10).is_err());
        assert!(required_capacity(&src, 1.0, 0.1, 100).is_err());
        assert!(required_capacity(&[0.0; 100], 1.0, 0.1, 10).is_err());
    }

    #[test]
    fn constant_source_needs_mean_rate_only() -> Result<(), Box<dyn std::error::Error>> {
        let src = vec![2.0; 50_000];
        let est = required_capacity(&src, 0.5, 0.01, 100)?;
        assert!(
            (est.service - 2.0).abs() / 2.0 < 0.01,
            "CBR needs ~mean: {}",
            est.service
        );
        assert!((est.overprovision_factor() - 1.0).abs() < 0.01);
        Ok(())
    }
}
