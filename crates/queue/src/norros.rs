//! Norros's analytic overflow approximation for self-similar input.
//!
//! The paper cites I. Norros, *"A Storage Model with Self-Similar Input"*
//! (Queueing Systems 16, 1994): for a fluid queue fed by fractional
//! Brownian traffic with mean rate `m`, variance `Var A(t) = σ²·t^{2H}`,
//! and service rate `C > m`, the stationary queue tail is approximately
//! **Weibullian**:
//!
//! ```text
//! P(Q > b) ≈ exp( − (C−m)^{2H} · b^{2−2H} / (2·σ²·κ(H)) )
//! κ(H) = H^{2H} · (1−H)^{2−2H}
//! ```
//!
//! (the large-deviations estimate `P(sup_t W_t > b) ≈ exp(−inf_t
//! (b+(C−m)t)²/(2σ²t^{2H}))`, with the infimum at
//! `t* = H·b/((1−H)(C−m))`).
//!
//! For `H = ½` this collapses to the classical exponential M/D/1-ish tail;
//! for `H → 1` the decay in `b` flattens — the *"loss probability decays
//! less than exponentially fast with respect to buffer size"* behaviour the
//! paper verifies by simulation in Figs. 16–17. This module provides the
//! closed form so simulated curves can be checked against theory.

use crate::QueueError;

/// Parameters of a fractional-Brownian traffic approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbmTraffic {
    /// Mean arrival rate per slot.
    pub mean: f64,
    /// Per-slot marginal variance (`Var A(1)`).
    pub variance: f64,
    /// Hurst parameter of the cumulative arrivals.
    pub hurst: f64,
}

impl FbmTraffic {
    /// Validate and wrap.
    pub fn new(mean: f64, variance: f64, hurst: f64) -> Result<Self, QueueError> {
        if !(mean > 0.0 && mean.is_finite()) {
            return Err(QueueError::InvalidParameter {
                name: "mean",
                constraint: "> 0 and finite",
            });
        }
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(QueueError::InvalidParameter {
                name: "variance",
                constraint: "> 0 and finite",
            });
        }
        if !(hurst > 0.0 && hurst < 1.0) {
            return Err(QueueError::InvalidParameter {
                name: "hurst",
                constraint: "0 < H < 1",
            });
        }
        Ok(Self {
            mean,
            variance,
            hurst,
        })
    }

    /// Match the first two moments (and H) of an observed arrival path.
    pub fn from_path(arrivals: &[f64], hurst: f64) -> Result<Self, QueueError> {
        if arrivals.len() < 2 {
            return Err(QueueError::PathTooShort {
                needed: 2,
                got: arrivals.len(),
            });
        }
        let n = arrivals.len() as f64;
        let mean = arrivals.iter().sum::<f64>() / n;
        let var = arrivals
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        Self::new(mean, var, hurst)
    }
}

/// The Norros approximation `P(Q > b)` for service rate `service > mean`.
pub fn norros_overflow(traffic: &FbmTraffic, service: f64, buffer: f64) -> Result<f64, QueueError> {
    if service.partial_cmp(&traffic.mean) != Some(std::cmp::Ordering::Greater) {
        return Err(QueueError::InvalidParameter {
            name: "service",
            constraint: "service > mean (stability)",
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
    // Exact empty buffer: overflow probability is exactly 1
    if buffer == 0.0 {
        return Ok(1.0);
    }
    let h = traffic.hurst;
    let kappa = h.powf(2.0 * h) * (1.0 - h).powf(2.0 - 2.0 * h);
    let exponent = (service - traffic.mean).powf(2.0 * h) * buffer.powf(2.0 - 2.0 * h)
        / (2.0 * traffic.variance * kappa);
    Ok((-exponent).exp().min(1.0))
}

/// The buffer size at which the Norros approximation first drops to the
/// loss target `p` — the analytic "buffer dimensioning" inverse.
pub fn norros_buffer_for_loss(
    traffic: &FbmTraffic,
    service: f64,
    p: f64,
) -> Result<f64, QueueError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(QueueError::InvalidParameter {
            name: "p",
            constraint: "0 < p < 1",
        });
    }
    if service.partial_cmp(&traffic.mean) != Some(std::cmp::Ordering::Greater) {
        return Err(QueueError::InvalidParameter {
            name: "service",
            constraint: "service > mean (stability)",
        });
    }
    let h = traffic.hurst;
    let kappa = h.powf(2.0 * h) * (1.0 - h).powf(2.0 - 2.0 * h);
    let num = -p.ln() * 2.0 * traffic.variance * kappa;
    let den = (service - traffic.mean).powf(2.0 * h);
    Ok((num / den).powf(1.0 / (2.0 - 2.0 * h)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use svbr_lrd::acf::FgnAcf;
    use svbr_lrd::DaviesHarte;

    #[test]
    fn monotone_in_buffer_and_service() -> Result<(), Box<dyn std::error::Error>> {
        let t = FbmTraffic::new(1.0, 1.0, 0.8)?;
        let p1 = norros_overflow(&t, 1.5, 10.0)?;
        let p2 = norros_overflow(&t, 1.5, 20.0)?;
        let p3 = norros_overflow(&t, 2.0, 10.0)?;
        assert!(p2 < p1, "larger buffer, smaller loss");
        assert!(p3 < p1, "faster server, smaller loss");
        assert_eq!(norros_overflow(&t, 1.5, 0.0)?, 1.0);
        Ok(())
    }

    #[test]
    fn weibull_decay_exponent() -> Result<(), Box<dyn std::error::Error>> {
        // log P must be linear in b^{2−2H}.
        let h = 0.75;
        let t = FbmTraffic::new(1.0, 2.0, h)?;
        let lp = |b: f64| norros_overflow(&t, 1.4, b).map(f64::ln);
        let x = |b: f64| b.powf(2.0 - 2.0 * h);
        let s1 = lp(40.0)? - lp(10.0)?;
        let s2 = x(40.0) - x(10.0);
        let s3 = lp(160.0)? - lp(40.0)?;
        let s4 = x(160.0) - x(40.0);
        assert!(
            ((s1 / s2) - (s3 / s4)).abs() < 1e-12,
            "Weibullian in b^(2-2H)"
        );
        Ok(())
    }

    #[test]
    fn h_half_is_exponential_in_b() -> Result<(), Box<dyn std::error::Error>> {
        let t = FbmTraffic::new(1.0, 1.0, 0.5)?;
        let p1 = norros_overflow(&t, 1.5, 10.0)?;
        let p2 = norros_overflow(&t, 1.5, 20.0)?;
        let p3 = norros_overflow(&t, 1.5, 30.0)?;
        assert!(((p2 / p1) - (p3 / p2)).abs() < 1e-12, "geometric in b");
        Ok(())
    }

    #[test]
    fn higher_h_decays_slower_at_large_buffers() -> Result<(), Box<dyn std::error::Error>> {
        let srd = FbmTraffic::new(1.0, 1.0, 0.5)?;
        let lrd = FbmTraffic::new(1.0, 1.0, 0.9)?;
        let b = 200.0;
        let p_srd = norros_overflow(&srd, 1.3, b)?;
        let p_lrd = norros_overflow(&lrd, 1.3, b)?;
        assert!(
            p_lrd > 1e3 * p_srd,
            "LRD keeps losses alive: {p_lrd} vs {p_srd}"
        );
        Ok(())
    }

    #[test]
    fn buffer_dimensioning_inverts_overflow() -> Result<(), Box<dyn std::error::Error>> {
        let t = FbmTraffic::new(2.0, 3.0, 0.85)?;
        for p in [1e-2, 1e-4, 1e-6] {
            let b = norros_buffer_for_loss(&t, 3.0, p)?;
            let back = norros_overflow(&t, 3.0, b)?;
            assert!((back.ln() - p.ln()).abs() < 1e-9, "p {p}: b {b}");
        }
        Ok(())
    }

    #[test]
    fn matches_simulated_fgn_queue_shape() -> Result<(), Box<dyn std::error::Error>> {
        // Simulate an fGn-input queue and verify the *slope* of log P in
        // b^{2−2H} matches Norros within a modest factor (the approximation
        // is asymptotic and ignores prefactors).
        let h = 0.75;
        let n = 65_536;
        let dh = DaviesHarte::new(FgnAcf::new(h)?, n)?;
        let mut rng = StdRng::seed_from_u64(1);
        // Arrivals: mean 3, sd 1 (positive with overwhelming probability).
        let service = 3.8;
        let buffers = [4.0, 8.0, 16.0, 32.0];
        let mut counts = vec![0usize; buffers.len()];
        let mut slots = 0usize;
        for _ in 0..30 {
            let xs = dh.generate(&mut rng);
            let mut q = 0.0f64;
            for &x in &xs {
                let y = 3.0 + x;
                q = (q + y - service).max(0.0);
                slots += 1;
                for (c, &b) in counts.iter_mut().zip(buffers.iter()) {
                    if q > b {
                        *c += 1;
                    }
                }
            }
        }
        let sim: Vec<f64> = counts
            .iter()
            .map(|&c| (c as f64 / slots as f64).max(1e-12))
            .collect();
        let t = FbmTraffic::new(3.0, 1.0, h)?;
        let theory: Vec<f64> = buffers
            .iter()
            .map(|&b| norros_overflow(&t, service, b))
            .collect::<Result<_, _>>()?;
        // Compare decay slopes in Weibull coordinates.
        let xw = |b: f64| b.powf(2.0 - 2.0 * h);
        let sim_slope = (sim[3].ln() - sim[0].ln()) / (xw(buffers[3]) - xw(buffers[0]));
        let th_slope = (theory[3].ln() - theory[0].ln()) / (xw(buffers[3]) - xw(buffers[0]));
        assert!(
            (sim_slope / th_slope) > 0.5 && (sim_slope / th_slope) < 2.0,
            "sim slope {sim_slope} vs theory {th_slope}"
        );
        Ok(())
    }

    #[test]
    fn validation() -> Result<(), Box<dyn std::error::Error>> {
        assert!(FbmTraffic::new(0.0, 1.0, 0.8).is_err());
        assert!(FbmTraffic::new(1.0, 0.0, 0.8).is_err());
        assert!(FbmTraffic::new(1.0, 1.0, 1.0).is_err());
        let t = FbmTraffic::new(1.0, 1.0, 0.8)?;
        assert!(norros_overflow(&t, 0.9, 1.0).is_err());
        assert!(norros_overflow(&t, 1.5, -1.0).is_err());
        assert!(norros_buffer_for_loss(&t, 1.5, 0.0).is_err());
        assert!(norros_buffer_for_loss(&t, 0.5, 0.01).is_err());
        assert!(FbmTraffic::from_path(&[1.0], 0.8).is_err());
        let ok = FbmTraffic::from_path(&[1.0, 2.0, 3.0], 0.8)?;
        assert!((ok.mean - 2.0).abs() < 1e-12);
        Ok(())
    }
}
