//! Traditional Markovian traffic baselines.
//!
//! The paper's introduction singles out MMPP- and IBP-style models as the
//! traditional (short-range-dependent) approach that self-similar modeling
//! supersedes: "All these models have in common an asymptotically
//! exponential decay of the autocorrelation function and a rapidly decaying
//! marginal distribution tail." We implement the two canonical examples so
//! the claim can be demonstrated quantitatively (see the `baselines`
//! integration tests and the ablation benches).

use crate::LrdError;
use rand::Rng;

/// A discrete-time Markov-modulated Bernoulli-batch process with two states
/// (the slotted-time analogue of the 2-state MMPP commonly used for voice
/// and video in the ATM literature).
///
/// In each slot the chain is in state 0 or 1; the slot emits a
/// `Poisson(rate_s)` batch of cells where `rate_s` depends on the state, and
/// the chain then transitions with probabilities `p01` (0→1) and `p10`
/// (1→0).
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    rates: [f64; 2],
    p01: f64,
    p10: f64,
}

impl Mmpp2 {
    /// Construct from per-state Poisson rates and switching probabilities.
    pub fn new(rate0: f64, rate1: f64, p01: f64, p10: f64) -> Result<Self, LrdError> {
        if !(rate0 >= 0.0 && rate1 >= 0.0 && rate0.is_finite() && rate1.is_finite()) {
            return Err(LrdError::InvalidParameter {
                name: "rate",
                constraint: "rates >= 0",
            });
        }
        if !(p01 > 0.0 && p01 < 1.0 && p10 > 0.0 && p10 < 1.0) {
            return Err(LrdError::InvalidParameter {
                name: "p01/p10",
                constraint: "0 < p < 1 (irreducible chain)",
            });
        }
        Ok(Self {
            rates: [rate0, rate1],
            p01,
            p10,
        })
    }

    /// Stationary probability of being in state 1.
    pub fn stationary_p1(&self) -> f64 {
        self.p01 / (self.p01 + self.p10)
    }

    /// Mean arrivals per slot under the stationary distribution.
    pub fn mean_rate(&self) -> f64 {
        let p1 = self.stationary_p1();
        (1.0 - p1) * self.rates[0] + p1 * self.rates[1]
    }

    /// The geometric decay factor of the modulating chain's ACF:
    /// `r(k) ∝ (1 − p01 − p10)^k` — *exponential*, i.e. SRD by construction.
    pub fn acf_decay(&self) -> f64 {
        1.0 - self.p01 - self.p10
    }

    /// Generate `n` slots of arrivals, starting from the stationary state
    /// distribution.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        let mut state = usize::from(rng.gen_range(0.0..1.0) < self.stationary_p1());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(poisson(self.rates[state], rng) as f64);
            let flip = if state == 0 { self.p01 } else { self.p10 };
            if rng.gen_range(0.0..1.0) < flip {
                state ^= 1;
            }
        }
        out
    }
}

/// Interrupted Bernoulli Process: ON/OFF slotted source. While ON, each slot
/// carries one cell with probability `alpha`; while OFF, no cells. State
/// persistence probabilities `p` (stay ON) and `q` (stay OFF).
#[derive(Debug, Clone)]
pub struct Ibp {
    alpha: f64,
    stay_on: f64,
    stay_off: f64,
}

impl Ibp {
    /// Construct from the per-slot cell probability and persistence probs.
    pub fn new(alpha: f64, stay_on: f64, stay_off: f64) -> Result<Self, LrdError> {
        if !(0.0..=1.0).contains(&alpha) {
            return Err(LrdError::InvalidParameter {
                name: "alpha",
                constraint: "0 <= alpha <= 1",
            });
        }
        if !(stay_on > 0.0 && stay_on < 1.0 && stay_off > 0.0 && stay_off < 1.0) {
            return Err(LrdError::InvalidParameter {
                name: "stay_on/stay_off",
                constraint: "0 < p < 1",
            });
        }
        Ok(Self {
            alpha,
            stay_on,
            stay_off,
        })
    }

    /// Stationary probability of the ON state.
    pub fn stationary_on(&self) -> f64 {
        (1.0 - self.stay_off) / ((1.0 - self.stay_on) + (1.0 - self.stay_off))
    }

    /// Mean cells per slot.
    pub fn mean_rate(&self) -> f64 {
        self.alpha * self.stationary_on()
    }

    /// Generate `n` slots of 0/1 cell counts.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        let mut on = rng.gen_range(0.0..1.0) < self.stationary_on();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let cell = on && rng.gen_range(0.0..1.0) < self.alpha;
            out.push(if cell { 1.0 } else { 0.0 });
            let stay = if on { self.stay_on } else { self.stay_off };
            if rng.gen_range(0.0..1.0) >= stay {
                on = !on;
            }
        }
        out
    }
}

/// Sample a Poisson(λ) variate.
///
/// Knuth's product method for λ ≤ 30; for larger λ, decompose
/// recursively using the fact that Poisson(λ) = Poisson(λ/2) + Poisson(λ/2).
pub fn poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    debug_assert!(lambda >= 0.0);
    // Exact zero rate: Poisson(0) is deterministically 0
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Split to keep exp(-λ) away from underflow; still exact.
        return poisson(lambda / 2.0, rng) + poisson(lambda / 2.0, rng);
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    #[cfg_attr(miri, ignore)]
    fn poisson_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        for lambda in [0.5, 3.0, 25.0, 100.0] {
            let n = 50_000;
            let xs: Vec<f64> = (0..n).map(|_| poisson(lambda, &mut rng) as f64).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(1.0),
                "λ={lambda}: mean {mean}"
            );
            assert!(
                (var - lambda).abs() < 0.08 * lambda.max(1.0),
                "λ={lambda}: var {var}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn mmpp_stationary_mean() -> Result<(), Box<dyn std::error::Error>> {
        let m = Mmpp2::new(1.0, 10.0, 0.1, 0.3)?;
        let p1 = m.stationary_p1();
        assert!((p1 - 0.25).abs() < 1e-12);
        assert!((m.mean_rate() - (0.75 * 1.0 + 0.25 * 10.0)).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(3);
        let xs = m.generate(100_000, &mut rng);
        let emp = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((emp - m.mean_rate()).abs() < 0.1, "empirical mean {emp}");
        Ok(())
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn mmpp_acf_decays_exponentially() -> Result<(), Box<dyn std::error::Error>> {
        // The SRD property: ACF ratio r(2k)/r(k) ≈ r(k) for geometric decay.
        let m = Mmpp2::new(0.0, 8.0, 0.05, 0.05)?;
        let decay = m.acf_decay();
        assert!((decay - 0.9).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(4);
        let xs = m.generate(300_000, &mut rng);
        let r5 = sample_acf(&xs, 5);
        let r10 = sample_acf(&xs, 10);
        // Geometric: r10/r5 ≈ decay^5
        assert!(
            (r10 / r5 - decay.powi(5)).abs() < 0.1,
            "r5={r5} r10={r10} decay^5={}",
            decay.powi(5)
        );
        Ok(())
    }

    #[test]
    fn mmpp_rejects_bad_params() {
        assert!(Mmpp2::new(-1.0, 1.0, 0.1, 0.1).is_err());
        assert!(Mmpp2::new(1.0, 1.0, 0.0, 0.1).is_err());
        assert!(Mmpp2::new(1.0, 1.0, 0.1, 1.0).is_err());
    }

    #[test]
    fn ibp_mean_rate() -> Result<(), Box<dyn std::error::Error>> {
        let s = Ibp::new(0.8, 0.9, 0.95)?;
        let p_on = s.stationary_on();
        assert!((p_on - 0.05 / 0.15).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(5);
        let xs = s.generate(200_000, &mut rng);
        let emp = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (emp - s.mean_rate()).abs() < 0.01,
            "emp {emp} vs {}",
            s.mean_rate()
        );
        Ok(())
    }

    #[test]
    fn ibp_output_is_binary() -> Result<(), Box<dyn std::error::Error>> {
        let s = Ibp::new(0.5, 0.8, 0.8)?;
        let mut rng = StdRng::seed_from_u64(6);
        let xs = s.generate(10_000, &mut rng);
        assert!(xs.iter().all(|&x| x == 0.0 || x == 1.0));
        Ok(())
    }

    #[test]
    fn ibp_rejects_bad_params() {
        assert!(Ibp::new(1.5, 0.5, 0.5).is_err());
        assert!(Ibp::new(0.5, 1.0, 0.5).is_err());
        assert!(Ibp::new(0.5, 0.5, 0.0).is_err());
    }
}
