//! Scene-based activity process.
//!
//! The physical explanation for long-range dependence in video traffic
//! (advanced by Beran/Sherman/Taqqu/Willinger, the measurement study the
//! paper builds on) is the heavy-tailed distribution of *scene lengths*:
//! a renewal-reward process whose holding times are Pareto with tail index
//! `1 < α < 2` is asymptotically self-similar with `H = (3 − α)/2`.
//!
//! This module generates a per-frame **activity** series:
//!
//! ```text
//! a_k = scene_level_j + within_scene_weight · AR1_k
//! ```
//!
//! * scene `j` has length `L_j ~ Pareto(x_m, α)` (rounded up to ≥ 1 frame)
//!   and level `M_j ~ N(0, 1)` — the LRD component;
//! * `AR1` is a stationary AR(1) with per-frame coefficient `φ`, restarted
//!   at scene changes — the SRD component responsible for the ACF knee.
//!
//! The result is (approximately) zero-mean; [`SceneProcess::generate`]
//! standardizes it to unit variance so the virtual codec can apply
//! calibrated gains.

use crate::VideoError;
use rand::Rng;
use svbr_lrd::gauss::Normal;

/// Configuration of the scene-activity model.
#[derive(Debug, Clone, Copy)]
pub struct SceneConfig {
    /// Pareto tail index of scene lengths; `H = (3 − α)/2`, so the paper's
    /// `H = 0.9` needs `α = 1.2`.
    pub scene_alpha: f64,
    /// Minimum scene length in frames (Pareto scale `x_m`).
    pub scene_min_frames: f64,
    /// AR(1) coefficient of within-scene motion, per frame.
    pub motion_phi: f64,
    /// Relative weight of within-scene motion vs scene level
    /// (0 = pure renewal process, larger = stronger SRD).
    pub motion_weight: f64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        // Calibrated so that, over the aggregation scales the paper's
        // estimators use (m = 100…10⁴ frames), the measured Hurst parameter
        // lands near 0.85 (VT and R/S agree) with an ACF knee in the
        // 30–80-lag region — the qualitative shape of the paper's Figs. 3–5.
        // Renewal-process LRD converges to its H = (3−α)/2 asymptote very
        // slowly, so the *measured* H at movie-length scales sits below the
        // α-implied target; the calibration compensates by choosing a
        // heavier tail than the target H alone would suggest.
        Self {
            scene_alpha: 1.15,
            scene_min_frames: 60.0,
            motion_phi: 0.99,
            motion_weight: 0.6,
        }
    }
}

impl SceneConfig {
    /// The Hurst parameter this configuration targets, `H = (3 − α)/2`.
    pub fn target_hurst(&self) -> f64 {
        (3.0 - self.scene_alpha) / 2.0
    }

    /// Mean scene length `α·x_m/(α−1)` in frames.
    pub fn mean_scene_frames(&self) -> f64 {
        self.scene_alpha * self.scene_min_frames / (self.scene_alpha - 1.0)
    }

    fn validate(&self) -> Result<(), VideoError> {
        if !(self.scene_alpha > 1.0 && self.scene_alpha < 2.0) {
            return Err(VideoError::InvalidParameter {
                name: "scene_alpha",
                constraint: "1 < alpha < 2 (finite mean, infinite variance)",
            });
        }
        if !matches!(
            self.scene_min_frames.partial_cmp(&1.0),
            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
        ) {
            return Err(VideoError::InvalidParameter {
                name: "scene_min_frames",
                constraint: ">= 1",
            });
        }
        if !(self.motion_phi >= 0.0 && self.motion_phi < 1.0) {
            return Err(VideoError::InvalidParameter {
                name: "motion_phi",
                constraint: "0 <= phi < 1",
            });
        }
        if !(self.motion_weight >= 0.0 && self.motion_weight.is_finite()) {
            return Err(VideoError::InvalidParameter {
                name: "motion_weight",
                constraint: ">= 0",
            });
        }
        Ok(())
    }
}

/// Generator of per-frame activity series.
#[derive(Debug, Clone)]
pub struct SceneProcess {
    config: SceneConfig,
}

impl SceneProcess {
    /// Construct after validating the configuration.
    pub fn new(config: SceneConfig) -> Result<Self, VideoError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Generate `n` frames of standardized (zero-mean, unit-variance)
    /// activity. Also returns the scene boundaries (frame indices at which
    /// new scenes start, always beginning with 0) for diagnostics.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> (Vec<f64>, Vec<usize>) {
        let c = &self.config;
        let mut normal = Normal::new();
        let mut activity = Vec::with_capacity(n);
        let mut boundaries = Vec::new();
        let innov_sd = (1.0 - c.motion_phi * c.motion_phi).sqrt();
        let mut k = 0usize;
        while k < n {
            boundaries.push(k);
            // Pareto scene length.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let len_f = c.scene_min_frames * u.powf(-1.0 / c.scene_alpha);
            let len = (len_f.ceil() as usize).max(1).min(n - k);
            let level = normal.sample(rng);
            // Within-scene AR(1), stationary start.
            let mut w = normal.sample(rng);
            for _ in 0..len {
                activity.push(level + c.motion_weight * w);
                w = c.motion_phi * w + innov_sd * normal.sample(rng);
            }
            k += len;
        }
        standardize(&mut activity);
        (activity, boundaries)
    }
}

/// In-place standardization to zero mean, unit variance.
fn standardize(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd > 0.0 {
        for x in xs.iter_mut() {
            *x = (*x - mean) / sd;
        }
    } else {
        for x in xs.iter_mut() {
            *x = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_standardized() -> Result<(), Box<dyn std::error::Error>> {
        let p = SceneProcess::new(SceneConfig::default())?;
        let mut rng = StdRng::seed_from_u64(1);
        let (a, bounds) = p.generate(50_000, &mut rng);
        assert_eq!(a.len(), 50_000);
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        let var = a.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / a.len() as f64;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
        assert_eq!(bounds[0], 0);
        assert!(bounds.len() > 10, "several scenes in 50k frames");
        Ok(())
    }

    #[test]
    fn scene_lengths_heavy_tailed() -> Result<(), Box<dyn std::error::Error>> {
        let p = SceneProcess::new(SceneConfig::default())?;
        let mut rng = StdRng::seed_from_u64(2);
        let (_, bounds) = p.generate(300_000, &mut rng);
        let lengths: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
        // Mean scene length ≈ α·xm/(α−1) = 460 (sampling noise is large
        // because the length distribution is heavy-tailed).
        assert!(mean > 150.0 && mean < 1500.0, "mean scene length {mean}");
        let max = *lengths.iter().max().ok_or("empty")?;
        assert!(
            max > 20 * mean as usize,
            "heavy tail should produce giant scenes (max {max})"
        );
        assert!(lengths.iter().all(|&l| l >= 1));
        Ok(())
    }

    #[test]
    fn hurst_parameter_in_lrd_range() -> Result<(), Box<dyn std::error::Error>> {
        // The headline property: the activity series must be long-range
        // dependent with H near (3−α)/2 = 0.9.
        let p = SceneProcess::new(SceneConfig::default())?;
        let mut rng = StdRng::seed_from_u64(3);
        let (a, _) = p.generate(400_000, &mut rng);
        let est = svbr_stats::variance_time_hurst(
            &a,
            &svbr_stats::VtOptions {
                min_m: 100,
                max_m: 10_000,
                points: 15,
                min_blocks: 10,
            },
        )?;
        assert!(
            est.hurst > 0.75 && est.hurst < 1.0,
            "variance-time H = {}",
            est.hurst
        );
        Ok(())
    }

    #[test]
    fn short_range_correlation_present() -> Result<(), Box<dyn std::error::Error>> {
        let p = SceneProcess::new(SceneConfig::default())?;
        let mut rng = StdRng::seed_from_u64(4);
        let (a, _) = p.generate(100_000, &mut rng);
        let acf = svbr_stats::sample_acf_fft(&a, 100)?;
        // Strong positive correlation at small lags, decaying with lag.
        assert!(acf[1] > 0.7, "r(1) = {}", acf[1]);
        assert!(acf[1] > acf[20], "ACF must decay");
        assert!(acf[20] > acf[100], "ACF must keep decaying");
        assert!(acf[100] > 0.1, "LRD keeps correlation alive at lag 100");
        Ok(())
    }

    #[test]
    fn config_validation() {
        let bad = |f: fn(&mut SceneConfig)| {
            let mut c = SceneConfig::default();
            f(&mut c);
            SceneProcess::new(c).is_err()
        };
        assert!(bad(|c| c.scene_alpha = 1.0));
        assert!(bad(|c| c.scene_alpha = 2.0));
        assert!(bad(|c| c.scene_min_frames = 0.5));
        assert!(bad(|c| c.motion_phi = 1.0));
        assert!(bad(|c| c.motion_weight = -1.0));
    }

    #[test]
    fn target_hurst_formula() {
        let c = SceneConfig {
            scene_alpha: 1.2,
            scene_min_frames: 20.0,
            ..Default::default()
        };
        assert!((c.target_hurst() - 0.9).abs() < 1e-12);
        assert!((c.mean_scene_frames() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_with_seed() -> Result<(), Box<dyn std::error::Error>> {
        let p = SceneProcess::new(SceneConfig::default())?;
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(p.generate(1000, &mut r1).0, p.generate(1000, &mut r2).0);
        Ok(())
    }

    #[test]
    fn standardize_handles_degenerate() {
        let mut xs = vec![3.0, 3.0, 3.0];
        standardize(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 0.0]);
        let mut empty: Vec<f64> = vec![];
        standardize(&mut empty);
        assert!(empty.is_empty());
    }
}
