//! The virtual codec: activity → bytes per frame.
//!
//! The real pipeline in the paper (SunVideo hardware + PVRG-MPEG 1.1
//! software) maps pictures to frame sizes; only the *sizes* matter to the
//! traffic model, so the virtual codec maps the scene-activity series to
//! bytes directly:
//!
//! ```text
//! bytes_k = gain(type_k) · exp( σ(type_k)·a_k + ε_k )
//! ```
//!
//! with per-type gains (I ≫ P > B, as MPEG produces), per-type
//! log-sensitivity `σ`, and a small iid coding noise `ε`. The exponential
//! link produces the long-tailed, strictly positive marginal of Fig. 1 and
//! makes the per-type marginals lognormal-like — close to the Gamma/Pareto
//! shapes fitted in the literature.

use crate::gop::{FrameType, GopPattern};
use crate::scene::{SceneConfig, SceneProcess};
use crate::trace::FrameTrace;
use crate::VideoError;
use rand::Rng;
use svbr_lrd::gauss::Normal;

/// Virtual-codec configuration.
#[derive(Debug, Clone)]
pub struct CodecConfig {
    /// GOP pattern (frame-type sequence).
    pub pattern: GopPattern,
    /// Median bytes for an I frame at zero activity.
    pub gain_i: f64,
    /// Median bytes for a P frame at zero activity.
    pub gain_p: f64,
    /// Median bytes for a B frame at zero activity.
    pub gain_b: f64,
    /// Log-domain sensitivity of I frames to activity.
    pub sigma_i: f64,
    /// Log-domain sensitivity of P frames to activity.
    pub sigma_p: f64,
    /// Log-domain sensitivity of B frames to activity.
    pub sigma_b: f64,
    /// Std-dev of iid log-domain coding noise.
    pub noise: f64,
}

impl Default for CodecConfig {
    fn default() -> Self {
        // Calibrated so the full-length reference trace looks like the
        // paper's Fig. 1: a peaked body with a long tail (peak-to-mean
        // ratio ≈ 7–8, as MPEG-1 movie traces show — this matters for the
        // §4 queueing experiments, where utilization 0.2 means the service
        // rate is 5× the mean and only the marginal's tail can overflow
        // the buffer), I frames several times larger than B frames.
        Self {
            pattern: GopPattern::mpeg1_default(),
            gain_i: 6_500.0,
            gain_p: 2_800.0,
            gain_b: 1_200.0,
            sigma_i: 0.55,
            sigma_p: 0.62,
            sigma_b: 0.68,
            noise: 0.15,
        }
    }
}

impl CodecConfig {
    fn validate(&self) -> Result<(), VideoError> {
        for (name, v) in [
            ("gain_i", self.gain_i),
            ("gain_p", self.gain_p),
            ("gain_b", self.gain_b),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(VideoError::InvalidParameter {
                    name,
                    constraint: "> 0 and finite",
                });
            }
        }
        for (name, v) in [
            ("sigma_i", self.sigma_i),
            ("sigma_p", self.sigma_p),
            ("sigma_b", self.sigma_b),
            ("noise", self.noise),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(VideoError::InvalidParameter {
                    name,
                    constraint: ">= 0 and finite",
                });
            }
        }
        Ok(())
    }

    /// Gain and sigma for a frame type.
    pub fn params(&self, t: FrameType) -> (f64, f64) {
        match t {
            FrameType::I => (self.gain_i, self.sigma_i),
            FrameType::P => (self.gain_p, self.sigma_p),
            FrameType::B => (self.gain_b, self.sigma_b),
        }
    }
}

/// The virtual codec: combines a [`SceneProcess`] with a [`CodecConfig`].
#[derive(Debug, Clone)]
pub struct VirtualCodec {
    scenes: SceneProcess,
    config: CodecConfig,
}

impl VirtualCodec {
    /// Construct from a scene model and codec configuration.
    pub fn new(scene_config: SceneConfig, config: CodecConfig) -> Result<Self, VideoError> {
        config.validate()?;
        Ok(Self {
            scenes: SceneProcess::new(scene_config)?,
            config,
        })
    }

    /// Construct with all defaults (the reference configuration).
    #[expect(
        clippy::expect_used,
        reason = "the Default configs satisfy every constructor range check"
    )]
    pub fn default_codec() -> Self {
        Self::new(SceneConfig::default(), CodecConfig::default())
            .expect("default configuration is valid")
    }

    /// The codec configuration.
    pub fn config(&self) -> &CodecConfig {
        &self.config
    }

    /// Encode `n` frames into a trace.
    pub fn encode<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> FrameTrace {
        let (activity, _) = self.scenes.generate(n, rng);
        self.encode_activity(&activity, rng)
    }

    /// Encode an externally supplied activity series (one value per frame).
    pub fn encode_activity<R: Rng + ?Sized>(&self, activity: &[f64], rng: &mut R) -> FrameTrace {
        let mut normal = Normal::new();
        let sizes: Vec<u32> = activity
            .iter()
            .enumerate()
            .map(|(k, &a)| {
                let t = self.config.pattern.frame_type(k);
                let (gain, sigma) = self.config.params(t);
                let eps = self.config.noise * normal.sample(rng);
                let bytes = gain * (sigma * a + eps).exp();
                bytes.round().clamp(1.0, u32::MAX as f64) as u32
            })
            .collect();
        FrameTrace::new(sizes, self.config.pattern.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace(n: usize, seed: u64) -> FrameTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        VirtualCodec::default_codec().encode(n, &mut rng)
    }

    #[test]
    fn frame_sizes_positive_and_ordered_by_type() {
        let t = trace(24_000, 1);
        let mean_of = |ty| {
            let v = t.sizes_of_type(ty);
            v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
        };
        let (mi, mp, mb) = (
            mean_of(FrameType::I),
            mean_of(FrameType::P),
            mean_of(FrameType::B),
        );
        assert!(mi > mp && mp > mb, "I {mi} > P {mp} > B {mb}");
        assert!(t.sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn marginal_is_long_tailed() {
        let t = trace(100_000, 2);
        let bytes: Vec<f64> = t.sizes().iter().map(|&s| s as f64).collect();
        let n = bytes.len() as f64;
        let mean = bytes.iter().sum::<f64>() / n;
        let m2 = bytes.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let m3 = bytes.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let skew = m3 / m2.powf(1.5);
        assert!(skew > 1.0, "video marginal must be right-skewed: {skew}");
        let max = bytes.iter().copied().fold(0.0f64, f64::max);
        assert!(max > 5.0 * mean, "long tail: max {max}, mean {mean}");
    }

    #[test]
    fn gop_periodicity_visible_in_sizes() {
        let t = trace(12_000, 3);
        // Average size at phase 0 (I) must dominate every other phase.
        let mut phase_mean = [0.0f64; 12];
        let mut phase_n = [0usize; 12];
        for (k, &s) in t.sizes().iter().enumerate() {
            phase_mean[k % 12] += s as f64;
            phase_n[k % 12] += 1;
        }
        for i in 0..12 {
            phase_mean[i] /= phase_n[i] as f64;
        }
        for i in 1..12 {
            assert!(
                phase_mean[0] > phase_mean[i],
                "I phase {} vs phase {i} {}",
                phase_mean[0],
                phase_mean[i]
            );
        }
    }

    #[test]
    fn external_activity_is_monotone_in_activity() -> Result<(), Box<dyn std::error::Error>> {
        let codec = VirtualCodec::new(
            SceneConfig::default(),
            CodecConfig {
                noise: 0.0,
                ..Default::default()
            },
        )?;
        let mut rng = StdRng::seed_from_u64(4);
        let low = codec.encode_activity(&[-1.0; 12], &mut rng);
        let high = codec.encode_activity(&[1.0; 12], &mut rng);
        for (l, h) in low.sizes().iter().zip(high.sizes()) {
            assert!(h > l);
        }
        Ok(())
    }

    #[test]
    fn config_validation() {
        let bad = CodecConfig {
            gain_i: 0.0,
            ..Default::default()
        };
        assert!(VirtualCodec::new(SceneConfig::default(), bad).is_err());
        let bad = CodecConfig {
            noise: -0.1,
            ..Default::default()
        };
        assert!(VirtualCodec::new(SceneConfig::default(), bad).is_err());
    }

    #[test]
    fn deterministic_with_seed() {
        let a = trace(500, 7);
        let b = trace(500, 7);
        assert_eq!(a.sizes(), b.sizes());
    }

    #[test]
    fn params_accessor() {
        let c = CodecConfig::default();
        assert_eq!(c.params(FrameType::I).0, c.gain_i);
        assert_eq!(c.params(FrameType::P).1, c.sigma_p);
        assert_eq!(c.params(FrameType::B).0, c.gain_b);
    }
}
