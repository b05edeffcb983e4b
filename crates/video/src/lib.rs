//! # svbr-video — synthetic MPEG-1 VBR video source substrate
//!
//! The paper's empirical data is a two-hour MPEG-1 encoding of the movie
//! *"Last Action Hero"* (Table 1: 238,626 frames, 30 fps, GOP
//! `IBBPBBPBBPBB`). That trace is unobtainable, so this crate implements the
//! closest synthetic equivalent that exercises every downstream code path:
//!
//! * [`gop`] — MPEG GOP structure: frame types I/P/B and repeating patterns.
//! * [`scene`] — a scene-based activity model: scene lengths are
//!   heavy-tailed Pareto (tail index `α` ⇒ Hurst `H = (3−α)/2`, the
//!   standard mechanism behind LRD in video), scene levels are Gaussian,
//!   and within-scene motion follows an AR(1) — which is what puts the
//!   *knee* in the autocorrelation (SRD below, power law above).
//! * [`encoder`] — a virtual codec mapping per-frame activity to bytes per
//!   frame with per-type (I/P/B) gains and multiplicative noise, yielding
//!   the long-tailed marginal of Fig. 1.
//! * [`trace`] — the [`FrameTrace`] container: sizes + GOP pattern,
//!   per-type extraction, GOP aggregation, and a line-oriented text format.
//! * [`reference`] — the pinned-seed, full-length (238,626-frame) reference
//!   trace standing in for Table 1's movie, plus shorter variants for
//!   tests.
//!
//! Every statistical property the paper's pipeline consumes — `H ≈ 0.9`,
//! an ACF knee near lag 60, GOP periodicity, long-tailed marginal — is
//! reproduced by construction and verified by this crate's tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoder;
pub mod gop;
pub mod reference;
pub mod scene;
pub mod trace;

pub use encoder::{CodecConfig, VirtualCodec};
pub use gop::{FrameType, GopPattern};
pub use reference::{
    reference_trace, reference_trace_intra, reference_trace_intra_of_len, reference_trace_of_len,
    ReferenceParams,
};
pub use scene::{SceneConfig, SceneProcess};
pub use trace::FrameTrace;

/// Errors produced by this crate.
#[derive(Debug)]
pub enum VideoError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
    },
    /// A trace file failed to parse.
    Parse(String),
    /// I/O failure while reading or writing a trace file.
    Io(std::io::Error),
}

impl std::fmt::Display for VideoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VideoError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: must satisfy {constraint}")
            }
            VideoError::Parse(msg) => write!(f, "trace parse error: {msg}"),
            VideoError::Io(e) => write!(f, "trace I/O error: {e}"),
        }
    }
}

impl std::error::Error for VideoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VideoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for VideoError {
    fn from(e: std::io::Error) -> Self {
        VideoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = VideoError::InvalidParameter {
            name: "fps",
            constraint: "fps > 0",
        };
        assert!(e.to_string().contains("fps"));
        assert!(VideoError::Parse("bad header".into())
            .to_string()
            .contains("bad header"));
        let io = VideoError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "x"));
        assert!(io.to_string().contains("I/O"));
        use std::error::Error;
        assert!(io.source().is_some());
    }
}
