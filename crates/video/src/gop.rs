//! MPEG GOP (group of pictures) structure.
//!
//! §3.3 of the paper: "A typical frame sequence in a GOP is as follows:
//! `I B B P B B P B B P B B I …`" with I frames once every 12 frames
//! (`K_I = 12` for the PVRG-MPEG codec the authors used).

use crate::VideoError;

/// MPEG-1 frame types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Intraframe: coded without temporal prediction (largest).
    I,
    /// Forward-predicted frame.
    P,
    /// Bidirectionally predicted frame (smallest).
    B,
}

impl FrameType {
    /// Single-letter representation.
    pub fn letter(self) -> char {
        match self {
            FrameType::I => 'I',
            FrameType::P => 'P',
            FrameType::B => 'B',
        }
    }
}

impl std::fmt::Display for FrameType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A repeating GOP pattern, e.g. `IBBPBBPBBPBB`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GopPattern {
    types: Vec<FrameType>,
}

impl GopPattern {
    /// Parse from a string of `I`/`P`/`B` letters. Must start with `I`
    /// (the GOP anchor) and contain exactly one `I`.
    pub fn parse(s: &str) -> Result<Self, VideoError> {
        if s.is_empty() {
            return Err(VideoError::Parse("empty GOP pattern".into()));
        }
        let mut types = Vec::with_capacity(s.len());
        for c in s.chars() {
            types.push(match c {
                'I' | 'i' => FrameType::I,
                'P' | 'p' => FrameType::P,
                'B' | 'b' => FrameType::B,
                other => {
                    return Err(VideoError::Parse(format!(
                        "invalid frame letter '{other}' in GOP pattern"
                    )))
                }
            });
        }
        if types[0] != FrameType::I {
            return Err(VideoError::Parse("GOP pattern must start with I".into()));
        }
        if types.iter().filter(|t| **t == FrameType::I).count() != 1 {
            return Err(VideoError::Parse(
                "GOP pattern must contain exactly one I frame".into(),
            ));
        }
        Ok(Self { types })
    }

    /// The paper's pattern: `IBBPBBPBBPBB` (period 12).
    #[expect(
        clippy::expect_used,
        reason = "the literal contains only I/B/P and starts with I"
    )]
    pub fn mpeg1_default() -> Self {
        Self::parse("IBBPBBPBBPBB").expect("static pattern is valid")
    }

    /// An intraframe-only pattern (the paper's first encoding pass used a
    /// hardware intraframe coder).
    pub fn intra_only() -> Self {
        Self {
            types: vec![FrameType::I],
        }
    }

    /// GOP length (the I-frame period `K_I`).
    pub fn period(&self) -> usize {
        self.types.len()
    }

    /// Frame type at global frame index `k`.
    pub fn frame_type(&self, k: usize) -> FrameType {
        self.types[k % self.types.len()]
    }

    /// The pattern's frame types, one period.
    pub fn types(&self) -> &[FrameType] {
        &self.types
    }

    /// Count of each type per period as `(i, p, b)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for t in &self.types {
            match t {
                FrameType::I => c.0 += 1,
                FrameType::P => c.1 += 1,
                FrameType::B => c.2 += 1,
            }
        }
        c
    }
}

impl std::fmt::Display for GopPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for t in &self.types {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_default_pattern() {
        let g = GopPattern::mpeg1_default();
        assert_eq!(g.period(), 12);
        assert_eq!(g.to_string(), "IBBPBBPBBPBB");
        assert_eq!(g.counts(), (1, 3, 8));
    }

    #[test]
    fn frame_type_cycles() {
        let g = GopPattern::mpeg1_default();
        assert_eq!(g.frame_type(0), FrameType::I);
        assert_eq!(g.frame_type(1), FrameType::B);
        assert_eq!(g.frame_type(3), FrameType::P);
        assert_eq!(g.frame_type(12), FrameType::I);
        assert_eq!(g.frame_type(24), FrameType::I);
        assert_eq!(g.frame_type(15), g.frame_type(3));
    }

    #[test]
    fn parse_lowercase_and_custom() -> Result<(), Box<dyn std::error::Error>> {
        let g = GopPattern::parse("ibbp")?;
        assert_eq!(g.period(), 4);
        assert_eq!(g.types()[3], FrameType::P);
        Ok(())
    }

    #[test]
    fn parse_rejects_bad_patterns() {
        assert!(GopPattern::parse("").is_err());
        assert!(GopPattern::parse("BBI").is_err());
        assert!(GopPattern::parse("IBBI").is_err());
        assert!(GopPattern::parse("IXB").is_err());
    }

    #[test]
    fn intra_only_pattern() {
        let g = GopPattern::intra_only();
        assert_eq!(g.period(), 1);
        for k in 0..10 {
            assert_eq!(g.frame_type(k), FrameType::I);
        }
    }

    #[test]
    fn display_letters() {
        assert_eq!(FrameType::I.to_string(), "I");
        assert_eq!(FrameType::P.letter(), 'P');
        assert_eq!(FrameType::B.letter(), 'B');
    }
}
