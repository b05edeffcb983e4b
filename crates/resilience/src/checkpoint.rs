//! Atomic, bit-exact run checkpoints.
//!
//! A [`Checkpoint`] is a typed bag of named sections — u64 words (RNG
//! state), f64 scalars (queue backlog, innovation variance) and f64
//! vectors (Hosking φ coefficients and history, accumulated result rows) —
//! plus a name, a master seed and a cursor (chunks completed).
//!
//! The on-disk format is line-oriented text. Every f64 is stored as its
//! raw IEEE-754 bit pattern in hex, so values round-trip *bit-exactly*
//! regardless of formatting subtleties; a trailing FNV-1a checksum line
//! detects truncated or corrupted files (a kill −9 can land mid-write on
//! filesystems without atomic rename durability). Writes go to a `.tmp`
//! sibling which is fsynced and then renamed over the target, so a
//! checkpoint file is either the complete old state or the complete new
//! state, never a torn mix.

use std::fmt;
use std::path::Path;

/// Errors from checkpoint parsing and I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file exists but does not parse as a checkpoint.
    Corrupt {
        /// 1-based line number of the offending line (0 = whole file).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A section the caller requires is absent.
    Missing {
        /// The missing section key.
        key: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { line, reason } => {
                write!(f, "corrupt checkpoint at line {line}: {reason}")
            }
            CheckpointError::Missing { key } => {
                write!(f, "checkpoint is missing required section `{key}`")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

const MAGIC: &str = "svbr-checkpoint v1";

/// A named, typed snapshot of everything a chunked run needs to continue
/// bit-identically: RNG words, scalar state, vector state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Run/experiment name (sanity-checked on resume).
    pub name: String,
    /// Master seed of the run (sanity-checked on resume).
    pub seed: u64,
    /// Progress cursor — for the supervised runner, chunks completed.
    pub cursor: u64,
    words: Vec<(String, Vec<u64>)>,
    scalars: Vec<(String, f64)>,
    vectors: Vec<(String, Vec<f64>)>,
}

impl Checkpoint {
    /// An empty checkpoint for a run.
    pub fn new(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            ..Self::default()
        }
    }

    /// Store (or overwrite) a u64-word section, e.g. RNG state.
    pub fn set_words(&mut self, key: &str, words: &[u64]) {
        debug_assert!(key_ok(key), "section keys must be [A-Za-z0-9_.-]+");
        if let Some(slot) = self.words.iter_mut().find(|(k, _)| k == key) {
            slot.1 = words.to_vec();
        } else {
            self.words.push((key.to_string(), words.to_vec()));
        }
    }

    /// Fetch a u64-word section.
    pub fn words(&self, key: &str) -> Option<&[u64]> {
        self.words
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// Store (or overwrite) an f64 scalar section.
    pub fn set_scalar(&mut self, key: &str, value: f64) {
        debug_assert!(key_ok(key), "section keys must be [A-Za-z0-9_.-]+");
        if let Some(slot) = self.scalars.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.scalars.push((key.to_string(), value));
        }
    }

    /// Fetch an f64 scalar section.
    pub fn scalar(&self, key: &str) -> Option<f64> {
        self.scalars.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Store (or overwrite) an f64 vector section.
    pub fn set_vector(&mut self, key: &str, values: &[f64]) {
        debug_assert!(key_ok(key), "section keys must be [A-Za-z0-9_.-]+");
        if let Some(slot) = self.vectors.iter_mut().find(|(k, _)| k == key) {
            slot.1 = values.to_vec();
        } else {
            self.vectors.push((key.to_string(), values.to_vec()));
        }
    }

    /// Fetch an f64 vector section.
    pub fn vector(&self, key: &str) -> Option<&[f64]> {
        self.vectors
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// Like [`Self::scalar`], but absent sections are an error.
    pub fn require_scalar(&self, key: &str) -> Result<f64, CheckpointError> {
        self.scalar(key).ok_or_else(|| CheckpointError::Missing {
            key: key.to_string(),
        })
    }

    /// Like [`Self::vector`], but absent sections are an error.
    pub fn require_vector(&self, key: &str) -> Result<&[f64], CheckpointError> {
        self.vector(key).ok_or_else(|| CheckpointError::Missing {
            key: key.to_string(),
        })
    }

    /// Like [`Self::words`], but absent sections are an error.
    pub fn require_words(&self, key: &str) -> Result<&[u64], CheckpointError> {
        self.words(key).ok_or_else(|| CheckpointError::Missing {
            key: key.to_string(),
        })
    }

    /// Serialize to the textual format (including the checksum trailer).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("name={}\n", self.name));
        out.push_str(&format!("seed={}\n", self.seed));
        out.push_str(&format!("cursor={}\n", self.cursor));
        for (k, ws) in &self.words {
            out.push_str(&format!("words.{k}="));
            push_join(&mut out, ws.iter().map(|w| format!("{w:016x}")));
            out.push('\n');
        }
        for (k, v) in &self.scalars {
            out.push_str(&format!("scalar.{k}={:016x}\n", v.to_bits()));
        }
        for (k, vs) in &self.vectors {
            out.push_str(&format!("vec.{k}="));
            push_join(&mut out, vs.iter().map(|v| format!("{:016x}", v.to_bits())));
            out.push('\n');
        }
        out.push_str(&format!("sum={:016x}\n", fnv1a(out.as_bytes())));
        out
    }

    /// Parse the textual format, verifying the checksum.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let corrupt = |line: usize, reason: &str| CheckpointError::Corrupt {
            line,
            reason: reason.to_string(),
        };
        let body_end = text
            .rfind("sum=")
            .ok_or_else(|| corrupt(0, "missing checksum line"))?;
        let (body, trailer) = text.split_at(body_end);
        let sum_hex = trailer
            .trim_end()
            .strip_prefix("sum=")
            .ok_or_else(|| corrupt(0, "malformed checksum line"))?;
        let expect =
            u64::from_str_radix(sum_hex, 16).map_err(|_| corrupt(0, "checksum is not hex"))?;
        if fnv1a(body.as_bytes()) != expect {
            return Err(corrupt(
                0,
                "checksum mismatch (truncated or corrupted file)",
            ));
        }
        let mut ckpt = Self::default();
        let mut saw_magic = false;
        for (i, line) in body.lines().enumerate() {
            let lineno = i + 1;
            if i == 0 {
                if line != MAGIC {
                    return Err(corrupt(lineno, "bad magic"));
                }
                saw_magic = true;
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| corrupt(lineno, "expected key=value"))?;
            if key == "name" {
                ckpt.name = value.to_string();
            } else if key == "seed" {
                ckpt.seed = value
                    .parse()
                    .map_err(|_| corrupt(lineno, "seed is not a u64"))?;
            } else if key == "cursor" {
                ckpt.cursor = value
                    .parse()
                    .map_err(|_| corrupt(lineno, "cursor is not a u64"))?;
            } else if let Some(k) = key.strip_prefix("words.") {
                let ws = parse_hex_list(value).map_err(|reason| corrupt(lineno, &reason))?;
                ckpt.words.push((k.to_string(), ws));
            } else if let Some(k) = key.strip_prefix("scalar.") {
                let bits = u64::from_str_radix(value, 16)
                    .map_err(|_| corrupt(lineno, "scalar is not hex bits"))?;
                ckpt.scalars.push((k.to_string(), f64::from_bits(bits)));
            } else if let Some(k) = key.strip_prefix("vec.") {
                let ws = parse_hex_list(value).map_err(|reason| corrupt(lineno, &reason))?;
                // one-time restore path: each checkpoint line parsed once per recovery, bounded by checkpoint size
                let vals: Vec<f64> = ws.into_iter().map(f64::from_bits).collect();
                ckpt.vectors.push((k.to_string(), vals));
            } else {
                return Err(corrupt(lineno, "unknown section kind"));
            }
        }
        if !saw_magic {
            return Err(corrupt(0, "empty file"));
        }
        Ok(ckpt)
    }

    /// Write atomically: serialize to `<path>.tmp`, fsync, rename over
    /// `path`. Readers never observe a torn file.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_text().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        svbr_obsv::counter("resilience.checkpoints_written").add(1);
        svbr_obsv::point(
            "resilience.checkpoint",
            &[("cursor", self.cursor as f64), ("seed", self.seed as f64)],
        );
        Ok(())
    }

    /// Load and verify a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }
}

fn key_ok(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn push_join(out: &mut String, items: impl Iterator<Item = String>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
}

fn parse_hex_list(value: &str) -> Result<Vec<u64>, String> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|w| u64::from_str_radix(w, 16).map_err(|_| format!("bad hex word `{w}`")))
        .collect()
}

/// FNV-1a 64-bit hash — tiny, dependency-free integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new("resilience", 0xdead_beef);
        c.cursor = 12;
        c.set_words("rng", &[1, u64::MAX, 0, 42]);
        c.set_scalar("backlog", 3.75);
        c.set_scalar("weird", -0.0);
        c.set_vector("phi", &[0.1, -0.2, f64::MIN_POSITIVE, 1e300]);
        c.set_vector("empty", &[]);
        c
    }

    #[test]
    fn text_roundtrip_is_bit_exact() -> Result<(), CheckpointError> {
        let c = sample();
        let parsed = Checkpoint::parse(&c.to_text())?;
        assert_eq!(parsed, c);
        // -0.0 round-trips with its sign bit (PartialEq can't see it).
        assert_eq!(
            parsed.require_scalar("weird")?.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(parsed.require_vector("empty")?.len(), 0);
        assert_eq!(parsed.require_words("rng")?, &[1, u64::MAX, 0, 42]);
        Ok(())
    }

    #[test]
    fn nan_and_infinity_roundtrip() -> Result<(), CheckpointError> {
        let mut c = Checkpoint::new("x", 1);
        c.set_vector("v", &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let parsed = Checkpoint::parse(&c.to_text())?;
        let v = parsed.require_vector("v")?;
        assert!(v[0].is_nan());
        assert!(v[1].is_infinite() && v[1] > 0.0);
        assert!(v[2].is_infinite() && v[2] < 0.0);
        Ok(())
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample().to_text();
        // Any strict prefix must fail the checksum (or the structure).
        for cut in [10, text.len() / 2, text.len() - 2] {
            assert!(
                Checkpoint::parse(&text[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let text = sample().to_text().replace("cursor=12", "cursor=13");
        assert!(matches!(
            Checkpoint::parse(&text),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn missing_sections_are_typed_errors() {
        let c = Checkpoint::new("x", 1);
        assert!(matches!(
            c.require_scalar("nope"),
            Err(CheckpointError::Missing { .. })
        ));
        assert!(matches!(
            c.require_vector("nope"),
            Err(CheckpointError::Missing { .. })
        ));
        assert!(matches!(
            c.require_words("nope"),
            Err(CheckpointError::Missing { .. })
        ));
    }

    #[test]
    fn atomic_write_and_load() -> Result<(), CheckpointError> {
        let dir = std::env::temp_dir().join("svbr-ckpt-test");
        let path = dir.join("run.ckpt");
        let c = sample();
        c.write_atomic(&path)?;
        // Overwrite with updated cursor; the new file fully replaces the old.
        let mut c2 = c.clone();
        c2.cursor = 13;
        c2.write_atomic(&path)?;
        let loaded = Checkpoint::load(&path)?;
        assert_eq!(loaded, c2);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
