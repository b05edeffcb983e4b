//! # svbr-bench — the paper-figure reproduction harness
//!
//! Every table and figure of the paper's evaluation is regenerated by the
//! `repro` binary:
//!
//! ```text
//! cargo run -p svbr-bench --release --bin repro -- all
//! cargo run -p svbr-bench --release --bin repro -- fig16
//! ```
//!
//! Outputs go to `results/<id>.csv` (series identical in shape to the
//! paper's plots) plus a human-readable table on stdout. `EXPERIMENTS.md`
//! records the paper-vs-measured comparison for each artifact.
//!
//! Environment knobs (all optional):
//!
//! | Variable          | Default  | Meaning                                   |
//! |-------------------|----------|-------------------------------------------|
//! | `SVBR_REPS`       | 1000     | replications per Monte-Carlo/IS point      |
//! | `SVBR_TRACE_LEN`  | 238626   | reference-trace length (frames)            |
//! | `SVBR_THREADS`    | #cores   | worker threads for replicated experiments  |
//! | `SVBR_FAST`       | unset    | `1` → divide reps by 10 and trace by 4     |
//!
//! `repro bench` ([`bench_suite`]) measures the throughput side of the
//! ablations DESIGN.md calls out: exact-O(n²) Hosking vs exact-O(n log n)
//! Davies–Harte vs truncated AR(M), queue-recursion throughput and the IS
//! estimator, recorded in `BENCH_svbr.json`.

#![forbid(unsafe_code)]

pub mod bench_suite;
pub mod experiments;
pub mod expose;
pub mod resilience_run;

use std::io::Write;
use std::path::PathBuf;

/// Replications per estimated point (env `SVBR_REPS`, default 1000 — the
/// paper's count).
pub fn reps() -> usize {
    let base = env_usize("SVBR_REPS", 1000);
    if fast_mode() {
        (base / 10).max(10)
    } else {
        base
    }
}

/// Reference-trace length in frames (env `SVBR_TRACE_LEN`, default the
/// paper's 238,626).
pub fn trace_len() -> usize {
    let base = env_usize("SVBR_TRACE_LEN", svbr::video::reference::REFERENCE.frames);
    if fast_mode() {
        (base / 4).max(20_000)
    } else {
        base
    }
}

/// Worker threads (env `SVBR_THREADS`, default the machine's parallelism).
///
/// Delegates to [`svbr::par::threads_from_env`] so every subsystem reads
/// the knob identically; thread count never changes results — all
/// replicated entry points run through the deterministic executor.
pub fn threads() -> usize {
    svbr::par::threads_from_env()
}

/// Fast mode (`SVBR_FAST=1`): smoke-test scaling for CI.
pub fn fast_mode() -> bool {
    std::env::var("SVBR_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Directory where CSV series are written (`results/` at the workspace
/// root, or `SVBR_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SVBR_RESULTS_DIR").unwrap_or_else(|_| {
        // workspace root = two levels up from this crate at build time;
        // at run time prefer the current directory's `results/`.
        "results".to_string()
    });
    PathBuf::from(dir)
}

/// A tiny CSV writer for the figure series.
pub struct Csv {
    path: PathBuf,
    file: std::io::BufWriter<std::fs::File>,
}

impl Csv {
    /// Create `results/<name>.csv` with the given header columns.
    pub fn create(name: &str, header: &[&str]) -> std::io::Result<Self> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(file, "{}", header.join(","))?;
        Ok(Self { path, file })
    }

    /// Write one row of f64 cells.
    pub fn row(&mut self, cells: &[f64]) -> std::io::Result<()> {
        let s: Vec<String> = cells.iter().map(|c| format!("{c}")).collect();
        writeln!(self.file, "{}", s.join(","))
    }

    /// Write one row of preformatted cells.
    pub fn row_str(&mut self, cells: &[String]) -> std::io::Result<()> {
        writeln!(self.file, "{}", cells.join(","))
    }

    /// Flush and report the output path.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.file.flush()?;
        Ok(self.path)
    }
}

/// Write a section header for a repro experiment.
pub fn banner(out: &mut dyn std::io::Write, id: &str, title: &str) -> std::io::Result<()> {
    writeln!(out, "\n=== {id}: {title} ===")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        std::env::remove_var("SVBR_REPS");
        assert_eq!(env_usize("SVBR_DOES_NOT_EXIST", 7), 7);
        assert!(threads() >= 1);
    }

    #[test]
    fn csv_roundtrip() -> Result<(), Box<dyn std::error::Error>> {
        std::env::set_var(
            "SVBR_RESULTS_DIR",
            std::env::temp_dir().join("svbr_csv_test"),
        );
        let mut c = Csv::create("unit_test", &["a", "b"])?;
        c.row(&[1.0, 2.5])?;
        c.row_str(&["x".into(), "y".into()])?;
        let path = c.finish()?;
        let text = std::fs::read_to_string(&path)?;
        assert!(text.starts_with("a,b\n"));
        assert!(text.contains("1,2.5"));
        assert!(text.contains("x,y"));
        std::fs::remove_file(path).ok();
        std::env::remove_var("SVBR_RESULTS_DIR");
        Ok(())
    }
}
