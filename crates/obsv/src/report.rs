//! Trace summarization: fold a JSONL trace into per-name span timing and
//! point-field statistics, rendered as a plain-text table.

use crate::event::Event;
use crate::metrics::Snapshot;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregated timing for one span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanStats {
    /// Number of span records.
    pub count: u64,
    /// Total duration across records, microseconds.
    pub total_us: u64,
    /// Longest single record, microseconds.
    pub max_us: u64,
}

impl SpanStats {
    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// Aggregated statistics for one numeric field of one point name.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldStats {
    /// Observations seen (non-NaN only).
    pub count: u64,
    /// First observed value.
    pub first: f64,
    /// Last observed value.
    pub last: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
}

impl FieldStats {
    fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        if self.count == 0 {
            self.first = v;
            self.min = v;
            self.max = v;
        }
        self.count += 1;
        self.last = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

impl Default for FieldStats {
    fn default() -> Self {
        Self {
            count: 0,
            first: f64::NAN,
            last: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
        }
    }
}

/// Summary of a whole trace; render with `Display`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Lines that failed to parse as events.
    pub malformed_lines: u64,
    /// Per-span-name timing, sorted by name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Per-point-name event count, sorted by name.
    pub points: BTreeMap<String, u64>,
    /// `(point_name, field)` → statistics.
    pub fields: BTreeMap<(String, String), FieldStats>,
    /// Flight-recorder window records seen.
    pub windows: u64,
    /// The registry snapshot of the last window record, if any.
    pub last_window: Option<Snapshot>,
}

impl TraceSummary {
    /// Fold one already-parsed event into the summary.
    pub fn observe(&mut self, event: &Event) {
        match event {
            Event::Span { name, dur_us, .. } => {
                let s = self.spans.entry(name.clone()).or_default();
                s.count += 1;
                s.total_us += dur_us;
                s.max_us = s.max_us.max(*dur_us);
            }
            Event::Point { name, fields } => {
                *self.points.entry(name.clone()).or_default() += 1;
                for (k, v) in fields {
                    self.fields
                        .entry((name.clone(), k.clone()))
                        .or_default()
                        .observe(*v);
                }
            }
            Event::Window { snapshot, .. } => {
                self.windows += 1;
                self.last_window = Some(snapshot.clone());
            }
            // Alerts are surfaced by obsv-tail / the manifest, not the
            // timing summary; count them as points so they stay visible.
            Event::Alert { rule, .. } => {
                *self.points.entry(format!("alert.{rule}")).or_default() += 1;
            }
        }
    }
}

/// Summarize an iterator of JSONL lines (e.g. from a trace file).
pub fn summarize<I, S>(lines: I) -> TraceSummary
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut summary = TraceSummary::default();
    for line in lines {
        let line = line.as_ref().trim();
        if line.is_empty() {
            continue;
        }
        match Event::parse(line) {
            Some(ev) => summary.observe(&ev),
            None => summary.malformed_lines += 1,
        }
    }
    summary
}

fn fmt_ms(us: f64) -> String {
    format!("{:.3}", us / 1000.0)
}

fn fmt_val(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    // Exact zero picks the fixed-point format; near-zero is fine either way
    } else if v == 0.0 || (v.abs() >= 1e-3 && v.abs() < 1e7) {
        format!("{v:.6}")
    } else {
        format!("{v:.3e}")
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.spans.is_empty() {
            writeln!(f, "spans:")?;
            writeln!(
                f,
                "  {:<28} {:>8} {:>12} {:>12} {:>12}",
                "name", "count", "total_ms", "mean_ms", "max_ms"
            )?;
            for (name, s) in &self.spans {
                writeln!(
                    f,
                    "  {:<28} {:>8} {:>12} {:>12} {:>12}",
                    name,
                    s.count,
                    fmt_ms(s.total_us as f64),
                    fmt_ms(s.mean_us()),
                    fmt_ms(s.max_us as f64),
                )?;
            }
        }
        if !self.points.is_empty() {
            writeln!(f, "points:")?;
            writeln!(
                f,
                "  {:<28} {:<20} {:>6} {:>12} {:>12} {:>12} {:>12}",
                "name", "field", "n", "first", "last", "min", "max"
            )?;
            for (name, count) in &self.points {
                let mut wrote_field = false;
                for ((pname, field), st) in &self.fields {
                    if pname != name {
                        continue;
                    }
                    writeln!(
                        f,
                        "  {:<28} {:<20} {:>6} {:>12} {:>12} {:>12} {:>12}",
                        if wrote_field { "" } else { name.as_str() },
                        field,
                        st.count,
                        fmt_val(st.first),
                        fmt_val(st.last),
                        fmt_val(st.min),
                        fmt_val(st.max),
                    )?;
                    wrote_field = true;
                }
                if !wrote_field {
                    writeln!(
                        f,
                        "  {:<28} {:<20} {:>6} {:>12} {:>12} {:>12} {:>12}",
                        name, "(none)", count, "-", "-", "-", "-"
                    )?;
                }
            }
        }
        if let Some(snap) = &self.last_window {
            if !snap.histograms.is_empty() {
                writeln!(f, "histograms (last of {} windows):", self.windows)?;
                writeln!(
                    f,
                    "  {:<40} {:>8} {:>12} {:>12} {:>12}",
                    "series", "count", "mean", "~p50", "~p95"
                )?;
                for (name, h) in &snap.histograms {
                    writeln!(
                        f,
                        "  {:<40} {:>8} {:>12} {:>12} {:>12}",
                        name,
                        h.count,
                        fmt_val(h.mean()),
                        // Log2-bucket estimates: within 2x of the true
                        // quantile by construction (see
                        // HistogramSnapshot::quantile).
                        fmt_val(h.quantile(0.50)),
                        fmt_val(h.quantile(0.95)),
                    )?;
                }
            }
        }
        if self.malformed_lines > 0 {
            writeln!(f, "malformed lines: {}", self.malformed_lines)?;
        }
        if self.spans.is_empty() && self.points.is_empty() && self.windows == 0 {
            writeln!(f, "(empty trace)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn windows_are_counted_and_last_snapshot_kept() {
        let reg = Registry::new();
        reg.counter("queue.superpositions").add(1);
        let first = Event::Window {
            seq: 0,
            snapshot: reg.snapshot(),
        };
        reg.counter("queue.superpositions").add(9);
        let second = Event::Window {
            seq: 1,
            snapshot: reg.snapshot(),
        };
        let summary = summarize([first.to_jsonl(), second.to_jsonl()]);
        assert_eq!(summary.windows, 2);
        assert_eq!(summary.malformed_lines, 0);
        let last = summary.last_window.as_ref().expect("kept the last window");
        assert_eq!(last.counter("queue.superpositions"), Some(10));
        // A trace that only carries windows is not "(empty trace)".
        assert!(!summary.to_string().contains("(empty trace)"));
    }

    #[test]
    fn histogram_table_renders_estimated_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram_with("queue.depth", &[("source", "2")]);
        for _ in 0..50 {
            h.record(10);
        }
        for _ in 0..50 {
            h.record(100);
        }
        let summary = summarize([Event::Window {
            seq: 0,
            snapshot: reg.snapshot(),
        }
        .to_jsonl()]);
        let text = summary.to_string();
        assert!(text.contains("histograms (last of 1 windows):"), "{text}");
        assert!(text.contains("~p50"), "{text}");
        assert!(text.contains("~p95"), "{text}");
        assert!(text.contains("queue.depth{source=\"2\"}"), "{text}");
        // The rendered estimates honor the factor-of-2 bucket bound: p50
        // lands in [8,16], p95 in [64,128] (bucket edges inclusive).
        let row = text
            .lines()
            .find(|l| l.contains("queue.depth"))
            .expect("histogram row");
        let cols: Vec<&str> = row.split_whitespace().collect();
        let p50: f64 = cols[cols.len() - 2].parse().expect("p50 cell");
        let p95: f64 = cols[cols.len() - 1].parse().expect("p95 cell");
        assert!((8.0..=16.0).contains(&p50), "{row}");
        assert!((64.0..=128.0).contains(&p95), "{row}");
    }
}
