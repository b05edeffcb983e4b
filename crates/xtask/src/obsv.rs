//! The shared trace reader, `obsv-tail` and `obsv-diff`.
//!
//! [`read_trace`] is the one function that opens a JSONL trace: every
//! trace-reading subcommand (`obsv-report`, `obsv-tail`, `obsv-diff`'s trace
//! side and `trace-report`) goes through it and reports its
//! [`TraceLoadError`] as one line.
//!
//! `obsv-tail` and `obsv-diff` consume the telemetry artifacts a `repro` run
//! writes: JSONL traces carrying [`Event::Window`] records and run-manifest
//! JSON files. `obsv-tail` renders the latest window in the Prometheus text
//! format (and can follow a growing trace); `obsv-diff` compares the final
//! series of two runs — missing/new series, counter and gauge deltas, and
//! histogram-shape drift — and exits nonzero when the runs diverge.
//!
//! Wall-clock dependent gauges (`*_per_sec` rates, `*_us`/`*_secs`
//! timings) are excluded from the drift verdict: two bit-identical runs
//! still differ in throughput, and the diff is about *simulation* drift.

use std::collections::BTreeMap;
use std::io::Write;

use svbr_obsv::event::{parse_json, Json, JsonObj};
use svbr_obsv::metrics::{split_series, HistogramSnapshot, Snapshot};
use svbr_obsv::{Event, TextExposer};

/// Poll interval for `obsv-tail` follow mode.
const TAIL_POLL_MS: u64 = 500;

/// True for series whose values track wall clock, not simulation work —
/// excluded from the drift verdict (but still rendered by `obsv-tail`).
fn is_timing_series(key: &str) -> bool {
    let (name, _) = split_series(key);
    name.ends_with("_per_sec") || name.ends_with("_us") || name.ends_with("_secs")
}

/// The final metric series of one run, loaded from either a JSONL trace
/// (last flight-recorder window) or a run-manifest JSON file.
#[derive(Debug)]
struct LoadedSeries {
    snapshot: Snapshot,
    /// Window count for traces; 0 for manifests.
    windows: usize,
    /// `"trace"` or `"manifest"`, for the diff header.
    kind: &'static str,
}

/// Typed failure to read a trace file. Every variant renders as exactly
/// one line naming the path, so every tool reports an unreadable, empty,
/// non-JSONL or (for the window tools) window-less trace the same way.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TraceLoadError {
    /// The file cannot be read at all.
    Unreadable { path: String, err: String },
    /// The file exists but holds no bytes (or only whitespace).
    Empty { path: String },
    /// No line parsed as an obsv event (garbage or truncated JSON).
    NotJsonl { path: String },
    /// A real trace, but no [`Event::Window`] record landed yet.
    NoWindows { path: String },
}

impl std::fmt::Display for TraceLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceLoadError::Unreadable { path, err } => write!(f, "cannot read `{path}`: {err}"),
            TraceLoadError::Empty { path } => {
                write!(f, "`{path}` is empty (expected a JSONL trace)")
            }
            TraceLoadError::NotJsonl { path } => write!(
                f,
                "`{path}` is not a JSONL trace (no line parsed as an event)"
            ),
            TraceLoadError::NoWindows { path } => write!(
                f,
                "`{path}` has no flight-recorder windows (re-run repro with --trace or --windows)"
            ),
        }
    }
}

/// The parsed content of one JSONL trace file.
pub(crate) struct Trace {
    /// Every event, in line order.
    pub events: Vec<Event>,
    /// Non-blank lines that did not parse as an event (a run killed
    /// mid-write leaves a truncated last line).
    pub malformed_lines: u64,
}

/// Read a JSONL trace. An unreadable or empty file, and one in which no
/// line parses as an event, are errors.
pub(crate) fn read_trace(path: &str) -> Result<Trace, TraceLoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| TraceLoadError::Unreadable {
        path: path.to_string(),
        err: e.to_string(),
    })?;
    let mut trace = Trace {
        events: Vec::new(),
        malformed_lines: 0,
    };
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        match Event::parse(line) {
            Some(ev) => trace.events.push(ev),
            None => trace.malformed_lines += 1,
        }
    }
    let path = path.to_string();
    match (trace.events.is_empty(), trace.malformed_lines) {
        (true, 0) => Err(TraceLoadError::Empty { path }),
        (true, _) => Err(TraceLoadError::NotJsonl { path }),
        (false, _) => Ok(trace),
    }
}

/// Every flight-recorder window of a JSONL trace, in file order.
fn load_windows(path: &str) -> Result<Vec<(u64, Snapshot)>, TraceLoadError> {
    let windows: Vec<(u64, Snapshot)> = read_trace(path)?
        .events
        .into_iter()
        .filter_map(|ev| match ev {
            Event::Window { seq, snapshot } => Some((seq, snapshot)),
            _ => None,
        })
        .collect();
    if windows.is_empty() {
        return Err(TraceLoadError::NoWindows {
            path: path.to_string(),
        });
    }
    Ok(windows)
}

/// Reconstruct a [`Snapshot`] from a run-manifest object. Manifest
/// histograms carry only `count`/`sum` (no buckets), so shape comparisons
/// against a manifest degrade to count/sum checks.
fn manifest_snapshot(obj: &JsonObj) -> Option<Snapshot> {
    let mut snap = Snapshot::default();
    for (k, v) in &obj.get("counters")?.as_object()?.entries {
        snap.counters.push((k.clone(), v.as_f64()? as u64));
    }
    for (k, v) in &obj.get("gauges")?.as_object()?.entries {
        snap.gauges.push((k.clone(), v.as_f64()?));
    }
    if let Some(hists) = obj.get("histograms").and_then(Json::as_object) {
        for (k, v) in &hists.entries {
            let h = v.as_object()?;
            snap.histograms.push((
                k.clone(),
                HistogramSnapshot {
                    count: h.get("count")?.as_f64()? as u64,
                    sum: h.get("sum")?.as_f64()? as u64,
                    buckets: Vec::new(),
                },
            ));
        }
    }
    Some(snap)
}

/// Load the final series of a run from `path` (trace or manifest). Every
/// failure is a single human-readable line naming the path (the trace-side
/// failures are the shared [`TraceLoadError`] wordings).
fn load_series(path: &str) -> Result<LoadedSeries, String> {
    match load_windows(path) {
        Ok(mut windows) => {
            let total = windows.len();
            let Some((_, snapshot)) = windows.pop() else {
                // load_windows never returns an empty vec; keep the typed
                // wording rather than panicking if that ever changes.
                return Err(TraceLoadError::NoWindows {
                    path: path.to_string(),
                }
                .to_string());
            };
            return Ok(LoadedSeries {
                snapshot,
                windows: total,
                kind: "trace",
            });
        }
        // Not line-parseable as events: fall through and try the whole
        // file as one run-manifest object.
        Err(TraceLoadError::NotJsonl { .. }) => {}
        Err(e) => return Err(e.to_string()),
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    match parse_json(&text) {
        Some(Json::Obj(obj)) if obj.get("counters").is_some() => match manifest_snapshot(&obj) {
            Some(snapshot) => Ok(LoadedSeries {
                snapshot,
                windows: 0,
                kind: "manifest",
            }),
            None => Err(format!(
                "`{path}` manifest is malformed (bad metrics section)"
            )),
        },
        Some(_) => Err(format!(
            "`{path}` is JSON but not a run manifest (no `counters` object)"
        )),
        None => Err(format!(
            "`{path}` is neither a JSONL trace nor a run manifest (no line parsed as an event)"
        )),
    }
}

/// Normalized L1 distance between two bucket distributions in `[0, 1]`:
/// 0 for identical shapes, 1 for disjoint support. When either side has
/// no buckets there is no shape to compare (run manifests carry only
/// count/sum), so the distance degrades to 0 and the count/sum checks
/// carry the comparison.
fn shape_distance(a: &HistogramSnapshot, b: &HistogramSnapshot) -> f64 {
    if a.buckets.is_empty() || b.buckets.is_empty() {
        return 0.0;
    }
    let (ta, tb) = (a.count.max(1) as f64, b.count.max(1) as f64);
    let mut los: Vec<u64> = a
        .buckets
        .iter()
        .chain(&b.buckets)
        .map(|&(lo, _)| lo)
        .collect();
    los.sort_unstable();
    los.dedup();
    let at = |h: &HistogramSnapshot, lo: u64| {
        h.buckets
            .iter()
            .find(|&&(l, _)| l == lo)
            .map_or(0.0, |&(_, n)| n as f64)
    };
    los.iter()
        .map(|&lo| (at(a, lo) / ta - at(b, lo) / tb).abs())
        .sum::<f64>()
        / 2.0
}

/// The textual diff between two loaded runs plus the number of drifting
/// series. Pure so tests can assert on the report body.
fn diff_report(a_path: &str, a: &LoadedSeries, b_path: &str, b: &LoadedSeries) -> (String, usize) {
    let mut out = String::new();
    let mut drift = 0usize;
    let mut ignored = 0usize;
    let side = |l: &LoadedSeries| match l.kind {
        "trace" => format!("trace, {} window(s)", l.windows),
        k => k.to_string(),
    };
    out.push_str(&format!(
        "obsv-diff: A = {a_path} ({}) vs B = {b_path} ({})\n",
        side(a),
        side(b)
    ));

    let ca: BTreeMap<&str, u64> = a
        .snapshot
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let cb: BTreeMap<&str, u64> = b
        .snapshot
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let mut keys: Vec<&str> = ca.keys().chain(cb.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        match (ca.get(key), cb.get(key)) {
            (Some(x), None) => {
                drift += 1;
                out.push_str(&format!("  - counter {key} = {x} only in A\n"));
            }
            (None, Some(y)) => {
                drift += 1;
                out.push_str(&format!("  + counter {key} = {y} only in B\n"));
            }
            (Some(x), Some(y)) if x != y => {
                drift += 1;
                let delta = *y as i128 - *x as i128;
                out.push_str(&format!("  ~ counter {key}  {x} -> {y}  ({delta:+})\n"));
            }
            _ => {}
        }
    }

    let ga: BTreeMap<&str, f64> = a
        .snapshot
        .gauges
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let gb: BTreeMap<&str, f64> = b
        .snapshot
        .gauges
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let mut keys: Vec<&str> = ga.keys().chain(gb.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        if is_timing_series(key) {
            ignored += 1;
            continue;
        }
        match (ga.get(key), gb.get(key)) {
            (Some(x), None) => {
                drift += 1;
                out.push_str(&format!("  - gauge {key} = {x} only in A\n"));
            }
            (None, Some(y)) => {
                drift += 1;
                out.push_str(&format!("  + gauge {key} = {y} only in B\n"));
            }
            // Bit equality keeps NaN == NaN (both runs diverged the same
            // way) while catching every real numeric difference.
            (Some(x), Some(y)) if x.to_bits() != y.to_bits() => {
                drift += 1;
                out.push_str(&format!("  ~ gauge {key}  {x} -> {y}\n"));
            }
            _ => {}
        }
    }

    let ha: BTreeMap<&str, &HistogramSnapshot> = a
        .snapshot
        .histograms
        .iter()
        .map(|(k, h)| (k.as_str(), h))
        .collect();
    let hb: BTreeMap<&str, &HistogramSnapshot> = b
        .snapshot
        .histograms
        .iter()
        .map(|(k, h)| (k.as_str(), h))
        .collect();
    let mut keys: Vec<&str> = ha.keys().chain(hb.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        if is_timing_series(key) {
            ignored += 1;
            continue;
        }
        match (ha.get(key), hb.get(key)) {
            (Some(h), None) => {
                drift += 1;
                out.push_str(&format!(
                    "  - histogram {key} (count {}) only in A\n",
                    h.count
                ));
            }
            (None, Some(h)) => {
                drift += 1;
                out.push_str(&format!(
                    "  + histogram {key} (count {}) only in B\n",
                    h.count
                ));
            }
            (Some(x), Some(y)) => {
                let dist = shape_distance(x, y);
                if x.count != y.count || x.sum != y.sum || dist > 0.0 {
                    drift += 1;
                    out.push_str(&format!(
                        "  ~ histogram {key}  count {} -> {}, sum {} -> {}, shape-distance {dist:.3}\n",
                        x.count, y.count, x.sum, y.sum
                    ));
                }
            }
            (None, None) => {}
        }
    }

    let compared = {
        let uniq = |x: usize, y: usize| x.max(y);
        uniq(ca.len(), cb.len()) + uniq(ga.len(), gb.len()) + uniq(ha.len(), hb.len())
    };
    let ignored_note = if ignored > 0 {
        format!(", {ignored} timing series ignored")
    } else {
        String::new()
    };
    if drift == 0 {
        out.push_str(&format!(
            "obsv-diff: ok — no drift ({compared} series compared{ignored_note})\n"
        ));
    } else {
        out.push_str(&format!(
            "obsv-diff: {drift} drifting series ({compared} series compared{ignored_note})\n"
        ));
    }
    (out, drift)
}

/// `svbr-xtask obsv-diff <a> <b>`: exit 0 on no drift, 1 on drift or any
/// load error (reported as a single line on stderr).
pub fn diff(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load_series(a_path), load_series(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("obsv-diff: {e}");
            return 1;
        }
    };
    let (report, drift) = diff_report(a_path, &a, b_path, &b);
    // Best-effort write: a closed pipe must not panic.
    let _ = write!(std::io::stdout().lock(), "{report}");
    i32::from(drift > 0)
}

/// One rendered window: a header line plus the Prometheus text exposition.
fn render_window(path: &str, seq: u64, total: usize, snap: &Snapshot) -> String {
    let series = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    format!(
        "-- obsv-tail {path}: window seq={seq} ({total} window(s), {series} series) --\n{}",
        TextExposer::new().render(snap)
    )
}

/// `svbr-xtask obsv-tail [--once] <trace>`: render the latest
/// flight-recorder window; without `--once`, keep polling the file and
/// re-render whenever a new window lands (follow mode, runs until killed).
pub fn tail(path: &str, once: bool) -> i32 {
    let mut last_seq: Option<u64> = None;
    loop {
        match load_windows(path) {
            Ok(windows) => {
                if let Some((seq, snapshot)) = windows.last() {
                    if last_seq != Some(*seq) {
                        last_seq = Some(*seq);
                        let mut out = std::io::stdout().lock();
                        let _ = write!(
                            out,
                            "{}",
                            render_window(path, *seq, windows.len(), snapshot)
                        );
                        let _ = out.flush();
                    }
                }
                if once {
                    return 0;
                }
            }
            // Unreadable or non-JSONL content is terminal in either mode.
            Err(e @ (TraceLoadError::Unreadable { .. } | TraceLoadError::NotJsonl { .. })) => {
                eprintln!("obsv-tail: {e}");
                return 1;
            }
            // An empty or still window-less trace is one a follow can wait
            // out; with --once it fails with the same one-line typed error
            // truncated input gets.
            Err(e) => {
                if once {
                    eprintln!("obsv-tail: {e}");
                    return 1;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(TAIL_POLL_MS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::TmpTree;
    use svbr_obsv::metrics::Registry;

    /// A one-window trace fixture built from a real registry, serialized
    /// through the production `Event::to_jsonl` writer.
    fn trace_for(backend: &str, samples: u64, misses: u64) -> String {
        let reg = Registry::new();
        reg.counter_with("lrd.generator.samples", &[("backend", backend)])
            .add(samples);
        reg.counter_with(
            "cache.lookups",
            &[("backend", backend), ("outcome", "miss")],
        )
        .add(misses);
        reg.counter("queue.superpositions").add(4);
        reg.gauge("pipeline.hurst").set(0.79);
        reg.histogram("serve.pull_us").record(samples / 7);
        reg.histogram("lrd.fft.len").record(512);
        let ev = Event::Window {
            seq: 0,
            snapshot: reg.snapshot(),
        };
        format!("{}\n", ev.to_jsonl())
    }

    #[test]
    fn same_run_diffs_to_zero_drift() {
        let tree = TmpTree::new(&[
            ("a.jsonl", &trace_for("hosking", 4096, 2)),
            ("b.jsonl", &trace_for("hosking", 4096, 2)),
        ]);
        assert_eq!(diff(&tree.path("a.jsonl"), &tree.path("b.jsonl")), 0);
    }

    #[test]
    fn timing_series_never_count_as_drift() {
        // Identical work, different wall-clock latency: still no drift.
        let la = load("a", &trace_for("hosking", 4096, 2));
        let mut lb = load("b", &trace_for("hosking", 4096, 2));
        for (k, h) in &mut lb.snapshot.histograms {
            if k == "serve.pull_us" {
                h.buckets = vec![(2048, h.count)];
                h.sum *= 3;
            }
        }
        let (report, drift) = diff_report("a", &la, "b", &lb);
        assert_eq!(drift, 0, "{report}");
        assert!(report.contains("timing series ignored"), "{report}");
    }

    fn load(name: &str, content: &str) -> LoadedSeries {
        let tree = TmpTree::new(&[(name, content)]);
        load_series(&tree.path(name)).expect("fixture loads")
    }

    #[test]
    fn backend_swap_reports_expected_per_backend_differences() {
        let a = load("hosking.jsonl", &trace_for("hosking", 4096, 2));
        let b = load("dh.jsonl", &trace_for("davies_harte", 8192, 5));
        let (report, drift) = diff_report("a", &a, "b", &b);
        assert!(drift > 0);
        // The hosking-labeled series exists only in run A, the
        // davies_harte-labeled series only in run B.
        assert!(
            report
                .contains("- counter lrd.generator.samples{backend=\"hosking\"} = 4096 only in A"),
            "{report}"
        );
        assert!(
            report.contains(
                "+ counter lrd.generator.samples{backend=\"davies_harte\"} = 8192 only in B"
            ),
            "{report}"
        );
        assert!(
            report.contains("cache.lookups{backend=\"davies_harte\",outcome=\"miss\"}"),
            "{report}"
        );
        // Shared unlabeled series with equal values do not appear.
        assert!(
            !report.contains("~ counter queue.superpositions"),
            "{report}"
        );
    }

    #[test]
    fn counter_delta_and_histogram_shape_drift_are_reported() {
        let a = load("a.jsonl", &trace_for("hosking", 4096, 2));
        let mut b = load("b.jsonl", &trace_for("hosking", 4096, 7));
        for (k, h) in &mut b.snapshot.histograms {
            if k == "lrd.fft.len" {
                h.buckets = vec![(1024, 1)];
                h.sum = 1024;
            }
        }
        let (report, drift) = diff_report("a", &a, "b", &b);
        assert!(drift >= 2, "{report}");
        assert!(
            report.contains(
                "~ counter cache.lookups{backend=\"hosking\",outcome=\"miss\"}  2 -> 7  (+5)"
            ),
            "{report}"
        );
        assert!(report.contains("~ histogram lrd.fft.len"), "{report}");
        assert!(report.contains("shape-distance 1.000"), "{report}");
    }

    #[test]
    fn diff_accepts_a_run_manifest() {
        let manifest = r#"{
  "name": "repro",
  "seed": 42,
  "git_revision": null,
  "params": { "h": 0.79 },
  "notes": [],
  "counters": { "queue.superpositions": 4 },
  "gauges": { "pipeline.hurst": 0.79 },
  "histograms": { "lrd.fft.len": {"count": 1, "sum": 512, "mean": 512} }
}
"#;
        let tree = TmpTree::new(&[("m1.json", manifest), ("m2.json", manifest)]);
        assert_eq!(diff(&tree.path("m1.json"), &tree.path("m2.json")), 0);
    }

    #[test]
    fn loader_fails_with_one_line_errors() {
        let tree = TmpTree::new(&[
            ("empty.jsonl", "  \n"),
            ("garbage.jsonl", "this is not json\nat all\n"),
            (
                "nowin.jsonl",
                "{\"t\":\"point\",\"name\":\"pipeline.iteration\",\"fields\":{\"a\":1}}\n",
            ),
            ("trunc.json", "{\"name\": \"repro\", \"counters\": {"),
        ]);
        for (name, needle) in [
            ("empty.jsonl", "is empty"),
            ("garbage.jsonl", "neither a JSONL trace nor a run manifest"),
            ("nowin.jsonl", "no flight-recorder windows"),
            ("trunc.json", "neither a JSONL trace nor a run manifest"),
        ] {
            let err = load_series(&tree.path(name)).expect_err("must fail");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
            assert!(!err.contains('\n'), "one-line error: `{err}`");
        }
        let empty = tree.path("empty.jsonl");
        assert_eq!(diff(&empty, &empty), 1);
        assert_eq!(tail(&tree.path("garbage.jsonl"), true), 1);
        assert_eq!(tail(&tree.path("nowin.jsonl"), true), 1);
        assert_eq!(diff("/nonexistent/a.jsonl", "/nonexistent/b.jsonl"), 1);
        assert_eq!(tail("/nonexistent/trace.jsonl", true), 1);
    }

    #[test]
    fn tail_once_empty_and_header_only_fail_like_truncated_input() {
        // Three degenerate traces: no bytes at all, events but no windows
        // yet ("header-only"), and truncated JSON. `--once` must exit 1 on
        // each with the shared one-line typed error — not hang in follow
        // mode and not invent per-tool wording.
        let tree = TmpTree::new(&[
            ("once-empty.jsonl", ""),
            (
                "once-header.jsonl",
                "{\"t\":\"point\",\"name\":\"pipeline.iteration\",\"fields\":{\"a\":1}}\n",
            ),
            ("once-trunc.jsonl", "{\"t\":\"window\",\"seq\":0,"),
        ]);
        for (name, needle) in [
            ("once-empty.jsonl", "is empty"),
            ("once-header.jsonl", "has no flight-recorder windows"),
            ("once-trunc.jsonl", "is not a JSONL trace"),
        ] {
            let path = tree.path(name);
            assert_eq!(tail(&path, true), 1);
            let err = load_windows(&path).expect_err("must fail").to_string();
            assert!(err.contains(&path), "error must name the path: `{err}`");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
            assert!(!err.contains('\n'), "one-line error: `{err}`");
        }
    }

    #[test]
    fn tail_once_renders_latest_window() {
        let mut body = trace_for("hosking", 4096, 2);
        // Append a later window with a different counter value.
        let reg = Registry::new();
        reg.counter("queue.superpositions").add(9);
        let ev = Event::Window {
            seq: 1,
            snapshot: reg.snapshot(),
        };
        body.push_str(&format!("{}\n", ev.to_jsonl()));
        let tree = TmpTree::new(&[("tail.jsonl", &body)]);
        assert_eq!(tail(&tree.path("tail.jsonl"), true), 0);
        let rendered = render_window("t", 1, 2, &reg.snapshot());
        assert!(rendered.starts_with("-- obsv-tail t: window seq=1 (2 window(s), 1 series) --\n"));
        assert!(rendered.contains("queue_superpositions 9\n"));
    }

    #[test]
    fn shape_distance_bounds() {
        let h = |buckets: Vec<(u64, u64)>| HistogramSnapshot {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            sum: 0,
            buckets,
        };
        let a = h(vec![(2, 5), (8, 5)]);
        assert!(shape_distance(&a, &a).abs() < 1e-12);
        let b = h(vec![(1024, 10)]);
        assert!((shape_distance(&a, &b) - 1.0).abs() < 1e-12);
        // Half the mass moved: distance 0.5.
        let c = h(vec![(2, 5), (1024, 5)]);
        assert!((shape_distance(&a, &c) - 0.5).abs() < 1e-12);
        // Manifest-style (bucketless) snapshots are never shape-drifted —
        // not against each other, and not against a bucketed trace side.
        let empty = HistogramSnapshot {
            count: 10,
            sum: 99,
            buckets: Vec::new(),
        };
        assert!(shape_distance(&empty, &empty).abs() < 1e-12);
        assert!(shape_distance(&a, &empty).abs() < 1e-12);
    }
}
