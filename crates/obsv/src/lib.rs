//! # svbr-obsv — zero-dependency observability for the svbr pipeline
//!
//! Spans, metrics, sinks, and run manifests for the generation → transform
//! → queue pipeline. Pure `std`, panic-free, and off by default: until a
//! [`Sink`] is installed, [`span`] hands out inert spans and [`emit`] is a
//! single relaxed atomic load, so instrumented hot paths cost nothing and
//! fixed-seed output is bit-identical with tracing on or off (the
//! instrumentation never consumes randomness).
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(svbr_obsv::MemorySink::new());
//! svbr_obsv::install(sink.clone());
//! {
//!     let mut span = svbr_obsv::span("demo.work");
//!     span.field("n", 42.0);
//! } // emitted on drop
//! svbr_obsv::counter("demo.items").add(3);
//! assert_eq!(sink.events_named("demo.work").len(), 1);
//! svbr_obsv::uninstall();
//! ```
//!
//! Capture a run end-to-end with the repro binary:
//!
//! ```text
//! cargo run -p svbr-bench --release --bin repro -- \
//!     --trace trace.jsonl --manifest manifest.json obsv
//! cargo run -p svbr-xtask -- obsv-report trace.jsonl
//! ```

#![forbid(unsafe_code)]
// Instrumentation must degrade (drop the event, return a detached metric),
// never abort the instrumented computation.
#![warn(clippy::panic, clippy::unreachable)]

pub mod alerts;
pub mod clock;
pub mod event;
pub mod expose;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod sink;
pub mod span;
pub mod trace;
pub mod watermark;

pub use alerts::{
    default_rules, install_alerts, uninstall_alerts, Alert, AlertEngine, AlertRule, RuleKind,
    Severity,
};
pub use clock::{now_us, thread_ordinal, Stopwatch};
pub use event::Event;
pub use expose::TextExposer;
pub use manifest::RunManifest;
pub use metrics::{
    render_series, split_series, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot,
    CARDINALITY_CAP, CARDINALITY_DROPPED, OVERFLOW_LABEL,
};
pub use recorder::FlightRecorder;
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};
pub use span::{emit_span, Span};
pub use trace::{TraceCtx, TRACE_HEADER};
pub use watermark::Watermark;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static REGISTRY: OnceLock<Registry> = OnceLock::new();
static RECORDER: RwLock<Option<Arc<FlightRecorder>>> = RwLock::new(None);

/// Whether a sink is installed. Instrumented code uses this to skip any
/// per-event work beyond a relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install a sink and enable event emission process-wide.
pub fn install(sink: Arc<dyn Sink>) {
    // Pre-register the layer's self-metric so it shows up (at zero) in
    // every snapshot, making "no series were dropped" an observable fact
    // rather than an absence. Spelled as a literal (it equals
    // `metrics::CARDINALITY_DROPPED`) so the analyze metric-registry
    // audit, which reads names from literal call sites, can see it.
    let _ = crate::counter("obsv.cardinality_dropped");
    let mut slot = SINK.write().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Install a flight recorder that snapshots the global registry every
/// `every` ticks, retaining the most recent `capacity` windows. Returns the
/// recorder handle (also reachable via [`recorder_handle`]).
pub fn install_recorder(every: u64, capacity: usize) -> Arc<FlightRecorder> {
    let rec = Arc::new(FlightRecorder::new(every, capacity));
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(rec.clone());
    rec
}

/// Remove and return the installed flight recorder, if any.
pub fn uninstall_recorder() -> Option<Arc<FlightRecorder>> {
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    slot.take()
}

/// The installed flight recorder, if any.
pub fn recorder_handle() -> Option<Arc<FlightRecorder>> {
    let slot = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
    slot.clone()
}

/// Account `n` units of completed work (replications, generated samples)
/// toward the flight recorder's window schedule. A single relaxed load when
/// telemetry is disabled or no recorder is installed; never touches the
/// RNG path.
#[inline]
pub fn record_tick(n: u64) {
    if !enabled() {
        return;
    }
    let slot = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(rec) = slot.as_ref() {
        rec.tick(n);
    }
}

/// Disable emission and return the previously installed sink (flushed), if
/// any.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    ENABLED.store(false, Ordering::Release);
    let sink = {
        let mut slot = SINK.write().unwrap_or_else(PoisonError::into_inner);
        slot.take()
    };
    if let Some(s) = &sink {
        s.flush();
    }
    sink
}

/// Send an event to the installed sink (dropped when tracing is disabled).
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    let slot = SINK.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(sink) = slot.as_ref() {
        sink.record(&event);
    }
}

/// Emit a [`Event::Point`] with the given fields. No-op when disabled;
/// callers on hot paths should still gate the *construction* of `fields`
/// behind [`enabled`] to avoid the allocation.
pub fn point(name: &str, fields: &[(&str, f64)]) {
    if !enabled() {
        return;
    }
    emit(Event::Point {
        name: name.to_string(),
        fields: fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    });
}

/// Flush the installed sink, if any.
pub fn flush() {
    let slot = SINK.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(sink) = slot.as_ref() {
        sink.flush();
    }
}

/// Start a timed span. Inert (no clock read, nothing emitted) when tracing
/// is disabled at the call site.
pub fn span(name: &'static str) -> Span {
    Span::start(name, enabled())
}

/// Start a timed span carrying a causal [`TraceCtx`] (see [`trace`]). Inert
/// when tracing is disabled, exactly like [`span`].
pub fn span_ctx(name: &'static str, ctx: TraceCtx) -> Span {
    Span::start_ctx(name, enabled(), ctx)
}

/// The process-wide metric registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Resolve a counter in the global registry. Resolve once, outside loops.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Resolve a labeled counter series in the global registry. Labels are
/// sorted internally; past the per-name cardinality cap the reserved
/// `{other="true"}` series is returned and `obsv.cardinality_dropped`
/// incremented. Resolve once, outside loops.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Counter {
    registry().counter_with(name, labels)
}

/// Resolve a gauge in the global registry.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Resolve a labeled gauge series in the global registry (see
/// [`counter_with`] for label and cap semantics).
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> Gauge {
    registry().gauge_with(name, labels)
}

/// Resolve a histogram in the global registry.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// Resolve a labeled histogram series in the global registry (see
/// [`counter_with`] for label and cap semantics).
pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> Histogram {
    registry().histogram_with(name, labels)
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Serialize tests that install/uninstall the process-wide sink, so a
/// concurrent test cannot tear down another test's sink mid-assertion.
#[cfg(test)]
pub(crate) fn global_sink_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{bucket_bounds, bucket_index, HISTOGRAM_BUCKETS};

    #[test]
    fn histogram_bucket_boundaries() {
        // Zero gets its own bucket; each power of two starts a new bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert!(bucket_index(u64::MAX) < HISTOGRAM_BUCKETS);

        // Bounds tile the u64 range: value v falls in [lo, hi) of its bucket.
        for v in [0u64, 1, 2, 3, 15, 16, 17, 1023, 1024, 1 << 40] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v, "lo={lo} v={v}");
            assert!(v < hi || hi == u64::MAX, "v={v} hi={hi}");
        }
        // Adjacent buckets share an edge.
        for i in 1..64 {
            assert_eq!(bucket_bounds(i).1, bucket_bounds(i + 1).0);
        }

        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 9] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 22);
        // Buckets: 0 → 1 sample; [1,2) → 2; [2,4) → 1; [8,16) → 2.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 2), (2, 1), (8, 2)]);
        assert!((snap.mean() - 22.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "races the atomic counter on raw threads"
    )]
    fn concurrent_counter_increments() {
        let reg = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = reg.counter("shared");
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("shared").get(), threads * per_thread);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("shared"), Some(threads * per_thread));
    }

    #[test]
    fn jsonl_sink_roundtrip() {
        let events = vec![
            Event::Span {
                name: "hosking.generate".to_string(),
                start_us: 1_000,
                dur_us: 12_345,
                tid: 3,
                ctx: TraceCtx::NONE,
                fields: vec![("n".to_string(), 4096.0), ("v".to_string(), 0.8125)],
            },
            Event::Span {
                name: "serve.chunk".to_string(),
                start_us: 2_000,
                dur_us: 77,
                tid: 1,
                ctx: TraceCtx::for_chunk(42, 7, trace::role::WORKER_CHUNK),
                fields: vec![("idx".to_string(), 7.0)],
            },
            Event::Alert {
                rule: "hurst-band".to_string(),
                severity: "critical".to_string(),
                series: "session-3.mavar_hurst".to_string(),
                observed: 0.512,
                threshold: 0.85,
                window: 4,
            },
            Event::Point {
                name: "pipeline.iteration".to_string(),
                fields: vec![
                    ("iteration".to_string(), 0.0),
                    ("attenuation".to_string(), 0.6172839),
                    ("acf_error".to_string(), 3.25e-2),
                ],
            },
            Event::Point {
                name: "weird \"name\"\n".to_string(),
                fields: vec![("nan".to_string(), f64::NAN)],
            },
            Event::Point {
                name: "empty".to_string(),
                fields: vec![],
            },
        ];
        for ev in &events {
            let line = ev.to_jsonl();
            let back = Event::parse(&line).expect("round-trip parse");
            match (&back, ev) {
                // NaN != NaN, so compare the non-NaN projection.
                (
                    Event::Point {
                        name: n1,
                        fields: f1,
                    },
                    Event::Point {
                        name: n2,
                        fields: f2,
                    },
                ) if f2.iter().any(|(_, v)| v.is_nan()) => {
                    assert_eq!(n1, n2);
                    assert_eq!(f1.len(), f2.len());
                    assert!(f1[0].1.is_nan());
                }
                _ => assert_eq!(&back, ev),
            }
        }

        // Through an actual file.
        let path = std::env::temp_dir().join("svbr_obsv_roundtrip.jsonl");
        let sink = JsonlSink::create(&path).expect("create sink");
        for ev in &events[..2] {
            sink.record(ev);
        }
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read trace");
        let parsed: Vec<Event> = text.lines().filter_map(Event::parse).collect();
        assert_eq!(parsed, events[..2].to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn global_sink_span_and_point() {
        let _guard = global_sink_lock();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        assert!(enabled());
        {
            let mut sp = span("test.global_span");
            sp.field("k", 7.0);
            assert!(sp.is_live());
        }
        point("test.global_point", &[("x", 1.5)]);
        counter("test.global_counter").add(2);
        let spans = sink.events_named("test.global_span");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].field("k"), Some(7.0));
        let points = sink.events_named("test.global_point");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].field("x"), Some(1.5));
        assert_eq!(counter("test.global_counter").get(), 2);

        let prev = uninstall().expect("sink was installed");
        assert!(!enabled());
        prev.flush();
        // After uninstall, spans are inert and points are dropped.
        {
            let sp = span("test.global_span");
            assert!(!sp.is_live());
        }
        point("test.global_point", &[("x", 9.0)]);
        assert_eq!(sink.events_named("test.global_point").len(), 1);
    }

    #[test]
    fn report_summarizes_trace() {
        let lines = [
            r#"{"t":"span","name":"a","dur_us":100}"#.to_string(),
            r#"{"t":"span","name":"a","dur_us":300,"fields":{"n":8.0}}"#.to_string(),
            r#"{"t":"point","name":"p","fields":{"x":1,"y":2}}"#.to_string(),
            r#"{"t":"point","name":"p","fields":{"x":3}}"#.to_string(),
            "not json".to_string(),
        ];
        let summary = report::summarize(lines);
        assert_eq!(summary.malformed_lines, 1);
        let a = summary.spans.get("a").expect("span a");
        assert_eq!((a.count, a.total_us, a.max_us), (2, 400, 300));
        assert!((a.mean_us() - 200.0).abs() < 1e-9);
        assert_eq!(summary.points.get("p"), Some(&2));
        let x = summary
            .fields
            .get(&("p".to_string(), "x".to_string()))
            .expect("field x");
        assert_eq!(
            (x.count, x.first, x.last, x.min, x.max),
            (2, 1.0, 3.0, 1.0, 3.0)
        );
        let rendered = summary.to_string();
        assert!(rendered.contains("spans:"));
        assert!(rendered.contains("points:"));
        assert!(rendered.contains("malformed lines: 1"));
    }

    #[test]
    fn manifest_json_shape() {
        let reg = Registry::new();
        reg.counter("c.events").add(5);
        reg.gauge("g.h").set(0.8);
        reg.histogram("h.us").record(100);
        let mut m = RunManifest::new("unit", 42, std::path::Path::new("."));
        m.set_param("h", 0.8);
        m.set_param("beta", 0.4);
        m.set_param("h", 0.85); // overwrite, not duplicate
        let json = m.to_json(&reg.snapshot());
        let v = event::parse_json(&json).expect("manifest is valid json");
        let obj = v.as_object().expect("object");
        assert_eq!(obj.get("name").and_then(|v| v.as_str()), Some("unit"));
        assert_eq!(obj.get("seed").and_then(|v| v.as_f64()), Some(42.0));
        let params = obj
            .get("params")
            .and_then(|v| v.as_object())
            .expect("params");
        assert_eq!(params.get("h").and_then(|v| v.as_f64()), Some(0.85));
        assert_eq!(params.entries.len(), 2);
        let counters = obj
            .get("counters")
            .and_then(|v| v.as_object())
            .expect("counters");
        assert_eq!(counters.get("c.events").and_then(|v| v.as_f64()), Some(5.0));
        // In this git checkout a revision should resolve.
        assert!(obj.get("git_revision").is_some());
    }

    #[test]
    fn span_lines_without_profiling_keys_still_parse() {
        // Traces written before start_us/tid existed must keep parsing,
        // with both defaulted to 0.
        let legacy = r#"{"t":"span","name":"a","dur_us":100,"fields":{"n":8.0}}"#;
        match Event::parse(legacy) {
            Some(Event::Span {
                name,
                start_us,
                dur_us,
                tid,
                ctx,
                fields,
            }) => {
                assert_eq!(name, "a");
                assert_eq!((start_us, dur_us, tid), (0, 100, 0));
                assert_eq!(ctx, TraceCtx::NONE, "absent trace keys parse as NONE");
                assert_eq!(fields, vec![("n".to_string(), 8.0)]);
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn traced_span_keys_only_appear_when_traced() {
        let ctx = TraceCtx::for_chunk(5, 2, trace::role::SERVER_PULL);
        let traced = Event::Span {
            name: "serve.pull".to_string(),
            start_us: 10,
            dur_us: 20,
            tid: 0,
            ctx,
            fields: Vec::new(),
        };
        let line = traced.to_jsonl();
        assert!(line.contains("\"trace\":\"") && line.contains("\"span\":\""));
        assert_eq!(Event::parse(&line), Some(traced));

        let untraced = Event::Span {
            name: "serve.pull".to_string(),
            start_us: 10,
            dur_us: 20,
            tid: 0,
            ctx: TraceCtx::NONE,
            fields: Vec::new(),
        };
        let line = untraced.to_jsonl();
        assert!(
            !line.contains("\"trace\""),
            "untraced spans must serialize byte-identically to the pre-tracing format: {line}"
        );
    }

    #[test]
    fn jsonl_sink_counts_non_finite_fields() {
        let path = std::env::temp_dir().join("svbr_obsv_non_finite.jsonl");
        let sink = JsonlSink::create(&path).expect("create sink");
        let before = counter("obsv.non_finite").get();
        sink.record(&Event::Point {
            name: "bad".to_string(),
            fields: vec![
                ("nan".to_string(), f64::NAN),
                ("inf".to_string(), f64::INFINITY),
                ("ok".to_string(), 1.5),
            ],
        });
        sink.record(&Event::Point {
            name: "fine".to_string(),
            fields: vec![("x".to_string(), 2.0)],
        });
        sink.flush();
        assert_eq!(counter("obsv.non_finite").get() - before, 2);
        // Every written line must still be valid JSON: the non-finite
        // values are emitted as null, never as bare NaN/inf tokens.
        let text = std::fs::read_to_string(&path).expect("read trace");
        for line in text.lines() {
            let v = event::parse_json(line).expect("line is valid json");
            assert!(v.as_object().is_some());
            // Value positions hold null, never bare NaN/inf tokens.
            assert!(!line.contains(":NaN") && !line.contains(":inf"));
            assert_eq!(line.contains("nan"), line.contains(":null"));
        }
        let bad = text.lines().next().expect("first line");
        let parsed = Event::parse(bad).expect("parses as event");
        assert!(parsed.field("nan").is_some_and(f64::is_nan));
        assert!(parsed.field("inf").is_some_and(f64::is_nan));
        assert_eq!(parsed.field("ok"), Some(1.5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gauge_stores_f64() {
        let g = Gauge::new();
        g.set(-0.125);
        assert_eq!(g.get(), -0.125);
        g.set(f64::INFINITY);
        assert!(g.get().is_infinite());
    }

    #[test]
    fn install_preregisters_the_literal_cardinality_counter() {
        // `install` spells the self-metric as a literal so the static
        // registry audit can see it; keep it in sync with the constant.
        assert_eq!("obsv.cardinality_dropped", metrics::CARDINALITY_DROPPED);
    }
}
