//! Per-layer attribution for traced runs: capture the obsv event stream in
//! memory, rebuild the span forest, and fold the self time of every span
//! on the measuring thread into the per-layer metric it belongs to.
//!
//! The benchmark wraps each public call it makes in a `<layer>.<op>` span;
//! the library's own spans (`pipeline.*`, `davies_harte.*`,
//! `hosking.prepare`) nest underneath them. Worker threads (svbr-par
//! fan-out) emit their own root spans and are left out: while they run,
//! the measuring thread is blocked inside the calling span, so per-layer
//! times add up to the wall time the user waits.

use std::collections::BTreeMap;
use std::sync::Arc;
use svbr_obsv::{Event, MemorySink};
use svbr_profile::SpanForest;

/// Span name → the per-layer metric its self time counts toward.
pub const SPAN_METRICS: &[(&str, &str)] = &[
    ("core.fit", "core.fit_ms"),
    ("pipeline.fit", "core.fit_ms"),
    ("core.refine", "core.refine_ms"),
    ("pipeline.refine_attenuation", "core.refine_ms"),
    ("lrd.pd_project", "lrd.pd_project_ms"),
    ("davies_harte.setup", "lrd.dh_setup_ms"),
    ("davies_harte.generate", "lrd.dh_generate_ms"),
    // `UnifiedGenerator::generate` minus its Davies–Harte children is the
    // inverse-CDF transform.
    ("core.generate", "marginal.transform_ms"),
    ("stats.acf", "stats.acf_ms"),
    ("lrd.table", "lrd.table_ms"),
    ("hosking.prepare", "lrd.hosking_prepare_ms"),
    ("is.valley", "is.valley_ms"),
    // `IsEstimator::new` minus its Hosking preparation, then the run.
    ("is.new", "is.run_ms"),
    ("is.run", "is.run_ms"),
    ("queue.trace_tail", "queue.trace_tail_ms"),
];

/// An installed in-memory trace sink; [`Capture::finish`] uninstalls it.
pub struct Capture(Arc<MemorySink>);

impl Capture {
    pub fn start() -> Self {
        let sink = Arc::new(MemorySink::new());
        svbr_obsv::install(sink.clone());
        Self(sink)
    }

    /// Uninstall the sink and return everything it recorded.
    pub fn finish(self) -> Vec<Event> {
        svbr_obsv::uninstall();
        self.0.events()
    }
}

/// Self time per metric and span count per span name, over the spans one
/// thread emitted.
#[derive(Debug, Default)]
pub struct Attribution {
    self_us: BTreeMap<&'static str, u64>,
    counts: BTreeMap<String, u64>,
}

impl Attribution {
    /// Attribute the spans of thread `tid` in `events`.
    pub fn of_thread(events: &[Event], tid: u64) -> Self {
        let forest = SpanForest::from_events(events);
        let mut out = Self::default();
        for (idx, node) in forest.nodes().iter().enumerate() {
            if node.tid != tid {
                continue;
            }
            *out.counts.entry(node.name.clone()).or_default() += 1;
            // A span the table does not list leaves its self time
            // unattributed, which shows as coverage below 100%.
            if let Some((_, metric)) = SPAN_METRICS.iter().find(|(span, _)| *span == node.name) {
                *out.self_us.entry(metric).or_default() += forest.self_us(idx);
            }
        }
        out
    }

    pub fn add(&mut self, other: &Attribution) {
        for (k, v) in &other.self_us {
            *self.self_us.entry(k).or_default() += v;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k.clone()).or_default() += v;
        }
    }

    /// Self time attributed to `metric`, in ms.
    pub fn ms(&self, metric: &str) -> f64 {
        self.self_us.get(metric).copied().unwrap_or(0) as f64 / 1e3
    }

    /// How many spans named `span` were emitted.
    pub fn count(&self, span: &str) -> u64 {
        self.counts.get(span).copied().unwrap_or(0)
    }

    /// Self time attributed to any metric, in µs.
    pub fn attributed_us(&self) -> u64 {
        self.self_us.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_us: u64, dur_us: u64) -> Event {
        Event::Span {
            name: name.to_string(),
            start_us,
            dur_us,
            tid,
            ctx: svbr_obsv::TraceCtx::NONE,
            fields: Vec::new(),
        }
    }

    #[test]
    fn nested_library_spans_take_their_own_self_time() {
        let events = vec![
            span("davies_harte.setup", 0, 10, 30),
            span("davies_harte.generate", 0, 40, 20),
            span("core.generate", 0, 0, 100),
            span("davies_harte.generate", 1, 5, 50),
            span("mystery", 0, 120, 7),
        ];
        let a = Attribution::of_thread(&events, 0);
        let close = |metric: &str, ms: f64| (a.ms(metric) - ms).abs() < 1e-12;
        assert!(close("lrd.dh_setup_ms", 0.030));
        assert!(close("lrd.dh_generate_ms", 0.020), "thread 1 is left out");
        assert!(close("marginal.transform_ms", 0.050));
        assert_eq!(a.count("davies_harte.setup"), 1);
        assert_eq!(a.attributed_us(), 100, "the unlisted span is left out");
    }

    #[test]
    fn every_span_metric_is_declared() {
        for (span, metric) in SPAN_METRICS {
            assert!(
                crate::metrics::lookup(metric).is_some(),
                "{span} → {metric} is not in the metric table"
            );
        }
    }
}
