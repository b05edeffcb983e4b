//! The metric table — the one place that declares every workload and
//! metric (name, unit, direction, regression bound). `--list` renders it
//! as `BENCHMARK.json`, the result JSON and the per-metric lines read it,
//! and a unit test asserts the committed `BENCHMARK.json` equals it — and
//! the order statistics the metrics are reported with.

use std::collections::BTreeMap;
use svbr_obsv::event::{push_json_number, push_json_string};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics carry none).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user waits for and pays, measured with tracing off. Every
/// workload reports every one (see README for the per-workload meaning);
/// none can be 0. Every bound is the largest allowed. On the shared 2-vCPU
/// machine they were set on, ten-run spreads reached 17% for the timings
/// and 8% for peak memory, and between two sets of the same code the
/// machine slowed every timing by 5–27% (README). CPU per operation is
/// per-layer: its set median on serve_steady moved by 30%.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer attribution and outcome detail, from a `--trace 1` run.
/// Every workload reports every one; a layer the workload leaves idle
/// reports 0.
pub const PER_LAYER: &[Metric] = &[
    // Every workload: CPU per artifact, or server CPU per delivered chunk.
    layer("cpu_ms_per_op", "ms", Lower),
    // paper_fit: §3 fit → refine → generate → ACF, per artifact.
    layer("core.fit_ms", "ms", Lower),
    layer("core.refine_ms", "ms", Lower),
    layer("core.refine_iters", "count", Lower),
    layer("lrd.pd_project_ms", "ms", Lower),
    layer("lrd.dh_setup_ms", "ms", Lower),
    layer("lrd.dh_setup_count", "count", Lower),
    layer("lrd.dh_generate_ms", "ms", Lower),
    layer("marginal.transform_ms", "ms", Lower),
    layer("stats.acf_ms", "ms", Lower),
    layer("frames_per_s", "1/s", Higher),
    // paper_overflow: §4 queue → IS, per artifact.
    layer("core.context_ms", "ms", Lower),
    layer("core.inputs_rejected", "count", Lower),
    layer("lrd.table_ms", "ms", Lower),
    layer("lrd.hosking_prepare_ms", "ms", Lower),
    layer("lrd.hosking_prepare_count", "count", Lower),
    layer("is.valley_ms", "ms", Lower),
    layer("is.run_ms", "ms", Lower),
    layer("queue.trace_tail_ms", "ms", Lower),
    layer("is.reps", "count", Lower),
    layer("is.reps_per_s", "1/s", Higher),
    layer("is.mean_slots", "count", Lower),
    layer("is.ess_min", "count", Higher),
    // Fidelity (deterministic for a fixed seed).
    layer("hurst_abs_err", "1", Lower),
    layer("acf_l2", "1", Lower),
    layer("ks_dist", "1", Lower),
    layer("overflow_log10_dev", "1", Lower),
    // serve_*: user-facing tails and outcomes.
    layer("ttfc_ms_p90", "ms", Lower),
    layer("pull_ms_p99", "ms", Lower),
    layer("slo_ok_ratio", "ratio", Higher),
    layer("shed_ratio", "ratio", Lower),
    layer("degraded_ratio", "ratio", Lower),
    // serve_*: the layers on the pull path.
    layer("serve.open_ms_p50", "ms", Lower),
    layer("serve.table_ms", "ms", Lower),
    layer("serve.transport_ms_p50", "ms", Lower),
    layer("serve.ckpt_ms_p50", "ms", Lower),
    layer("serve.ckpt_ms_p99", "ms", Lower),
    layer("serve.ckpt_bytes", "bytes", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p99", "ms", Lower),
    layer("serve.generate_ms_p50.exact", "ms", Lower),
    layer("serve.generate_ms_p99.exact", "ms", Lower),
    layer("serve.generate_ms_p50.trunc_ar", "ms", Lower),
    layer("serve.chunks.exact", "count", Higher),
    layer("serve.chunks.degraded", "count", Lower),
    layer("serve.chunks.failed", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.active_max", "count", Lower),
    // Validity of the run itself.
    layer("loadgen.lag_ms_p99", "ms", Lower),
    layer("loadgen.cpu_pct", "%", Lower),
    layer("obsv.trace_overhead_pct", "%", Lower),
    layer("profile.coverage_pct", "%", Higher),
];

/// A named workload, why the benchmark runs it, and the per-layer metrics
/// it measures (the rest read 0 on it: their layer is idle there).
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub layers: &'static [&'static str],
}

const SERVE_LAYERS: &[&str] = &[
    "cpu_ms_per_op",
    "frames_per_s",
    "hurst_abs_err",
    "acf_l2",
    "ks_dist",
    "ttfc_ms_p90",
    "pull_ms_p99",
    "slo_ok_ratio",
    "shed_ratio",
    "degraded_ratio",
    "serve.open_ms_p50",
    "serve.table_ms",
    "serve.transport_ms_p50",
    "serve.ckpt_ms_p50",
    "serve.ckpt_ms_p99",
    "serve.ckpt_bytes",
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p99",
    "serve.generate_ms_p50.exact",
    "serve.generate_ms_p99.exact",
    "serve.generate_ms_p50.trunc_ar",
    "serve.chunks.exact",
    "serve.chunks.degraded",
    "serve.chunks.failed",
    "serve.shed",
    "serve.active_max",
    "loadgen.lag_ms_p99",
    "loadgen.cpu_pct",
    "obsv.trace_overhead_pct",
    "profile.coverage_pct",
];

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "paper_fit",
        why: "Fig. 8 from scratch on a fresh trace per job: load in core fit/refine, stats, \
              Davies-Harte and the marginal transform; queue, IS and serve idle; caches miss",
        layers: &[
            "cpu_ms_per_op",
            "core.fit_ms",
            "core.refine_ms",
            "core.refine_iters",
            "lrd.pd_project_ms",
            "lrd.dh_setup_ms",
            "lrd.dh_setup_count",
            "lrd.dh_generate_ms",
            "marginal.transform_ms",
            "stats.acf_ms",
            "frames_per_s",
            "core.context_ms",
            "core.inputs_rejected",
            "hurst_abs_err",
            "acf_l2",
            "ks_dist",
            "obsv.trace_overhead_pct",
            "profile.coverage_pct",
        ],
    },
    WorkloadDef {
        name: "paper_overflow",
        why: "Fig. 16 per job (4 utilizations x 8 buffers, IS to 10% relative error): load in \
              is, Hosking preparation, the per-sample transform and queue; Davies-Harte idle",
        layers: &[
            "cpu_ms_per_op",
            "core.context_ms",
            "core.inputs_rejected",
            "lrd.table_ms",
            "lrd.hosking_prepare_ms",
            "lrd.hosking_prepare_count",
            "is.valley_ms",
            "is.run_ms",
            "queue.trace_tail_ms",
            "is.reps",
            "is.reps_per_s",
            "is.mean_slots",
            "is.ess_min",
            "overflow_log10_dev",
            "obsv.trace_overhead_pct",
            "profile.coverage_pct",
        ],
    },
    WorkloadDef {
        name: "serve_steady",
        why: "HTTP streams, open loop, 7 sessions/s (70% of the measured 10/s the exact tier \
              sustains): exact Hosking, transport and per-chunk checkpoints; none shed or degraded",
        layers: SERVE_LAYERS,
    },
    WorkloadDef {
        name: "serve_overload",
        why: "the same at 27 sessions/s (150% of the measured 18/s admission limit): ~30% \
              shed, ~97% of chunks degraded to truncated AR; live-session limits bind, not CPU",
        layers: SERVE_LAYERS,
    },
];

/// Seconds one run measures (the default of `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The benchmark's directory, relative to the repository root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/svbr-benchmark";

/// How a checkout runs the benchmark (arguments follow the `--`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "crates/bench/src/bin/svbr-benchmark/Cargo.toml",
    "--",
];

/// The metric declared under `name`, in either list.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [");
    for (i, arg) in COMMAND.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        push_json_string(&mut s, arg);
    }
    s.push_str("],\n  \"paths\": [");
    push_json_string(&mut s, BENCH_DIR);
    s.push_str(&format!(
        "],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    for (i, w) in WORKLOADS.iter().enumerate() {
        s.push_str("    {\"name\": ");
        push_json_string(&mut s, w.name);
        s.push_str(", \"why\": ");
        push_json_string(&mut s, w.why);
        s.push('}');
        s.push_str(if i + 1 < WORKLOADS.len() { ",\n" } else { "\n" });
    }
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        s.push_str(&format!("  ],\n  \"{key}\": [\n"));
        for (i, m) in list.iter().enumerate() {
            s.push_str("    {\"name\": ");
            push_json_string(&mut s, m.name);
            s.push_str(", \"unit\": ");
            push_json_string(&mut s, m.unit);
            s.push_str(", \"better\": ");
            push_json_string(&mut s, m.better.name());
            if let Some(bound) = m.bound {
                s.push_str(", \"bound\": ");
                push_json_number(&mut s, bound);
            }
            s.push('}');
            s.push_str(if i + 1 < list.len() { ",\n" } else { "\n" });
        }
    }
    s.push_str("  ]\n}\n");
    s
}

/// One measured value and how many samples it summarizes.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Everything one run measured, plus its correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
    /// Operations attempted (artifacts, or HTTP requests for serve).
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    /// One line per failure, printed with the result.
    pub failures: Vec<String>,
}

impl Report {
    /// Record metric `name`; a name missing from the table or set twice
    /// is a failure of the benchmark itself.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        if lookup(name).is_none() {
            self.fail(format!(
                "metric `{name}` is not declared in the metric table"
            ));
        } else if !value.is_finite() {
            self.fail(format!("metric `{name}` measured a non-finite value"));
        } else if self.values.insert(name, Value { value, samples }).is_some() {
            self.fail(format!("metric `{name}` was reported twice"));
        }
    }

    /// Count a failed operation or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Count a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// `name value unit n=<samples>` for every metric `w` measured, in
    /// table order.
    pub fn lines(&self, w: &WorkloadDef) -> Vec<String> {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter().filter(|m| w.layers.contains(&m.name)))
            .filter_map(|m| {
                self.values
                    .get(m.name)
                    .map(|v| format!("{} {} {} n={}", m.name, v.value, m.unit, v.samples))
            })
            .collect()
    }

    /// Close a traced run of `w`: every per-layer metric `w` does not
    /// declare reads 0 (its layer is idle there); measuring one it does
    /// not declare is a failure.
    pub fn finish_traced(&mut self, w: &WorkloadDef) {
        for m in PER_LAYER {
            if w.layers.contains(&m.name) {
                continue;
            }
            if self.values.contains_key(m.name) {
                self.fail(format!("{} measured undeclared `{}`", w.name, m.name));
            } else {
                self.values.insert(
                    m.name,
                    Value {
                        value: 0.0,
                        samples: 0,
                    },
                );
            }
        }
    }

    /// The one-line result object: every metric of `list` (a metric the
    /// run did not measure is a failure and reads 0).
    pub fn result_json(&mut self, list: &[Metric]) -> String {
        let missing: Vec<&str> = list
            .iter()
            .filter(|m| !self.values.contains_key(m.name))
            .map(|m| m.name)
            .collect();
        for name in missing {
            self.fail(format!("metric `{name}` was not measured"));
        }
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in list.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = self.values.get(m.name).map_or(0.0, |v| v.value);
            push_json_string(&mut s, m.name);
            s.push_str(": {\"value\": ");
            push_json_number(&mut s, value);
            s.push_str(", \"unit\": ");
            push_json_string(&mut s, m.unit);
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

/// A tail percentile needs this many samples beyond it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Linear-interpolated `p`-quantile of ascending `sorted`; 0 when empty.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// The median of `xs` (any order); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The tail `p`-quantile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — such a percentile would be
/// set by a handful of samples.
pub fn tail(xs: &[f64], p: f64) -> Option<f64> {
    if (xs.len() as f64) * (1.0 - p) + 1e-9 < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(quantile(&v, p))
}

/// First quartile, median and third quartile by Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so spreads
/// printed by `--runs` match the ones computed from the result JSON.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json drifted from the metric table: regenerate it with \
             `svbr-benchmark --list > BENCHMARK.json`"
        );
    }

    #[test]
    fn table_obeys_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(ok_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            for l in w.layers {
                assert!(PER_LAYER.iter().any(|m| m.name == *l), "{}: {l}", w.name);
            }
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            let bound = m.bound.unwrap_or(f64::NAN);
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s"
            && m.better == Lower
            && END_TO_END.iter().all(|o| o.bound <= m.bound)));
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        for m in PER_LAYER {
            assert!(m.bound.is_none(), "{}", m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), None, "999 samples leave 9.99 beyond p99");
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail(&xs, 0.99).unwrap_or(f64::NAN);
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
        assert_eq!(tail(&xs[..19], 0.5), None);
        assert!(tail(&xs[..20], 0.5).is_some());
        assert_eq!(tail(&[], 0.9), None);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_follow_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn report_rejects_undeclared_duplicate_and_missing_metrics() {
        let mut r = Report::default();
        r.set("setup_s", 1.5, 3);
        r.set("setup_s", 1.5, 3);
        r.set("no_such_metric", 1.0, 1);
        assert_eq!(r.failed, 2);
        let json = r.result_json(END_TO_END);
        assert_eq!(r.failed, 2 + END_TO_END.len() as u64 - 1);
        assert!(json.starts_with("{\"correct\": false"));
    }
}
