//! `svbr-xtask` — workspace maintenance tasks. Depends only on the
//! workspace's own zero-dependency `svbr-obsv` crate and the `svbr-profile`
//! span-tree profiler built on it.
//!
//! ```text
//! cargo run -p svbr-xtask -- analyze [--format text|json]
//! cargo run -p svbr-xtask -- obsv-report <trace.jsonl>
//! cargo run -p svbr-xtask -- obsv-tail [--once] <trace.jsonl>
//! cargo run -p svbr-xtask -- obsv-diff <a> <b>
//! cargo run -p svbr-xtask -- trace-report [--format json] <trace.jsonl>...
//! cargo run -p svbr-xtask -- bench-compare --baseline <old.json> <new.json>
//! ```
//!
//! `analyze` walks every `.rs` file in the workspace (skipping `target/`,
//! `vendor/` and VCS metadata) and enforces the repo-specific rule
//! families clippy cannot express (metric and alert registries, seed flow,
//! parallel float reductions, hot-loop allocation, panic surface); see
//! [`analyze`]. Exits 0 on a clean tree, 1 when any finding survives its
//! waivers, 2 on usage errors.
//!
//! `obsv-report` summarizes a JSONL trace captured with
//! `repro --trace <path>` into per-span timing and per-point field tables,
//! followed by the span-tree hot-path table and critical path.
//!
//! `obsv-tail` renders the latest flight-recorder window of a trace in the
//! Prometheus text format and (without `--once`) follows the file as it
//! grows. `obsv-diff` compares the final metric series of two runs —
//! traces or run manifests — and exits 1 on drift; see [`obsv`].
//!
//! `trace-report` stitches the span streams of several traced processes
//! (server incarnations, loadgen clients) into per-chunk trees keyed by
//! the deterministic trace id and prints each chunk's critical-path
//! attribution; see [`trace_report`].
//!
//! `bench-compare` diffs two `BENCH_svbr.json` reports (written by
//! `repro bench`) and exits 1 when any case's throughput regressed by more
//! than the threshold (default 15%) or disappeared — the CI perf gate.

#![forbid(unsafe_code)]

mod analyze;
mod lexer;
mod model;
mod obsv;
mod trace_report;
mod waivers;

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".claude", "results"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args, &workspace_root()));
}

/// The workspace root is two levels up from this crate's manifest — robust
/// to `cargo run -p svbr-xtask` being invoked from any subdirectory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn run(args: &[String], root: &Path) -> i32 {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("analyze") => {
            let mut json = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--format" => match it.next().map(String::as_str) {
                        Some("text") => json = false,
                        Some("json") => json = true,
                        other => {
                            eprintln!("--format takes `text` or `json`, got {other:?}\n{USAGE}");
                            return 2;
                        }
                    },
                    other => {
                        eprintln!("unknown flag `{other}`\n{USAGE}");
                        return 2;
                    }
                }
            }
            let report = analyze::analyze_tree(root);
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            i32::from(!report.findings.is_empty())
        }
        Some("obsv-report") => match (it.next(), it.next()) {
            (Some(path), None) => obsv_report(path),
            _ => {
                eprintln!("obsv-report takes exactly one trace path\n{USAGE}");
                2
            }
        },
        Some("obsv-tail") => {
            let mut once = false;
            let mut path: Option<&String> = None;
            for a in it.by_ref() {
                match a.as_str() {
                    "--once" => once = true,
                    p if !p.starts_with("--") && path.is_none() => path = Some(a),
                    other => {
                        eprintln!("unknown obsv-tail argument `{other}`\n{USAGE}");
                        return 2;
                    }
                }
            }
            let Some(path) = path else {
                eprintln!("obsv-tail takes a trace path\n{USAGE}");
                return 2;
            };
            obsv::tail(path, once)
        }
        Some("trace-report") => {
            let mut json = false;
            let mut paths: Vec<String> = Vec::new();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--format" => match it.next().map(String::as_str) {
                        Some("text") => json = false,
                        Some("json") => json = true,
                        other => {
                            eprintln!("--format takes `text` or `json`, got {other:?}\n{USAGE}");
                            return 2;
                        }
                    },
                    p if !p.starts_with("--") => paths.push(a.clone()),
                    other => {
                        eprintln!("unknown trace-report argument `{other}`\n{USAGE}");
                        return 2;
                    }
                }
            }
            if paths.is_empty() {
                eprintln!("trace-report takes one or more trace paths\n{USAGE}");
                return 2;
            }
            trace_report::report(&paths, json)
        }
        Some("obsv-diff") => match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), None) => obsv::diff(a, b),
            _ => {
                eprintln!(
                    "obsv-diff takes exactly two paths (JSONL trace or run manifest)\n{USAGE}"
                );
                2
            }
        },
        Some("bench-compare") => {
            let mut baseline: Option<&String> = None;
            let mut threshold = DEFAULT_BENCH_THRESHOLD;
            let mut current: Option<&String> = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--baseline" => match it.next() {
                        Some(p) => baseline = Some(p),
                        None => {
                            eprintln!("--baseline requires a path\n{USAGE}");
                            return 2;
                        }
                    },
                    "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                        Some(t) if t > 0.0 && t < 1.0 => threshold = t,
                        _ => {
                            eprintln!("--threshold takes a fraction in (0, 1)\n{USAGE}");
                            return 2;
                        }
                    },
                    p if !p.starts_with("--") && current.is_none() => current = Some(a),
                    other => {
                        eprintln!("unknown bench-compare argument `{other}`\n{USAGE}");
                        return 2;
                    }
                }
            }
            let (Some(baseline), Some(current)) = (baseline, current) else {
                eprintln!("bench-compare needs --baseline <old.json> and <current.json>\n{USAGE}");
                return 2;
            };
            bench_compare(baseline, current, threshold)
        }
        Some(other) => {
            eprintln!("unknown task `{other}`\n{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    }
}
const USAGE: &str = "\
usage: cargo run -p svbr-xtask -- <task>
  analyze [--format text|json]                  cross-file determinism / numeric-safety audit
  obsv-report <trace.jsonl>                     summarize an obsv trace
  obsv-tail [--once] <trace.jsonl>              render the latest flight-recorder window
                                                (follows the file unless --once)
  obsv-diff <a> <b>                             diff two runs' final series (trace or
                                                manifest); exit 1 on drift
  trace-report [--format text|json] <trace.jsonl>...
                                                stitch cross-process spans by trace id into
                                                per-chunk critical-path trees
  bench-compare --baseline <old.json> <new.json> [--threshold F]
                                                gate on bench regressions";

/// Throughput drop (fractional) that fails `bench-compare` by default.
const DEFAULT_BENCH_THRESHOLD: f64 = 0.15;

/// How many hot paths `obsv-report` prints from the reconstructed span tree.
const REPORT_HOT_PATHS: usize = 10;

/// Summarize a JSONL trace (as written by `repro --trace`) to stdout.
/// Empty or non-JSONL input is a single-line error and exit 1 — never an
/// empty table.
fn obsv_report(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obsv-report: cannot read trace `{path}`: {e}");
            return 1;
        }
    };
    if text.trim().is_empty() {
        eprintln!("obsv-report: `{path}` is empty (expected a JSONL trace)");
        return 1;
    }
    if !text.lines().any(|l| svbr_obsv::Event::parse(l).is_some()) {
        eprintln!("obsv-report: `{path}` is not a JSONL trace (no line parsed as an event)");
        return 1;
    }
    // Best-effort write: a closed pipe (`… | head`) must not panic.
    use std::io::Write;
    let _ = write!(std::io::stdout().lock(), "{}", obsv_report_text(&text));
    0
}

/// The full `obsv-report` document: the per-span/per-point summary followed
/// by the span-tree hot-path table (self-time ranking + critical path).
fn obsv_report_text(text: &str) -> String {
    let summary = svbr_obsv::report::summarize(text.lines());
    let events: Vec<svbr_obsv::Event> = text.lines().filter_map(svbr_obsv::Event::parse).collect();
    let forest = svbr_profile::SpanForest::from_events(&events);
    format!(
        "{summary}\n{}",
        svbr_profile::render(&forest, REPORT_HOT_PATHS)
    )
}

/// One case pulled out of a bench report's `cases`/`results` array.
#[derive(Debug, Clone, PartialEq)]
struct BenchCase {
    name: String,
    /// Samples per iteration (absent in schema-1 reports).
    n: Option<u64>,
    /// Executor worker threads (absent in schema-1 reports).
    threads: Option<u64>,
    samples_per_sec: f64,
}

impl BenchCase {
    /// Case identity for the regression gate: `(name, n, threads)`. A side
    /// missing `n` or `threads` (an old schema-1 baseline) matches any
    /// value on the other side, so regenerating a baseline never strands
    /// the gate.
    fn same_case(&self, other: &BenchCase) -> bool {
        let opt_eq = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        };
        self.name == other.name && opt_eq(self.n, other.n) && opt_eq(self.threads, other.threads)
    }

    /// Display key, e.g. `hosking_replicated_cached[n=4096,t=4]`.
    fn key(&self) -> String {
        match (self.n, self.threads) {
            (Some(n), Some(t)) => format!("{}[n={n},t={t}]", self.name),
            (Some(n), None) => format!("{}[n={n}]", self.name),
            (None, Some(t)) => format!("{}[t={t}]", self.name),
            (None, None) => self.name.clone(),
        }
    }
}

/// Run provenance pulled from a bench report's header fields (both absent
/// in schema-1 reports — tolerated, rendered as `unknown`).
#[derive(Debug, Default)]
struct BenchMeta {
    git_revision: Option<String>,
    host: Option<String>,
    /// `host.available_parallelism` from a schema-2 report: what the
    /// producing machine could actually run. Lets the gate tell "case was
    /// dropped" apart from "case cannot exist on this host" (the suite
    /// clamps its thread matrix to the host).
    available_parallelism: Option<u64>,
}

impl BenchMeta {
    /// One-line rendering for the bench-compare header, e.g.
    /// `rev=173d3b7a4be2 host=AMD EPYC 7B13 (16 cores, rustc 1.82.0)`.
    fn render(&self) -> String {
        let rev = match &self.git_revision {
            // Abbreviate full SHAs; `get` keeps a malformed (non-ASCII or
            // short) revision from panicking the gate.
            Some(r) => r.get(..12).unwrap_or(r),
            None => "unknown",
        };
        format!(
            "rev={rev} host={}",
            self.host.as_deref().unwrap_or("unknown")
        )
    }
}

/// Best-effort provenance extraction: never fails, missing fields stay
/// `None`.
fn parse_bench_meta(text: &str) -> BenchMeta {
    use svbr_obsv::event::Json;
    let Some(Json::Obj(obj)) = svbr_obsv::event::parse_json(text) else {
        return BenchMeta::default();
    };
    let git_revision = obj
        .get("git_revision")
        .and_then(Json::as_str)
        .map(str::to_string);
    let host_obj = obj.get("host").and_then(Json::as_object);
    let host = host_obj.map(|h| {
        let cpu = h
            .get("cpu_model")
            .and_then(Json::as_str)
            .unwrap_or("unknown-cpu");
        let cores = h
            .get("cores")
            .and_then(Json::as_f64)
            .map_or("? cores".to_string(), |c| format!("{} cores", c as u64));
        let rustc = h
            .get("rustc")
            .and_then(Json::as_str)
            .unwrap_or("unknown rustc");
        format!("{cpu} ({cores}, {rustc})")
    });
    let available_parallelism = host_obj
        .and_then(|h| h.get("available_parallelism"))
        .and_then(Json::as_f64)
        .map(|p| p as u64);
    BenchMeta {
        git_revision,
        host,
        available_parallelism,
    }
}

/// Parse a `BENCH_svbr.json` document into its named cases.
fn parse_bench_cases(text: &str) -> Result<Vec<BenchCase>, String> {
    use svbr_obsv::event::Json;
    let parsed = svbr_obsv::event::parse_json(text).ok_or("not valid JSON")?;
    let Json::Obj(obj) = &parsed else {
        return Err("top level is not an object".to_string());
    };
    let cases = obj
        .get("cases")
        .and_then(Json::as_array)
        .ok_or("no `cases` array")?;
    let mut out = Vec::with_capacity(cases.len());
    for (i, case) in cases.iter().enumerate() {
        let Json::Obj(c) = case else {
            return Err(format!("case {i} is not an object"));
        };
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("case {i} has no `name`"))?;
        let sps = c
            .get("samples_per_sec")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("case `{name}` has no `samples_per_sec`"))?;
        let num = |field: &str| c.get(field).and_then(Json::as_f64).map(|v| v as u64);
        out.push(BenchCase {
            name: name.to_string(),
            n: num("n"),
            threads: num("threads"),
            samples_per_sec: sps,
        });
    }
    Ok(out)
}

/// Diff two bench reports; exit 1 when any case's throughput regressed by
/// more than `threshold` (or disappeared), 0 otherwise.
fn bench_compare(baseline_path: &str, current_path: &str, threshold: f64) -> i32 {
    let read = |path: &str| -> Result<(Vec<BenchCase>, BenchMeta), String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let cases = parse_bench_cases(&text).map_err(|e| format!("`{path}`: {e}"))?;
        Ok((cases, parse_bench_meta(&text)))
    };
    let ((baseline, base_meta), (current, cur_meta)) =
        match (read(baseline_path), read(current_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench-compare: {e}");
                return 1;
            }
        };
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut regressions = 0usize;
    let mut missing = 0usize;
    let _ = writeln!(
        out,
        "bench-compare (fail below {:.0}% of baseline):",
        100.0 * (1.0 - threshold)
    );
    // Provenance header: which revisions/machines produced the two sides.
    // A cross-host or cross-revision comparison is still allowed, but the
    // verdict should say so out loud.
    let _ = writeln!(out, "  baseline: {}", base_meta.render());
    let _ = writeln!(out, "  current:  {}", cur_meta.render());
    for b in &baseline {
        match current.iter().find(|c| c.same_case(b)) {
            Some(c) if b.samples_per_sec > 0.0 => {
                let ratio = c.samples_per_sec / b.samples_per_sec;
                let regressed = ratio < 1.0 - threshold;
                if regressed {
                    regressions += 1;
                }
                let _ = writeln!(
                    out,
                    "  {:<32} {:>14.0} -> {:>14.0} samples/s  {:>+7.1}%{}",
                    b.key(),
                    b.samples_per_sec,
                    c.samples_per_sec,
                    100.0 * (ratio - 1.0),
                    if regressed { "  REGRESSION" } else { "" }
                );
            }
            Some(c) => {
                let _ = writeln!(
                    out,
                    "  {:<32} baseline throughput is 0; current {:.0} samples/s (skipped)",
                    b.key(),
                    c.samples_per_sec
                );
            }
            None => {
                // A baseline thread-matrix entry the current host cannot
                // run (suite clamps threads to available_parallelism) is
                // a host mismatch, not a dropped bench: skip with a note
                // instead of failing the gate. Applies only to the
                // cross-host direction we can prove from the reports.
                let host_cannot_run = match (b.threads, cur_meta.available_parallelism) {
                    (Some(t), Some(p)) => t > p,
                    _ => false,
                };
                if host_cannot_run {
                    let _ = writeln!(
                        out,
                        "  {:<32} skipped: baseline threads exceed current host \
                         available_parallelism={} (cross-host thread case)",
                        b.key(),
                        cur_meta.available_parallelism.unwrap_or(0)
                    );
                } else {
                    regressions += 1;
                    missing += 1;
                    let _ = writeln!(out, "  {:<32} MISSING from current report", b.key());
                }
            }
        }
    }
    let mut added = 0usize;
    for c in &current {
        if !baseline.iter().any(|b| b.same_case(c)) {
            added += 1;
            let _ = writeln!(out, "  {:<32} new case (no baseline)", c.key());
        }
    }
    // Case-set drift is part of the verdict line in both directions: a
    // vanished case is a regression (a silently-dropped bench would
    // otherwise pass forever), a new case is informational until a
    // baseline refresh adopts it.
    let drift = match (missing, added) {
        (0, 0) => String::new(),
        (m, a) => format!(" (case-set drift: {m} vanished, {a} new)"),
    };
    if regressions > 0 {
        let _ = writeln!(out, "bench-compare: {regressions} regression(s){drift}");
        1
    } else {
        let _ = writeln!(out, "bench-compare: ok{drift}");
        0
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_tree(files: &[(&str, &str)]) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let base = std::env::temp_dir().join(format!(
            "svbr-xtask-test-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        for (rel, content) in files {
            let path = base.join(rel);
            std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
            std::fs::write(&path, content).expect("write fixture");
        }
        base
    }

    #[test]
    fn obsv_report_summarizes_a_trace_file() {
        let root = tmp_tree(&[(
            "trace.jsonl",
            "{\"t\":\"span\",\"name\":\"pipeline.fit\",\"dur_us\":1500,\"fields\":{}}\n\
             {\"t\":\"point\",\"name\":\"pipeline.iteration\",\"fields\":{\"attenuation\":0.8}}\n",
        )]);
        let path = root.join("trace.jsonl");
        assert_eq!(obsv_report(&path.to_string_lossy()), 0);
        std::fs::remove_dir_all(&root).ok();
        // Unreadable file: exit 1.
        assert_eq!(obsv_report("/nonexistent/trace.jsonl"), 1);
    }

    #[test]
    fn obsv_report_rejects_empty_and_non_jsonl_input() {
        let root = tmp_tree(&[
            ("empty.jsonl", "\n  \n"),
            ("garbage.jsonl", "this is not\na trace at all\n"),
            // Truncated mid-record: the one whole line still parses.
            (
                "truncated.jsonl",
                "{\"t\":\"point\",\"name\":\"pipeline.iteration\",\"fields\":{\"a\":1}}\n\
                 {\"t\":\"span\",\"name\":\"pipel",
            ),
        ]);
        let path = |n: &str| root.join(n).to_string_lossy().into_owned();
        assert_eq!(obsv_report(&path("empty.jsonl")), 1);
        assert_eq!(obsv_report(&path("garbage.jsonl")), 1);
        assert_eq!(obsv_report(&path("truncated.jsonl")), 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bench_meta_renders_revision_and_host_tolerating_absence() {
        let v2 = "{\n  \"schema\": 2,\n  \
                  \"git_revision\": \"0123456789abcdef0123\",\n  \
                  \"host\": {\"cpu_model\": \"Test CPU\", \"cores\": 16, \
                  \"available_parallelism\": 16, \"rustc\": \"rustc 1.82.0\"},\n  \
                  \"cases\": []\n}\n";
        let meta = parse_bench_meta(v2);
        assert_eq!(
            meta.render(),
            "rev=0123456789ab host=Test CPU (16 cores, rustc 1.82.0)"
        );
        // Schema-1 reports carry neither field.
        let v1 = bench_json(&[("hosking", 1000.0)]);
        assert_eq!(parse_bench_meta(&v1).render(), "rev=unknown host=unknown");
        // Host without a cores field still renders.
        let partial = "{\"git_revision\": \"ab\", \"host\": {\"cpu_model\": \"X\"}, \"cases\": []}";
        assert_eq!(
            parse_bench_meta(partial).render(),
            "rev=ab host=X (? cores, unknown rustc)"
        );
        assert_eq!(
            parse_bench_meta("not json").render(),
            "rev=unknown host=unknown"
        );
    }

    /// The bench-compare fixture: one schema-1 report (no `threads`
    /// field) at given throughputs.
    fn bench_json(cases: &[(&str, f64)]) -> String {
        let rows: Vec<String> = cases
            .iter()
            .map(|(name, sps)| {
                format!(
                    "    {{\"name\": \"{name}\", \"n\": 100, \"iters\": 5, \
                     \"samples_per_sec\": {sps}, \"p50_us\": 1.0, \
                     \"p95_us\": 2.0, \"total_secs\": 0.1}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"name\": \"svbr_bench_suite\",\n  \"schema\": 1,\n  \
             \"cases\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    /// Schema-2 fixture: cases carry `(name, n, threads, samples_per_sec)`.
    fn bench_json_v2(cases: &[(&str, u64, u64, f64)]) -> String {
        let rows: Vec<String> = cases
            .iter()
            .map(|(name, n, threads, sps)| {
                format!(
                    "    {{\"name\": \"{name}\", \"n\": {n}, \"iters\": 5, \
                     \"threads\": {threads}, \"samples_per_sec\": {sps}, \
                     \"p50_us\": 1.0, \"p95_us\": 2.0, \"total_secs\": 0.1}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"name\": \"svbr_bench_suite\",\n  \"schema\": 2,\n  \
             \"cases\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn bench_compare_gates_on_a_slowed_case() {
        let root = tmp_tree(&[
            (
                "baseline.json",
                &bench_json(&[("hosking", 1000.0), ("lindley", 5000.0)]),
            ),
            (
                // hosking deliberately slowed well past the 15% gate;
                // lindley within noise.
                "current.json",
                &bench_json(&[("hosking", 700.0), ("lindley", 4900.0)]),
            ),
            (
                "ok.json",
                &bench_json(&[("hosking", 900.0), ("lindley", 5200.0)]),
            ),
        ]);
        let path = |n: &str| root.join(n).to_string_lossy().into_owned();
        // The slowed fixture fails the gate…
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("current.json"), 0.15),
            1
        );
        // …a within-threshold run passes…
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("ok.json"), 0.15),
            0
        );
        // …a looser threshold forgives the same slowdown…
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("current.json"), 0.5),
            0
        );
        // …and identical reports always pass.
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("baseline.json"), 0.15),
            0
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bench_compare_matches_on_name_n_threads() {
        // The suite legitimately carries the same case name at two thread
        // counts: the gate must pair rows by (name, n, threads), never by
        // name alone.
        let root = tmp_tree(&[
            (
                "baseline.json",
                &bench_json_v2(&[("cached", 4096, 1, 1000.0), ("cached", 4096, 4, 3000.0)]),
            ),
            (
                // Only the 4-thread variant regressed; name-only matching
                // would pair both baseline rows with the first (healthy)
                // current row and miss it.
                "t4_slowed.json",
                &bench_json_v2(&[("cached", 4096, 1, 1000.0), ("cached", 4096, 4, 1200.0)]),
            ),
            (
                "ok.json",
                &bench_json_v2(&[("cached", 4096, 1, 980.0), ("cached", 4096, 4, 2950.0)]),
            ),
            (
                // A different n is a different case: its disappearance is
                // a gate failure even though the name survives.
                "n_changed.json",
                &bench_json_v2(&[("cached", 8192, 1, 1000.0), ("cached", 4096, 4, 3000.0)]),
            ),
            // A schema-1 baseline (no threads recorded) still gates a
            // schema-2 report: the missing `threads` matches any value.
            ("v1_baseline.json", &bench_json(&[("cached", 1000.0)])),
            (
                "v2_current.json",
                &bench_json_v2(&[("cached", 100, 4, 980.0)]),
            ),
        ]);
        let path = |n: &str| root.join(n).to_string_lossy().into_owned();
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("t4_slowed.json"), 0.15),
            1
        );
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("ok.json"), 0.15),
            0
        );
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("n_changed.json"), 0.15),
            1
        );
        assert_eq!(
            bench_compare(&path("v1_baseline.json"), &path("v2_current.json"), 0.15),
            0
        );
        std::fs::remove_dir_all(&root).ok();
    }

    /// Schema-2 fixture with a host header carrying
    /// `available_parallelism` — what the cross-host skip keys on.
    fn bench_json_v2_host(cases: &[(&str, u64, u64, f64)], avail: u64) -> String {
        let rows: Vec<String> = cases
            .iter()
            .map(|(name, n, threads, sps)| {
                format!(
                    "    {{\"name\": \"{name}\", \"n\": {n}, \"iters\": 5, \
                     \"threads\": {threads}, \"samples_per_sec\": {sps}, \
                     \"p50_us\": 1.0, \"p95_us\": 2.0, \"total_secs\": 0.1}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"name\": \"svbr_bench_suite\",\n  \"schema\": 2,\n  \
             \"host\": {{\"cpu_model\": \"X\", \"cores\": {avail}, \
             \"available_parallelism\": {avail}, \"rustc\": \"rustc 1.82.0\"}},\n  \
             \"cases\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn bench_compare_skips_cross_host_thread_cases() {
        // A 16-way baseline carries a threads=4 row; on a 1-core host the
        // suite clamps that entry away. The gate must tell this apart from
        // a genuinely dropped bench: skip when the current host cannot run
        // the case, fail when it could have.
        let root = tmp_tree(&[
            (
                "baseline16.json",
                &bench_json_v2_host(
                    &[("cached", 4096, 1, 1000.0), ("cached", 4096, 4, 3000.0)],
                    16,
                ),
            ),
            (
                "current1.json",
                &bench_json_v2_host(&[("cached", 4096, 1, 990.0)], 1),
            ),
            (
                "current8.json",
                &bench_json_v2_host(&[("cached", 4096, 1, 990.0)], 8),
            ),
            (
                // No host header at all (schema-1-ish current): cannot
                // prove the mismatch, so the vanished case still fails.
                "current_nohost.json",
                &bench_json_v2(&[("cached", 4096, 1, 990.0)]),
            ),
        ]);
        let path = |n: &str| root.join(n).to_string_lossy().into_owned();
        // 1-core host cannot run threads=4: skip-with-note, gate passes.
        assert_eq!(
            bench_compare(&path("baseline16.json"), &path("current1.json"), 0.15),
            0
        );
        // 8-core host could have run it: the missing case is a failure.
        assert_eq!(
            bench_compare(&path("baseline16.json"), &path("current8.json"), 0.15),
            1
        );
        // Unknown current host: no proof, fail closed.
        assert_eq!(
            bench_compare(&path("baseline16.json"), &path("current_nohost.json"), 0.15),
            1
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bench_compare_fails_on_missing_case_or_bad_file() {
        let root = tmp_tree(&[
            (
                "baseline.json",
                &bench_json(&[("hosking", 1000.0), ("lindley", 5000.0)]),
            ),
            ("missing.json", &bench_json(&[("hosking", 1000.0)])),
            ("garbage.json", "not json at all"),
        ]);
        let path = |n: &str| root.join(n).to_string_lossy().into_owned();
        // A case vanishing from the suite is a gate failure, not a skip.
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("missing.json"), 0.15),
            1
        );
        // A new case appearing is fine.
        assert_eq!(
            bench_compare(&path("missing.json"), &path("baseline.json"), 0.15),
            0
        );
        assert_eq!(
            bench_compare(&path("baseline.json"), &path("garbage.json"), 0.15),
            1
        );
        assert_eq!(
            bench_compare("/nonexistent.json", &path("baseline.json"), 0.15),
            1
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bench_compare_via_cli_parses_flags() {
        let root = tmp_tree(&[
            ("b.json", &bench_json(&[("hosking", 1000.0)])),
            ("c.json", &bench_json(&[("hosking", 700.0)])),
        ]);
        let path = |n: &str| root.join(n).to_string_lossy().into_owned();
        let args = |v: &[String]| v.to_vec();
        assert_eq!(
            run(
                &args(&[
                    "bench-compare".into(),
                    "--baseline".into(),
                    path("b.json"),
                    path("c.json"),
                ]),
                &root
            ),
            1
        );
        assert_eq!(
            run(
                &args(&[
                    "bench-compare".into(),
                    "--baseline".into(),
                    path("b.json"),
                    "--threshold".into(),
                    "0.5".into(),
                    path("c.json"),
                ]),
                &root
            ),
            0
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn obsv_report_includes_hot_path_table_golden() {
        let trace = "\
{\"t\":\"span\",\"name\":\"pipeline.fit\",\"start_us\":100,\"dur_us\":1500,\"tid\":0,\"fields\":{}}\n\
{\"t\":\"span\",\"name\":\"hosking.generate\",\"start_us\":1700,\"dur_us\":2000,\"tid\":0,\"fields\":{}}\n\
{\"t\":\"span\",\"name\":\"repro.obsv\",\"start_us\":0,\"dur_us\":4000,\"tid\":0,\"fields\":{}}\n\
{\"t\":\"point\",\"name\":\"pipeline.iteration\",\"fields\":{\"attenuation\":0.8}}\n";
        let golden_path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obsv_report.txt");
        let golden = std::fs::read_to_string(&golden_path).expect("golden file");
        assert_eq!(
            obsv_report_text(trace),
            golden,
            "obsv-report output drifted from tests/golden/obsv_report.txt; \
             if the change is intentional, regenerate the golden file"
        );
    }

    #[test]
    fn usage_errors_exit_two() {
        let root = std::env::temp_dir();
        assert_eq!(run(&[], &root), 2);
        assert_eq!(run(&["frobnicate".into()], &root), 2);
        // obsv-report arity errors.
        assert_eq!(run(&["obsv-report".into()], &root), 2);
        assert_eq!(
            run(&["obsv-report".into(), "a".into(), "b".into()], &root),
            2
        );
        // obsv-tail / obsv-diff usage errors.
        assert_eq!(run(&["obsv-tail".into()], &root), 2);
        assert_eq!(run(&["obsv-tail".into(), "--once".into()], &root), 2);
        assert_eq!(
            run(&["obsv-tail".into(), "--bogus".into(), "t".into()], &root),
            2
        );
        // trace-report usage errors.
        assert_eq!(run(&["trace-report".into()], &root), 2);
        assert_eq!(
            run(
                &["trace-report".into(), "--format".into(), "json".into()],
                &root
            ),
            2
        );
        assert_eq!(
            run(
                &[
                    "trace-report".into(),
                    "--format".into(),
                    "yaml".into(),
                    "t.jsonl".into()
                ],
                &root
            ),
            2
        );
        assert_eq!(
            run(
                &["trace-report".into(), "--bogus".into(), "t.jsonl".into()],
                &root
            ),
            2
        );
        assert_eq!(run(&["obsv-diff".into()], &root), 2);
        assert_eq!(run(&["obsv-diff".into(), "a".into()], &root), 2);
        assert_eq!(
            run(
                &["obsv-diff".into(), "a".into(), "b".into(), "c".into()],
                &root
            ),
            2
        );
        // bench-compare usage errors.
        assert_eq!(run(&["bench-compare".into()], &root), 2);
        assert_eq!(
            run(&["bench-compare".into(), "current.json".into()], &root),
            2
        );
        assert_eq!(
            run(
                &[
                    "bench-compare".into(),
                    "--baseline".into(),
                    "b.json".into(),
                    "--threshold".into(),
                    "2.0".into(),
                    "c.json".into(),
                ],
                &root
            ),
            2
        );
        assert_eq!(
            run(&["bench-compare".into(), "--baseline".into()], &root),
            2
        );
    }

    #[test]
    fn analyze_cli_gates_and_renders() {
        // A clean tree (with a registry-free code base) exits 0.
        let root = tmp_tree(&[("crates/par/src/lib.rs", "pub fn ok() {}\n")]);
        assert_eq!(run(&["analyze".into()], &root), 0);
        std::fs::remove_dir_all(&root).ok();

        // A dead seed parameter exits 1, and the JSON rendering carries
        // the finding.
        let root = tmp_tree(&[("crates/par/src/lib.rs", "pub fn f(seed: u64) {}\n")]);
        assert_eq!(run(&["analyze".into()], &root), 1);
        assert_eq!(
            run(&["analyze".into(), "--format".into(), "json".into()], &root),
            1
        );
        let json = analyze::analyze_tree(&root).render_json();
        assert!(json.contains("\"rule\":\"seed-flow\""));
        std::fs::remove_dir_all(&root).ok();

        // vendor/ and target/ are never descended into.
        let root = tmp_tree(&[
            ("vendor/fake/src/lib.rs", "pub fn f(seed: u64) {}\n"),
            ("target/debug/gen.rs", "pub fn f(seed: u64) {}\n"),
            ("crates/par/src/lib.rs", "pub fn ok() {}\n"),
        ]);
        let report = analyze::analyze_tree(&root);
        assert!(report.findings.is_empty());
        assert_eq!(report.files_scanned, 1);
        std::fs::remove_dir_all(&root).ok();

        // Usage errors exit 2.
        let root = std::env::temp_dir();
        assert_eq!(
            run(&["analyze".into(), "--format".into(), "xml".into()], &root),
            2
        );
        assert_eq!(run(&["analyze".into(), "--bogus".into()], &root), 2);
    }
}
