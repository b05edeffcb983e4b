//! `trace-report`: stitch cross-process span streams into per-chunk trees.
//!
//! A traced serve run writes spans into several JSONL files — the server's
//! (possibly one file per incarnation around a crash) and each loadgen
//! client's. Every span of one chunk carries the same deterministic trace
//! id (derived from the session seed and chunk index), so stitching needs
//! no clock alignment: the files' events, read in argument order, build one
//! [`SpanForest`], and [`SpanForest::traces`] groups its traced spans by
//! trace id. The client-side `loadgen.pull`, server-side `serve.pull`/
//! `serve.queue_wait`/`serve.ckpt` and worker-side `serve.chunk`/
//! `serve.generate` spans of a chunk land in one group.
//!
//! Duplicate span ids arise legitimately: a killed-and-resumed server
//! re-serves acknowledged chunks, regenerating byte-identical ids. The
//! forest keeps the *first* record of a span id (pass files in
//! server-before-client order), so a resumed run reports the same tree as
//! an uninterrupted one.
//!
//! Text mode prints one critical-path line per chunk, attributing the
//! client-observed latency to queue-wait / generate / checkpoint / deliver.
//! `--format json` emits only derivation-deterministic content — ids,
//! names, parent edges, chunk indices; never durations or thread ordinals
//! — so two same-seed runs produce byte-identical reports (the CI check).

use svbr_obsv::event::push_json_string;
use svbr_profile::{SpanForest, SpanNode};

/// One chunk's stitched spans: its trace id and its deduplicated spans,
/// sorted by `(name, span id)`.
type Chunk<'a> = (u64, Vec<&'a SpanNode>);

/// The forest's traces with each chunk's spans in report order.
fn chunks(forest: &SpanForest) -> Vec<Chunk<'_>> {
    forest
        .traces()
        .into_iter()
        .map(|(trace, mut spans)| {
            spans.sort_by(|a, b| a.name.cmp(&b.name).then(a.ctx.span_id.cmp(&b.ctx.span_id)));
            (trace, spans)
        })
        .collect()
}

/// The chunk index: the `idx` field of the first span (in report order)
/// that carries one.
fn chunk_idx(spans: &[&SpanNode]) -> Option<u64> {
    spans.iter().find_map(|s| {
        s.fields
            .iter()
            .find(|(k, _)| k == "idx")
            .map(|&(_, v)| v as u64)
    })
}

/// The durations of the spans named `name`.
fn durations<'a>(spans: &'a [&SpanNode], name: &'a str) -> impl Iterator<Item = u64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| s.dur_us)
}

/// A chunk is two-sided when both the client pull span and the server
/// pull span made it into the stitched tree.
fn two_sided(spans: &[&SpanNode]) -> bool {
    durations(spans, "loadgen.pull").next().is_some()
        && durations(spans, "serve.pull").next().is_some()
}

/// The per-chunk critical-path table plus a summary head line.
fn render_text(file_count: usize, chunks: &[Chunk<'_>]) -> String {
    let span_count: usize = chunks.iter().map(|(_, spans)| spans.len()).sum();
    let two_sided = chunks.iter().filter(|(_, spans)| two_sided(spans)).count();
    let mut out = format!(
        "trace-report: {file_count} file(s), {span_count} span(s), {} chunk trace(s): \
         {two_sided} two-sided, {} incomplete\n",
        chunks.len(),
        chunks.len() - two_sided,
    );
    // Stable human order: chunk index first, then trace id.
    let mut order: Vec<(Option<u64>, u64, &[&SpanNode])> = chunks
        .iter()
        .map(|(trace, spans)| (chunk_idx(spans), *trace, spans.as_slice()))
        .collect();
    order.sort_by_key(|&(idx, trace, _)| (idx, trace));
    for (idx, trace, spans) in order {
        let idx = idx.map_or_else(|| "?".to_string(), |i| i.to_string());
        let client = durations(spans, "loadgen.pull").max();
        let server = durations(spans, "serve.pull").max();
        let queue: u64 = durations(spans, "serve.queue_wait").sum();
        let generate: u64 = durations(spans, "serve.generate").sum();
        let ckpt: u64 = durations(spans, "serve.ckpt").sum();
        let side = match (client, server) {
            (Some(_), Some(_)) => "",
            (Some(_), None) => " [client-only]",
            (None, Some(_)) => " [server-only]",
            (None, None) => " [worker-only]",
        };
        // Critical path: the client-observed pull, split into what the
        // server accounts for and the delivery remainder.
        let total = client.or(server).unwrap_or(0);
        let deliver = match (client, server) {
            (Some(c), Some(s)) => c.saturating_sub(s),
            _ => 0,
        };
        out.push_str(&format!(
            "  trace {trace:016x} idx {idx}: {total} us = queue-wait {queue} + generate {generate} \
             + checkpoint {ckpt} + deliver {deliver}{side}\n",
        ));
    }
    out
}

/// Deterministic JSON: ids, names, edges and chunk indices only — no
/// durations, no thread ordinals, no file paths. Byte-identical across
/// same-seed runs and across crash/resume.
fn render_json(chunks: &[Chunk<'_>]) -> String {
    let two_sided = chunks.iter().filter(|(_, spans)| two_sided(spans)).count();
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\n  \"chunks\": {},\n  \"two_sided\": {two_sided},\n  \"incomplete\": {},\n  \"traces\": [",
        chunks.len(),
        chunks.len() - two_sided,
    ));
    for (i, (trace, spans)) in chunks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {{\"trace\": \"{trace:016x}\", \"idx\": "));
        match chunk_idx(spans) {
            Some(idx) => out.push_str(&idx.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(", \"spans\": [");
        for (j, s) in spans.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            push_json_string(&mut out, &s.name);
            out.push_str(&format!(
                ", \"span\": \"{:016x}\", \"parent\": \"{:016x}\"}}",
                s.ctx.span_id, s.ctx.parent
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The report for the trace files at `paths`, read in argument order.
fn report_text(paths: &[String], json: bool) -> Result<String, crate::obsv::TraceLoadError> {
    let mut events = Vec::new();
    for path in paths {
        events.append(&mut crate::obsv::read_trace(path)?.events);
    }
    let forest = SpanForest::from_events(&events);
    let chunks = chunks(&forest);
    Ok(if json {
        render_json(&chunks)
    } else {
        render_text(paths.len(), &chunks)
    })
}

/// `svbr-xtask trace-report [--format text|json] <trace.jsonl>...`
pub fn report(paths: &[String], json: bool) -> i32 {
    match report_text(paths, json) {
        Ok(body) => {
            // Best-effort write: a closed pipe must not panic.
            use std::io::Write as _;
            let _ = write!(std::io::stdout().lock(), "{body}");
            0
        }
        Err(e) => {
            eprintln!("trace-report: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::TmpTree;
    use svbr_obsv::trace::{self, TraceCtx};
    use svbr_obsv::Event;

    /// A serialized span line exactly as the production writer emits it.
    fn span_line(name: &str, dur_us: u64, ctx: TraceCtx, idx: Option<u64>) -> String {
        let ev = Event::Span {
            name: name.to_string(),
            start_us: 10,
            dur_us,
            tid: 0,
            ctx,
            fields: idx
                .map(|i| ("idx".to_string(), i as f64))
                .into_iter()
                .collect(),
        };
        format!("{}\n", ev.to_jsonl())
    }

    /// The full two-sided span file set for one chunk: client pull, server
    /// pull + queue-wait + checkpoint, worker chunk + generate.
    fn chunk_files(seed: u64, idx: u64) -> (String, String) {
        let tid = trace::chunk_trace_id(seed, idx);
        let client = TraceCtx::for_chunk(seed, idx, trace::role::CLIENT_PULL);
        let server =
            TraceCtx::for_chunk(seed, idx, trace::role::SERVER_PULL).with_parent(client.span_id);
        let queue = server.child(trace::role::QUEUE_WAIT);
        let ckpt = TraceCtx {
            trace_id: tid,
            span_id: trace::span_id(tid, trace::role::CHECKPOINT, 0),
            parent: server.span_id,
        };
        let worker =
            TraceCtx::for_chunk(seed, idx, trace::role::WORKER_CHUNK).with_parent(server.span_id);
        let generate = worker.child(trace::role::GENERATE);
        let server_file = [
            span_line("serve.queue_wait", 5, queue, None),
            span_line("serve.pull", 40, server, Some(idx)),
            span_line("serve.ckpt", 7, ckpt, Some(idx)),
            span_line("serve.generate", 20, generate, None),
            span_line("serve.chunk", 25, worker, Some(idx)),
        ]
        .concat();
        let client_file = span_line("loadgen.pull", 100, client, Some(idx));
        (server_file, client_file)
    }

    /// Write `files` and report on them in that order.
    fn report_on(files: &[(&str, &str)], json: bool) -> String {
        let tree = TmpTree::new(files);
        let paths: Vec<String> = files.iter().map(|(name, _)| tree.path(name)).collect();
        report_text(&paths, json).expect("fixture loads")
    }

    /// The stitched forest of `files`, concatenated in order.
    fn forest_of(files: &[&str]) -> SpanForest {
        let events: Vec<Event> = files
            .iter()
            .flat_map(|f| f.lines())
            .filter_map(Event::parse)
            .collect();
        SpanForest::from_events(&events)
    }

    #[test]
    fn client_and_server_spans_group_into_one_two_sided_tree() {
        let (server, client) = chunk_files(42, 3);
        let forest = forest_of(&[&server, &client]);
        let chunks = chunks(&forest);
        assert_eq!(chunks.len(), 1);
        let (trace_id, spans) = &chunks[0];
        assert_eq!(*trace_id, trace::chunk_trace_id(42, 3));
        assert_eq!(chunk_idx(spans), Some(3));
        assert!(two_sided(spans));
        assert_eq!(spans.len(), 6);
        // Parent edges survive the stitch: serve.pull hangs off the
        // client span, the worker chunk hangs off serve.pull.
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n).ctx;
        assert_eq!(
            by_name("serve.pull").parent,
            by_name("loadgen.pull").span_id
        );
        assert_eq!(by_name("serve.chunk").parent, by_name("serve.pull").span_id);
        assert_eq!(
            by_name("serve.generate").parent,
            by_name("serve.chunk").span_id
        );

        let text = render_text(2, &chunks);
        assert!(
            text.contains("1 chunk trace(s): 1 two-sided, 0 incomplete"),
            "{text}"
        );
        assert!(
            text.contains("idx 3: 100 us = queue-wait 5 + generate 20 + checkpoint 7 + deliver 60"),
            "{text}"
        );
    }

    #[test]
    fn duplicate_span_ids_keep_the_first_record() {
        // A resumed server re-serves a chunk: identical span ids, longer
        // durations in the second incarnation's file. First record wins,
        // so the stitched tree matches the uninterrupted run's.
        let (server_a, client) = chunk_files(7, 0);
        let server_b = server_a.replace("\"dur_us\":40", "\"dur_us\":4000");
        assert_ne!(server_a, server_b);
        let forest = forest_of(&[&server_a, &server_b, &client]);
        let chunks = chunks(&forest);
        assert_eq!(chunks.len(), 1);
        let spans = &chunks[0].1;
        assert_eq!(durations(spans, "serve.pull").max(), Some(40));
        assert_eq!(spans.len(), 6);
    }

    #[test]
    fn json_report_is_deterministic_and_duration_free() {
        let (s0, c0) = chunk_files(9, 0);
        let (s1, c1) = chunk_files(9, 1);
        let merged_sc = format!("{s0}{s1}");
        let merged_cc = format!("{c0}{c1}");
        let a = report_on(&[("s.jsonl", &merged_sc), ("c.jsonl", &merged_cc)], true);
        // Same spans, different file split and arrival order: same bytes.
        let merged_all = format!("{c1}{s1}{c0}{s0}");
        let b = report_on(&[("all.jsonl", &merged_all)], true);
        assert_eq!(a, b);
        assert!(a.contains("\"chunks\": 2"), "{a}");
        assert!(a.contains("\"two_sided\": 2"), "{a}");
        assert!(a.contains("\"incomplete\": 0"), "{a}");
        assert!(!a.contains("dur"), "durations must not leak: {a}");
        assert!(!a.contains("tid"), "thread ordinals must not leak: {a}");
    }

    #[test]
    fn one_sided_chunks_are_counted_incomplete() {
        let (server, client) = chunk_files(11, 0);
        let (_, lonely_client) = chunk_files(11, 1);
        let clients = format!("{client}{lonely_client}");
        let files = [
            ("server.jsonl", server.as_str()),
            ("client.jsonl", &clients),
        ];
        let text = report_on(&files, false);
        assert!(
            text.contains("2 chunk trace(s): 1 two-sided, 1 incomplete"),
            "{text}"
        );
        assert!(text.contains("[client-only]"), "{text}");
        let json = report_on(&files, true);
        assert!(json.contains("\"incomplete\": 1"), "{json}");
    }

    /// The golden fixture: seed 5 chunks 0 and 1 two-sided, chunk 2
    /// client-only, chunk 3 server-only, a second server incarnation that
    /// re-serves chunk 1 with longer durations, plus an untraced span and a
    /// point event that the report must skip.
    fn golden_files() -> Vec<(&'static str, String)> {
        let (s0, c0) = chunk_files(5, 0);
        let (s1, c1) = chunk_files(5, 1);
        let (_, c2) = chunk_files(5, 2);
        let (s3, _) = chunk_files(5, 3);
        let untraced = span_line("serve.accept", 3, TraceCtx::NONE, None);
        let point = "{\"t\":\"point\",\"name\":\"serve.note\",\"fields\":{\"x\":1}}\n";
        let post = s1
            .replace("\"dur_us\":40", "\"dur_us\":4000")
            .replace("\"dur_us\":20", "\"dur_us\":2000");
        vec![
            ("server-pre.jsonl", format!("{untraced}{s0}{point}{s1}{s3}")),
            ("server-post.jsonl", post),
            ("client.jsonl", format!("{c2}{c1}{c0}")),
        ]
    }

    #[test]
    fn text_and_json_reports_match_goldens() {
        let files = golden_files();
        let files: Vec<(&str, &str)> = files.iter().map(|(n, c)| (*n, c.as_str())).collect();
        let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        for (json, golden) in [(false, "trace_report.txt"), (true, "trace_report.json")] {
            let expected = std::fs::read_to_string(golden_dir.join(golden)).expect("golden file");
            assert_eq!(
                report_on(&files, json),
                expected,
                "trace-report output drifted from tests/golden/{golden}"
            );
        }
    }

    #[test]
    fn unreadable_and_eventless_files_are_one_line_errors() {
        let tree = TmpTree::new(&[("garbage.jsonl", "not json at all\n")]);
        for (path, needle) in [
            ("/nonexistent/trace.jsonl".to_string(), "cannot read"),
            (tree.path("garbage.jsonl"), "not a JSONL trace"),
        ] {
            let err = report_text(&[path], false)
                .expect_err("must fail")
                .to_string();
            assert!(err.contains(needle), "{err}");
            assert!(!err.contains('\n'), "one-line error: {err}");
        }
    }
}
