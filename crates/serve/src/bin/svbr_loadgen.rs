//! `svbr-loadgen` — concurrent-session load harness for `svbr-serve`.
//!
//! ```text
//! svbr-loadgen [--addr HOST:PORT] [--sessions N] [--chunks C]
//!              [--chunk-len L] [--seed S] [--out DIR] [--faults]
//!              [--slow-ms MS] [--pace-ms MS] [--retry-secs S]
//!              [--trace PATH.jsonl]
//! ```
//!
//! With `--trace`, every pull emits a `loadgen.pull` span into the given
//! JSONL file under the chunk's deterministic trace id (derived from the
//! session seed and chunk index), and the request carries the
//! `x-svbr-trace` header so the server's `serve.pull` span links to it —
//! stitch both files with `svbr-xtask trace-report`.
//!
//! Drives `--sessions` concurrent sessions and reports throughput, pull
//! latency (client-observed, via the `serve.pull_us` obsv histogram) and
//! the shed rate. With `--faults`, a *deterministic* schedule (keyed on
//! the session index, never on time or randomness) exercises the failure
//! surface: slow readers (`i % 8 == 1`), per-chunk deadline exhaustion
//! down the whole degradation ladder (`i % 8 == 2`), and mid-stream
//! abandons (`i % 8 == 3`). Connection errors are retried with backoff for
//! `--retry-secs`, so a server killed and restarted with `--resume`
//! mid-run is ridden out transparently — the CI smoke job byte-compares
//! the resulting per-session streams against an uninterrupted run.
//!
//! Exits nonzero if any session ends outside a terminal state (closed,
//! shed, or recorded-degraded/failed), or if a completed stream has gaps
//! or mismatched duplicate chunks.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use svbr_obsv::trace::{self, TraceCtx};
use svbr_obsv::Stopwatch;

#[derive(Debug, Clone)]
struct Config {
    addr: String,
    sessions: u64,
    chunks: u64,
    chunk_len: usize,
    seed: u64,
    out: Option<PathBuf>,
    faults: bool,
    slow_ms: u64,
    /// Fixed pause after every pull in every session (stretches the run so
    /// a CI kill lands mid-stream); independent of the fault schedule.
    pace_ms: u64,
    retry_secs: u64,
    trace: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9185".into(),
            sessions: 32,
            chunks: 6,
            chunk_len: 256,
            seed: 0x5e55_10ad,
            out: None,
            faults: false,
            slow_ms: 50,
            pace_ms: 0,
            retry_secs: 20,
            trace: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    Closed,
    Shed,
    Failed,
    Hung,
}

impl Terminal {
    fn name(self) -> &'static str {
        match self {
            Terminal::Closed => "closed",
            Terminal::Shed => "shed",
            Terminal::Failed => "failed",
            Terminal::Hung => "hung",
        }
    }
}

#[derive(Debug)]
struct Outcome {
    index: u64,
    terminal: Terminal,
    chunks: u64,
    missing: u64,
    dup_mismatch: u64,
    note: String,
}

fn http_get(addr: &str, path: &str, ctx: TraceCtx) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    // One write_all so the request usually lands in a single segment: a
    // split request races the server's close-after-respond (see
    // `handle_conn`, which drains to the header terminator for the same
    // reason).
    let mut req = format!("GET {path} HTTP/1.0\r\n");
    if !ctx.is_none() {
        use std::fmt::Write as _;
        let _ = write!(
            req,
            "{}: {}\r\n",
            svbr_obsv::TRACE_HEADER,
            ctx.header_value()
        );
    }
    req.push_str("\r\n");
    stream.write_all(req.as_bytes())?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let code = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, body))
}

/// GET with retry/backoff: rides out a server that is being killed and
/// restarted with `--resume` mid-run.
fn http_get_retry(
    addr: &str,
    path: &str,
    budget_secs: u64,
    ctx: TraceCtx,
) -> std::io::Result<(u16, String)> {
    let sw = Stopwatch::start();
    loop {
        match http_get(addr, path, ctx) {
            Ok(r) => return Ok(r),
            Err(e) => {
                if sw.elapsed_secs() >= budget_secs as f64 {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
}

/// Drive one session through open → pulls → terminal state.
fn drive_session(cfg: &Config, i: u64) -> Outcome {
    let seed = svbr::par::derive_seed(cfg.seed, i);
    let slow_reader = cfg.faults && i % 8 == 1;
    let exhaust_deadline = cfg.faults && i % 8 == 2;
    let abandon = cfg.faults && i % 8 == 3;

    let mut open_path = format!(
        "/open?seed={seed}&chunk_len={}&chunks={}",
        cfg.chunk_len, cfg.chunks
    );
    if exhaust_deadline {
        // A zero per-chunk budget deterministically fails every attempt,
        // walking the ladder to its typed exhaustion.
        open_path.push_str("&deadline_ms=0");
    }
    let (code, body) = match http_get_retry(&cfg.addr, &open_path, cfg.retry_secs, TraceCtx::NONE) {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                index: i,
                terminal: Terminal::Hung,
                chunks: 0,
                missing: cfg.chunks,
                dup_mismatch: 0,
                note: format!("open failed: {e}"),
            }
        }
    };
    if code == 503 {
        return Outcome {
            index: i,
            terminal: Terminal::Shed,
            chunks: 0,
            missing: 0,
            dup_mismatch: 0,
            note: body.trim().to_string(),
        };
    }
    let Some(id) = body
        .trim()
        .strip_prefix("session ")
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return Outcome {
            index: i,
            terminal: Terminal::Hung,
            chunks: 0,
            missing: cfg.chunks,
            dup_mismatch: 0,
            note: format!("bad open response ({code}): {body:?}"),
        };
    };

    let mut bodies: BTreeMap<u64, String> = BTreeMap::new();
    let mut dup_mismatch = 0u64;
    let mut terminal;
    let mut note = String::new();
    let mut pulls = 0u64;
    loop {
        if abandon && pulls >= cfg.chunks / 2 {
            let _ = http_get_retry(
                &cfg.addr,
                &format!("/close?session={id}"),
                cfg.retry_secs,
                TraceCtx::NONE,
            );
            terminal = Terminal::Closed;
            note = "abandoned mid-stream (client close)".into();
            break;
        }
        // The chunk we expect next is the first one we don't hold yet;
        // the header carries its deterministic trace context so the
        // server's serve.pull span links back to this client span.
        let ctx = if svbr_obsv::enabled() {
            TraceCtx::for_chunk(seed, bodies.len() as u64, trace::role::CLIENT_PULL)
        } else {
            TraceCtx::NONE
        };
        let t0 = svbr_obsv::enabled().then(svbr_obsv::now_us);
        let sw = Stopwatch::start();
        let pull = http_get_retry(
            &cfg.addr,
            &format!("/pull?session={id}"),
            cfg.retry_secs,
            ctx,
        );
        match pull {
            Ok((200, body)) if body == "end\n" => {
                terminal = Terminal::Closed;
                break;
            }
            Ok((200, body)) if body.starts_with("chunk ") => {
                svbr_obsv::histogram("serve.pull_us").record(sw.elapsed_us());
                pulls += 1;
                let idx = body
                    .split_whitespace()
                    .nth(1)
                    .and_then(|t| t.parse().ok())
                    .unwrap_or(u64::MAX);
                if let Some(t0) = t0 {
                    if idx != u64::MAX {
                        // Re-key on the *served* index: a resumed server
                        // may re-serve an acknowledged chunk, and the span
                        // must land in that chunk's trace tree.
                        svbr_obsv::emit_span(
                            "loadgen.pull",
                            t0,
                            svbr_obsv::now_us().saturating_sub(t0),
                            TraceCtx::for_chunk(seed, idx, trace::role::CLIENT_PULL),
                            vec![("idx".to_string(), idx as f64)],
                        );
                    }
                }
                if let Some(prev) = bodies.get(&idx) {
                    // A resumed server may re-serve an acknowledged chunk;
                    // the duplicate must be byte-identical.
                    if prev != &body {
                        dup_mismatch += 1;
                    }
                } else {
                    bodies.insert(idx, body);
                }
                if slow_reader {
                    std::thread::sleep(Duration::from_millis(cfg.slow_ms));
                }
                if cfg.pace_ms > 0 {
                    std::thread::sleep(Duration::from_millis(cfg.pace_ms));
                }
            }
            Ok((410, body)) => {
                // Recorded-degraded terminal: the ladder history travels
                // in the response (and the server's event log/manifest).
                terminal = Terminal::Failed;
                note = body.trim().to_string();
                break;
            }
            Ok((code, body)) => {
                terminal = Terminal::Hung;
                note = format!("unexpected pull response {code}: {}", body.trim());
                break;
            }
            Err(e) => {
                terminal = Terminal::Hung;
                note = format!("pull failed after retries: {e}");
                break;
            }
        }
    }

    let missing = if terminal == Terminal::Closed && !abandon {
        (0..cfg.chunks).filter(|k| !bodies.contains_key(k)).count() as u64
    } else {
        0
    };
    if missing > 0 {
        terminal = Terminal::Hung;
        note = format!("{missing} chunk(s) missing from a completed stream");
    }

    if let Some(dir) = &cfg.out {
        if let Err(e) = write_stream(dir, i, &bodies) {
            terminal = Terminal::Hung;
            note = format!("write failed: {e}");
        }
    }
    Outcome {
        index: i,
        terminal,
        chunks: bodies.len() as u64,
        missing,
        dup_mismatch,
        note,
    }
}

/// Streams are keyed by the loadgen index, not the server-assigned id:
/// id assignment is racy under concurrency, while content depends only on
/// the derived seed — which is what the CI byte comparison checks.
fn write_stream(dir: &Path, index: u64, bodies: &BTreeMap<u64, String>) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut text = String::new();
    for body in bodies.values() {
        text.push_str(body);
    }
    std::fs::write(dir.join(format!("session-{index:04}.txt")), text)
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--addr" => cfg.addr = take("--addr")?,
            "--sessions" => {
                cfg.sessions = take("--sessions")?.parse().map_err(|e| format!("{e}"))?
            }
            "--chunks" => cfg.chunks = take("--chunks")?.parse().map_err(|e| format!("{e}"))?,
            "--chunk-len" => {
                cfg.chunk_len = take("--chunk-len")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => cfg.seed = take("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => cfg.out = Some(PathBuf::from(take("--out")?)),
            "--faults" => cfg.faults = true,
            "--slow-ms" => cfg.slow_ms = take("--slow-ms")?.parse().map_err(|e| format!("{e}"))?,
            "--pace-ms" => cfg.pace_ms = take("--pace-ms")?.parse().map_err(|e| format!("{e}"))?,
            "--retry-secs" => {
                cfg.retry_secs = take("--retry-secs")?.parse().map_err(|e| format!("{e}"))?
            }
            "--trace" => cfg.trace = Some(PathBuf::from(take("--trace")?)),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cfg)
}

fn quantile_us(name: &str, q: f64) -> f64 {
    svbr_obsv::snapshot()
        .histograms
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, h)| h.quantile(q))
        .unwrap_or(f64::NAN)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!(
                "svbr-loadgen: {msg}\nusage: svbr-loadgen [--addr HOST:PORT] [--sessions N] \
                 [--chunks C] [--chunk-len L] [--seed S] [--out DIR] [--faults] \
                 [--slow-ms MS] [--pace-ms MS] [--retry-secs S] [--trace PATH.jsonl]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &cfg.trace {
        match svbr_obsv::JsonlSink::create_line_buffered(path) {
            Ok(sink) => svbr_obsv::install(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!(
                    "svbr-loadgen: cannot create trace file {}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let sw = Stopwatch::start();
    #[expect(
        clippy::disallowed_methods,
        reason = "load harness: one blocking HTTP client per concurrent session is the workload being generated"
    )]
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|i| {
                let cfg = &cfg;
                scope.spawn(move || drive_session(cfg, i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(o) => o,
                Err(_) => Outcome {
                    index: u64::MAX,
                    terminal: Terminal::Hung,
                    chunks: 0,
                    missing: 0,
                    dup_mismatch: 0,
                    note: "client thread panicked".into(),
                },
            })
            .collect()
    });
    let elapsed = sw.elapsed_secs();

    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total_chunks = 0u64;
    let mut dup_mismatch = 0u64;
    let mut missing = 0u64;
    for o in &outcomes {
        *counts.entry(o.terminal.name()).or_insert(0) += 1;
        total_chunks += o.chunks;
        dup_mismatch += o.dup_mismatch;
        missing += o.missing;
        if o.terminal != Terminal::Closed || !o.note.is_empty() {
            println!(
                "  session {:>4}: {:<6} ({} chunks) {}",
                o.index,
                o.terminal.name(),
                o.chunks,
                o.note
            );
        }
    }
    let shed = counts.get("shed").copied().unwrap_or(0);
    let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!(
        "loadgen: {} sessions -> {}",
        cfg.sessions,
        summary.join(", ")
    );
    println!(
        "loadgen: {total_chunks} chunks in {elapsed:.2}s ({:.1} chunks/s, {:.1} sessions/s)",
        total_chunks as f64 / elapsed.max(1e-9),
        cfg.sessions as f64 / elapsed.max(1e-9),
    );
    println!(
        "loadgen: pull latency p50 {:.0} us, p95 {:.0} us; shed rate {:.1}%",
        quantile_us("serve.pull_us", 0.50),
        quantile_us("serve.pull_us", 0.95),
        100.0 * shed as f64 / cfg.sessions.max(1) as f64,
    );

    if cfg.trace.is_some() {
        svbr_obsv::flush();
        svbr_obsv::uninstall();
    }

    let hung = counts.get("hung").copied().unwrap_or(0);
    if hung > 0 || dup_mismatch > 0 || missing > 0 {
        eprintln!(
            "svbr-loadgen: FAILED — {hung} non-terminal session(s), {missing} missing chunk(s), \
             {dup_mismatch} duplicate mismatch(es)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
