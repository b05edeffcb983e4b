//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                 # everything (respect SVBR_REPS etc.)
//! repro table1 fig3 fig16   # selected artifacts
//! repro list                # available experiment ids
//! repro --trace t.jsonl --manifest m.json obsv   # traced smoke run
//! ```
//!
//! `--trace <path.jsonl>` installs a JSONL sink for the whole run;
//! `--manifest <path.json>` writes a run manifest (seed, fitted model
//! parameters, git revision, wall-clock, final metric snapshot) at exit.
//! Summarize a trace with `cargo run -p svbr-xtask -- obsv-report <path>`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use svbr_bench::experiments::{self, Context};

const LIGHT: &[&str] = &[
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
];
const COMPOSITE: &[&str] = &["fig9", "fig12", "fig13"];
const HEAVY: &[&str] = &["fig14", "fig15", "fig16", "fig17"];
/// Extra (non-paper) experiments: `obsv` exercises every instrumented layer
/// on a tiny configuration — the CI trace-artifact run; `resilience` is the
/// supervised, checkpointable pipeline (`--checkpoint`/`--resume`/`--faults`).
const EXTRA: &[&str] = &["obsv", "resilience"];

/// Deterministic seed used by the `obsv` smoke experiment and recorded in
/// the manifest.
const RUN_SEED: u64 = 0x5eed_cafe;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "help") {
        usage();
        return;
    }
    match args.first().map(String::as_str) {
        Some("bench") => return run_bench(&args[1..]),
        Some("profile") => return run_profile(&args[1..]),
        _ => {}
    }
    if args.iter().any(|a| a == "list") {
        for id in LIGHT.iter().chain(COMPOSITE).chain(HEAVY).chain(EXTRA) {
            println!("{id}");
        }
        return;
    }

    // Flag parsing: --trace <path> / --manifest <path> / --checkpoint
    // <path> / --resume <path> / --faults <plan> / --expose <addr> /
    // --windows <path> may appear anywhere.
    let mut trace_path: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut fault_plan: Option<String> = None;
    let mut expose_addr: Option<String> = None;
    let mut expose_wait = false;
    let mut windows_path: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(PathBuf::from(p)),
                None => fail_usage("--trace requires a path"),
            },
            "--manifest" => match it.next() {
                Some(p) => manifest_path = Some(PathBuf::from(p)),
                None => fail_usage("--manifest requires a path"),
            },
            "--expose" => match it.next() {
                Some(a) => expose_addr = Some(a.clone()),
                None => fail_usage("--expose requires an address (e.g. 127.0.0.1:9184)"),
            },
            "--expose-wait" => expose_wait = true,
            "--windows" => match it.next() {
                Some(p) => windows_path = Some(PathBuf::from(p)),
                None => fail_usage("--windows requires a path"),
            },
            "--checkpoint" => match it.next() {
                Some(p) => checkpoint_path = Some(PathBuf::from(p)),
                None => fail_usage("--checkpoint requires a path"),
            },
            "--resume" => match it.next() {
                Some(p) => resume_path = Some(PathBuf::from(p)),
                None => fail_usage("--resume requires a path"),
            },
            "--faults" => match it.next() {
                Some(p) => fault_plan = Some(p.clone()),
                None => fail_usage("--faults requires a plan (kind@site:occurrence,...)"),
            },
            "all" => ids.extend(
                LIGHT
                    .iter()
                    .chain(COMPOSITE)
                    .chain(HEAVY)
                    .map(|s| s.to_string()),
            ),
            "light" => ids.extend(LIGHT.iter().map(|s| s.to_string())),
            "heavy" => ids.extend(HEAVY.iter().map(|s| s.to_string())),
            // figs 9-11 are one experiment; accept any alias.
            "fig10" | "fig11" | "fig9-11" | "fig9_11" => ids.push("fig9".into()),
            other => ids.push(other.to_string()),
        }
    }
    ids.dedup();
    if ids.is_empty() {
        fail_usage("no experiment ids given");
    }

    // Arm deterministic fault injection (--faults flag or SVBR_FAULTS env)
    // before anything instrumented runs.
    let fault_plan = fault_plan.or_else(|| std::env::var("SVBR_FAULTS").ok());
    if let Some(plan) = &fault_plan {
        match svbr_resilience::FaultPlan::parse(plan) {
            Ok(plan) => {
                eprintln!(
                    "[repro] fault injection armed: {} spec(s)",
                    plan.specs().len()
                );
                svbr_resilience::fault::arm(plan);
            }
            Err(e) => fail_usage(&e),
        }
    }

    let telemetry = trace_path.is_some() || expose_addr.is_some() || windows_path.is_some();
    if let Some(path) = &trace_path {
        match svbr_obsv::JsonlSink::create(path) {
            Ok(sink) => svbr_obsv::install(Arc::new(sink)),
            Err(e) => {
                eprintln!("[repro] cannot create trace file {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        eprintln!("[repro] tracing to {}", path.display());
    } else if telemetry {
        // --expose / --windows without --trace: enable instrumentation so
        // the registry and flight recorder are live, but drop the events.
        svbr_obsv::install(Arc::new(svbr_obsv::NullSink));
    }
    if telemetry {
        let every = std::env::var("SVBR_WINDOW_EVERY")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(svbr_obsv::recorder::DEFAULT_WINDOW_EVERY);
        svbr_obsv::install_recorder(every, svbr_obsv::recorder::DEFAULT_WINDOW_CAPACITY);
        // Alert rules evaluate on every flight-recorder window; the paper's
        // target H = 0.9 centers the fidelity band.
        svbr_obsv::install_alerts(svbr_obsv::default_rules(0.9));
    }
    if let Some(addr) = &expose_addr {
        start_exposer(addr);
    }
    let manifest = svbr_obsv::RunManifest::new("repro", RUN_SEED, Path::new("."));

    // The shared context (trace + Steps 1–3 fit) is needed by most
    // experiments; build it once.
    let needs_ctx = ids.iter().any(|id| {
        matches!(
            id.as_str(),
            "fig1"
                | "fig2"
                | "fig3"
                | "fig4"
                | "fig5"
                | "fig6"
                | "fig7"
                | "fig8"
                | "fig14"
                | "fig15"
                | "fig16"
                | "fig17"
        )
    });
    let ctx = if needs_ctx {
        eprintln!(
            "[repro] building context: trace_len = {}, reps = {}, threads = {}{}",
            svbr_bench::trace_len(),
            svbr_bench::reps(),
            svbr_bench::threads(),
            if svbr_bench::fast_mode() {
                " (FAST)"
            } else {
                ""
            }
        );
        Some(Context::load().unwrap_or_else(|e| fail("context", &*e)))
    } else {
        None
    };
    let ctx = ctx.as_ref();

    let stdout = std::io::stdout();
    for id in &ids {
        let out: &mut dyn std::io::Write = &mut stdout.lock();
        let started = svbr_obsv::Stopwatch::start();
        match run_experiment(
            id,
            ctx,
            checkpoint_path.as_deref(),
            resume_path.as_deref(),
            out,
        ) {
            Ok(()) => eprintln!("[repro] {id} done in {:.1}s", started.elapsed_secs()),
            Err(e) => fail(id, &*e),
        }
    }

    if expose_wait && expose_addr.is_some() {
        // Keep the process alive until the endpoint has been scraped once
        // (bounded), so CI can curl a short run without racing its exit.
        eprintln!("[repro] waiting for first scrape (up to 60s)");
        let wall = svbr_obsv::Stopwatch::start();
        while SCRAPES.load(std::sync::atomic::Ordering::Relaxed) == 0 && wall.elapsed_secs() < 60.0
        {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }

    finish_observability(
        telemetry,
        manifest_path.as_deref(),
        windows_path.as_deref(),
        manifest,
    );
}

/// Requests served by the `--expose` listener (used by `--expose-wait`).
static SCRAPES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Bind the `--expose` address and serve the current registry as
/// Prometheus-style text: one blocking request per connection on a
/// detached thread. Purely read-only over the global registry — no
/// simulation state, dies with the process.
fn start_exposer(addr: &str) {
    // Typed bind failure (port in use, permission denied): one line,
    // clean nonzero exit — never a panic or a silently dead endpoint.
    let listener = match svbr_bench::expose::bind_exposer(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("[repro] {e}");
            std::process::exit(1);
        }
    };
    if let Ok(local) = listener.local_addr() {
        eprintln!("[repro] exposing metrics on http://{local}/metrics");
    }
    // A detached read-only I/O listener; all simulation parallelism stays
    // in svbr-par.
    std::thread::spawn(move || {
        use std::io::{Read as _, Write as _};
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            // Drain (part of) the request; the path is ignored — every
            // request gets the metrics page.
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let body = svbr_obsv::TextExposer::new().render(&svbr_obsv::snapshot());
            let resp = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(resp.as_bytes());
            SCRAPES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    });
}

/// Dispatch one experiment id (exits with code 2 on an unknown id, like
/// the historical inline dispatch did).
fn run_experiment(
    id: &str,
    ctx: Option<&Context>,
    checkpoint: Option<&Path>,
    resume: Option<&Path>,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    match id {
        "table1" => experiments::table1(out),
        "fig1" => experiments::fig1(ctx.expect("ctx"), out),
        "fig2" => experiments::fig2(ctx.expect("ctx"), out),
        "fig3" => experiments::fig3(ctx.expect("ctx"), out),
        "fig4" => experiments::fig4(ctx.expect("ctx"), out),
        "fig5" => experiments::fig5(ctx.expect("ctx"), out),
        "fig6" => experiments::fig6(ctx.expect("ctx"), out),
        "fig7" => experiments::fig7(ctx.expect("ctx"), out),
        "fig8" => experiments::fig8(ctx.expect("ctx"), out),
        "fig9" => experiments::fig9_11(out),
        "fig12" => experiments::fig12(out),
        "fig13" => experiments::fig13(out),
        "fig14" => experiments::fig14(ctx.expect("ctx"), out),
        "fig15" => experiments::fig15(ctx.expect("ctx"), out),
        "fig16" => experiments::fig16(ctx.expect("ctx"), out),
        "fig17" => experiments::fig17(ctx.expect("ctx"), out),
        "obsv" => experiments::obsv_demo(RUN_SEED, out),
        "resilience" => {
            let mut cfg = svbr_bench::resilience_run::ResilienceConfig::from_env(RUN_SEED);
            cfg.checkpoint = checkpoint.map(Path::to_path_buf);
            cfg.resume = resume.map(Path::to_path_buf);
            svbr_bench::resilience_run::resilience_run(&cfg, out)
        }
        other => {
            eprintln!("unknown experiment `{other}` — try `repro list`");
            std::process::exit(2);
        }
    }
}

/// Static root-span name for a profiled experiment (span names are
/// `&'static str` by design, so the fixed id set maps to fixed names).
fn root_span_name(id: &str) -> &'static str {
    match id {
        "table1" => "repro.table1",
        "fig1" => "repro.fig1",
        "fig2" => "repro.fig2",
        "fig3" => "repro.fig3",
        "fig4" => "repro.fig4",
        "fig5" => "repro.fig5",
        "fig6" => "repro.fig6",
        "fig7" => "repro.fig7",
        "fig8" => "repro.fig8",
        "fig9" => "repro.fig9",
        "fig12" => "repro.fig12",
        "fig13" => "repro.fig13",
        "fig14" => "repro.fig14",
        "fig15" => "repro.fig15",
        "fig16" => "repro.fig16",
        "fig17" => "repro.fig17",
        "obsv" => "repro.obsv",
        "resilience" => "repro.resilience",
        _ => "repro.experiment",
    }
}

/// `repro bench [--quick] [--out <path.json>]` — run the pinned
/// micro-benchmark suite and write the `BENCH_svbr.json` report.
fn run_bench(args: &[String]) {
    let mut quick = false;
    let mut out_path = PathBuf::from("BENCH_svbr.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => fail_usage("--out requires a path"),
            },
            other => fail_usage(&format!("unknown bench argument `{other}`")),
        }
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    use std::io::Write as _;
    let _ = writeln!(
        out,
        "bench suite ({}):",
        if quick { "quick" } else { "full" }
    );
    let report =
        svbr_bench::bench_suite::run_suite(quick, &mut out).unwrap_or_else(|e| fail("bench", &*e));
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("[repro] cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    eprintln!("[repro] bench report written to {}", out_path.display());
}

/// `repro profile [--folded <path>] [--top <n>] [<id>...]` — run the given
/// experiments (default: the `obsv` smoke run) under an in-memory trace
/// sink, rebuild the span forest, print the hot-path table and critical
/// path, and optionally export flamegraph folded stacks.
fn run_profile(args: &[String]) {
    let mut folded_path: Option<PathBuf> = None;
    let mut top = 15usize;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--folded" => match it.next() {
                Some(p) => folded_path = Some(PathBuf::from(p)),
                None => fail_usage("--folded requires a path"),
            },
            "--top" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => top = n,
                None => fail_usage("--top requires a number"),
            },
            other if other.starts_with("--") => {
                fail_usage(&format!("unknown profile argument `{other}`"))
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids.push("obsv".to_string());
    }
    let needs_ctx = ids.iter().any(|id| {
        matches!(
            id.as_str(),
            "fig1"
                | "fig2"
                | "fig3"
                | "fig4"
                | "fig5"
                | "fig6"
                | "fig7"
                | "fig8"
                | "fig14"
                | "fig15"
                | "fig16"
                | "fig17"
        )
    });
    let ctx = if needs_ctx {
        Some(Context::load().unwrap_or_else(|e| fail("context", &*e)))
    } else {
        None
    };

    let sink = Arc::new(svbr_obsv::MemorySink::new());
    svbr_obsv::install(sink.clone());
    let stdout = std::io::stdout();
    let wall = svbr_obsv::Stopwatch::start();
    for id in &ids {
        let out: &mut dyn std::io::Write = &mut stdout.lock();
        let root = svbr_obsv::span(root_span_name(id));
        let r = run_experiment(id, ctx.as_ref(), None, None, out);
        root.end();
        if let Err(e) = r {
            svbr_obsv::uninstall();
            fail(id, &*e);
        }
    }
    let wall_us = wall.elapsed_us().max(1);
    svbr_obsv::uninstall();

    let events = sink.events();
    let forest = svbr_profile::SpanForest::from_events(&events);
    let mut out = stdout.lock();
    use std::io::Write as _;
    let _ = write!(out, "{}", svbr_profile::render(&forest, top));
    let coverage = forest.root_total_us() as f64 / wall_us as f64;
    let _ = writeln!(
        out,
        "\nroot spans cover {:.1}% of {:.3}s wall time",
        100.0 * coverage,
        wall_us as f64 / 1e6
    );
    if let Some(path) = folded_path {
        if let Err(e) = std::fs::write(&path, svbr_profile::to_folded(&forest)) {
            eprintln!("[repro] cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[repro] folded stacks written to {}", path.display());
    }
}

/// Flush the recorder and trace and write the manifest, pulling the fitted
/// model parameters (H, β, Kt, a) out of the final gauge snapshot.
fn finish_observability(
    telemetry: bool,
    manifest_path: Option<&Path>,
    windows_path: Option<&Path>,
    mut manifest: svbr_obsv::RunManifest,
) {
    if let Some(rec) = svbr_obsv::uninstall_recorder() {
        // Final window: even a run shorter than one tick interval records
        // (and traces) its end state.
        rec.flush_window();
        if let Some(path) = windows_path {
            let mut out = String::new();
            for (seq, snapshot) in rec.windows() {
                out.push_str(&svbr_obsv::Event::Window { seq, snapshot }.to_jsonl());
                out.push('\n');
            }
            match std::fs::write(path, out) {
                Ok(()) => eprintln!("[repro] windows written to {}", path.display()),
                Err(e) => {
                    eprintln!("[repro] cannot write windows {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
    // Fired alerts land in the manifest notes next to the resilience log:
    // an SLO burn or fidelity breach is part of the run's provenance.
    for alert in svbr_obsv::alerts::fired() {
        manifest.add_note(alert.note());
    }
    svbr_obsv::uninstall_alerts();
    if telemetry {
        svbr_obsv::flush();
        svbr_obsv::uninstall();
    }
    // Fold the resilience event log (recoveries, degradations, injected
    // faults, checkpoint resumes) into the manifest so no recovery is
    // silent.
    for note in svbr_resilience::drain_events() {
        manifest.add_note(note);
    }
    let Some(path) = manifest_path else {
        return;
    };
    let snapshot = svbr_obsv::snapshot();
    for (gauge, param) in [
        ("pipeline.hurst", "h"),
        ("pipeline.beta", "beta"),
        ("pipeline.knee", "kt"),
        ("pipeline.attenuation", "a"),
    ] {
        if let Some(v) = snapshot.gauge(gauge) {
            manifest.set_param(param, v);
        }
    }
    match manifest.write(path, &snapshot) {
        Ok(()) => eprintln!("[repro] manifest written to {}", path.display()),
        Err(e) => {
            eprintln!("[repro] cannot write manifest {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn fail(id: &str, e: &dyn std::error::Error) -> ! {
    eprintln!("[repro] {id} FAILED: {e}");
    std::process::exit(1);
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2);
}

fn usage() {
    println!(
        "repro — regenerate the paper's tables and figures\n\n\
         usage: repro [--trace <path.jsonl>] [--manifest <path.json>]\n\
                      [--checkpoint <path>] [--resume <path>]\n\
                      [--faults <kind@site:occurrence,...>]\n\
                      [--expose <addr>] [--expose-wait] [--windows <path.jsonl>]\n\
                      <id>... | all | light | heavy | list\n\
                repro bench [--quick] [--out <path.json>]\n\
                repro profile [--folded <path>] [--top <n>] [<id>...]\n\n\
         `bench` runs the pinned micro-benchmark suite and writes\n\
         BENCH_svbr.json (compare two reports with `svbr-xtask\n\
         bench-compare`); `profile` runs experiments (default `obsv`)\n\
         under an in-memory trace, prints the span-tree hot-path table,\n\
         and exports flamegraph folded stacks with --folded.\n\n\
         ids: paper artifacts (table1, fig1..fig17) plus `obsv`, a tiny\n\
         traced smoke run exercising every instrumented layer, and\n\
         `resilience`, the supervised checkpointable run (checkpoints\n\
         every chunk; resume a killed run to byte-identical output)\n\n\
         `--expose <addr>` serves the live registry as Prometheus-style\n\
         text over TCP (curl it mid-run; `--expose-wait` keeps the process\n\
         alive until the first scrape); `--windows <path.jsonl>` dumps the\n\
         flight-recorder snapshot ring at exit (window interval:\n\
         SVBR_WINDOW_EVERY ticks, default 256)\n\n\
         env: SVBR_REPS (default 1000), SVBR_TRACE_LEN (default 238626),\n\
         SVBR_THREADS (default #cores), SVBR_FAST=1 (smoke mode),\n\
         SVBR_RESULTS_DIR (default ./results), SVBR_CKPT_CHUNKS,\n\
         SVBR_CKPT_LEN, SVBR_CKPT_EVERY, SVBR_DEADLINE_MS, SVBR_FAULTS,\n\
         SVBR_WINDOW_EVERY"
    );
}
