//! `svbr-benchmark` — the repository's end-to-end benchmark: how long a
//! user waits for a paper figure rebuilt from scratch and for a served VBR
//! session stream, and which layer the time goes to.
//!
//! ```text
//! svbr-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                [--out FILE.json] [--runs N]
//! svbr-benchmark --list
//! ```
//!
//! One workload per process, so `peak_rss_mb` is the workload's own. A run
//! prints each metric as `name value unit n=<samples>` and then, as its
//! last line, the result object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--runs N` re-executes the binary N times as
//! fresh child processes (seeds `seed`..`seed`+N−1) and prints each
//! metric's median and quartiles. `--list` prints the metric table as
//! `BENCHMARK.json`. The workloads and metrics are described in README.md.

#![allow(
    clippy::print_stdout,
    reason = "the benchmark's result is its standard output"
)]

mod layers;
mod metrics;
mod paper;
mod serve;

use metrics::{quartiles, Report, WorkloadDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Sizes of every workload.
pub struct Scale {
    pub paper: paper::PaperScale,
    pub serve: serve::ServeScale,
}

/// The benchmark as committed.
pub const FULL: Scale = Scale {
    paper: paper::PaperScale {
        frames: 238_626,
        gen_reps: 8,
        acf_lags: 500,
        utilizations: &[0.2, 0.4, 0.6, 0.8],
        buffers: &[10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0],
        valley_reps: 64,
        min_jobs: 3,
    },
    serve: serve::ServeScale {
        steady_rate: 7.0,
        overload_rate: 27.0,
        chunks: 32,
        chunk_len: 256,
        pace_ms: 40,
        max_sessions: 24,
        degrade_watermark: 16,
        buffer_chunks: 4,
        setups: 5,
    },
};

/// A scale small enough for unit tests in a debug build. Steady arrivals
/// are at least 100 ms apart every other session, so no three ~40 ms
/// sessions overlap and nothing degrades; the overload rate sheds and
/// degrades.
#[cfg(test)]
pub const TINY: Scale = Scale {
    paper: paper::PaperScale {
        frames: 65_536,
        gen_reps: 2,
        acf_lags: 100,
        utilizations: &[0.4, 0.8],
        buffers: &[10.0, 25.0],
        valley_reps: 32,
        min_jobs: 2,
    },
    serve: serve::ServeScale {
        steady_rate: 10.0,
        overload_rate: 200.0,
        chunks: 4,
        chunk_len: 64,
        pace_ms: 10,
        max_sessions: 4,
        degrade_watermark: 3,
        buffer_chunks: 2,
        setups: 1,
    },
};

/// One run's settings.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Threads for svbr-par fan-out (refinement, IS, replay).
    pub threads: usize,
    pub scale: &'static Scale,
    /// This run's own directory for the files it writes (checkpoints).
    pub scratch: PathBuf,
}

/// Process CPU time, user plus system over all threads, in ms.
pub fn proc_cpu_ms() -> Result<f64, String> {
    cpu_ms("/proc/self/stat")
}

/// CPU time of the calling thread, in ms.
pub fn thread_cpu_ms() -> Result<f64, String> {
    cpu_ms("/proc/thread-self/stat")
}

fn cpu_ms(stat_path: &str) -> Result<f64, String> {
    let stat =
        std::fs::read_to_string(stat_path).map_err(|e| format!("cannot read {stat_path}: {e}"))?;
    // utime and stime are fields 14 and 15; counting from the field after
    // the parenthesized command name (field 3), they are the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed {stat_path}"))
    };
    // Linux reports them in USER_HZ ticks: 100 per second.
    Ok((ticks(11)? + ticks(12)?) * 10.0)
}

/// Peak resident set size (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Fan-out width: min(4, cores).
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Run `workload` once and collect its metrics and checks.
fn run(workload: &WorkloadDef, cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let outcome = match workload.name {
        "paper_fit" => paper::paper_fit(cfg, &mut report),
        "paper_overflow" => paper::paper_overflow(cfg, &mut report),
        "serve_steady" => serve::run(cfg, false, &mut report),
        "serve_overload" => serve::run(cfg, true, &mut report),
        other => Err(format!("workload `{other}` has no implementation")),
    };
    if let Err(e) = outcome {
        report.fail(e);
    }
    match peak_rss_mb() {
        Ok(mb) => report.set("peak_rss_mb", mb, 1),
        Err(e) => report.fail(e),
    }
    if cfg.trace {
        report.finish_traced(workload);
    }
    report
}

const USAGE: &str = "usage: svbr-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE.json] [--runs N]\n       svbr-benchmark --list";

struct Args {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    runs: Option<u64>,
    list: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: None,
        runs: None,
        list: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.max(1),
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--runs" => parsed.runs = Some(number(value()?)?.max(1)),
            "--list" => parsed.list = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if parsed.workload.is_none() && !parsed.list {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// `--runs N`: run the workload in N fresh child processes with seeds
/// `seed..seed+N` and print each metric's median and quartiles; the
/// spread column is the interquartile distance as a share of the median.
fn repeat(exe: PathBuf, args: &Args, workload: &WorkloadDef, runs: u64) -> Result<bool, String> {
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); list.len()];
    let mut all_correct = true;
    for k in 0..runs {
        let seed = args.seed + k;
        let out = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let result = stdout
            .lines()
            .last()
            .and_then(svbr_obsv::event::parse_json)
            .ok_or_else(|| format!("run {k} (seed {seed}) printed no result"))?;
        let field = |key: &str| result.as_object().and_then(|o| o.get(key)).cloned();
        let correct = field("correct") == Some(svbr_obsv::event::Json::Bool(true));
        all_correct &= correct;
        let count = |key: &str| field(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        let mut line = format!(
            "run {k} seed {seed}: correct {correct} attempted {} failed {}",
            count("attempted"),
            count("failed")
        );
        let metrics = field("metrics");
        for (m, v) in list.iter().zip(values.iter_mut()) {
            let value = metrics
                .as_ref()
                .and_then(|ms| {
                    ms.as_object()?
                        .get(m.name)?
                        .as_object()?
                        .get("value")?
                        .as_f64()
                })
                .unwrap_or(f64::NAN);
            line.push_str(&format!(" {}={value:.6}", m.name));
            v.push(value);
        }
        println!("{line}");
    }
    println!(
        "{runs} runs of {}: {:<32} {:>12} {:>12} {:>12} {:>8}",
        workload.name, "metric", "median", "q1", "q3", "spread%"
    );
    for (m, v) in list.iter().zip(&values) {
        let [q1, med, q3] = quartiles(v);
        let spread = if med.abs() > 0.0 {
            100.0 * (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!(
            "  {:<32} {med:>12.5} {q1:>12.5} {q3:>12.5} {spread:>8.2}  {}",
            m.name, m.unit
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("svbr-benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        return ExitCode::from(2);
    };
    if let Some(runs) = args.runs {
        let outcome = std::env::current_exe()
            .map_err(|e| e.to_string())
            .and_then(|exe| repeat(exe, &args, workload, runs));
        return match outcome {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("svbr-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Files the run writes live under the build directory of the checkout.
    let scratch = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("svbr-benchmark")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("svbr-benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        threads: threads(),
        scale: &FULL,
        scratch,
    };
    let mut report = run(workload, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    for line in report.lines(workload) {
        println!("{line}");
    }
    let json = report.result_json(list);
    for why in report.failures.iter().take(20) {
        eprintln!("svbr-benchmark: FAILED {why}");
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("svbr-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Report {
        let scratch = std::env::temp_dir().join(format!(
            "svbr-benchmark-test-{}-{workload}-{trace}",
            std::process::id()
        ));
        let w = WORKLOADS.iter().find(|w| w.name == workload);
        let cfg = RunConfig {
            seed: 3,
            seconds: 1.0,
            trace,
            threads: 2,
            scale: &TINY,
            scratch,
        };
        let report = run(w.unwrap_or(&WORKLOADS[0]), &cfg);
        let _ = std::fs::remove_dir_all(&cfg.scratch);
        report
    }

    /// Every workload, untraced and traced, emits each metric of its list
    /// exactly once, with its unit, and passes its own checks. One test
    /// runs them in sequence: tracing installs a process-wide sink.
    #[test]
    fn every_workload_emits_every_metric_once_with_its_unit() {
        for w in WORKLOADS {
            for (trace, list) in [(false, END_TO_END), (true, PER_LAYER)] {
                let mut report = tiny(w.name, trace);
                let json = report.result_json(list);
                assert_eq!(
                    report.failed, 0,
                    "{} trace={trace}: {:?}",
                    w.name, report.failures
                );
                let parsed = svbr_obsv::event::parse_json(&json);
                let metrics = parsed
                    .as_ref()
                    .and_then(|v| v.as_object()?.get("metrics")?.as_object().cloned());
                let metrics = metrics.unwrap_or_default();
                let names: Vec<&str> = metrics.entries.iter().map(|(k, _)| k.as_str()).collect();
                let expected: Vec<&str> = list.iter().map(|m| m.name).collect();
                assert_eq!(names, expected, "{} trace={trace}", w.name);
                for (m, (_, v)) in list.iter().zip(&metrics.entries) {
                    let unit = v.as_object().and_then(|o| o.get("unit")?.as_str());
                    assert_eq!(unit, Some(m.unit), "{}: {}", w.name, m.name);
                }
                if trace {
                    let coverage = report.get("profile.coverage_pct").map_or(0.0, |v| v.value);
                    assert!(coverage >= 95.0, "{}: layers cover {coverage}%", w.name);
                } else {
                    for m in END_TO_END {
                        let v = report.get(m.name).map_or(0.0, |v| v.value);
                        assert!(v > 0.0, "{}: {} must never read 0", w.name, m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_parse_as_documented() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&[
            "--workload",
            "serve_steady",
            "--seed",
            "9",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]);
        let a = a.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.workload.map(|w| w.name), Some("serve_steady"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 5, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "paper_fit", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "a workload is required");
        assert!(args(&["--list"]).is_ok_and(|a| a.list));
    }
}
