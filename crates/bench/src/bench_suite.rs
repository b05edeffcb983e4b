//! The unified micro-benchmark harness behind `repro bench`.
//!
//! A pinned suite of the codebase's hot kernels — exact Hosking,
//! Davies–Harte, the truncated-AR ladder rung, the inverse-CDF marginal
//! transform, the Lindley queue recursion, and the IS estimator — each run
//! for a fixed number of timed iterations at a fixed size and seed. Per
//! case the harness records throughput (samples/sec) and the p50/p95
//! per-iteration latency, and the report carries enough host metadata
//! (cpu model, core count, rustc version, git revision, timestamp) to
//! interpret a number pulled out of CI months later.
//!
//! The report is written as `BENCH_svbr.json`;
//! `cargo run -p svbr-xtask -- bench-compare --baseline <old> <new>`
//! diffs two reports and fails on a throughput regression.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use svbr::is::{IsEstimator, IsEvent};
use svbr::lrd::acf::FgnAcf;
use svbr::lrd::cache::{hosking_coefficients, CachedHosking};
use svbr::lrd::davies_harte::DaviesHarte;
use svbr::lrd::fft::Complex;
use svbr::lrd::hosking::{HoskingSampler, TruncatedHosking};
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::Lognormal;
use svbr::marginal::{BinnedEmpirical, Gamma, Marginal, TabulatedEmpirical, TabulatedTransform};
use svbr::queue::lindley::{LindleyLanes, LindleyQueue, LANES};
use svbr_obsv::Stopwatch;
use svbr_resilience::degrade::{prepare_table, GeneratorTier};
use svbr_serve::{drain_session, generate_chunk_into, ChunkScratch, GenState, SessionSpec};

/// Seed shared by every case (each case derives its own `StdRng` from it,
/// offset by the case index, so adding a case never reseeds the others).
pub const BENCH_SEED: u64 = 0xbe7c_4a5e;

/// Schema version of the JSON report, bumped on breaking field changes.
/// v2 added per-case `threads` and the host `available_parallelism` field.
pub const SCHEMA: u32 = 2;

/// The paper's Hurst parameter, used by every generator case.
const HURST: f64 = 0.9;

/// Replications in the `hosking_replicated*` cases (each replication is an
/// independent path; `n / HOSKING_REPS` is the per-path length).
const HOSKING_REPS: usize = 8;

/// Geometry of the serve-layer cases: every benched session streams
/// [`SERVE_CHUNKS`] chunks of [`SERVE_CHUNK_LEN`] samples.
const SERVE_CHUNKS: u64 = 4;
const SERVE_CHUNK_LEN: usize = 256;

/// One timed case: `iters` timed iterations, each processing `n` samples
/// across `threads` executor workers (1 = sequential).
struct CaseSpec {
    name: &'static str,
    n: usize,
    iters: usize,
    threads: usize,
}

/// Measured outcome of one case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Case name (stable across runs; `bench-compare` matches on it).
    pub name: String,
    /// Samples processed per iteration.
    pub n: usize,
    /// Timed iterations.
    pub iters: usize,
    /// Executor worker threads the case ran with (1 = sequential).
    /// `bench-compare` matches cases on `(name, n, threads)`.
    pub threads: usize,
    /// Throughput of the fastest timed iteration. Best-of-N rather than
    /// the mean: minimum latency converges to the true cost of the kernel
    /// while the mean absorbs scheduler noise, so the regression gate in
    /// `bench-compare` flakes far less on shared CI hosts.
    pub samples_per_sec: f64,
    /// Median per-iteration latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-iteration latency, microseconds.
    pub p95_us: f64,
    /// Total timed wall-clock, seconds.
    pub total_secs: f64,
}

/// Host metadata recorded alongside the numbers.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// CPU model string from `/proc/cpuinfo` (or `"unknown"`).
    pub cpu_model: String,
    /// Available parallelism.
    pub cores: usize,
    /// `rustc --version` output (or `"unknown"`).
    pub rustc: String,
}

/// A full bench report: suite outcome plus provenance.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether the quick (CI-sized) variant of the suite ran.
    pub quick: bool,
    /// The suite seed ([`BENCH_SEED`]).
    pub seed: u64,
    /// Git revision of the working tree (or `"unknown"`).
    pub git_revision: String,
    /// Unix timestamp of the run.
    pub timestamp_unix_secs: u64,
    /// Host metadata.
    pub host: HostInfo,
    /// Per-case results, in suite order.
    pub cases: Vec<CaseResult>,
}

/// Collect host metadata (best effort; every field degrades to
/// `"unknown"` rather than failing the run).
pub fn host_info() -> HostInfo {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    HostInfo {
        cpu_model,
        cores,
        rustc,
    }
}

/// Current Unix time in seconds (0 if the clock is before the epoch).
pub fn unix_timestamp_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn suite(quick: bool) -> Vec<CaseSpec> {
    let scale = |full: usize, q: usize| if quick { q } else { full };
    let mut specs = vec![
        CaseSpec {
            name: "hosking",
            n: scale(2048, 512),
            iters: scale(5, 3),
            threads: 1,
        },
        CaseSpec {
            name: "davies_harte",
            n: scale(65_536, 8192),
            iters: scale(20, 5),
            threads: 1,
        },
        // The planned radix-2 FFT alone (twiddles + bit-reversal
        // precomputed once, forward+inverse round trip per iteration) —
        // the kernel every Davies–Harte generation call runs.
        CaseSpec {
            name: "fft_planned",
            n: scale(65_536, 8192),
            iters: scale(20, 5),
            threads: 1,
        },
        CaseSpec {
            name: "truncated_ar",
            n: scale(32_768, 4096),
            iters: scale(10, 3),
            threads: 1,
        },
        CaseSpec {
            name: "inverse_cdf",
            n: scale(65_536, 8192),
            iters: scale(20, 5),
            threads: 1,
        },
        CaseSpec {
            name: "lindley",
            n: scale(262_144, 32_768),
            iters: scale(20, 5),
            threads: 1,
        },
        // The same total sample count pushed through the struct-of-arrays
        // lane batch (LANES independent replications per slot): the scalar
        // recursion above is one serial add/max dependency chain, the
        // lanes pipeline.
        CaseSpec {
            name: "lindley_lanes",
            n: scale(262_144, 32_768),
            iters: scale(20, 5),
            threads: 1,
        },
        CaseSpec {
            name: "is_estimator",
            n: scale(512, 128),
            iters: scale(5, 3),
            threads: 1,
        },
        // Multi-replication Hosking: per-replication recompute of the
        // Durbin–Levinson schedule vs. the shared coefficient cache
        // (svbr-lrd::cache), sequential and at 4 executor workers.
        CaseSpec {
            name: "hosking_replicated",
            n: HOSKING_REPS * scale(512, 256),
            iters: scale(5, 3),
            threads: 1,
        },
        CaseSpec {
            name: "hosking_replicated_cached",
            n: HOSKING_REPS * scale(512, 256),
            iters: scale(5, 3),
            threads: 1,
        },
        CaseSpec {
            name: "hosking_replicated_cached",
            n: HOSKING_REPS * scale(512, 256),
            iters: scale(5, 3),
            threads: 4,
        },
        // Empirical (histogram-inversion) marginal: per-sample binary
        // search vs. the precomputed quantile bracket table.
        CaseSpec {
            name: "inverse_cdf_empirical",
            n: scale(65_536, 8192),
            iters: scale(20, 5),
            threads: 1,
        },
        CaseSpec {
            name: "inverse_cdf_tabulated",
            n: scale(65_536, 8192),
            iters: scale(20, 5),
            threads: 1,
        },
        // Serve layer: raw checkpointable chunk generation (n = samples),
        // and whole sessions drained through the bounded worker channel
        // (n = sessions, so samples_per_sec reads as sessions/sec).
        CaseSpec {
            name: "serve_chunk_generate",
            n: scale(4096, 1024),
            iters: scale(10, 3),
            threads: 1,
        },
        CaseSpec {
            name: "serve_session_stream",
            n: scale(64, 16),
            iters: scale(5, 3),
            threads: 1,
        },
    ];
    // Clamp the thread matrix to what the host actually has: a
    // `threads: 4` case on a 1-core runner measures scheduler churn, not
    // the kernel (observed 31% *slower* than the sequential case on a
    // 1-core host). Entries that collapse onto an existing
    // `(name, n, threads)` after clamping are dropped — duplicate rows
    // would collide in `bench-compare`'s case matching.
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for s in &mut specs {
        s.threads = s.threads.min(cores);
    }
    specs.dedup_by(|a, b| a.name == b.name && a.n == b.n && a.threads == b.threads);
    specs
}

/// Time `iters` calls of `iter`, which must process `n` samples per call.
/// One untimed warmup call precedes the timed loop so cold caches and lazy
/// page faults never land in the measurement.
fn measure<F: FnMut()>(spec: &CaseSpec, mut iter: F) -> CaseResult {
    iter();
    let mut lat_us: Vec<f64> = Vec::with_capacity(spec.iters);
    let total = Stopwatch::start();
    for _ in 0..spec.iters {
        let sw = Stopwatch::start();
        iter();
        lat_us.push(sw.elapsed_us() as f64);
    }
    let total_secs = total.elapsed_secs();
    lat_us.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let idx = ((lat_us.len() as f64 - 1.0) * p).round() as usize;
        lat_us[idx.min(lat_us.len() - 1)]
    };
    let best_secs = lat_us[0] / 1e6;
    CaseResult {
        name: spec.name.to_string(),
        n: spec.n,
        iters: spec.iters,
        threads: spec.threads,
        samples_per_sec: if best_secs > 0.0 {
            spec.n as f64 / best_secs
        } else {
            f64::INFINITY
        },
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        total_secs,
    }
}

/// Run the pinned suite. `quick` scales every case down to CI size.
/// Progress goes to `out` as each case completes.
pub fn run_suite(
    quick: bool,
    out: &mut dyn Write,
) -> Result<BenchReport, Box<dyn std::error::Error>> {
    let specs = suite(quick);
    let mut cases = Vec::with_capacity(specs.len());
    for (ci, spec) in specs.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED.wrapping_add(ci as u64));
        let result = match spec.name {
            "hosking" => {
                let acf = FgnAcf::new(HURST)?;
                measure(spec, || {
                    // Setup is part of the measured cost: the O(n²) recursion
                    // IS the workload.
                    let sampler = HoskingSampler::new(&acf).unwrap_or_else(|e| die(spec.name, &e));
                    let xs = sampler
                        .generate(spec.n, &mut rng)
                        .unwrap_or_else(|e| die(spec.name, &e));
                    assert_eq!(xs.len(), spec.n);
                })
            }
            "davies_harte" => {
                let dh = DaviesHarte::new(FgnAcf::new(HURST)?, spec.n)?;
                measure(spec, || {
                    let xs = dh.generate(&mut rng);
                    assert_eq!(xs.len(), spec.n);
                })
            }
            "truncated_ar" => {
                let acf = FgnAcf::new(HURST)?;
                let trunc = TruncatedHosking::new(acf, 64)?;
                measure(spec, || {
                    let xs = trunc
                        .generate(acf, spec.n, &mut rng)
                        .unwrap_or_else(|e| die(spec.name, &e));
                    assert_eq!(xs.len(), spec.n);
                })
            }
            "fft_planned" => {
                // Forward+inverse planned transform round trip (the
                // inverse's 1/n scaling keeps the data bounded across
                // iterations); the plan comes from the process cache, as
                // in every Davies–Harte setup.
                let plan = svbr::lrd::fft_plan(spec.n);
                let dh = DaviesHarte::new(FgnAcf::new(HURST)?, spec.n)?;
                let mut data: Vec<Complex> = dh
                    .generate(&mut rng)
                    .iter()
                    .map(|&x| Complex::real(x))
                    .collect();
                measure(spec, || {
                    plan.fft(&mut data);
                    plan.ifft(&mut data);
                    assert!(data[0].re.is_finite());
                })
            }
            "inverse_cdf" => {
                // The paper's Gamma body marginal through the batched
                // bracket-table path: the composite h = F⁻¹∘Φ is tabulated
                // once (setup), the timed region transforms the whole
                // chunk by interpolation into a reused buffer.
                let transform =
                    TabulatedTransform::new(GaussianTransform::new(Gamma::new(2.0, 1.5)?));
                let dh = DaviesHarte::new(FgnAcf::new(HURST)?, spec.n)?;
                let xs = dh.generate(&mut rng);
                let mut ys = Vec::new();
                measure(spec, || {
                    transform.apply_into(&xs, &mut ys);
                    assert_eq!(ys.len(), spec.n);
                })
            }
            "lindley" => {
                let dh = DaviesHarte::new(FgnAcf::new(HURST)?, spec.n)?;
                let arrivals: Vec<f64> = dh.generate(&mut rng).iter().map(|x| x + 3.0).collect();
                measure(spec, || {
                    let mut q = LindleyQueue::new(3.2).unwrap_or_else(|e| die(spec.name, &e));
                    let level = q.run(&arrivals);
                    assert!(level.is_finite());
                })
            }
            "lindley_lanes" => {
                // Same total sample count as `lindley`, split into LANES
                // independent paths fed through the struct-of-arrays
                // recursion: each lane is bit-identical to the scalar
                // queue, but the serial add/max dependency chains run
                // side by side instead of back to back.
                let dh = DaviesHarte::new(FgnAcf::new(HURST)?, spec.n)?;
                let arrivals: Vec<f64> = dh.generate(&mut rng).iter().map(|x| x + 3.0).collect();
                let slot = spec.n / LANES;
                let paths: Vec<&[f64]> = arrivals.chunks_exact(slot).take(LANES).collect();
                measure(spec, || {
                    let mut q =
                        LindleyLanes::new(3.2, LANES).unwrap_or_else(|e| die(spec.name, &e));
                    let levels = q.run_paths(&paths);
                    assert!(levels.iter().all(|l| l.is_finite()));
                })
            }
            "is_estimator" => {
                // One "sample" = one replication of the twisted system.
                let est = IsEstimator::new(
                    FgnAcf::new(HURST)?,
                    64,
                    GaussianTransform::new(Gamma::new(2.0, 1.5)?),
                    3.5,
                    8.0,
                    0.5,
                    IsEvent::FirstPassage,
                )?;
                measure(spec, || {
                    let e = est.run(spec.n, &mut rng);
                    assert!(e.p.is_finite());
                })
            }
            "hosking_replicated" => {
                // Per-replication recompute: every path pays the O(n²)
                // Durbin–Levinson recursion again before sampling.
                let acf = FgnAcf::new(HURST)?;
                let path_len = spec.n / HOSKING_REPS;
                measure(spec, || {
                    for rep in 0..HOSKING_REPS {
                        let seed = svbr::par::derive_seed(BENCH_SEED ^ ci as u64, rep as u64);
                        let mut rep_rng = StdRng::seed_from_u64(seed);
                        let sampler =
                            HoskingSampler::new(&acf).unwrap_or_else(|e| die(spec.name, &e));
                        let xs = sampler
                            .generate(path_len, &mut rep_rng)
                            .unwrap_or_else(|e| die(spec.name, &e));
                        assert_eq!(xs.len(), path_len);
                    }
                })
            }
            "hosking_replicated_cached" => {
                // Shared coefficient schedule: the warmup iteration pays
                // the one-off recursion, timed iterations pay a cache
                // lookup plus the per-sample dot products only.
                let acf = FgnAcf::new(HURST)?;
                let path_len = spec.n / HOSKING_REPS;
                measure(spec, || {
                    let prepared = match hosking_coefficients(&acf, path_len) {
                        Ok(CachedHosking::Shared(p)) => p,
                        Ok(CachedHosking::Streaming) => {
                            die(spec.name, &"path length exceeds the cache entry cap")
                        }
                        Err(e) => die(spec.name, &e),
                    };
                    let paths = svbr::par::run_replications(
                        BENCH_SEED ^ ci as u64,
                        HOSKING_REPS,
                        spec.threads,
                        |_rep, seed| {
                            let mut rep_rng = StdRng::seed_from_u64(seed);
                            prepared.sample_path(&mut rep_rng)
                        },
                    );
                    assert!(paths.iter().all(|p| p.len() == path_len));
                })
            }
            "inverse_cdf_empirical" | "inverse_cdf_tabulated" => {
                // The paper's own marginal choice — inverting the empirical
                // histogram. Samples synthesized at deterministic Gamma
                // quantile ranks so the histogram is identical every run;
                // trace-sized bin count (the paper inverts the empirical
                // CDF of a 238k-frame trace), so the per-sample binary
                // search is ~11 levels deep — the cost the bracket table
                // removes. Probabilities Φ(x) are precomputed so the timed
                // region is purely the F⁻¹ evaluation both cases share
                // with `GaussianTransform::apply`.
                let gamma = Gamma::new(2.0, 1.5)?;
                let samples: Vec<f64> = (1..=50_000)
                    .map(|i| gamma.quantile(i as f64 / 50_001.0))
                    .collect();
                let binned = BinnedEmpirical::from_samples(&samples, 2000)?;
                let dh = DaviesHarte::new(FgnAcf::new(HURST)?, spec.n)?;
                let us: Vec<f64> = dh
                    .generate(&mut rng)
                    .iter()
                    .map(|&x| svbr::marginal::norm_cdf(x))
                    .collect();
                let time_quantiles = |m: &dyn Marginal| {
                    measure(spec, || {
                        let mut acc = 0.0f64;
                        for &u in &us {
                            acc += m.quantile(u);
                        }
                        assert!(acc.is_finite());
                    })
                };
                if spec.name == "inverse_cdf_tabulated" {
                    time_quantiles(&TabulatedEmpirical::new(binned))
                } else {
                    time_quantiles(&binned)
                }
            }
            "serve_chunk_generate" => {
                // The session worker's inner loop: exact-Hosking chunks
                // resumed from committed generator state through the
                // arena path — one persistent ChunkScratch, commit via
                // capacity-reusing clone_from, as run_session does.
                let (table, _shrink) = prepare_table(FgnAcf::new(HURST)?, spec.n + 1)?;
                let transform = GaussianTransform::new(Lognormal::from_moments(1.0, 0.25)?);
                let mut scratch = ChunkScratch::new();
                measure(spec, || {
                    let mut st = GenState::fresh(BENCH_SEED ^ ci as u64);
                    let mut total = 0usize;
                    while total < spec.n {
                        generate_chunk_into(
                            &st,
                            GeneratorTier::HoskingExact,
                            &table,
                            &transform,
                            SERVE_CHUNK_LEN,
                            &mut scratch,
                        )
                        .unwrap_or_else(|e| die(spec.name, &e));
                        total += scratch.ys.len();
                        st.clone_from(&scratch.state);
                    }
                })
            }
            "serve_session_stream" => {
                // Full sessions (spawn worker, stream every chunk through
                // the bounded channel, join); one "sample" = one session,
                // so the gated throughput is sessions/sec. Per-chunk
                // latency lands in the `serve.chunk_us` histogram, echoed
                // below the case rows.
                let samples = SERVE_CHUNKS as usize * SERVE_CHUNK_LEN;
                let (table, _shrink) = prepare_table(FgnAcf::new(HURST)?, samples + 1)?;
                let transform = GaussianTransform::new(Lognormal::from_moments(1.0, 0.25)?);
                measure(spec, || {
                    for s in 0..spec.n as u64 {
                        let seed = svbr::par::derive_seed(BENCH_SEED ^ ci as u64, s);
                        let sspec = SessionSpec {
                            id: s,
                            seed,
                            chunk_len: SERVE_CHUNK_LEN,
                            chunks: SERVE_CHUNKS,
                            deadline_ms: None,
                        };
                        let delivered =
                            drain_session(&sspec, GenState::fresh(seed), &table, &transform, 4)
                                .unwrap_or_else(|e| die(spec.name, &e));
                        assert_eq!(delivered, SERVE_CHUNKS);
                    }
                })
            }
            other => return Err(format!("unknown bench case `{other}`").into()),
        };
        writeln!(
            out,
            "  {:<26} t{:<2} {:>12.0} samples/s   p50 {:>10.0} µs   p95 {:>10.0} µs",
            result.name, result.threads, result.samples_per_sec, result.p50_us, result.p95_us
        )?;
        cases.push(result);
    }
    // The serve cases also feed the labeled obsv histogram the live
    // service records; echo its p95 so the bench log carries the same
    // per-chunk latency view an operator sees on `/metrics`.
    if let Some((_, h)) = svbr_obsv::snapshot()
        .histograms
        .iter()
        .find(|(name, _)| name == "serve.chunk_us")
    {
        writeln!(
            out,
            "  serve.chunk_us histogram      p50 {:>10.0} µs   p95 {:>10.0} µs",
            h.quantile(0.50),
            h.quantile(0.95)
        )?;
    }
    Ok(BenchReport {
        quick,
        seed: BENCH_SEED,
        git_revision: svbr_obsv::manifest::git_revision(std::path::Path::new("."))
            .unwrap_or_else(|| "unknown".to_string()),
        timestamp_unix_secs: unix_timestamp_secs(),
        host: host_info(),
        cases,
    })
}

fn die(case: &str, e: &dyn std::fmt::Display) -> ! {
    eprintln!("[bench] case {case} FAILED: {e}");
    std::process::exit(1);
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

impl BenchReport {
    /// Serialize the report as the `BENCH_svbr.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"name\": \"svbr_bench_suite\",\n");
        s.push_str(&format!("  \"schema\": {},\n", SCHEMA));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"git_revision\": \"{}\",\n",
            json_escape(&self.git_revision)
        ));
        s.push_str(&format!(
            "  \"timestamp_unix_secs\": {},\n",
            self.timestamp_unix_secs
        ));
        s.push_str(&format!(
            "  \"host\": {{\"cpu_model\": \"{}\", \"cores\": {}, \
             \"available_parallelism\": {}, \"rustc\": \"{}\"}},\n",
            json_escape(&self.host.cpu_model),
            self.host.cores,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            json_escape(&self.host.rustc)
        ));
        s.push_str("  \"cases\": [\n");
        let rows: Vec<String> = self
            .cases
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": \"{}\", \"n\": {}, \"iters\": {}, \
                     \"threads\": {}, \
                     \"samples_per_sec\": {:.1}, \"p50_us\": {:.1}, \
                     \"p95_us\": {:.1}, \"total_secs\": {:.6}}}",
                    json_escape(&c.name),
                    c.n,
                    c.iters,
                    c.threads,
                    c.samples_per_sec,
                    c.p50_us,
                    c.p95_us,
                    c.total_secs
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_throughput_are_sane() {
        let spec = CaseSpec {
            name: "noop",
            n: 100,
            iters: 8,
            threads: 1,
        };
        let mut count = 0u64;
        let r = measure(&spec, || {
            count += 1;
        });
        // iters timed calls plus the one untimed warmup.
        assert_eq!(count, 9);
        assert!(r.p50_us <= r.p95_us);
        assert!(r.samples_per_sec > 0.0);
        assert!(r.total_secs >= 0.0);
    }

    #[test]
    fn report_serializes_to_parseable_json() {
        let report = BenchReport {
            quick: true,
            seed: BENCH_SEED,
            git_revision: "abc\"def".to_string(),
            timestamp_unix_secs: 1_700_000_000,
            host: HostInfo {
                cpu_model: "Test \\ CPU".to_string(),
                cores: 8,
                rustc: "rustc 1.0".to_string(),
            },
            cases: vec![CaseResult {
                name: "hosking".to_string(),
                n: 2048,
                iters: 5,
                threads: 4,
                samples_per_sec: 12_345.6,
                p50_us: 10.0,
                p95_us: 20.0,
                total_secs: 0.5,
            }],
        };
        let json = report.to_json();
        let parsed = svbr_obsv::event::parse_json(&json).expect("valid JSON");
        let obj = match &parsed {
            svbr_obsv::event::Json::Obj(o) => o,
            other => panic!("expected object, got {other:?}"),
        };
        assert_eq!(obj.get("schema").and_then(|v| v.as_f64()), Some(2.0));
        let host = match obj.get("host") {
            Some(svbr_obsv::event::Json::Obj(h)) => h,
            other => panic!("expected host object, got {other:?}"),
        };
        assert!(host
            .get("available_parallelism")
            .and_then(|v| v.as_f64())
            .is_some_and(|p| p >= 1.0));
        let cases = obj
            .get("cases")
            .and_then(|v| v.as_array())
            .expect("cases array");
        assert_eq!(cases.len(), 1);
        let case = match &cases[0] {
            svbr_obsv::event::Json::Obj(c) => c,
            other => panic!("expected case object, got {other:?}"),
        };
        assert_eq!(case.get("threads").and_then(|v| v.as_f64()), Some(4.0));
    }

    #[test]
    fn host_info_never_fails() {
        let h = host_info();
        assert!(h.cores >= 1);
        assert!(!h.cpu_model.is_empty());
        assert!(!h.rustc.is_empty());
    }

    #[test]
    fn quick_suite_is_strictly_smaller() {
        for (q, f) in suite(true).iter().zip(suite(false).iter()) {
            assert_eq!(q.name, f.name);
            assert!(q.n <= f.n && q.iters <= f.iters);
            assert!(q.n < f.n || q.iters < f.iters);
        }
    }

    #[test]
    fn suite_threads_clamped_to_host_and_unique() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        for quick in [true, false] {
            let specs = suite(quick);
            let mut seen = std::collections::BTreeSet::new();
            for s in &specs {
                assert!(
                    s.threads <= cores,
                    "case {} asks for {} threads on a {cores}-core host",
                    s.name,
                    s.threads
                );
                assert!(
                    seen.insert((s.name, s.n, s.threads)),
                    "duplicate (name, n, threads) row: {} n={} t={}",
                    s.name,
                    s.n,
                    s.threads
                );
            }
        }
    }
}
