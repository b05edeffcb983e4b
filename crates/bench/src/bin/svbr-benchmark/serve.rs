//! The serve workloads: an in-process `svbr_serve::Server` behind its HTTP
//! front end on 127.0.0.1, driven open loop by a seeded session schedule.
//!
//! Sessions arrive at fixed seeded times; chunk `j` of a session is due at
//! arrival + `j`·pace (compressed playout) and is requested at its due
//! time or as soon as chunk `j−1` arrives, whichever is later. Every
//! latency is measured from the due time, so a stall also charges the
//! requests queued behind it. One client thread multiplexes all in-flight
//! requests over non-blocking sockets: it keeps to the schedule at any
//! rate without taking cores from the server.

use crate::layers::Capture;
use crate::metrics::{median, tail, Report};
use crate::{proc_cpu_ms, thread_cpu_ms, RunConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use svbr::lrd::acf::{Acf, FgnAcf, TabulatedAcf};
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::{Lognormal, Marginal};
use svbr::par::derive_seed;
use svbr::stats::{ks_distance_sorted, mavar_hurst, sample_acf_fft, MavarOptions};
use svbr_obsv::{now_us, Event, Stopwatch};
use svbr_resilience::degrade::{prepare_table, GeneratorTier};
use svbr_serve::session::encode_chunk;
use svbr_serve::{generate_chunk, GenState, Server, ServerConfig, SessionSpec};

/// Sizes and rates of the serve workloads.
pub struct ServeScale {
    /// Session arrivals per second. The rates are set against two
    /// capacities measured by sweeping the rate (README): the highest rate
    /// served entirely at the exact tier, and the highest rate at which
    /// admission refuses nothing. Both are limits on live sessions (the
    /// degrade watermark and `max_sessions`), not on CPU.
    pub steady_rate: f64,
    pub overload_rate: f64,
    /// Chunks per session and samples per chunk.
    pub chunks: u64,
    pub chunk_len: usize,
    /// Compressed playout: chunk `j` is due `j·pace_ms` after arrival.
    pub pace_ms: u64,
    /// Server admission capacity, degrade watermark and readahead.
    pub max_sessions: usize,
    pub degrade_watermark: usize,
    pub buffer_chunks: usize,
    /// Set-up samples taken before the load, and again after it (the
    /// median of all is `setup_s`); at least one.
    pub setups: usize,
}

/// A chunk delivered later than this after its due time misses the SLO.
const SLO_MS: f64 = 200.0;
/// The served marginal (`Server::new` serves fGn through this lognormal).
const MARGINAL_MEAN: f64 = 1.0;
const MARGINAL_VAR: f64 = 0.25;
/// ACF lags compared on each replayed stream.
const FIDELITY_LAGS: usize = 100;
/// How long the client sleeps when no request made progress.
const POLL: Duration = Duration::from_micros(100);
/// Head start before the first arrival, so it is not issued late.
const LEAD_US: u64 = 20_000;
/// Requests still unanswered this long after the last one was due fail.
const GRACE_US: u64 = 60_000_000;
/// MAVAR regression range for one 8192-sample stream.
const MAVAR: MavarOptions = MavarOptions {
    min_n: 4,
    max_n: 1024,
    points: 12,
    min_terms: 50,
};

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Complete,
    Shed,
    Failed,
}

/// One client session: what was scheduled and what arrived.
#[derive(Debug)]
struct Stream {
    seed: u64,
    /// Scheduled arrival, µs on the process clock.
    arrival: u64,
    id: Option<u64>,
    /// Tier and body hash of each delivered chunk, in index order.
    chunks: Vec<(GeneratorTier, u64)>,
    ended: Option<Outcome>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    Pull,
}

struct Request {
    kind: Kind,
    conn: TcpStream,
    buf: Vec<u8>,
    due: u64,
    sent: u64,
}

/// One delivered chunk's timeline (µs on the process clock).
#[derive(Debug, Clone, Copy)]
struct Delivery {
    due: u64,
    sent: u64,
    done: u64,
    seed: u64,
    idx: u64,
    tier: GeneratorTier,
}

impl Delivery {
    fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.due))
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
struct Load {
    streams: Vec<Stream>,
    deliveries: Vec<Delivery>,
    open_ms: Vec<f64>,
    ttfc_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    requests: u64,
    failures: Vec<String>,
    active: usize,
    active_max: usize,
}

impl Load {
    fn end(&mut self, i: usize, outcome: Outcome) {
        let st = &mut self.streams[i];
        if st.id.is_some() && st.ended.is_none() {
            self.active -= 1;
        }
        st.ended = Some(outcome);
    }

    fn fail(&mut self, i: usize, addr: SocketAddr, why: String) {
        self.failures
            .push(format!("session seed {}: {why}", self.streams[i].seed));
        if let (Some(id), None) = (self.streams[i].id, self.streams[i].ended) {
            // Free the admission slot; the verdict is already recorded.
            let _ = request(addr, &format!("/close?session={id}"))
                .and_then(|mut c| c.read_to_end(&mut Vec::new()));
        }
        self.end(i, Outcome::Failed);
    }
}

/// Connect and send `GET path` in one write (a request split across
/// segments races the server's close-after-respond).
fn request(addr: SocketAddr, path: &str) -> std::io::Result<TcpStream> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    Ok(conn)
}

fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = String::from_utf8_lossy(raw);
    let code = text.split_whitespace().nth(1)?.parse().ok()?;
    let body = text.split_once("\r\n\r\n")?.1.to_string();
    Some((code, body))
}

fn body_hash(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

fn tier_named(name: &str) -> Option<GeneratorTier> {
    (0..3)
        .filter_map(GeneratorTier::from_index)
        .find(|t| t.name() == name)
}

/// `chunk <idx> tier=<name> n=<len>` → (idx, tier, len).
fn parse_header(body: &str) -> Option<(u64, GeneratorTier, usize)> {
    let mut words = body.lines().next()?.split_whitespace();
    if words.next()? != "chunk" {
        return None;
    }
    let idx = words.next()?.parse().ok()?;
    let tier = tier_named(words.next()?.strip_prefix("tier=")?)?;
    let len = words.next()?.strip_prefix("n=")?.parse().ok()?;
    Some((idx, tier, len))
}

/// Seeded arrival plan: `rate·window` sessions, the `i`-th at a uniform
/// time inside its own slot `[i, i+1)/rate`. The mean rate is that of a
/// Poisson process, but bursts are bounded: with Poisson arrivals the
/// peak number of live sessions — which sets peak memory and when the
/// server starts to degrade — swings from seed to seed by more than the
/// regressions this benchmark must resolve. Returns (offset µs, session
/// seed), sorted by time.
fn schedule(seed: u64, rate: f64, window_s: f64) -> Vec<(u64, u64)> {
    let n = (rate * window_s).round().max(1.0) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let at = (i as f64 + rng.gen_range(0.0..1.0)) / rate;
            ((at * 1e6) as u64, derive_seed(seed, i))
        })
        .collect()
}

/// Handle a completed response for stream `i`.
fn complete(load: &mut Load, i: usize, req: Request, done: u64, s: &ServeScale, addr: SocketAddr) {
    let Some((code, body)) = parse_response(&req.buf) else {
        return load.fail(i, addr, "malformed HTTP response".into());
    };
    let st = &mut load.streams[i];
    match (req.kind, code) {
        (Kind::Open, 503) => load.end(i, Outcome::Shed),
        (Kind::Open, 200) => match body.trim().strip_prefix("session ").map(str::parse) {
            Some(Ok(id)) => {
                st.id = Some(id);
                load.open_ms.push(ms(done.saturating_sub(st.arrival)));
                load.active += 1;
                load.active_max = load.active_max.max(load.active);
            }
            _ => load.fail(i, addr, format!("bad open response {body:?}")),
        },
        (Kind::Pull, 200) if body == "end\n" => {
            if st.chunks.len() as u64 == s.chunks {
                load.end(i, Outcome::Complete);
            } else {
                let got = st.chunks.len();
                load.fail(i, addr, format!("stream ended after {got} chunks"));
            }
        }
        (Kind::Pull, 200) => {
            let expected = st.chunks.len() as u64;
            match parse_header(&body) {
                Some((idx, tier, len)) if idx == expected && len == s.chunk_len => {
                    if idx == 0 {
                        load.ttfc_ms.push(ms(done.saturating_sub(st.arrival)));
                    }
                    st.chunks.push((tier, body_hash(&body)));
                    load.deliveries.push(Delivery {
                        due: req.due,
                        sent: req.sent,
                        done,
                        seed: st.seed,
                        idx,
                        tier,
                    });
                }
                _ => {
                    let head = body.lines().next().unwrap_or_default().to_string();
                    load.fail(i, addr, format!("expected chunk {expected}, got {head:?}"));
                }
            }
        }
        (_, code) => load.fail(i, addr, format!("HTTP {code}: {}", body.trim())),
    }
}

/// Run one open-loop phase of `plan` against the server at `addr`.
fn drive(addr: SocketAddr, plan: &[(u64, u64)], s: &ServeScale) -> Load {
    let start = now_us() + LEAD_US;
    let pace = s.pace_ms * 1000;
    let last = plan.last().map_or(0, |p| p.0);
    let give_up = start + last + (s.chunks + 1) * pace + GRACE_US;
    let mut load = Load {
        streams: plan
            .iter()
            .map(|&(at, seed)| Stream {
                seed,
                arrival: start + at,
                id: None,
                chunks: Vec::new(),
                ended: None,
            })
            .collect(),
        ..Load::default()
    };
    let mut inflight: Vec<Option<Request>> = plan.iter().map(|_| None).collect();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        let mut progressed = false;
        let mut live = 0;
        for (i, slot) in inflight.iter_mut().enumerate() {
            if load.streams[i].ended.is_some() {
                continue;
            }
            live += 1;
            let finished = match slot.as_mut() {
                Some(req) => match req.conn.read(&mut scratch) {
                    Ok(0) => Some(Ok(())),
                    Ok(m) => {
                        req.buf.extend_from_slice(&scratch[..m]);
                        progressed = true;
                        None
                    }
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) =>
                    {
                        None
                    }
                    Err(e) => Some(Err(e.to_string())),
                },
                None => {
                    let st = &load.streams[i];
                    let (kind, due) = match st.id {
                        None => (Kind::Open, st.arrival),
                        Some(_) => (Kind::Pull, st.arrival + st.chunks.len() as u64 * pace),
                    };
                    let now = now_us();
                    if due > now && kind == Kind::Open {
                        // Arrivals are sorted, so no later session is due
                        // either. Stopping here keeps an idle pass cheap:
                        // the client must not take a core from the server.
                        break;
                    }
                    if due <= now {
                        progressed = true;
                        load.requests += 1;
                        load.lag_ms.push(ms(now - due));
                        let path = match st.id {
                            None => format!(
                                "/open?seed={}&chunk_len={}&chunks={}",
                                st.seed, s.chunk_len, s.chunks
                            ),
                            Some(id) => format!("/pull?session={id}"),
                        };
                        let sent = request(addr, &path).and_then(|conn| {
                            conn.set_nonblocking(true)?;
                            Ok(conn)
                        });
                        match sent {
                            Ok(conn) => {
                                *slot = Some(Request {
                                    kind,
                                    conn,
                                    buf: Vec::new(),
                                    due,
                                    sent: now,
                                });
                                None
                            }
                            Err(e) => Some(Err(format!("connect/send: {e}"))),
                        }
                    } else {
                        None
                    }
                }
            };
            match (finished, slot.take()) {
                (Some(Ok(())), Some(req)) => {
                    progressed = true;
                    complete(&mut load, i, req, now_us(), s, addr);
                }
                (Some(Err(why)), _) => {
                    progressed = true;
                    load.fail(i, addr, why);
                }
                (_, req) => *slot = req,
            }
        }
        if live == 0 {
            break;
        }
        if now_us() > give_up {
            for i in 0..load.streams.len() {
                if load.streams[i].ended.is_none() {
                    load.fail(i, addr, "no answer before the run's deadline".into());
                }
            }
            break;
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
    load
}

/// What the offline replay of one stream found.
struct Replay {
    mismatches: Vec<String>,
    /// |MAVAR-Ĥ − H|, ACF L2 vs fGn(H), KS vs the lognormal — complete
    /// streams only.
    fidelity: Option<[f64; 3]>,
}

/// The generation assets `Server::new` builds, rebuilt offline.
struct Assets {
    hurst: f64,
    table: TabulatedAcf,
    transform: GaussianTransform<Lognormal>,
}

impl Assets {
    fn new(cfg: &ServerConfig) -> Result<Self, String> {
        let acf = FgnAcf::new(cfg.hurst).map_err(err)?;
        let (table, _) = prepare_table(acf, cfg.max_session_samples + 1).map_err(err)?;
        let marginal = Lognormal::from_moments(MARGINAL_MEAN, MARGINAL_VAR).map_err(err)?;
        Ok(Self {
            hurst: cfg.hurst,
            table,
            transform: GaussianTransform::new(marginal),
        })
    }

    /// Regenerate `st`'s chunks with `generate_chunk`, following the tier
    /// sequence the chunk headers reported, and compare bytes.
    fn replay(&self, st: &Stream, chunk_len: usize) -> Replay {
        let mut mismatches = Vec::new();
        let mut state = GenState::fresh(st.seed);
        let mut stream = Vec::with_capacity(st.chunks.len() * chunk_len);
        for (idx, &(tier, hash)) in st.chunks.iter().enumerate() {
            match generate_chunk(&state, tier, &self.table, &self.transform, chunk_len) {
                Ok((post, ys)) => {
                    if body_hash(&encode_chunk(idx as u64, tier, &ys)) != hash {
                        mismatches.push(format!(
                            "session seed {}: chunk {idx} differs from its offline replay",
                            st.seed
                        ));
                    }
                    stream.extend_from_slice(&ys);
                    state = post;
                }
                Err(e) => {
                    mismatches.push(format!("session seed {}: replay failed: {e}", st.seed));
                    break;
                }
            }
        }
        let fidelity = (st.ended == Some(Outcome::Complete) && mismatches.is_empty())
            .then(|| self.fidelity(&mut stream))
            .flatten();
        Replay {
            mismatches,
            fidelity,
        }
    }

    fn fidelity(&self, ys: &mut [f64]) -> Option<[f64; 3]> {
        let h = mavar_hurst(ys, &MAVAR).ok()?.hurst;
        let r = sample_acf_fft(ys, FIDELITY_LAGS).ok()?;
        let fgn = FgnAcf::new(self.hurst).ok()?;
        let sq: f64 = (1..r.len()).map(|k| (r[k] - fgn.r(k)).powi(2)).sum();
        let acf_l2 = (sq / (r.len() - 1).max(1) as f64).sqrt();
        let marginal = self.transform.target();
        ys.sort_by(f64::total_cmp);
        let ks = ks_distance_sorted(ys, |x| marginal.cdf(x)).ok()?;
        Some([(h - self.hurst).abs(), acf_l2, ks])
    }

    /// Checkpoint text size of one session at full horizon on the exact
    /// tier — what a pull persists at the end of a stream.
    fn ckpt_bytes(&self, seed: u64, chunks: u64, chunk_len: usize) -> Result<usize, String> {
        let mut state = GenState::fresh(seed);
        for _ in 0..chunks {
            let tier = GeneratorTier::HoskingExact;
            state = generate_chunk(&state, tier, &self.table, &self.transform, chunk_len)
                .map_err(err)?
                .0;
        }
        let spec = SessionSpec {
            id: 1,
            seed,
            chunk_len,
            chunks,
            deadline_ms: None,
        };
        Ok(state.to_checkpoint(&spec).to_text().len())
    }
}

/// One open-loop phase and what it cost.
struct Phase {
    load: Load,
    wall_s: f64,
    /// Server CPU (the process's minus the client thread's) and client CPU.
    cpu_ms: f64,
    client_cpu_ms: f64,
    /// Spans recorded during the phase (traced phases only).
    events: Option<Vec<Event>>,
}

fn tail_or_zero(xs: &[f64], p: f64) -> f64 {
    tail(xs, p).unwrap_or(0.0)
}

/// Durations (ms) of the spans named `name`, optionally filtered by their
/// `tier` field.
fn span_ms(events: &[Event], name: &str, tier: Option<GeneratorTier>) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Span { dur_us, .. }
                if e.name() == name
                    && tier.is_none_or(|t| e.field("tier") == Some(t.index() as f64)) =>
            {
                Some(ms(*dur_us))
            }
            _ => None,
        })
        .collect()
}

/// Per-layer numbers from a traced phase: the pull-path spans, the
/// transport share of each client pull (client time minus the server's
/// `serve.pull` span for that chunk), and how much of the client's pull
/// time those spans account for.
fn report_spans(report: &mut Report, phase: &Phase) {
    let events = phase.events.as_deref().unwrap_or_default();
    let pull_us: BTreeMap<u64, u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span { ctx, dur_us, .. } if e.name() == "serve.pull" => {
                Some((ctx.trace_id, *dur_us))
            }
            _ => None,
        })
        .collect();
    let (mut transport, mut covered, mut total) = (Vec::new(), 0u64, 0u64);
    for d in &phase.load.deliveries {
        let service = d.done.saturating_sub(d.sent);
        total += service;
        let trace_id = svbr_obsv::trace::chunk_trace_id(d.seed, d.idx);
        if let Some(&pull) = pull_us.get(&trace_id) {
            covered += service;
            transport.push(ms(service.saturating_sub(pull)));
        }
    }
    report.set(
        "serve.transport_ms_p50",
        median(&transport),
        transport.len(),
    );
    report.set(
        "profile.coverage_pct",
        100.0 * covered as f64 / total.max(1) as f64,
        transport.len(),
    );
    let ckpt = span_ms(events, "serve.ckpt", None);
    report.set("serve.ckpt_ms_p50", median(&ckpt), ckpt.len());
    report.set("serve.ckpt_ms_p99", tail_or_zero(&ckpt, 0.99), ckpt.len());
    let wait = span_ms(events, "serve.queue_wait", None);
    report.set("serve.queue_wait_ms_p50", median(&wait), wait.len());
    report.set(
        "serve.queue_wait_ms_p99",
        tail_or_zero(&wait, 0.99),
        wait.len(),
    );
    let exact = span_ms(events, "serve.generate", Some(GeneratorTier::HoskingExact));
    report.set("serve.generate_ms_p50.exact", median(&exact), exact.len());
    report.set(
        "serve.generate_ms_p99.exact",
        tail_or_zero(&exact, 0.99),
        exact.len(),
    );
    let ar = span_ms(events, "serve.generate", Some(GeneratorTier::TruncatedAr));
    report.set("serve.generate_ms_p50.trunc_ar", median(&ar), ar.len());
}

fn server_config(s: &ServeScale, ckpt_dir: std::path::PathBuf) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: s.max_sessions,
        degrade_watermark: s.degrade_watermark,
        buffer_chunks: s.buffer_chunks,
        ckpt_every: 1,
        ckpt_dir: Some(ckpt_dir),
        max_session_samples: s.chunk_len * s.chunks as usize,
        ..ServerConfig::default()
    }
}

/// Set-ups timed back to back for one set-up sample, which is their mean.
/// On a shared virtual machine one ~45 ms set-up takes either its full-speed
/// time or up to half again as long, switching within a second; a median
/// of single set-ups jumps between the two, a median of means does not.
const SETUPS_PER_SAMPLE: usize = 4;

/// Set-up samples: `Server::new` (which prepares the shared ACF table)
/// plus bind. Half are taken before the load and half after it, so the
/// median does not hang on one moment's machine speed.
#[derive(Default)]
struct Setups {
    secs: Vec<f64>,
    table_ms: Vec<f64>,
}

impl Setups {
    /// Take one sample; returns the last server built, bound.
    fn time(&mut self, config: &ServerConfig) -> Result<(Server, TcpListener), String> {
        let mut built = Vec::with_capacity(SETUPS_PER_SAMPLE);
        let (mut table_us, mut total_us) = (0, 0);
        for _ in 0..SETUPS_PER_SAMPLE {
            let clock = Stopwatch::start();
            let server = Server::new(config.clone()).map_err(err)?;
            table_us += clock.elapsed_us();
            let listener = server.bind().map_err(err)?;
            total_us += clock.elapsed_us();
            built.push((server, listener));
        }
        let k = SETUPS_PER_SAMPLE as f64;
        self.table_ms.push(ms(table_us) / k);
        self.secs.push(total_us as f64 / 1e6 / k);
        built.pop().ok_or_else(|| "no set-up ran".to_string())
    }

    fn report(&self, report: &mut Report) {
        report.set("setup_s", median(&self.secs), self.secs.len());
        report.set(
            "serve.table_ms",
            median(&self.table_ms),
            self.table_ms.len(),
        );
    }
}

/// `serve_steady` / `serve_overload`.
pub fn run(cfg: &RunConfig, overload: bool, report: &mut Report) -> Result<(), String> {
    let s = &cfg.scale.serve;
    let ckpt_dir = cfg.scratch.join("ckpt");
    let config = server_config(s, ckpt_dir.clone());
    let mut setups = Setups::default();
    let mut serving = setups.time(&config)?;
    for _ in 1..s.setups {
        serving = setups.time(&config)?;
    }
    let (server, listener) = serving;
    let addr = listener.local_addr().map_err(err)?;
    let server = Arc::new(server);
    let accept = {
        let server = Arc::clone(&server);
        // svbr-lint: allow(no-raw-thread) the server's accept loop runs beside the client for the whole run and is joined after shutdown below
        std::thread::spawn(move || server.serve_on(listener))
    };
    let measured = measure(cfg, overload, addr, &config, report);
    server.request_shutdown();
    match accept.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => report.fail(format!("accept loop: {e}")),
        Err(_) => report.fail("accept loop panicked".into()),
    }
    for _ in 0..s.setups {
        setups.time(&config)?;
    }
    setups.report(report);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    measured
}

fn measure(
    cfg: &RunConfig,
    overload: bool,
    addr: SocketAddr,
    config: &ServerConfig,
    report: &mut Report,
) -> Result<(), String> {
    let s = &cfg.scale.serve;
    let rate = if overload {
        s.overload_rate
    } else {
        s.steady_rate
    };
    // A traced run measures an untraced phase and then a traced one, so it
    // also reports what tracing costs.
    let traced_phases: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let phase_s = cfg.seconds / traced_phases.len() as f64;
    let playout_s = (s.chunks * s.pace_ms) as f64 / 1e3;
    let window_s = (phase_s - playout_s - 0.5).max(0.5);
    let mut phases = Vec::new();
    for (pi, &traced) in traced_phases.iter().enumerate() {
        let plan = schedule(derive_seed(cfg.seed, pi as u64), rate, window_s);
        let capture = traced.then(Capture::start);
        // The server's CPU: the process's minus this (client) thread's.
        let (cpu0, client0) = (proc_cpu_ms()?, thread_cpu_ms()?);
        let clock = Stopwatch::start();
        let load = drive(addr, &plan, s);
        let wall_s = clock.elapsed_secs();
        let client_cpu_ms = thread_cpu_ms()? - client0;
        phases.push(Phase {
            load,
            wall_s,
            cpu_ms: proc_cpu_ms()? - cpu0 - client_cpu_ms,
            client_cpu_ms,
            events: capture.map(Capture::finish),
        });
    }

    // Correctness: every session ended complete or shed; every delivered
    // chunk is byte-identical to its offline replay.
    for phase in &mut phases {
        report.attempted += phase.load.requests;
        for why in std::mem::take(&mut phase.load.failures) {
            report.fail(why);
        }
    }
    let assets = Assets::new(config)?;
    let streams: Vec<&Stream> = phases.iter().flat_map(|p| &p.load.streams).collect();
    let replays = svbr::par::par_map_blocks(streams.len(), cfg.threads, |range| {
        range
            .map(|i| assets.replay(streams[i], s.chunk_len))
            .collect()
    });
    for why in replays.iter().flat_map(|r| &r.mismatches) {
        report.fail(why.clone());
    }
    let loads: Vec<&Load> = phases.iter().map(|p| &p.load).collect();
    let count = |o: Outcome| streams.iter().filter(|st| st.ended == Some(o)).count();
    let (sessions, shed, failed) = (streams.len(), count(Outcome::Shed), count(Outcome::Failed));
    let deliveries: Vec<&Delivery> = loads.iter().flat_map(|l| &l.deliveries).collect();
    let degraded = deliveries
        .iter()
        .filter(|d| d.tier != GeneratorTier::HoskingExact)
        .count();
    // Steady load stays below the degrade watermark: a shed session or a
    // degraded chunk there is a quality loss, and it would otherwise read
    // as a speed-up (shed sessions deliver nothing to time, and degraded
    // chunks cost less CPU).
    if overload {
        report.check(shed > 0 && degraded > 0, || {
            format!("serve_overload shed {shed} sessions and degraded {degraded} chunks")
        });
    } else {
        report.check(shed == 0 && degraded == 0, || {
            format!("serve_steady shed {shed} sessions and degraded {degraded} chunks")
        });
    }

    // End to end, from the untraced phase.
    let base = &phases[0];
    let latency: Vec<f64> = base
        .load
        .deliveries
        .iter()
        .map(Delivery::latency_ms)
        .collect();
    report.set("latency_ms_p50", median(&latency), latency.len());
    let per_chunk = |p: &Phase| p.cpu_ms / p.load.deliveries.len().max(1) as f64;
    report.set("cpu_ms_per_op", per_chunk(base), base.load.deliveries.len());

    // Outcomes over every phase.
    let all_latency: Vec<f64> = deliveries.iter().map(|d| d.latency_ms()).collect();
    let owed = sessions as u64 * s.chunks;
    let on_time = all_latency.iter().filter(|&&l| l <= SLO_MS).count();
    let gather = |f: fn(&Load) -> &Vec<f64>| -> Vec<f64> {
        loads.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let (ttfc, open, lag) = (
        gather(|l| &l.ttfc_ms),
        gather(|l| &l.open_ms),
        gather(|l| &l.lag_ms),
    );
    let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
    let n = deliveries.len();
    report.set(
        "frames_per_s",
        (n * s.chunk_len) as f64 / wall_s.max(1e-9),
        n,
    );
    report.set("ttfc_ms_p90", tail_or_zero(&ttfc, 0.9), ttfc.len());
    report.set("pull_ms_p99", tail_or_zero(&all_latency, 0.99), n);
    report.set(
        "slo_ok_ratio",
        on_time as f64 / owed.max(1) as f64,
        owed as usize,
    );
    report.set("shed_ratio", shed as f64 / sessions.max(1) as f64, sessions);
    report.set("degraded_ratio", degraded as f64 / n.max(1) as f64, n);
    report.set("serve.open_ms_p50", median(&open), open.len());
    report.set("serve.chunks.exact", (n - degraded) as f64, n);
    report.set("serve.chunks.degraded", degraded as f64, n);
    let undelivered: u64 = streams
        .iter()
        .filter(|st| st.ended == Some(Outcome::Failed))
        .map(|st| s.chunks - st.chunks.len() as u64)
        .sum();
    report.set("serve.chunks.failed", undelivered as f64, failed);
    report.set("serve.shed", shed as f64, sessions);
    let active_max = loads.iter().map(|l| l.active_max).max().unwrap_or(0);
    report.set("serve.active_max", active_max as f64, sessions);
    report.set("loadgen.lag_ms_p99", tail_or_zero(&lag, 0.99), lag.len());
    report.set(
        "loadgen.cpu_pct",
        100.0 * base.client_cpu_ms / (base.wall_s * 1e3).max(1e-9),
        base.load.requests as usize,
    );
    let bytes = assets.ckpt_bytes(derive_seed(cfg.seed, u64::MAX), s.chunks, s.chunk_len)?;
    report.set("serve.ckpt_bytes", bytes as f64, 1);
    let fidelity: Vec<[f64; 3]> = replays.iter().filter_map(|r| r.fidelity).collect();
    for (j, name) in ["hurst_abs_err", "acf_l2", "ks_dist"]
        .into_iter()
        .enumerate()
    {
        let mean = fidelity.iter().map(|f| f[j]).sum::<f64>() / fidelity.len().max(1) as f64;
        report.set(name, mean, fidelity.len());
    }

    if let Some(traced) = phases.iter().find(|p| p.events.is_some()) {
        report_spans(report, traced);
        report.set(
            "obsv.trace_overhead_pct",
            100.0 * (per_chunk(traced) / per_chunk(base).max(1e-9) - 1.0),
            traced.load.deliveries.len(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in server that answers opens at once and chunk pulls after
    /// `stall` for chunk 0 and at once otherwise.
    fn stalling_server(stall: Duration, chunk_len: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // svbr-lint: allow(no-raw-thread) test stand-in server; it exits when the test process does
        std::thread::spawn(move || {
            let mut pulls = 0u64;
            for conn in listener.incoming() {
                let mut conn = conn.unwrap();
                let mut buf = [0u8; 1024];
                let mut n = 0;
                while !buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    n += conn.read(&mut buf[n..]).unwrap();
                }
                let req = String::from_utf8_lossy(&buf[..n]).to_string();
                let body = if req.starts_with("GET /open") {
                    "session 1\n".to_string()
                } else if pulls == 3 {
                    "end\n".to_string()
                } else {
                    if pulls == 0 {
                        std::thread::sleep(stall);
                    }
                    let ys = vec![1.0; chunk_len];
                    pulls += 1;
                    encode_chunk(pulls - 1, GeneratorTier::HoskingExact, &ys)
                };
                let head = format!("HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
                conn.write_all(head.as_bytes()).unwrap();
                conn.write_all(body.as_bytes()).unwrap();
            }
        });
        addr
    }

    #[test]
    fn latency_counts_from_due_time_through_a_stall() {
        let s = ServeScale {
            chunks: 3,
            chunk_len: 4,
            pace_ms: 20,
            ..crate::TINY.serve
        };
        let stall = Duration::from_millis(150);
        let addr = stalling_server(stall, s.chunk_len);
        let load = drive(addr, &[(0, 7)], &s);
        assert!(load.failures.is_empty(), "{:?}", load.failures);
        assert_eq!(load.streams[0].ended, Some(Outcome::Complete));
        let d = &load.deliveries;
        assert_eq!(d.len(), 3);
        // Chunk 1 was due 20 ms after arrival but could only be requested
        // once the stalled chunk 0 arrived: its latency counts that wait,
        // though its own request was answered at once.
        assert!(d[0].latency_ms() >= 150.0, "{}", d[0].latency_ms());
        assert!(d[1].latency_ms() >= 150.0 - 20.0, "{}", d[1].latency_ms());
        assert!(ms(d[1].done - d[1].sent) < 100.0);
        assert!(
            d[1].sent >= d[0].done,
            "pulls on one session are sequential"
        );
    }

    #[test]
    fn headers_parse_and_schedules_repeat_per_seed() {
        let body = encode_chunk(5, GeneratorTier::TruncatedAr, &[1.5, 2.5]);
        assert_eq!(
            parse_header(&body),
            Some((5, GeneratorTier::TruncatedAr, 2))
        );
        assert_eq!(parse_header("end\n"), None);
        let a = schedule(9, 10.0, 2.0);
        assert_eq!(a.len(), 20);
        assert_eq!(a, schedule(9, 10.0, 2.0));
        assert_ne!(a, schedule(10, 10.0, 2.0));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
