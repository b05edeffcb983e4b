//! Live SLO and fidelity alerting on flight-recorder window ticks.
//!
//! An [`AlertEngine`] holds typed [`AlertRule`]s and evaluates them every
//! time the flight recorder flushes a window — a *work-count* tick, so the
//! evaluation schedule is deterministic for a fixed seed and never touches
//! the RNG path. Three rule families:
//!
//! * **Latency SLO burn** ([`RuleKind::P95AboveUs`]): the estimated p95 of a
//!   latency histogram (`serve.chunk_us`, `serve.pull_us`) stays above a
//!   threshold for `burn_windows` consecutive windows.
//! * **Shed rate** ([`RuleKind::ShedRateAbove`]): the fraction of admission
//!   decisions refused within one window (`serve.shed` vs `serve.opened`
//!   counter deltas).
//! * **Fidelity sentinels**: per-session running Hurst via the Modified
//!   Allan Variance (Bregni & Primerano's streaming estimator) outside a
//!   band ([`RuleKind::HurstOutside`]), and ACF-L2 drift of the delivered
//!   stream away from its own opening baseline
//!   ([`RuleKind::AcfDriftAbove`]) — both fed by
//!   [`observe_session`] from the session workers.
//!
//! A firing rule emits an [`Event::Alert`] JSONL record, increments
//! `alert.fired{rule}`, and is retained (bounded) for the serve front end's
//! `/alerts` endpoint and for replay into the run manifest's notes. The
//! whole module is `std`-only, panic-free, and a no-op until an engine is
//! installed *and* a sink is enabled; with tracing off nothing here runs,
//! so fixed-seed output stays bit-identical.

use crate::event::Event;
use crate::metrics::Snapshot;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Most sessions tracked by the fidelity sentinels at once; past it new
/// sessions are dropped (counted in `alert.sessions_dropped`) — the same
/// bounded-cardinality discipline as the metric registry.
pub const MAX_SENTINEL_SESSIONS: usize = 64;

/// Samples retained per session for the running estimators (a ring of the
/// most recent deliveries).
const MAX_SENTINEL_SAMPLES: usize = 4096;

/// Minimum samples before the MAVAR Hurst estimate is trusted.
const MAVAR_MIN_SAMPLES: usize = 512;

/// Samples frozen as the ACF drift baseline, and the lag window compared.
const ACF_BASELINE_SAMPLES: usize = 256;
const ACF_MAX_LAG: usize = 32;

/// Fired alerts retained for `/alerts` and manifest replay.
const MAX_FIRED: usize = 256;

/// How loud a rule is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Worth a look; the run is still inside its contract.
    Warning,
    /// The run is violating its SLO or fidelity contract.
    Critical,
}

impl Severity {
    /// Wire name (`"warning"` / `"critical"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// What a rule tests each window.
#[derive(Clone, Debug)]
pub enum RuleKind {
    /// Estimated p95 of the named (unlabeled) histogram above a threshold,
    /// in µs. The estimate carries the registry's factor-of-2 log₂-bucket
    /// bound; thresholds should sit well clear of the SLO line.
    P95AboveUs {
        /// Histogram series name, e.g. `"serve.chunk_us"`.
        series: &'static str,
        /// Burn line in microseconds.
        threshold_us: f64,
    },
    /// Within-window shed fraction `shed / (shed + opened)` above a
    /// threshold (counter deltas between consecutive windows).
    ShedRateAbove {
        /// Maximum acceptable shed fraction in `[0, 1]`.
        threshold: f64,
    },
    /// Per-session running MAVAR Hurst outside `[lo, hi]`.
    HurstOutside {
        /// Lower edge of the acceptable band.
        lo: f64,
        /// Upper edge of the acceptable band.
        hi: f64,
    },
    /// Per-session ACF L2 drift from the session's own opening baseline
    /// above a threshold.
    AcfDriftAbove {
        /// Maximum acceptable L2 distance over the compared lag window.
        threshold: f64,
    },
}

/// One typed alert rule. Rule names are registered in the DESIGN §7c alert
/// table (cross-checked by `tests/registry.rs`).
#[derive(Clone, Debug)]
pub struct AlertRule {
    /// Registered rule name, e.g. `"hurst-band"`.
    pub name: &'static str,
    /// Severity stamped on fired alerts.
    pub severity: Severity,
    /// The test evaluated each window.
    pub kind: RuleKind,
    /// Consecutive breaching windows required before firing (≥ 1). The
    /// rule re-arms once a window clears.
    pub burn_windows: u32,
}

impl AlertRule {
    /// A rule firing on the first breaching window.
    pub fn new(name: &'static str, severity: Severity, kind: RuleKind) -> Self {
        Self {
            name,
            severity,
            kind,
            burn_windows: 1,
        }
    }

    /// Require `windows` consecutive breaches before firing (burn rate).
    pub fn burn(mut self, windows: u32) -> Self {
        self.burn_windows = windows.max(1);
        self
    }
}

/// The serve stack's default rule set, with the fidelity band centered on
/// the target Hurst parameter `h` (the paper's H ≈ 0.9 gives the canonical
/// `[0.85, 0.95]` band).
pub fn default_rules(h: f64) -> Vec<AlertRule> {
    vec![
        AlertRule::new(
            "latency-slo-chunk",
            Severity::Warning,
            RuleKind::P95AboveUs {
                series: "serve.chunk_us",
                threshold_us: 250_000.0,
            },
        )
        .burn(2),
        AlertRule::new(
            "latency-slo-pull",
            Severity::Warning,
            RuleKind::P95AboveUs {
                series: "serve.pull_us",
                threshold_us: 500_000.0,
            },
        )
        .burn(2),
        AlertRule::new(
            "shed-rate",
            Severity::Critical,
            RuleKind::ShedRateAbove { threshold: 0.5 },
        ),
        AlertRule::new(
            "hurst-band",
            Severity::Critical,
            RuleKind::HurstOutside {
                lo: h - 0.05,
                hi: h + 0.05,
            },
        ),
        AlertRule::new(
            "acf-drift",
            Severity::Warning,
            RuleKind::AcfDriftAbove { threshold: 1.0 },
        ),
    ]
}

/// One fired alert: what fired, on which series, observed vs threshold, and
/// in which flight-recorder window.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// Rule name (DESIGN §7c alert table).
    pub rule: String,
    /// Rule severity.
    pub severity: Severity,
    /// The series that breached (`serve.chunk_us`,
    /// `session-3.mavar_hurst`, ...).
    pub series: String,
    /// Observed value at fire time.
    pub observed: f64,
    /// The threshold (for band rules: the violated edge).
    pub threshold: f64,
    /// Flight-recorder window ordinal the breach completed in.
    pub window: u64,
}

impl Alert {
    /// The `Event::Alert` wire form of this alert.
    pub fn to_event(&self) -> Event {
        Event::Alert {
            rule: self.rule.clone(),
            severity: self.severity.as_str().to_string(),
            series: self.series.clone(),
            observed: self.observed,
            threshold: self.threshold,
            window: self.window,
        }
    }

    /// One-line manifest-note form.
    pub fn note(&self) -> String {
        format!(
            "alert: {} ({}) on {} — observed {:.6}, threshold {:.6}, window {}",
            self.rule,
            self.severity.as_str(),
            self.series,
            self.observed,
            self.threshold,
            self.window
        )
    }
}

/// Per-session fidelity sentinel state.
#[derive(Debug, Default)]
struct SessionSentinel {
    /// Most recent samples (ring, capacity [`MAX_SENTINEL_SAMPLES`]).
    recent: VecDeque<f64>,
    /// Opening samples frozen as the ACF drift baseline.
    opening: Vec<f64>,
    /// ACF of `opening`, computed once it is full.
    baseline_acf: Option<Vec<f64>>,
    /// Total samples observed (beyond the ring).
    total: u64,
}

impl SessionSentinel {
    fn observe(&mut self, samples: &[f64]) {
        for &y in samples {
            if !y.is_finite() {
                continue;
            }
            if self.opening.len() < ACF_BASELINE_SAMPLES {
                self.opening.push(y);
                if self.opening.len() == ACF_BASELINE_SAMPLES {
                    self.baseline_acf = sample_acf(&self.opening, ACF_MAX_LAG);
                }
            }
            if self.recent.len() == MAX_SENTINEL_SAMPLES {
                self.recent.pop_front();
            }
            self.recent.push_back(y);
            self.total += 1;
        }
    }
}

#[derive(Debug, Default)]
struct EngineState {
    /// Previous window's snapshot, for counter deltas.
    prev: Option<Snapshot>,
    /// Consecutive-breach counters keyed by `rule\u{1f}series`.
    breach: BTreeMap<String, u32>,
    /// Keys currently latched (fired, not yet cleared) — a sustained
    /// breach fires once, not once per window.
    latched: BTreeSet<String>,
    /// Per-session fidelity sentinels.
    sessions: BTreeMap<u64, SessionSentinel>,
    /// Fired alerts, oldest first (bounded).
    fired: Vec<Alert>,
}

/// Evaluates alert rules on window ticks. Install process-wide with
/// [`install_alerts`]; feed fidelity sentinels with [`observe_session`].
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    state: Mutex<EngineState>,
}

impl AlertEngine {
    /// An engine with the given rules.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        Self {
            rules,
            state: Mutex::new(EngineState::default()),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Record delivered samples for a session's fidelity sentinels.
    pub fn observe_session(&self, session: u64, samples: &[f64]) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !st.sessions.contains_key(&session) && st.sessions.len() >= MAX_SENTINEL_SESSIONS {
            crate::counter("alert.sessions_dropped").add(1);
            return;
        }
        st.sessions.entry(session).or_default().observe(samples);
    }

    /// Stop tracking a closed session.
    pub fn forget_session(&self, session: u64) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.sessions.remove(&session);
    }

    /// Fired alerts so far, oldest first.
    pub fn fired(&self) -> Vec<Alert> {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.fired.clone()
    }

    /// Evaluate every rule against the window `seq` snapshot. Called by the
    /// flight recorder on each flush; callable directly in tests.
    pub fn evaluate(&self, seq: u64, snap: &Snapshot) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut observations: Vec<(usize, String, f64, f64, bool)> = Vec::new();
        for (ri, rule) in self.rules.iter().enumerate() {
            match &rule.kind {
                RuleKind::P95AboveUs {
                    series,
                    threshold_us,
                } => {
                    let p95 = snap
                        .histograms
                        .iter()
                        .find(|(name, _)| name == series)
                        .map(|(_, h)| h.quantile(0.95));
                    if let Some(p95) = p95 {
                        observations.push((
                            ri,
                            series.to_string(),
                            p95,
                            *threshold_us,
                            p95 > *threshold_us,
                        ));
                    }
                }
                RuleKind::ShedRateAbove { threshold } => {
                    let delta = |name: &str| {
                        let now = snap.counter(name).unwrap_or(0);
                        let before = st.prev.as_ref().and_then(|p| p.counter(name)).unwrap_or(0);
                        now.saturating_sub(before)
                    };
                    let shed = delta("serve.shed");
                    let opened = delta("serve.opened");
                    let decisions = shed + opened;
                    if decisions > 0 {
                        let rate = shed as f64 / decisions as f64;
                        observations.push((
                            ri,
                            "serve.shed".to_string(),
                            rate,
                            *threshold,
                            rate > *threshold,
                        ));
                    }
                }
                RuleKind::HurstOutside { lo, hi } => {
                    for (id, sentinel) in &st.sessions {
                        if sentinel.recent.len() < MAVAR_MIN_SAMPLES {
                            continue;
                        }
                        let xs: Vec<f64> = sentinel.recent.iter().copied().collect();
                        let Some(h) = mavar_hurst(&xs) else { continue };
                        let id_label = id.to_string();
                        crate::gauge_with("alert.hurst", &[("session", &id_label)]).set(h);
                        let (breached, edge) = if h < *lo {
                            (true, *lo)
                        } else if h > *hi {
                            (true, *hi)
                        } else {
                            (false, *lo)
                        };
                        observations.push((
                            ri,
                            format!("session-{id}.mavar_hurst"),
                            h,
                            edge,
                            breached,
                        ));
                    }
                }
                RuleKind::AcfDriftAbove { threshold } => {
                    for (id, sentinel) in &st.sessions {
                        let Some(baseline) = &sentinel.baseline_acf else {
                            continue;
                        };
                        let xs: Vec<f64> = sentinel.recent.iter().copied().collect();
                        let Some(current) = sample_acf(&xs, ACF_MAX_LAG) else {
                            continue;
                        };
                        let drift = acf_l2(baseline, &current);
                        let id_label = id.to_string();
                        crate::gauge_with("alert.acf_l2", &[("session", &id_label)]).set(drift);
                        observations.push((
                            ri,
                            format!("session-{id}.acf_l2"),
                            drift,
                            *threshold,
                            drift > *threshold,
                        ));
                    }
                }
            }
        }
        for (ri, series, observed, threshold, breached) in observations {
            let Some(rule) = self.rules.get(ri) else {
                continue;
            };
            let key = format!("{}\u{1f}{series}", rule.name);
            if !breached {
                st.breach.remove(&key);
                st.latched.remove(&key);
                continue;
            }
            let count = st.breach.entry(key.clone()).or_insert(0);
            *count = count.saturating_add(1);
            if *count < rule.burn_windows || st.latched.contains(&key) {
                continue;
            }
            st.latched.insert(key);
            let alert = Alert {
                rule: rule.name.to_string(),
                severity: rule.severity,
                series,
                observed,
                threshold,
                window: seq,
            };
            crate::counter_with("alert.fired", &[("rule", rule.name)]).add(1);
            crate::emit(alert.to_event());
            if st.fired.len() < MAX_FIRED {
                st.fired.push(alert);
            }
        }
        st.prev = Some(snap.clone());
    }
}

static ALERTS: RwLock<Option<Arc<AlertEngine>>> = RwLock::new(None);

/// Install an alert engine process-wide (evaluated on every flight-recorder
/// window flush). Returns the handle.
pub fn install_alerts(rules: Vec<AlertRule>) -> Arc<AlertEngine> {
    let engine = Arc::new(AlertEngine::new(rules));
    let mut slot = ALERTS.write().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(engine.clone());
    engine
}

/// Remove and return the installed alert engine, if any.
pub fn uninstall_alerts() -> Option<Arc<AlertEngine>> {
    let mut slot = ALERTS.write().unwrap_or_else(PoisonError::into_inner);
    slot.take()
}

/// The installed alert engine, if any.
pub fn alerts_handle() -> Option<Arc<AlertEngine>> {
    let slot = ALERTS.read().unwrap_or_else(PoisonError::into_inner);
    slot.clone()
}

/// Feed delivered samples to the installed engine's fidelity sentinels.
/// A relaxed load + no-op when disabled or no engine is installed.
pub fn observe_session(session: u64, samples: &[f64]) {
    if !crate::enabled() {
        return;
    }
    if let Some(engine) = alerts_handle() {
        engine.observe_session(session, samples);
    }
}

/// Stop tracking a closed session (no-op without an engine).
pub fn forget_session(session: u64) {
    if let Some(engine) = alerts_handle() {
        engine.forget_session(session);
    }
}

/// Fired alerts from the installed engine (empty without one).
pub fn fired() -> Vec<Alert> {
    alerts_handle().map(|e| e.fired()).unwrap_or_default()
}

/// Flight-recorder hook: evaluate the installed engine on a flushed window.
pub(crate) fn on_window(seq: u64, snap: &Snapshot) {
    if let Some(engine) = alerts_handle() {
        engine.evaluate(seq, snap);
    }
}

/// Empirical ACF of `xs` over lags `1..=max_lag` (biased estimator, n in
/// the denominator). `None` when too short or degenerate (zero variance).
fn sample_acf(xs: &[f64], max_lag: usize) -> Option<Vec<f64>> {
    if xs.len() < max_lag + 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    if !var.is_finite() || var <= 0.0 {
        return None;
    }
    let mut acf = Vec::with_capacity(max_lag);
    for k in 1..=max_lag {
        let c = xs
            .iter()
            .zip(xs.iter().skip(k))
            .map(|(a, b)| (a - mean) * (b - mean))
            .sum::<f64>()
            / n
            / var;
        acf.push(c);
    }
    Some(acf)
}

/// L2 distance between two ACF vectors over their common lag window.
fn acf_l2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Running Hurst estimate of a stationary series via the Modified Allan
/// Variance (Bregni & Primerano). The series is treated as phase data
/// `x_i`; for an LRD process with Hurst `H` the MAVAR follows a `τ^μ`
/// power law with `μ = 2H − 4`, so the log-log slope over octave
/// averaging factors gives `H = (μ + 4) / 2`. White noise lands at
/// `H ≈ 0.5`, the paper's VBR target at `H ≈ 0.9`. `None` when the series
/// is too short or degenerate.
pub fn mavar_hurst(xs: &[f64]) -> Option<f64> {
    let n_total = xs.len();
    if n_total < 32 {
        return None;
    }
    // MAVAR at octave averaging factors n = 1, 2, 4, …, while at least 8
    // sliding windows remain: Mod σ²(n) =
    //   Σ_j [Σ_{i=j}^{j+n-1} (x_{i+2n} − 2 x_{i+n} + x_i)]²
    //   / (2 n⁴ (N − 3n + 1)).
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut n = 1usize;
    while n_total >= 3 * n + 8 {
        let windows = n_total - 3 * n + 1;
        // Second differences at stride n, then an O(N) sliding inner sum.
        let d: Vec<f64> = (0..n_total - 2 * n)
            .map(|i| xs[i + 2 * n] - 2.0 * xs[i + n] + xs[i])
            .collect();
        let mut inner: f64 = d.iter().take(n).sum();
        let mut total = inner * inner;
        for j in 1..windows {
            inner += d[j + n - 1] - d[j - 1];
            total += inner * inner;
        }
        let n_f = n as f64;
        let mavar = total / (2.0 * n_f.powi(4) * windows as f64);
        if mavar.is_finite() && mavar > 0.0 {
            points.push((n_f.log2(), mavar.log2()));
        }
        n *= 2;
    }
    // The τ^μ asymptote holds for large n: drop the two finest octaves when
    // enough remain, and require at least 3 points to fit a slope.
    if points.len() >= 5 {
        points.drain(..2);
    }
    if points.len() < 3 {
        return None;
    }
    let m = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = m * sxx - sx * sx;
    if !denom.is_normal() {
        return None;
    }
    let slope = (m * sxy - sx * sy) / denom;
    let h = (slope + 4.0) / 2.0;
    h.is_finite().then_some(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    /// Deterministic standard-normal-ish stream for tests (SplitMix64 +
    /// Box–Muller-free sum-of-uniforms; good enough for slope tests).
    fn noise(seed: u64, n: usize) -> Vec<f64> {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                // Irwin–Hall(12) − 6 ≈ N(0, 1).
                (0..12).map(|_| next()).sum::<f64>() - 6.0
            })
            .collect()
    }

    #[test]
    fn mavar_hurst_white_noise_is_half() {
        let xs = noise(7, 8192);
        let h = mavar_hurst(&xs).expect("estimate");
        assert!((0.38..=0.62).contains(&h), "white noise H estimate {h}");
    }

    #[test]
    fn mavar_hurst_random_walk_slope() {
        // A random walk is white FM noise: MAVAR slope −1 ⇒ (μ+4)/2 = 1.5.
        let steps = noise(11, 8192);
        let mut acc = 0.0;
        let xs: Vec<f64> = steps
            .iter()
            .map(|s| {
                acc += s;
                acc
            })
            .collect();
        let h = mavar_hurst(&xs).expect("estimate");
        assert!((1.3..=1.7).contains(&h), "random-walk pseudo-H {h}");
    }

    #[test]
    fn mavar_hurst_degenerate_inputs_are_none() {
        assert_eq!(mavar_hurst(&[]), None);
        assert_eq!(mavar_hurst(&[1.0; 16]), None);
        assert_eq!(mavar_hurst(&[2.5; 4096]), None, "zero variance");
    }

    #[test]
    fn latency_rule_fires_after_burn_windows_and_latches() {
        let engine = AlertEngine::new(vec![AlertRule::new(
            "latency-slo-chunk",
            Severity::Warning,
            RuleKind::P95AboveUs {
                series: "serve.chunk_us",
                threshold_us: 1000.0,
            },
        )
        .burn(2)]);
        let reg = Registry::new();
        let h = reg.histogram("serve.chunk_us");
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let snap = reg.snapshot();
        engine.evaluate(0, &snap);
        assert!(
            engine.fired().is_empty(),
            "burn=2 must not fire on window 0"
        );
        engine.evaluate(1, &snap);
        let fired = engine.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "latency-slo-chunk");
        assert_eq!(fired[0].window, 1);
        assert!(fired[0].observed > fired[0].threshold);
        // Latched: a sustained breach fires once…
        engine.evaluate(2, &snap);
        assert_eq!(engine.fired().len(), 1);
        // …until a clear window re-arms it.
        let clear = Registry::new();
        let h2 = clear.histogram("serve.chunk_us");
        h2.record(1);
        let clear_snap = clear.snapshot();
        engine.evaluate(3, &clear_snap);
        engine.evaluate(4, &snap);
        engine.evaluate(5, &snap);
        assert_eq!(engine.fired().len(), 2, "re-armed after a clear window");
    }

    #[test]
    fn shed_rate_uses_window_deltas() {
        let engine = AlertEngine::new(vec![AlertRule::new(
            "shed-rate",
            Severity::Critical,
            RuleKind::ShedRateAbove { threshold: 0.5 },
        )]);
        let reg = Registry::new();
        reg.counter("serve.shed").add(1);
        reg.counter("serve.opened").add(9);
        engine.evaluate(0, &reg.snapshot());
        assert!(engine.fired().is_empty(), "10% shed is under the line");
        // Next window: 3 sheds vs 1 open → 75%.
        reg.counter("serve.shed").add(3);
        reg.counter("serve.opened").add(1);
        engine.evaluate(1, &reg.snapshot());
        let fired = engine.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "shed-rate");
        assert!((fired[0].observed - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hurst_sentinel_flags_white_noise_session() {
        let engine = AlertEngine::new(vec![AlertRule::new(
            "hurst-band",
            Severity::Critical,
            RuleKind::HurstOutside { lo: 0.85, hi: 0.95 },
        )]);
        engine.observe_session(3, &noise(5, 2048));
        engine.evaluate(0, &Snapshot::default());
        let fired = engine.fired();
        assert_eq!(fired.len(), 1, "white noise sits far below H=0.85");
        assert_eq!(fired[0].rule, "hurst-band");
        assert_eq!(fired[0].series, "session-3.mavar_hurst");
        assert!(fired[0].observed < 0.85);
        assert_eq!(fired[0].severity, Severity::Critical);
        // Forgotten sessions stop evaluating.
        engine.forget_session(3);
        engine.evaluate(1, &Snapshot::default());
        assert_eq!(engine.fired().len(), 1);
    }

    #[test]
    fn acf_drift_fires_when_correlation_structure_changes() {
        let engine = AlertEngine::new(vec![AlertRule::new(
            "acf-drift",
            Severity::Warning,
            RuleKind::AcfDriftAbove { threshold: 1.0 },
        )]);
        // Baseline: strongly correlated (slow sine + small noise)…
        let n = 2048;
        let base: Vec<f64> = (0..n).map(|i| (i as f64 / 40.0).sin() * 3.0).collect();
        engine.observe_session(1, &base);
        engine.evaluate(0, &Snapshot::default());
        assert!(engine.fired().is_empty(), "no drift against itself");
        // …then the stream turns into white noise.
        engine.observe_session(1, &noise(9, 4096));
        engine.evaluate(1, &Snapshot::default());
        let fired = engine.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "acf-drift");
        assert!(fired[0].observed > 1.0);
    }

    #[test]
    fn sentinel_session_cap_is_enforced() {
        let engine = AlertEngine::new(Vec::new());
        for id in 0..(MAX_SENTINEL_SESSIONS as u64 + 8) {
            engine.observe_session(id, &[1.0, 2.0]);
        }
        let st = engine.state.lock().unwrap();
        assert_eq!(st.sessions.len(), MAX_SENTINEL_SESSIONS);
    }

    #[test]
    fn default_rules_center_the_band_on_h() {
        let rules = default_rules(0.9);
        let band = rules.iter().find(|r| r.name == "hurst-band").expect("band");
        match band.kind {
            RuleKind::HurstOutside { lo, hi } => {
                assert!((lo - 0.85).abs() < 1e-12 && (hi - 0.95).abs() < 1e-12);
            }
            ref other => panic!("unexpected kind {other:?}"),
        }
        // Every default rule name must be in the DESIGN §7c alert table;
        // `tests/registry.rs` cross-checks the real table.
        let names: Vec<&str> = rules.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "latency-slo-chunk",
                "latency-slo-pull",
                "shed-rate",
                "hurst-band",
                "acf-drift"
            ]
        );
    }
}
