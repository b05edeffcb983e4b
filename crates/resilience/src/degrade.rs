//! The graceful-degradation ladder for the generator hot path.
//!
//! Tier 0 is Hosking's exact O(n²) recursion; tier 1 freezes the
//! regression at the order the exact tier reached (an AR(M) continuation,
//! O(M) per step);
//! tier 2 is Davies–Harte circulant embedding per block (O(n log n), exact
//! marginal/ACF within a block but independent across blocks). Paxson's
//! fast-approximate-fGn argument applies: when the exact generator cannot
//! meet the budget, an approximate generator with a *recorded* accuracy
//! caveat beats both a dead run and a silent approximation.
//!
//! The ladder itself is a tiny state machine; the chunk generator
//! (`svbr_serve::generate_chunk`, which serve sessions and `repro
//! resilience` share) runs each tier, and its callers consult the ladder
//! when deadline pressure, a failed chunk or overload demands a cheaper
//! tier.
//! Every transition is stamped into the obsv metrics (`resilience.tier`)
//! and the event log, and the runner records the achieved ACF error of
//! the tier it finished on.

use crate::record_event;
use svbr_lrd::acf::{Acf, TabulatedAcf};
use svbr_lrd::hosking::regularize_to_pd;
use svbr_lrd::LrdError;

/// The generator tiers, cheapest-to-run last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum GeneratorTier {
    /// Hosking's exact Durbin–Levinson recursion (O(n²) total).
    #[default]
    HoskingExact,
    /// Truncated AR(M) continuation of the exact recursion (O(M)/step).
    TruncatedAr,
    /// Davies–Harte circulant embedding per block (O(n log n)).
    DaviesHarte,
}

impl GeneratorTier {
    /// Stable numeric index (0 = exact) for metrics and checkpoints.
    pub fn index(self) -> u64 {
        match self {
            GeneratorTier::HoskingExact => 0,
            GeneratorTier::TruncatedAr => 1,
            GeneratorTier::DaviesHarte => 2,
        }
    }

    /// Rebuild from a checkpointed index.
    pub fn from_index(i: u64) -> Option<Self> {
        match i {
            0 => Some(GeneratorTier::HoskingExact),
            1 => Some(GeneratorTier::TruncatedAr),
            2 => Some(GeneratorTier::DaviesHarte),
            _ => None,
        }
    }

    /// Human-readable tier name (manifest annotations).
    pub fn name(self) -> &'static str {
        match self {
            GeneratorTier::HoskingExact => "hosking-exact",
            GeneratorTier::TruncatedAr => "truncated-ar",
            GeneratorTier::DaviesHarte => "davies-harte",
        }
    }

    /// The next cheaper tier, if any.
    pub fn cheaper(self) -> Option<Self> {
        match self {
            GeneratorTier::HoskingExact => Some(GeneratorTier::TruncatedAr),
            GeneratorTier::TruncatedAr => Some(GeneratorTier::DaviesHarte),
            GeneratorTier::DaviesHarte => None,
        }
    }
}

/// One recorded tier transition.
#[derive(Debug, Clone)]
pub struct DegradeEvent {
    /// Tier before the transition.
    pub from: GeneratorTier,
    /// Tier after the transition.
    pub to: GeneratorTier,
    /// Why the ladder stepped down.
    pub reason: String,
}

/// The ladder's typed terminal error: a step-down was demanded with no
/// cheaper tier left. Carries the full per-rung failure history so the
/// caller can surface *why* every tier was abandoned, not a generic abort.
#[derive(Debug, Clone)]
pub struct LadderExhausted {
    /// The (cheapest) tier the ladder was stuck on.
    pub tier: GeneratorTier,
    /// The reason of the final, unsatisfiable step-down request.
    pub last_reason: String,
    /// Every transition taken before exhaustion, in order.
    pub history: Vec<DegradeEvent>,
}

impl std::fmt::Display for LadderExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generator ladder exhausted at `{}` ({})",
            self.tier.name(),
            self.last_reason
        )?;
        for ev in &self.history {
            write!(
                f,
                "; {} -> {} ({})",
                ev.from.name(),
                ev.to.name(),
                ev.reason
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for LadderExhausted {}

/// The degradation state machine: current tier plus transition history.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    tier: GeneratorTier,
    events: Vec<DegradeEvent>,
}

impl Ladder {
    /// A ladder starting at the exact tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// A ladder resumed at a checkpointed tier.
    pub fn from_tier(tier: GeneratorTier) -> Self {
        Self {
            tier,
            events: Vec::new(),
        }
    }

    /// The current tier.
    pub fn tier(&self) -> GeneratorTier {
        self.tier
    }

    /// Transitions recorded so far.
    pub fn events(&self) -> &[DegradeEvent] {
        &self.events
    }

    /// Step down one tier because of `reason`. Returns the new tier, or
    /// `None` when already at the cheapest tier (the caller must then
    /// surface a hard error — there is nothing left to degrade to).
    ///
    /// Every transition is reported: `resilience.tier` gauge,
    /// `resilience.degrade` counter + point, and an event-log line the
    /// run driver folds into the manifest notes.
    pub fn degrade(&mut self, reason: &str) -> Option<GeneratorTier> {
        self.degrade_traced(reason, 0)
    }

    /// [`Ladder::degrade`] with a causal trace id: when `trace_id` is
    /// nonzero (tracing on), the recorded reason carries a
    /// `[trace <id:016x>]` suffix so a manifest note or event-log line can
    /// be joined back to the exact chunk's span tree. With `trace_id == 0`
    /// the emitted text is byte-identical to the untraced form.
    pub fn degrade_traced(&mut self, reason: &str, trace_id: u64) -> Option<GeneratorTier> {
        let from = self.tier;
        let to = from.cheaper()?;
        self.tier = to;
        svbr_obsv::counter("resilience.degrades").add(1);
        svbr_obsv::gauge("resilience.tier").set(to.index() as f64);
        svbr_obsv::point(
            "resilience.degrade",
            &[("from", from.index() as f64), ("to", to.index() as f64)],
        );
        let reason = tag_trace(reason, trace_id);
        record_event(format!(
            "degraded: generator tier {} -> {} ({reason})",
            from.name(),
            to.name()
        ));
        self.events.push(DegradeEvent { from, to, reason });
        Some(to)
    }

    /// Step down like [`Ladder::degrade`], but make the terminal case a
    /// typed [`LadderExhausted`] carrying the full per-rung history.
    /// Exhaustion is counted (`resilience.ladder_exhausted`) and written to
    /// the event log, so run drivers that fold [`crate::drain_events`] into
    /// the manifest record the complete failure trail automatically.
    pub fn degrade_or_exhaust(&mut self, reason: &str) -> Result<GeneratorTier, LadderExhausted> {
        self.degrade_or_exhaust_traced(reason, 0)
    }

    /// [`Ladder::degrade_or_exhaust`] with a causal trace id (see
    /// [`Ladder::degrade_traced`] for the tagging contract).
    pub fn degrade_or_exhaust_traced(
        &mut self,
        reason: &str,
        trace_id: u64,
    ) -> Result<GeneratorTier, LadderExhausted> {
        if let Some(to) = self.degrade_traced(reason, trace_id) {
            return Ok(to);
        }
        let err = LadderExhausted {
            tier: self.tier,
            last_reason: tag_trace(reason, trace_id),
            history: self.events.clone(),
        };
        svbr_obsv::counter("resilience.ladder_exhausted").add(1);
        record_event(format!("exhausted: {err}"));
        Err(err)
    }
}

/// Append a ` [trace <id:016x>]` suffix for nonzero trace ids; identity for
/// id 0 so untraced runs keep byte-identical event text.
fn tag_trace(reason: &str, trace_id: u64) -> String {
    if trace_id == 0 {
        reason.to_string()
    } else {
        format!("{reason} [trace {trace_id:016x}]")
    }
}

/// Prepare a positive-definite ACF table for the generator, repairing a
/// non-PD input by geometric damping when necessary (the `lrd` fallback of
/// the resilience ladder). The applied shrink is returned and — when
/// nonzero — recorded as an accuracy caveat.
pub fn prepare_table<A: Acf>(acf: A, n: usize) -> Result<(TabulatedAcf, f64), LrdError> {
    let (table, shrink) = regularize_to_pd(acf, n)?;
    if shrink > 0.0 {
        svbr_obsv::counter("resilience.acf_regularized").add(1);
        svbr_obsv::gauge("resilience.acf_shrink").set(shrink);
        record_event(format!(
            "regularized: non-PD ACF repaired with geometric damping, shrink {shrink:.3e}"
        ));
    }
    Ok((table, shrink))
}

/// Mean absolute error between the sample ACF of `xs` and a target ACF
/// over lags `1..=max_lag` — the measured accuracy of whatever tier
/// actually generated `xs`, stamped into the manifest.
pub fn sample_acf_error<A: Acf>(xs: &[f64], target: A, max_lag: usize) -> f64 {
    if xs.len() < 2 || max_lag == 0 {
        return f64::NAN;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    if var <= 0.0 {
        return f64::NAN;
    }
    let max_lag = max_lag.min(xs.len() - 1);
    let mut err = 0.0;
    for k in 1..=max_lag {
        let c = xs
            .iter()
            .zip(xs.iter().skip(k))
            .map(|(a, b)| (a - mean) * (b - mean))
            .sum::<f64>()
            / n
            / var;
        err += (c - target.r(k)).abs();
    }
    err / max_lag as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use svbr_lrd::acf::FgnAcf;

    #[test]
    fn ladder_walks_down_and_stops() {
        let mut ladder = Ladder::new();
        assert_eq!(ladder.tier(), GeneratorTier::HoskingExact);
        assert_eq!(ladder.degrade("deadline"), Some(GeneratorTier::TruncatedAr));
        assert_eq!(ladder.degrade("non-PD"), Some(GeneratorTier::DaviesHarte));
        assert_eq!(ladder.degrade("still slow"), None, "bottom of the ladder");
        assert_eq!(ladder.events().len(), 2);
        assert_eq!(ladder.events()[0].reason, "deadline");
    }

    #[test]
    fn exhausted_ladder_returns_typed_error_with_full_history() {
        let mut ladder = Ladder::new();
        let t1 = ladder.degrade_or_exhaust("deadline pressure");
        assert!(matches!(t1, Ok(GeneratorTier::TruncatedAr)), "{t1:?}");
        let t2 = ladder.degrade_or_exhaust("still too slow");
        assert!(matches!(t2, Ok(GeneratorTier::DaviesHarte)), "{t2:?}");
        let before = svbr_obsv::counter("resilience.ladder_exhausted").get();
        let err = match ladder.degrade_or_exhaust("chunk 3 deadline") {
            Ok(t) => panic!("bottom rung must not degrade further, got {t:?}"),
            Err(e) => e,
        };
        assert_eq!(err.tier, GeneratorTier::DaviesHarte);
        assert_eq!(err.last_reason, "chunk 3 deadline");
        assert_eq!(err.history.len(), 2, "both prior rungs in the history");
        assert_eq!(err.history[0].reason, "deadline pressure");
        assert_eq!(err.history[1].reason, "still too slow");
        let msg = err.to_string();
        assert!(msg.contains("hosking-exact -> truncated-ar (deadline pressure)"));
        assert!(msg.contains("truncated-ar -> davies-harte (still too slow)"));
        assert!(
            svbr_obsv::counter("resilience.ladder_exhausted").get() > before,
            "exhaustion must be counted"
        );
        // The ladder itself is unchanged: still parked on the bottom rung.
        assert_eq!(ladder.tier(), GeneratorTier::DaviesHarte);
        assert_eq!(ladder.events().len(), 2);
    }

    #[test]
    fn exhaustion_records_manifest_event_with_per_rung_reasons() {
        let mut ladder = Ladder::from_tier(GeneratorTier::TruncatedAr);
        let _ = ladder.degrade_or_exhaust("watermark crossed");
        let err = ladder
            .degrade_or_exhaust("final budget blown")
            .expect_err("davies-harte is the last rung");
        assert_eq!(err.history.len(), 1);
        // record_event feeds RunManifest notes via drain_events; the log is
        // process-wide, so scan rather than compare exactly.
        let events = crate::drain_events();
        assert!(
            events.iter().any(|e| {
                e.starts_with("exhausted:")
                    && e.contains("final budget blown")
                    && e.contains("truncated-ar -> davies-harte (watermark crossed)")
            }),
            "exhaustion event with per-rung history must be logged: {events:?}"
        );
    }

    #[test]
    fn traced_degrade_tags_the_reason_and_zero_is_identity() {
        let mut traced = Ladder::new();
        assert_eq!(
            traced.degrade_traced("deadline", 0xabcd),
            Some(GeneratorTier::TruncatedAr)
        );
        assert_eq!(
            traced.events()[0].reason,
            "deadline [trace 000000000000abcd]"
        );
        // trace id 0 (tracing off) must leave the text byte-identical.
        let mut plain = Ladder::new();
        let _ = plain.degrade_traced("deadline", 0);
        assert_eq!(plain.events()[0].reason, "deadline");
        // The typed exhaustion error carries the tag too.
        let mut bottom = Ladder::from_tier(GeneratorTier::DaviesHarte);
        let err = bottom
            .degrade_or_exhaust_traced("budget blown", 0x1f)
            .expect_err("bottom rung");
        assert!(err.last_reason.ends_with("[trace 000000000000001f]"));
    }

    #[test]
    fn tier_index_roundtrip() {
        for tier in [
            GeneratorTier::HoskingExact,
            GeneratorTier::TruncatedAr,
            GeneratorTier::DaviesHarte,
        ] {
            assert_eq!(GeneratorTier::from_index(tier.index()), Some(tier));
        }
        assert_eq!(GeneratorTier::from_index(3), None);
    }

    #[test]
    fn prepare_table_passes_pd_through() -> Result<(), LrdError> {
        let acf = FgnAcf::new(0.8)?;
        let (table, shrink) = prepare_table(acf, 32)?;
        assert!(shrink.abs() < 1e-15);
        assert!((table.r(1) - acf.r(1)).abs() < 1e-15);
        Ok(())
    }

    #[test]
    fn prepare_table_repairs_and_reports_non_pd() -> Result<(), LrdError> {
        crate::drain_events();
        let bad = TabulatedAcf::new(vec![1.0, 0.99])?;
        let (_, shrink) = prepare_table(bad, 16)?;
        assert!(shrink > 0.0);
        let events = crate::drain_events();
        assert!(
            events.iter().any(|e| e.contains("regularized")),
            "repair must be recorded: {events:?}"
        );
        Ok(())
    }

    #[test]
    fn acf_error_is_small_for_matching_process() {
        // White noise against the H = 0.5 (uncorrelated) target.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut normal = svbr_lrd::gauss::Normal::new();
        let xs: Vec<f64> = (0..20_000).map(|_| normal.sample(&mut rng)).collect();
        let acf = match FgnAcf::new(0.5) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        };
        let err = sample_acf_error(&xs, acf, 20);
        assert!(err < 0.02, "white-noise ACF error {err}");
        // Degenerate inputs are NaN, not a wrong number.
        assert!(sample_acf_error(&[1.0], acf, 5).is_nan());
        assert!(sample_acf_error(&[2.0, 2.0, 2.0], acf, 2).is_nan());
    }
}
