//! `resilience` — the supervised, checkpointable reference run.
//!
//! A chunked generation → transform → queue pipeline driven entirely from
//! explicit state: the random generator, the polar normal sampler, the
//! Hosking φ/v recursion, the Lindley backlog, partial moment sums and the
//! per-chunk result rows. Each chunk executes under a
//! [`Supervisor`] (`catch_unwind` + retry budget + optional wall-clock
//! deadline); a retried attempt restarts from a clone of the committed
//! state, so recovery is bit-identical to never having failed. After every
//! committed chunk the state is written atomically to the checkpoint path,
//! and `repro --resume <ckpt>` continues a killed run to byte-identical
//! final CSVs — the CI kill-and-resume job asserts exactly that.
//!
//! The background comes from svbr-serve's chunk generator
//! ([`svbr_serve::generate_chunk`]) and its generation state
//! ([`GenState`]), so this run and a served stream share one
//! implementation of every tier. Like a served session, the checkpoint
//! holds only the generation cursor ([`GenCursor::write_into`]) and the
//! model key; resume replays the background up to the cursor. The
//! generator walks the degradation ladder (Hosking exact → truncated AR on
//! the last p samples → Davies–Harte per-chunk blocks) under deadline
//! pressure; the chosen tier and its measured ACF error are stamped into
//! the metrics and the run manifest. Fault points (`chunk`, `arrivals`,
//! `acf`, `is`) are probed so a [`svbr_resilience::FaultPlan`] can
//! deterministically exercise every recovery path.

use crate::Csv;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;
use svbr::lrd::acf::{Acf, FgnAcf, TabulatedAcf};
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::{Lognormal, Marginal};
use svbr::queue::{validate_arrivals, LindleyQueue};
use svbr_resilience::checkpoint::Checkpoint;
use svbr_resilience::degrade::{prepare_table, sample_acf_error, GeneratorTier, Ladder};
use svbr_resilience::fault::{self, FaultKind};
use svbr_resilience::record_event;
use svbr_resilience::supervisor::{Deadline, RetryPolicy, Supervisor};
use svbr_serve::{generate_chunk, GenCursor, GenState, ModelKey};

type AnyResult = Result<(), Box<dyn std::error::Error>>;
type AnyError = Box<dyn std::error::Error>;

/// Hurst parameter of the background process for this run.
const HURST: f64 = 0.8;
/// Utilization of the slotted queue (service = mean / UTILIZATION).
const UTILIZATION: f64 = 0.8;
/// Overflow thresholds, in multiples of the marginal mean.
const BUFFERS: [f64; 3] = [1.0, 2.0, 4.0];
/// Replications of the final importance-sampling stage.
const IS_REPS: usize = 64;
/// The IS stage always runs on this many threads, *not* `SVBR_THREADS`:
/// final CSVs must not depend on the machine's core count, or the CI
/// kill-and-resume byte comparison would be vacuous.
const IS_THREADS: usize = 2;
/// Kish ESS floor for the final IS estimate.
const ESS_FLOOR: f64 = 4.0;

/// Configuration for the supervised run (env knobs + repro flags).
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Base seed (drives the whole run deterministically).
    pub seed: u64,
    /// Number of chunks (env `SVBR_CKPT_CHUNKS`, default 6).
    pub chunks: u64,
    /// Samples per chunk (env `SVBR_CKPT_LEN`, default 256).
    pub chunk_len: usize,
    /// Write a checkpoint every N committed chunks (env `SVBR_CKPT_EVERY`).
    pub ckpt_every: u64,
    /// Where to write checkpoints (`repro --checkpoint <path>`).
    pub checkpoint: Option<PathBuf>,
    /// Resume from this checkpoint (`repro --resume <path>`). A missing
    /// file starts a fresh run, so resuming after a kill that beat the
    /// first checkpoint still works.
    pub resume: Option<PathBuf>,
    /// Wall-clock budget in ms (env `SVBR_DEADLINE_MS`). Degrades the
    /// generator tier under pressure — leave unset for deterministic runs.
    pub deadline_ms: Option<u64>,
    /// Simulated crash: stop right after the checkpoint of this committed
    /// chunk count, before any CSV is written (env `SVBR_STOP_AFTER`).
    pub stop_after: Option<u64>,
}

impl ResilienceConfig {
    /// Build from the environment (seed comes from the caller).
    pub fn from_env(seed: u64) -> Self {
        Self {
            seed,
            chunks: env_u64("SVBR_CKPT_CHUNKS", 6),
            chunk_len: env_u64("SVBR_CKPT_LEN", 256) as usize,
            ckpt_every: env_u64("SVBR_CKPT_EVERY", 1).max(1),
            checkpoint: None,
            resume: None,
            deadline_ms: std::env::var("SVBR_DEADLINE_MS")
                .ok()
                .and_then(|v| v.parse().ok()),
            stop_after: std::env::var("SVBR_STOP_AFTER")
                .ok()
                .and_then(|v| v.parse().ok()),
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One committed per-chunk result row (becomes `resilience_chunks.csv`).
#[derive(Debug, Clone)]
struct ChunkRow {
    chunk: u64,
    tier: u64,
    mean: f64,
    q_end: f64,
    over0: u64,
}

/// The full committed state of the run: everything a retried chunk
/// restarts from. `gen` is svbr-serve's generation state; its `delivered`
/// cursor counts committed chunks. A checkpoint carries only `gen`'s
/// cursor, and resume replays the rest of `gen`.
#[derive(Debug, Clone)]
struct RunState {
    gen: GenState,
    backlog: f64,
    slots: u64,
    sum_y: f64,
    sumsq_y: f64,
    overflows: [u64; 3],
    rows: Vec<ChunkRow>,
}

impl RunState {
    fn fresh(seed: u64) -> Self {
        Self {
            gen: GenState::fresh(seed),
            backlog: 0.0,
            slots: 0,
            sum_y: 0.0,
            sumsq_y: 0.0,
            overflows: [0; 3],
            rows: Vec::new(),
        }
    }

    fn to_checkpoint(&self, seed: u64, model: &ModelKey) -> Checkpoint {
        let mut ck = Checkpoint::new("resilience", seed);
        self.gen.cursor().write_into(&mut ck);
        model.write_into(&mut ck);
        ck.set_scalar("backlog", self.backlog);
        ck.set_words("slots", &[self.slots]);
        ck.set_scalar("sum_y", self.sum_y);
        ck.set_scalar("sumsq_y", self.sumsq_y);
        ck.set_words("overflows", &self.overflows);
        ck.set_words(
            "row_chunk",
            &self.rows.iter().map(|r| r.chunk).collect::<Vec<_>>(),
        );
        ck.set_words(
            "row_tier",
            &self.rows.iter().map(|r| r.tier).collect::<Vec<_>>(),
        );
        ck.set_words(
            "row_over0",
            &self.rows.iter().map(|r| r.over0).collect::<Vec<_>>(),
        );
        ck.set_vector(
            "row_mean",
            &self.rows.iter().map(|r| r.mean).collect::<Vec<_>>(),
        );
        ck.set_vector(
            "row_q_end",
            &self.rows.iter().map(|r| r.q_end).collect::<Vec<_>>(),
        );
        ck
    }

    /// Restore a checkpointed run; the background is replayed up to the
    /// cursor on `table`.
    fn from_checkpoint(
        ck: &Checkpoint,
        model: &ModelKey,
        table: &TabulatedAcf,
        transform: &GaussianTransform<Lognormal>,
        chunk_len: usize,
    ) -> Result<Self, AnyError> {
        model.check(ck)?;
        let overflow_words = ck.require_words("overflows")?;
        if overflow_words.len() != 3 {
            return Err("checkpoint: overflows must be 3 words".into());
        }
        let chunks = ck.require_words("row_chunk")?.to_vec();
        let tiers = ck.require_words("row_tier")?.to_vec();
        let over0s = ck.require_words("row_over0")?.to_vec();
        let means = ck.require_vector("row_mean")?.to_vec();
        let q_ends = ck.require_vector("row_q_end")?.to_vec();
        if [tiers.len(), over0s.len(), means.len(), q_ends.len()]
            .iter()
            .any(|&l| l != chunks.len())
        {
            return Err("checkpoint: chunk-row arrays disagree on length".into());
        }
        let rows = (0..chunks.len())
            .map(|i| ChunkRow {
                chunk: chunks[i],
                tier: tiers[i],
                mean: means[i],
                q_end: q_ends[i],
                over0: over0s[i],
            })
            .collect();
        let mut overflows = [0u64; 3];
        overflows.copy_from_slice(overflow_words);
        Ok(Self {
            gen: GenCursor::read_from(ck)?.replay(ck.seed, table, transform, chunk_len)?,
            backlog: ck.require_scalar("backlog")?,
            slots: ck.require_words("slots")?.first().copied().unwrap_or(0),
            sum_y: ck.require_scalar("sum_y")?,
            sumsq_y: ck.require_scalar("sumsq_y")?,
            overflows,
            rows,
        })
    }
}

/// Execute one chunk against a clone of the committed state; returns the
/// new committed state. Restartable by construction: every mutation lands
/// on the clone, so a panic or error discards the half-done attempt.
#[expect(
    clippy::too_many_arguments,
    reason = "the model (table, transform, service, buffers, chunk length) is fixed for the run; a struct built once to bundle it would only rename the arguments"
)]
fn run_chunk(
    committed: &RunState,
    tier: GeneratorTier,
    table: &TabulatedAcf,
    transform: &GaussianTransform<Lognormal>,
    service: f64,
    buffers: &[f64; 3],
    chunk_len: usize,
    inject: Option<FaultKind>,
    attempt: u32,
) -> Result<RunState, AnyError> {
    if attempt == 0 && inject == Some(FaultKind::Panic) {
        panic!("injected chunk panic");
    }
    let (gen, mut ys) = generate_chunk(&committed.gen, tier, table, transform, chunk_len)?;
    if attempt == 0 && inject == Some(FaultKind::NanSample) {
        ys[0] = f64::NAN;
    }
    // The queue guard: a NaN arrival would poison every subsequent Lindley
    // level, so it is rejected with a typed error before the recursion —
    // the supervisor then retries from committed state.
    validate_arrivals(&ys)?;

    let mut st = RunState {
        gen,
        rows: committed.rows.clone(),
        ..*committed
    };
    let mut queue = LindleyQueue::with_initial(service, st.backlog)?;
    let mut over = [0u64; 3];
    let mut sum = 0.0;
    let mut sumsq = 0.0;
    for &y in &ys {
        let q = queue.step(y);
        for (i, &b) in buffers.iter().enumerate() {
            if q > b {
                over[i] += 1;
            }
        }
        sum += y;
        sumsq += y * y;
    }
    st.backlog = queue.level();
    st.slots += chunk_len as u64;
    st.sum_y += sum;
    st.sumsq_y += sumsq;
    for (total, chunk_over) in st.overflows.iter_mut().zip(over) {
        *total += chunk_over;
    }
    st.rows.push(ChunkRow {
        chunk: committed.gen.delivered,
        tier: tier.index(),
        mean: sum / chunk_len as f64,
        q_end: st.backlog,
        over0: over[0],
    });
    Ok(st)
}

/// Run the supervised, checkpointable pipeline end to end.
pub fn resilience_run(cfg: &ResilienceConfig, out: &mut dyn Write) -> AnyResult {
    crate::banner(out, "resilience", "supervised checkpointable run")?;

    // --- target process: fGn background, lognormal foreground ------------
    let base_acf = FgnAcf::new(HURST)?;
    let validated_lags = (cfg.chunks as usize * cfg.chunk_len).max(cfg.chunk_len) + 1;
    let table = match fault::probe("acf") {
        Some(FaultKind::NonPdAcf) => {
            // Injected corruption: a table that violates positive
            // definiteness at lag 2. `prepare_table` must repair it.
            let mut values = vec![1.0, 0.99];
            values.extend((2..validated_lags).map(|k| base_acf.r(k)));
            let corrupt = TabulatedAcf::new(values)?;
            let (repaired, shrink) = prepare_table(&corrupt, validated_lags)?;
            writeln!(
                out,
                "ACF repaired: non-PD table damped (shrink {shrink:.3e})"
            )?;
            repaired
        }
        _ => prepare_table(base_acf, validated_lags)?.0,
    };
    let marginal = Lognormal::from_moments(1.0, 0.25)?;
    let mean = marginal.mean();
    let service = mean / UTILIZATION;
    let buffers: [f64; 3] = [BUFFERS[0] * mean, BUFFERS[1] * mean, BUFFERS[2] * mean];
    let transform = GaussianTransform::new(marginal);
    let model = ModelKey::new(HURST, &table);

    // --- state: fresh, or resumed from a checkpoint ----------------------
    let mut state = match &cfg.resume {
        Some(path) if path.exists() => {
            let ck = Checkpoint::load(path)?;
            if ck.name != "resilience" || ck.seed != cfg.seed {
                return Err(format!(
                    "checkpoint {} is for run `{}` seed {:#x}, not this run",
                    path.display(),
                    ck.name,
                    ck.seed
                )
                .into());
            }
            let st = RunState::from_checkpoint(&ck, &model, &table, &transform, cfg.chunk_len)?;
            record_event(format!(
                "resumed: checkpoint {} at chunk {}",
                path.display(),
                st.gen.delivered
            ));
            writeln!(
                out,
                "resumed from {} at chunk {}",
                path.display(),
                st.gen.delivered
            )?;
            st
        }
        Some(path) => {
            writeln!(
                out,
                "resume checkpoint {} not found; starting fresh",
                path.display()
            )?;
            RunState::fresh(cfg.seed)
        }
        None => RunState::fresh(cfg.seed),
    };

    // --- supervised chunk loop -------------------------------------------
    let deadline = cfg
        .deadline_ms
        .map(|ms| Deadline::new(Duration::from_millis(ms)));
    let mut supervisor = Supervisor::new(RetryPolicy {
        max_retries: 2,
        deadline,
    });
    let mut ladder = Ladder::from_tier(state.gen.tier);
    svbr_obsv::gauge("resilience.tier").set(ladder.tier().index() as f64);

    while state.gen.delivered < cfg.chunks {
        // Deadline pressure: with less than half the budget left and work
        // remaining, step down one generator tier before the next chunk.
        if let (Some(d), Some(ms)) = (&deadline, cfg.deadline_ms) {
            if d.remaining() < Duration::from_millis(ms / 2) {
                let _ = ladder.degrade("wall-clock deadline pressure");
            }
        }
        let injected = fault::probe("chunk");
        if injected == Some(FaultKind::Deadline) {
            let _ = ladder.degrade("injected deadline pressure");
        }
        let arrivals_fault = fault::probe("arrivals");
        let tier = ladder.tier();
        let site = format!("chunk-{}", state.gen.delivered);
        let committed = &state;
        let next = supervisor.run(&site, |attempt| {
            let inject = match (injected, arrivals_fault) {
                (Some(FaultKind::Panic), _) => Some(FaultKind::Panic),
                (_, Some(FaultKind::NanSample)) => Some(FaultKind::NanSample),
                _ => None,
            };
            run_chunk(
                committed,
                tier,
                &table,
                &transform,
                service,
                &buffers,
                cfg.chunk_len,
                inject,
                attempt,
            )
        })?;
        state = next;
        svbr_obsv::counter("resilience.chunks_committed").add(1);

        if let Some(path) = &cfg.checkpoint {
            if state.gen.delivered.is_multiple_of(cfg.ckpt_every)
                || state.gen.delivered == cfg.chunks
            {
                state.to_checkpoint(cfg.seed, &model).write_atomic(path)?;
            }
        }
        if cfg.stop_after == Some(state.gen.delivered) {
            writeln!(
                out,
                "stopping after chunk {} (simulated crash; no CSVs written)",
                state.gen.delivered
            )?;
            return Ok(());
        }
    }

    // --- numerical-health summary + final IS stage -----------------------
    let acf_err = sample_acf_error(&state.gen.history, &table, 20);
    svbr_obsv::gauge("resilience.tier_acf_error").set(acf_err);
    let n = state.slots as f64;
    let mean_y = state.sum_y / n;
    let var_y = (state.sumsq_y / n - mean_y * mean_y).max(0.0);

    let ess_floor = match fault::probe("is") {
        Some(FaultKind::EssCollapse) => f64::INFINITY,
        _ => ESS_FLOOR,
    };
    let estimator = svbr::is::IsEstimator::new(
        &table,
        64,
        transform.clone(),
        service,
        buffers[1],
        1.0,
        svbr::is::IsEvent::FirstPassage,
    )?;
    let (is_p, is_degraded) =
        match estimator.run_parallel_checked(IS_REPS, cfg.seed ^ 0x1535, IS_THREADS, ess_floor) {
            Ok(est) => (est.p, 0u64),
            Err(svbr::is::IsError::EssCollapse { ess, floor, .. }) => {
                // Abort-and-report: the weighted estimate is untrustworthy,
                // so fall back to the plain-MC overflow frequency from the
                // committed trace and mark the result degraded.
                record_event(format!(
                    "degraded: IS ESS {ess:.2} below floor {floor:.2}; reporting MC fallback"
                ));
                (state.overflows[1] as f64 / n, 1u64)
            }
            Err(e) => return Err(e.into()),
        };

    // --- outputs (only ever written from fully committed final state) ----
    let mut chunks_csv = Csv::create(
        "resilience_chunks",
        &["chunk", "tier", "mean_arrival", "q_end", "overflow_b0"],
    )?;
    for row in &state.rows {
        chunks_csv.row_str(&[
            row.chunk.to_string(),
            row.tier.to_string(),
            format!("{}", row.mean),
            format!("{}", row.q_end),
            row.over0.to_string(),
        ])?;
    }
    let chunks_path = chunks_csv.finish()?;

    let mut summary = Csv::create(
        "resilience",
        &[
            "slots",
            "mean_arrival",
            "var_arrival",
            "final_backlog",
            "p_over_b0",
            "is_p",
            "is_degraded",
            "final_tier",
            "acf_err",
        ],
    )?;
    summary.row_str(&[
        state.slots.to_string(),
        format!("{mean_y}"),
        format!("{var_y}"),
        format!("{}", state.backlog),
        format!("{}", state.overflows[0] as f64 / n),
        format!("{is_p}"),
        is_degraded.to_string(),
        state.gen.tier.index().to_string(),
        format!("{acf_err}"),
    ])?;
    let summary_path = summary.finish()?;

    writeln!(
        out,
        "{} chunks x {} slots on tier `{}`: mean {:.4}, Pr(Q > b0) = {:.4}, IS p = {:.3e}{}",
        state.gen.delivered,
        cfg.chunk_len,
        state.gen.tier.name(),
        mean_y,
        state.overflows[0] as f64 / n,
        is_p,
        if is_degraded == 1 {
            " (DEGRADED: MC fallback)"
        } else {
            ""
        }
    )?;
    writeln!(
        out,
        "ACF error vs target over 20 lags: {acf_err:.4}; recoveries: {}",
        supervisor.recoveries().len()
    )?;
    for rec in supervisor.recoveries() {
        writeln!(out, "  recovered {rec}")?;
    }
    writeln!(out, "[written {chunks_path:?}]")?;
    writeln!(out, "[written {summary_path:?}]")?;
    Ok(())
}
