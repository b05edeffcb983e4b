//! Session state, chunk generation and the supervised session worker.
//!
//! A session's entire generation state is the explicit, checkpointable
//! [`GenState`]: xoshiro words, the polar sampler's spare variate, the
//! Hosking φ/v recursion and the delivered-chunk cursor. Chunk `k` is a
//! pure function of `(seed, k)` on a fixed tier, which is what makes the
//! kill-and-resume CI job's byte comparison meaningful.
//!
//! [`run_session`] is the worker loop: each chunk executes under a fresh
//! [`Supervisor`] (retry budget + optional per-chunk [`Deadline`]); a
//! failed chunk steps the session down the degradation [`Ladder`] and is
//! retried on the cheaper tier, and an exhausted ladder ends the session
//! with the typed history ([`WorkerMsg::Failed`]). Chunks flow to the
//! server through a *bounded* `sync_channel` — the send blocks when the
//! client is slow, which is the whole backpressure story: readahead is
//! capped at the channel depth and a stalled reader parks only its own
//! worker thread.

use crate::ServeError;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::Duration;
use svbr::lrd::acf::TabulatedAcf;
use svbr::lrd::davies_harte::DaviesHarte;
use svbr::lrd::fft::Complex;
use svbr::lrd::hosking::{HoskingSampler, NonPdPolicy};
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::Lognormal;
use svbr::queue::validate_arrivals;
use svbr_obsv::trace::{self, TraceCtx};
use svbr_resilience::checkpoint::Checkpoint;
use svbr_resilience::degrade::{GeneratorTier, Ladder};
use svbr_resilience::rng::{CkptNormal, CkptRng};
use svbr_resilience::supervisor::{Deadline, RetryPolicy, Supervisor};

/// Checkpoint name tag for serve sessions.
pub const CKPT_NAME: &str = "serve";
/// Retries per chunk before the ladder steps down.
const CHUNK_RETRIES: u32 = 2;

/// Immutable parameters of one session, fixed at open time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Server-assigned session id.
    pub id: u64,
    /// Seed of the session's generation stream.
    pub seed: u64,
    /// Samples per chunk.
    pub chunk_len: usize,
    /// Total chunks the session serves.
    pub chunks: u64,
    /// Optional per-chunk wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Lifecycle states of a session (DESIGN.md §12). Gauge label values of
/// `serve.sessions{state}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted; no chunk delivered yet.
    Open,
    /// Delivering chunks on the exact tier.
    Streaming,
    /// Delivering chunks below the exact tier (recorded degradation).
    Degraded,
    /// A durable checkpoint covers everything delivered so far.
    Checkpointed,
    /// Restored from a checkpoint after a restart; delivery not yet
    /// re-observed.
    Resumed,
    /// Terminal: every chunk delivered (or the client closed early).
    Closed,
    /// Terminal: the degradation ladder was exhausted; the full per-rung
    /// history is recorded (recorded-degraded, never silent).
    Failed,
}

impl SessionState {
    /// Stable label value for `serve.sessions{state}`.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Open => "open",
            SessionState::Streaming => "streaming",
            SessionState::Degraded => "degraded",
            SessionState::Checkpointed => "checkpointed",
            SessionState::Resumed => "resumed",
            SessionState::Closed => "closed",
            SessionState::Failed => "failed",
        }
    }

    /// Terminal states admit no further transitions.
    pub fn is_terminal(self) -> bool {
        matches!(self, SessionState::Closed | SessionState::Failed)
    }
}

/// The full committed generation state of a session — everything a
/// checkpoint carries and everything a retried chunk restarts from.
/// `repro resilience` drives its background through the same state and
/// [`generate_chunk`], so the workspace has one chunk generator per tier.
#[derive(Debug, PartialEq)]
pub struct GenState {
    /// xoshiro256++ state words.
    pub rng: [u64; 4],
    /// The polar sampler's cached spare variate.
    pub spare: Option<f64>,
    /// Gaussian history (Hosking conditioning window).
    pub history: Vec<f64>,
    /// Durbin–Levinson regression coefficients.
    pub phi: Vec<f64>,
    /// Innovation variance of the recursion.
    pub v: f64,
    /// Current generator tier (resumes stay on the checkpointed tier).
    pub tier: GeneratorTier,
    /// Chunks committed (equals the next chunk index).
    pub delivered: u64,
}

impl Clone for GenState {
    fn clone(&self) -> Self {
        Self {
            rng: self.rng,
            spare: self.spare,
            history: self.history.clone(),
            phi: self.phi.clone(),
            v: self.v,
            tier: self.tier,
            delivered: self.delivered,
        }
    }

    /// Capacity-reusing clone: the derived `clone_from` would reallocate
    /// `history`/`phi` on every chunk attempt; this one writes into the
    /// existing buffers, which is what lets a worker's scratch state reach
    /// zero steady-state allocation (see [`ChunkScratch`]).
    fn clone_from(&mut self, src: &Self) {
        self.rng = src.rng;
        self.spare = src.spare;
        self.history.clone_from(&src.history);
        self.phi.clone_from(&src.phi);
        self.v = src.v;
        self.tier = src.tier;
        self.delivered = src.delivered;
    }
}

impl GenState {
    /// Fresh state at chunk 0 on the exact tier.
    pub fn fresh(seed: u64) -> Self {
        Self {
            rng: CkptRng::seed_from_u64(seed).state(),
            spare: None,
            history: Vec::new(),
            phi: Vec::new(),
            v: 1.0,
            tier: GeneratorTier::HoskingExact,
            delivered: 0,
        }
    }

    /// Serialize spec + state into an atomic checkpoint.
    pub fn to_checkpoint(&self, spec: &SessionSpec) -> Checkpoint {
        let mut ck = Checkpoint::new(CKPT_NAME, spec.seed);
        ck.set_words(
            "spec",
            &[
                spec.id,
                spec.chunk_len as u64,
                spec.chunks,
                // Option<u64> as a word: 0 = none, ms + 1 otherwise.
                spec.deadline_ms.map_or(0, |ms| ms + 1),
            ],
        );
        self.write_into(&mut ck);
        ck
    }

    /// Restore spec + state from a checkpoint written by
    /// [`GenState::to_checkpoint`].
    pub fn from_checkpoint(ck: &Checkpoint) -> Result<(SessionSpec, GenState), ServeError> {
        if ck.name != CKPT_NAME {
            return Err(ServeError::BadRequest(format!(
                "checkpoint is for run `{}`, not a serve session",
                ck.name
            )));
        }
        let spec_words = ck.require_words("spec")?;
        if spec_words.len() != 4 {
            return Err(ServeError::BadRequest(
                "checkpoint: spec must be 4 words".into(),
            ));
        }
        let spec = SessionSpec {
            id: spec_words[0],
            seed: ck.seed,
            chunk_len: spec_words[1] as usize,
            chunks: spec_words[2],
            deadline_ms: spec_words[3].checked_sub(1),
        };
        Ok((spec, GenState::read_from(ck)?))
    }

    /// Write the generation state (the cursor plus the `rng`,
    /// `normal_spare`, `history`, `phi`, `v` and `tier` sections) into a
    /// checkpoint. Every chunked run that generates through
    /// [`generate_chunk`] — serve sessions and `repro resilience` — carries
    /// its state in these sections, next to its own.
    pub fn write_into(&self, ck: &mut Checkpoint) {
        ck.cursor = self.delivered;
        ck.set_words("rng", &self.rng);
        if let Some(spare) = self.spare {
            ck.set_scalar("normal_spare", spare);
        }
        ck.set_vector("history", &self.history);
        ck.set_vector("phi", &self.phi);
        ck.set_scalar("v", self.v);
        ck.set_words("tier", &[self.tier.index()]);
    }

    /// Restore the generation state written by [`GenState::write_into`].
    pub fn read_from(ck: &Checkpoint) -> Result<GenState, ServeError> {
        let rng_words = ck.require_words("rng")?;
        if rng_words.len() != 4 {
            return Err(ServeError::BadRequest(
                "checkpoint: rng state must be 4 words".into(),
            ));
        }
        let tier = ck
            .require_words("tier")?
            .first()
            .copied()
            .and_then(GeneratorTier::from_index)
            .ok_or_else(|| ServeError::BadRequest("checkpoint: bad generator tier".into()))?;
        let mut rng = [0u64; 4];
        rng.copy_from_slice(rng_words);
        Ok(GenState {
            rng,
            spare: ck.scalar("normal_spare"),
            history: ck.require_vector("history")?.to_vec(),
            phi: ck.require_vector("phi")?.to_vec(),
            v: ck.require_scalar("v")?,
            tier,
            delivered: ck.cursor,
        })
    }
}

/// Reusable per-worker buffers for [`generate_chunk_into`] — the serve
/// side of the workspace buffer arena (`svbr::par::Arena` is the generic
/// pool; a session worker's buffer population is fixed, so it holds them
/// by name instead). After the first chunk on a tier warms the
/// capacities, steady-state chunk generation performs **zero heap
/// allocation** on the truncated-AR tier (asserted by the
/// counting-allocator test in `tests/zero_alloc.rs`).
#[derive(Debug, Default)]
pub struct ChunkScratch {
    /// The post-chunk state: a capacity-reusing clone of `committed` that
    /// every mutation lands on (restartable by construction — a failed
    /// attempt never touches the committed state).
    pub state: GenState,
    /// Background Gaussian samples of the chunk.
    xs: Vec<f64>,
    /// Transformed (lognormal frame-size) samples — the chunk body.
    pub ys: Vec<f64>,
    /// Davies–Harte FFT workspace.
    fft: Vec<Complex>,
}

impl Default for GenState {
    fn default() -> Self {
        Self::fresh(0)
    }
}

impl ChunkScratch {
    /// Empty scratch; buffers warm up on the first generated chunk.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Generate one chunk against a clone of `committed`; returns the new
/// committed state and the transformed (lognormal frame-size) samples.
/// Restartable by construction: every mutation lands on the clone.
///
/// Allocating convenience wrapper over [`generate_chunk_into`] — loops
/// should hold a [`ChunkScratch`] and call the `_into` form instead.
pub fn generate_chunk(
    committed: &GenState,
    tier: GeneratorTier,
    table: &TabulatedAcf,
    transform: &GaussianTransform<Lognormal>,
    chunk_len: usize,
) -> Result<(GenState, Vec<f64>), ServeError> {
    let mut scratch = ChunkScratch::new();
    generate_chunk_into(committed, tier, table, transform, chunk_len, &mut scratch)?;
    let ChunkScratch { state, ys, .. } = scratch;
    Ok((state, ys))
}

/// Buffer-reusing form of [`generate_chunk`]: the post-chunk state lands
/// in `scratch.state` and the chunk samples in `scratch.ys`, with every
/// intermediate buffer recycled from the previous call.
pub fn generate_chunk_into(
    committed: &GenState,
    tier: GeneratorTier,
    table: &TabulatedAcf,
    transform: &GaussianTransform<Lognormal>,
    chunk_len: usize,
    scratch: &mut ChunkScratch,
) -> Result<(), ServeError> {
    let gen_err = |e: &dyn std::fmt::Display| ServeError::Generate(e.to_string());
    scratch.state.clone_from(committed);
    let st = &mut scratch.state;
    let mut rng = CkptRng::from_state(st.rng);
    let mut normal = CkptNormal { spare: st.spare };

    let xs = &mut scratch.xs;
    xs.clear();
    xs.reserve(chunk_len);
    match tier {
        GeneratorTier::HoskingExact => {
            let mut sampler = HoskingSampler::resume(
                table,
                NonPdPolicy::Error,
                std::mem::take(&mut st.history),
                std::mem::take(&mut st.phi),
                st.v,
                None,
            )
            .map_err(|e| gen_err(&e))?;
            for _ in 0..chunk_len {
                let m = sampler.next_moments().map_err(|e| gen_err(&e))?;
                let x = normal.sample_with(&mut rng, m.mean, m.var);
                sampler.push(x);
                xs.push(x);
            }
            st.phi.extend_from_slice(sampler.phi());
            st.v = sampler.innovation_variance();
            st.history.extend_from_slice(sampler.history());
        }
        GeneratorTier::TruncatedAr => {
            // Frozen-coefficient AR(p) continuation with the φ/v captured
            // when the ladder stepped down.
            let p = st.phi.len();
            for _ in 0..chunk_len {
                let k = st.history.len();
                let depth = p.min(k);
                // Lane-batched kernel shared with the Durbin–Levinson
                // recursion: Σ_j φ[j−1]·X[k−j] (see svbr_lrd::kernels for
                // the bit-identity decision).
                let mean = svbr::lrd::kernels::dot_rev(&st.phi[..depth], &st.history[k - depth..]);
                let x = normal.sample_with(&mut rng, mean, st.v);
                st.history.push(x);
                xs.push(x);
            }
            // Only the last `p` samples condition the AR(p) continuation,
            // so the retained window (and with it the checkpoint size and
            // the per-chunk push capacity) is bounded: future chunks are
            // bit-identical with or without the discarded prefix.
            if st.history.len() > p {
                st.history.drain(..st.history.len() - p);
            }
        }
        GeneratorTier::DaviesHarte => {
            // Independent exact-ACF block per chunk; cross-chunk
            // correlation is the tier's recorded caveat.
            let dh = DaviesHarte::new_approx(table, chunk_len, 5e-2).map_err(|e| gen_err(&e))?;
            dh.generate_into(&mut rng, xs, &mut scratch.fft);
            st.history.extend_from_slice(xs);
        }
    }

    transform.apply_into(&scratch.xs, &mut scratch.ys);
    // A NaN arrival must never reach a client's queue recursion.
    validate_arrivals(&scratch.ys).map_err(|e| gen_err(&e))?;

    let st = &mut scratch.state;
    st.delivered += 1;
    st.tier = tier;
    st.rng = rng.state();
    st.spare = normal.spare;
    Ok(())
}

/// Encode a chunk as the wire body: a one-line header followed by the
/// samples in shortest-roundtrip `{}` formatting (byte-identical iff
/// bit-identical).
pub fn encode_chunk(idx: u64, tier: GeneratorTier, ys: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("chunk {idx} tier={} n={}\n", tier.name(), ys.len());
    for (i, y) in ys.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{y}");
    }
    s.push('\n');
    s
}

/// Messages from a session worker to whoever drains its bounded channel.
#[derive(Debug)]
pub enum WorkerMsg {
    /// One generated chunk plus the post-chunk committed state (the
    /// receiver checkpoints `post` only *after* delivering `body`).
    Chunk {
        /// Chunk index (0-based).
        idx: u64,
        /// Tier that generated the chunk.
        tier: GeneratorTier,
        /// Encoded wire body ([`encode_chunk`]).
        body: String,
        /// Committed state after this chunk.
        post: GenState,
    },
    /// Every chunk generated; the stream is complete.
    Done,
    /// Terminal failure: the degradation ladder is exhausted. Carries the
    /// rendered per-rung history.
    Failed {
        /// `LadderExhausted` rendered with its full history.
        reason: String,
    },
}

/// The supervised worker loop for one session. Generates chunks from
/// `start` until `spec.chunks`, sending each through `tx` (bounded: the
/// send *is* the backpressure). `pressure` is sampled before each chunk;
/// while it reports overload, a session still on the exact tier steps
/// down one rung (policy: shed first, then degrade — see DESIGN.md §12).
///
/// Always ends with a terminal [`WorkerMsg::Done`] / [`WorkerMsg::Failed`]
/// unless the receiver disappears first (a closed session), in which case
/// the worker just exits.
pub fn run_session(
    spec: &SessionSpec,
    start: GenState,
    table: &TabulatedAcf,
    transform: &GaussianTransform<Lognormal>,
    pressure: impl Fn() -> bool,
    tx: &mpsc::SyncSender<WorkerMsg>,
) {
    let mut committed = start;
    let mut ladder = Ladder::from_tier(committed.tier);
    // One scratch for the whole session: chunk buffers (and the clone of
    // the committed state every attempt restarts from) are reused across
    // chunks and retries.
    let mut scratch = ChunkScratch::new();
    while committed.delivered < spec.chunks {
        // The chunk's trace tree is derived from (seed, index) alone, so the
        // worker's span stitches under the server pull span for the same
        // chunk without any shared state (see svbr_obsv::trace). NONE (id 0)
        // when tracing is off keeps event text bit-identical.
        let chunk_ctx = if svbr_obsv::enabled() {
            TraceCtx::for_chunk(spec.seed, committed.delivered, trace::role::WORKER_CHUNK)
                .with_parent(trace::span_id(
                    trace::chunk_trace_id(spec.seed, committed.delivered),
                    trace::role::SERVER_PULL,
                    0,
                ))
        } else {
            TraceCtx::NONE
        };
        if pressure() && ladder.tier() == GeneratorTier::HoskingExact {
            let _ = ladder.degrade_traced(
                "overload: active sessions past the degrade watermark",
                chunk_ctx.trace_id,
            );
        }
        let tier = ladder.tier();
        let deadline = spec
            .deadline_ms
            .map(|ms| Deadline::new(Duration::from_millis(ms)));
        let mut supervisor = Supervisor::new(RetryPolicy {
            max_retries: CHUNK_RETRIES,
            deadline,
        });
        let site = format!("serve-{}-chunk-{}", spec.id, committed.delivered);
        let mut chunk_span = svbr_obsv::span_ctx("serve.chunk", chunk_ctx);
        chunk_span.field("idx", committed.delivered as f64);
        let sw = svbr_obsv::Stopwatch::start();
        let outcome = supervisor.run(&site, |attempt| {
            let mut gen_span = svbr_obsv::span_ctx(
                "serve.generate",
                chunk_ctx.child_attempt(trace::role::GENERATE, attempt as u64),
            );
            gen_span.field("tier", tier.index() as f64);
            generate_chunk_into(
                &committed,
                tier,
                table,
                transform,
                spec.chunk_len,
                &mut scratch,
            )
        });
        match outcome {
            Ok(()) => {
                chunk_span.end();
                svbr_obsv::histogram("serve.chunk_us").record(sw.elapsed_us());
                svbr_obsv::alerts::observe_session(spec.id, &scratch.ys);
                let outcome_label = if tier == GeneratorTier::HoskingExact {
                    "generated"
                } else {
                    "degraded"
                };
                svbr_obsv::counter_with("serve.chunks", &[("outcome", outcome_label)]).add(1);
                let idx = committed.delivered;
                let body = encode_chunk(idx, tier, &scratch.ys);
                committed.clone_from(&scratch.state);
                let msg = WorkerMsg::Chunk {
                    idx,
                    tier,
                    body,
                    post: committed.clone(),
                };
                if tx.send(msg).is_err() {
                    return;
                }
            }
            Err(e) => {
                // Retry budget or per-chunk deadline exhausted: step down
                // and re-attempt the same chunk on the cheaper tier; at the
                // bottom, the typed exhaustion history ends the session.
                match ladder.degrade_or_exhaust_traced(
                    &format!("chunk {}: {e}", committed.delivered),
                    chunk_ctx.trace_id,
                ) {
                    Ok(_) => continue,
                    Err(exhausted) => {
                        svbr_obsv::counter_with("serve.chunks", &[("outcome", "failed")]).add(1);
                        let _ = tx.send(WorkerMsg::Failed {
                            reason: exhausted.to_string(),
                        });
                        return;
                    }
                }
            }
        }
    }
    let _ = tx.send(WorkerMsg::Done);
}

/// Run one session to completion on a worker thread, draining its bounded
/// channel and discarding bodies. Returns the delivered-chunk count, or
/// the session's terminal failure. This is the in-process harness the
/// bench suite and tests drive — the same worker loop the server spawns.
#[expect(
    clippy::disallowed_methods,
    reason = "scoped single-session worker; the generation itself stays sequential and the channel is bounded"
)]
pub fn drain_session(
    spec: &SessionSpec,
    start: GenState,
    table: &TabulatedAcf,
    transform: &GaussianTransform<Lognormal>,
    buffer: usize,
) -> Result<u64, ServeError> {
    let (tx, rx) = mpsc::sync_channel(buffer.max(1));
    std::thread::scope(|scope| {
        scope.spawn(move || run_session(spec, start, table, transform, || false, &tx));
        let mut delivered = 0u64;
        for msg in rx.iter() {
            match msg {
                WorkerMsg::Chunk { .. } => delivered += 1,
                WorkerMsg::Done => return Ok(delivered),
                WorkerMsg::Failed { reason } => {
                    return Err(ServeError::SessionFailed {
                        id: spec.id,
                        reason,
                    })
                }
            }
        }
        Err(ServeError::SessionFailed {
            id: spec.id,
            reason: "worker exited without a terminal message".into(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use svbr::lrd::acf::FgnAcf;
    use svbr_resilience::degrade::prepare_table;

    fn assets(n: usize) -> (TabulatedAcf, GaussianTransform<Lognormal>) {
        let acf = match FgnAcf::new(0.8) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        };
        let table = match prepare_table(acf, n + 1) {
            Ok((t, _)) => t,
            Err(e) => panic!("{e}"),
        };
        let marginal = match Lognormal::from_moments(1.0, 0.25) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        };
        (table, GaussianTransform::new(marginal))
    }

    fn stream(
        spec: &SessionSpec,
        table: &TabulatedAcf,
        tf: &GaussianTransform<Lognormal>,
    ) -> Vec<String> {
        let mut st = GenState::fresh(spec.seed);
        let mut bodies = Vec::new();
        while st.delivered < spec.chunks {
            let (post, ys) = match generate_chunk(&st, st.tier, table, tf, spec.chunk_len) {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
            bodies.push(encode_chunk(st.delivered, st.tier, &ys));
            st = post;
        }
        bodies
    }

    fn spec(seed: u64, chunk_len: usize, chunks: u64) -> SessionSpec {
        SessionSpec {
            id: 1,
            seed,
            chunk_len,
            chunks,
            deadline_ms: None,
        }
    }

    #[test]
    fn chunks_are_deterministic_in_seed() {
        let (table, tf) = assets(64);
        let a = stream(&spec(7, 16, 4), &table, &tf);
        let b = stream(&spec(7, 16, 4), &table, &tf);
        let c = stream(&spec(8, 16, 4), &table, &tf);
        assert_eq!(a, b, "same seed, same bytes");
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let (table, tf) = assets(80);
        let spec0 = SessionSpec {
            id: 9,
            seed: 0xfeed,
            chunk_len: 16,
            chunks: 5,
            deadline_ms: Some(250),
        };
        let full = stream(&spec0, &table, &tf);

        // Run two chunks, checkpoint, restore, continue: the remaining
        // chunks must be byte-identical to the uninterrupted stream.
        let mut st = GenState::fresh(spec0.seed);
        for _ in 0..2 {
            let (post, _) = match generate_chunk(&st, st.tier, &table, &tf, spec0.chunk_len) {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
            st = post;
        }
        let ck = st.to_checkpoint(&spec0);
        let parsed = match Checkpoint::parse(&ck.to_text()) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        };
        let (spec1, mut rs) = match GenState::from_checkpoint(&parsed) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(spec1, spec0, "spec survives the checkpoint");
        assert_eq!(rs, st, "state survives the checkpoint bit-exactly");
        for idx in 2..spec0.chunks {
            let (post, ys) = match generate_chunk(&rs, rs.tier, &table, &tf, spec1.chunk_len) {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
            assert_eq!(
                encode_chunk(idx, rs.tier, &ys),
                full[idx as usize],
                "resumed chunk {idx} must match the uninterrupted run"
            );
            rs = post;
        }
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let ck = Checkpoint::new("resilience", 1);
        assert!(matches!(
            GenState::from_checkpoint(&ck),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn drain_session_delivers_every_chunk() {
        let (table, tf) = assets(64);
        let s = spec(3, 16, 4);
        let n = match drain_session(&s, GenState::fresh(s.seed), &table, &tf, 2) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(n, 4);
    }

    #[test]
    fn zero_deadline_exhausts_the_ladder_into_a_typed_failure() {
        let (table, tf) = assets(64);
        let s = SessionSpec {
            id: 4,
            seed: 11,
            chunk_len: 16,
            chunks: 2,
            deadline_ms: Some(0),
        };
        match drain_session(&s, GenState::fresh(s.seed), &table, &tf, 2) {
            Err(ServeError::SessionFailed { id, reason }) => {
                assert_eq!(id, 4);
                assert!(
                    reason.contains("exhausted") && reason.contains("davies-harte"),
                    "failure must carry the ladder history: {reason}"
                );
            }
            other => panic!("expected recorded-degraded terminal, got {other:?}"),
        }
    }

    #[test]
    fn pressure_degrades_exact_tier_sessions_one_rung() {
        let (table, tf) = assets(64);
        let s = spec(5, 16, 3);
        let (tx, rx) = mpsc::sync_channel(8);
        run_session(&s, GenState::fresh(s.seed), &table, &tf, || true, &tx);
        drop(tx);
        let tiers: Vec<GeneratorTier> = rx
            .iter()
            .filter_map(|m| match m {
                WorkerMsg::Chunk { tier, .. } => Some(tier),
                _ => None,
            })
            .collect();
        assert_eq!(tiers.len(), 3);
        assert!(
            tiers.iter().all(|&t| t == GeneratorTier::TruncatedAr),
            "pressure steps exact-tier sessions down exactly one rung: {tiers:?}"
        );
    }
}
