//! Deterministic causal trace context for cross-process span stitching.
//!
//! A [`TraceCtx`] names one span inside one trace tree. Ids are *derived*,
//! never drawn: the trace id of a chunk is a SplitMix64 finalizer chain over
//! `(session_seed, chunk_index)` (the same mixing discipline as
//! `svbr::par::derive_seed`), and every span id is a fixed function of
//! `(trace_id, role)`. Two same-seed runs therefore produce byte-identical
//! trace trees, a killed-and-resumed run regenerates the *same* span ids for
//! re-served chunks (duplicates deduplicate instead of forking the tree),
//! and CI can diff whole trees across runs.
//!
//! The context crosses the HTTP boundary as the [`TRACE_HEADER`] request
//! header, value `"{trace_id:016x}-{span_id:016x}"`: the client stamps its
//! pull span's context on the request and the server adopts it as the
//! parent of its pull-handling span.
//!
//! Nothing here reads a clock or consumes randomness; constructing contexts
//! with tracing disabled is free of side effects, so fixed-seed output is
//! bit-identical with tracing on or off.

/// HTTP request header carrying a serialized [`TraceCtx`]
/// (lower-case name; HTTP headers are case-insensitive).
pub const TRACE_HEADER: &str = "x-svbr-trace";

/// Same golden-gamma constant as `svbr::par::derive_seed` — the ids live in
/// the workspace's one seed-derivation discipline.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer (Steele et al.), identical to the mixing stage of
/// `svbr::par::derive_seed`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Span roles: each role names one fixed position in a chunk's span tree, so
/// its span id is derivable by anyone who knows the trace id. Ordinals are
/// part of the wire-visible id derivation — never renumber them.
pub mod role {
    /// Client-observed pull (`loadgen.pull`), the tree root.
    pub const CLIENT_PULL: u64 = 1;
    /// Server request handling for one delivered chunk (`serve.pull`).
    pub const SERVER_PULL: u64 = 2;
    /// Time the pull spent waiting on the worker channel (`serve.queue_wait`).
    pub const QUEUE_WAIT: u64 = 3;
    /// Flushing the pending delivery checkpoint (`serve.ckpt`).
    pub const CHECKPOINT: u64 = 4;
    /// Session-worker chunk cycle (`serve.chunk`).
    pub const WORKER_CHUNK: u64 = 5;
    /// One supervised generator attempt (`serve.generate`).
    pub const GENERATE: u64 = 6;
}

/// The trace id of one `(session_seed, chunk_index)` chunk: a SplitMix64
/// finalizer chain, never zero (zero means "untraced" on the wire). The
/// session's identity enters through its seed — which is itself
/// `derive_seed(master_seed, session_index)` on the client — so client and
/// server derive the same id without sharing any server-assigned state.
pub fn chunk_trace_id(session_seed: u64, chunk_index: u64) -> u64 {
    let mut z = session_seed;
    for k in [session_seed, chunk_index] {
        z = mix(z.wrapping_add(k.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)));
    }
    if z == 0 {
        1
    } else {
        z
    }
}

/// The span id of `role`'s `attempt`-th occurrence inside `trace_id`
/// (attempt 0 for roles that occur once). Never zero.
pub fn span_id(trace_id: u64, role: u64, attempt: u64) -> u64 {
    let z = mix(trace_id
        ^ role.wrapping_mul(GOLDEN_GAMMA)
        ^ attempt.wrapping_mul(0xd605_bbb5_8c8a_bc03));
    if z == 0 {
        1
    } else {
        z
    }
}

/// One node of a trace tree: which trace, which span, and the span's parent
/// (0 for a root). `TraceCtx::NONE` (all zeros) marks an untraced event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceCtx {
    /// Trace (tree) id; 0 when untraced.
    pub trace_id: u64,
    /// This span's id within the trace; 0 when untraced.
    pub span_id: u64,
    /// Parent span id; 0 for a root span.
    pub parent: u64,
}

impl TraceCtx {
    /// The untraced context (all zeros); spans carrying it serialize
    /// without trace keys.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
        parent: 0,
    };

    /// Whether this is the untraced sentinel.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }

    /// The root context of `role` for one chunk.
    pub fn for_chunk(session_seed: u64, chunk_index: u64, role: u64) -> TraceCtx {
        let trace_id = chunk_trace_id(session_seed, chunk_index);
        TraceCtx {
            trace_id,
            span_id: span_id(trace_id, role, 0),
            parent: 0,
        }
    }

    /// A child context under this span.
    pub fn child(&self, role: u64) -> TraceCtx {
        self.child_attempt(role, 0)
    }

    /// A child context for the `attempt`-th occurrence of `role` (retried
    /// generator attempts each get a distinct, still-deterministic id).
    pub fn child_attempt(&self, role: u64, attempt: u64) -> TraceCtx {
        if self.is_none() {
            return TraceCtx::NONE;
        }
        TraceCtx {
            trace_id: self.trace_id,
            span_id: span_id(self.trace_id, role, attempt),
            parent: self.span_id,
        }
    }

    /// A sibling context with the same ids but a different parent link.
    pub fn with_parent(&self, parent: u64) -> TraceCtx {
        TraceCtx { parent, ..*self }
    }

    /// Serialize for the [`TRACE_HEADER`] request header.
    pub fn header_value(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.span_id)
    }

    /// Parse a [`TRACE_HEADER`] value; the result names the *remote* span
    /// (adopt it as a parent via [`TraceCtx::span_id`]). `None` on any
    /// malformed input — a bad header is ignored, never an error.
    pub fn from_header_value(s: &str) -> Option<TraceCtx> {
        let (t, sp) = s.trim().split_once('-')?;
        let trace_id = parse_hex16(t)?;
        let span_id = parse_hex16(sp)?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceCtx {
            trace_id,
            span_id,
            parent: 0,
        })
    }
}

/// Parse exactly 16 lower/upper hex digits.
pub(crate) fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Format as the 16-digit lower-hex form used on the wire.
pub(crate) fn fmt_hex16(v: u64) -> String {
    format!("{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = TraceCtx::for_chunk(42, 7, role::CLIENT_PULL);
        let b = TraceCtx::for_chunk(42, 7, role::CLIENT_PULL);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_eq!(a.parent, 0);
        // Same chunk, different role: same tree, different span.
        let c = TraceCtx::for_chunk(42, 7, role::SERVER_PULL);
        assert_eq!(c.trace_id, a.trace_id);
        assert_ne!(c.span_id, a.span_id);
    }

    #[test]
    fn distinct_chunks_never_collide_in_1e5_draws() {
        // The acceptance bound: 10^5 distinct (seed, chunk) pairs with no
        // trace-id collision (63+ effective bits; a birthday collision here
        // would be a mixing bug, not bad luck).
        let mut seen = BTreeSet::new();
        for seed in 0..1000u64 {
            for chunk in 0..100u64 {
                assert!(
                    seen.insert(chunk_trace_id(seed.wrapping_mul(0x9e37), chunk)),
                    "collision at seed {seed} chunk {chunk}"
                );
            }
        }
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn identical_across_threads() {
        // (seed, session, chunk) → TraceCtx must not depend on which thread
        // derives it, at 1, 2, and 8 threads.
        let grid: Vec<(u64, u64)> = (0..32u64)
            .flat_map(|s| (0..8u64).map(move |c| (s, c)))
            .collect();
        let reference: Vec<TraceCtx> = grid
            .iter()
            .map(|&(s, c)| TraceCtx::for_chunk(s, c, role::WORKER_CHUNK))
            .collect();
        for threads in [1usize, 2, 8] {
            let chunks: Vec<&[(u64, u64)]> = grid.chunks(grid.len().div_ceil(threads)).collect();
            #[expect(
                clippy::disallowed_methods,
                reason = "test-only determinism check across explicit thread counts"
            )]
            let results: Vec<Vec<TraceCtx>> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|part| {
                        scope.spawn(move || {
                            part.iter()
                                .map(|&(s, c)| TraceCtx::for_chunk(s, c, role::WORKER_CHUNK))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let flat: Vec<TraceCtx> = results.into_iter().flatten().collect();
            assert_eq!(flat, reference, "thread count {threads} changed the ids");
        }
    }

    #[test]
    fn child_links_to_parent() {
        let root = TraceCtx::for_chunk(9, 3, role::SERVER_PULL);
        let child = root.child(role::WORKER_CHUNK);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent, root.span_id);
        // Attempts are distinct but deterministic.
        let a0 = child.child_attempt(role::GENERATE, 0);
        let a1 = child.child_attempt(role::GENERATE, 1);
        assert_ne!(a0.span_id, a1.span_id);
        assert_eq!(a0, child.child_attempt(role::GENERATE, 0));
        // NONE stays NONE through derivation.
        assert!(TraceCtx::NONE.child(role::GENERATE).is_none());
    }

    #[test]
    fn header_roundtrip() {
        let ctx = TraceCtx::for_chunk(0xdead_beef, 12, role::CLIENT_PULL);
        let parsed = TraceCtx::from_header_value(&ctx.header_value()).expect("round-trip");
        assert_eq!(parsed.trace_id, ctx.trace_id);
        assert_eq!(parsed.span_id, ctx.span_id);
        assert_eq!(parsed.parent, 0);
        for bad in ["", "zz", "123-456", "0000000000000000-0000000000000001"] {
            assert_eq!(TraceCtx::from_header_value(bad), None, "{bad:?}");
        }
    }
}
