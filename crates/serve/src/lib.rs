//! # svbr-serve — a supervised session service for synthetic VBR traffic
//!
//! The paper's generators produce one trace per invocation; real consumers
//! (the TCP-over-ABR studies, long-lived simulation feeds) need traffic
//! *served* continuously. This crate turns the checkpointable generation
//! stack into a long-running service:
//!
//! * **Sessions** — a client opens a session (seed + chunk geometry), then
//!   pulls chunked synthetic traffic. Generation state is the explicit
//!   [`GenState`] the `repro resilience` reference run also uses (the
//!   random generator, the polar normal sampler, the Hosking φ/v
//!   recursion), so every chunk is a pure function of the session seed
//!   and the tier of each chunk so far.
//! * **Backpressure** — each session generates into a *bounded* channel
//!   ([`std::sync::mpsc::sync_channel`]); a slow reader blocks only its own
//!   worker, never another session's, and readahead is capped at the
//!   configured buffer depth.
//! * **Load shedding** — admission control rejects new sessions with the
//!   typed [`ServeError::Overloaded`] *before* existing sessions degrade;
//!   past the degrade watermark, new work starts lower on the
//!   Hosking → truncated-AR → Davies–Harte [`svbr_resilience::Ladder`],
//!   with every step recorded in the event log / manifest.
//! * **Supervision** — every chunk runs under a
//!   [`svbr_resilience::Supervisor`] with a retry budget and an optional
//!   per-chunk [`svbr_resilience::Deadline`]; persistent failure walks the
//!   ladder, and a fully exhausted ladder ends the session with the typed
//!   [`svbr_resilience::LadderExhausted`] history — a *recorded* terminal
//!   state, never a silent hang.
//! * **Crash recovery** — delivered chunks are checkpointed on a
//!   work-count tick as spec, cursor, tier starts and model key (a few
//!   hundred bytes, via [`svbr_resilience::Checkpoint`]); a SIGKILLed
//!   server restarted with `--resume` replays every live session up to its
//!   cursor on the session's own worker and continues bit-identically.
//!   Checkpoints trail delivery, so a crash can only re-send chunks
//!   (byte-identical duplicates the client dedupes by index), never skip
//!   them.
//!
//! The `svbr-serve` binary speaks a deliberately tiny HTTP/1.0 protocol
//! (`/open`, `/pull`, `/close`, `/metrics`, `/shutdown` — curl-able; see
//! README "Serving"), and `svbr-loadgen` drives hundreds of concurrent
//! sessions through a deterministic fault schedule, reporting
//! throughput/latency/shed-rate through the labeled `svbr-obsv` metrics
//! `serve.sessions{state}`, `serve.chunks{outcome}` and `serve.shed`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod server;
pub mod session;

pub use server::{PullOutcome, Server, ServerConfig};
pub use session::{
    drain_session, generate_chunk, generate_chunk_into, ChunkScratch, GenCursor, GenState,
    ModelKey, SessionSpec, SessionState, WorkerMsg,
};

use svbr_resilience::CheckpointError;

/// Typed error surface of the session service.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control: the server is at capacity; shed, do not queue.
    Overloaded {
        /// Live (non-terminal) sessions at rejection time.
        active: usize,
        /// Configured session capacity.
        cap: usize,
    },
    /// No session with this id (never opened, or already reaped).
    UnknownSession(u64),
    /// The session ended in the recorded-degraded terminal state: its
    /// ladder was exhausted and the failure history is in `reason`.
    SessionFailed {
        /// The failed session.
        id: u64,
        /// The `LadderExhausted` history (also in the event log/manifest).
        reason: String,
    },
    /// The session's worker produced nothing within the pull timeout.
    PullTimeout(u64),
    /// A malformed request (bad query parameter, bad route).
    BadRequest(String),
    /// Requested stream exceeds the server's prepared ACF horizon.
    TooLong {
        /// Total samples the session would need (`chunk_len * chunks`).
        requested: usize,
        /// Samples the prepared table supports.
        cap: usize,
    },
    /// Generation failed (ACF preparation, sampler, transform, validate).
    Generate(String),
    /// Checkpoint persistence or restore failed.
    Checkpoint(CheckpointError),
    /// A checkpoint this server cannot resume bit-identically: written in
    /// an older layout, or under another model (Hurst parameter or table
    /// horizon).
    IncompatibleCheckpoint(String),
    /// Socket-level I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { active, cap } => {
                write!(f, "overloaded: {active} active sessions at capacity {cap}")
            }
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::SessionFailed { id, reason } => {
                write!(f, "session {id} failed: {reason}")
            }
            ServeError::PullTimeout(id) => write!(f, "session {id}: pull timed out"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::TooLong { requested, cap } => {
                write!(
                    f,
                    "stream too long: {requested} samples > prepared horizon {cap}"
                )
            }
            ServeError::Generate(msg) => write!(f, "generation failed: {msg}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::IncompatibleCheckpoint(msg) => write!(f, "incompatible checkpoint: {msg}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
