//! The session server: admission control, supervised workers, checkpoint
//! persistence, and a deliberately tiny curl-able HTTP/1.0 front end.
//!
//! Policy ordering under overload (DESIGN.md §12): **shed first** (reject
//! new sessions with the typed [`ServeError::Overloaded`] while existing
//! sessions are untouched), **then degrade** (past the watermark, sessions
//! still on the exact tier step one rung down the ladder). Existing
//! streams are never cancelled to make room.
//!
//! Crash recovery: the server checkpoints a session's post-chunk state
//! only *after* the chunk body has been handed to the client (the client's
//! next pull acknowledges the previous chunk). A SIGKILL therefore never
//! creates a gap — at worst the restarted server re-serves chunks the
//! client already saw, byte-identically, and the client dedupes by index.

use crate::session::{run_session, GenCursor, ModelKey, SessionSpec, SessionState, WorkerMsg};
use crate::ServeError;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;
use svbr::lrd::acf::{FgnAcf, TabulatedAcf};
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::Lognormal;
use svbr_obsv::trace::{self, TraceCtx};
use svbr_resilience::checkpoint::Checkpoint;
use svbr_resilience::degrade::{prepare_table, GeneratorTier};
use svbr_resilience::record_event;

/// Server configuration (CLI flags of the `svbr-serve` binary).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:9185`.
    pub addr: String,
    /// Admission-control capacity: live sessions beyond this are shed.
    pub max_sessions: usize,
    /// Above this many live sessions, new chunks on the exact tier step
    /// one rung down the ladder (shed happens *before* degrade).
    pub degrade_watermark: usize,
    /// Bounded per-session readahead, in chunks (the backpressure depth).
    pub buffer_chunks: usize,
    /// Checkpoint every N delivered chunks (work-count tick).
    pub ckpt_every: u64,
    /// Directory for per-session checkpoints; `None` disables persistence.
    pub ckpt_dir: Option<PathBuf>,
    /// Hurst parameter of the served fGn background process.
    pub hurst: f64,
    /// Longest stream (samples) a session may request; bounds the
    /// prepared ACF horizon.
    pub max_session_samples: usize,
    /// How long one pull waits for the worker before reporting
    /// [`ServeError::PullTimeout`].
    pub pull_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9185".into(),
            max_sessions: 256,
            degrade_watermark: 192,
            buffer_chunks: 4,
            ckpt_every: 1,
            ckpt_dir: None,
            hurst: 0.8,
            max_session_samples: 1 << 13,
            pull_timeout: Duration::from_secs(30),
        }
    }
}

/// Result of one pull.
#[derive(Debug)]
pub enum PullOutcome {
    /// One encoded chunk body (`chunk <idx> tier=<name> n=<len>` header
    /// plus the samples).
    Chunk(String),
    /// The stream is complete; the session is closed.
    End,
}

/// One live (or terminally recorded) session.
struct Session {
    spec: SessionSpec,
    state: SessionState,
    degraded: bool,
    /// Cursor after the last delivered chunk, persisted on the *next*
    /// pull (delivery-then-checkpoint; see module docs).
    pending_ckpt: Option<GenCursor>,
    rx: Option<Arc<Mutex<Receiver<WorkerMsg>>>>,
    fail_reason: Option<String>,
}

struct Inner {
    cfg: ServerConfig,
    table: TabulatedAcf,
    transform: GaussianTransform<Lognormal>,
    /// Hurst parameter and table horizon, stamped into every checkpoint.
    model: ModelKey,
    sessions: Mutex<BTreeMap<u64, Session>>,
    state_counts: Mutex<BTreeMap<&'static str, u64>>,
    next_id: AtomicU64,
    /// Live (non-terminal) sessions; read lock-free by admission control
    /// and by every worker's pressure probe.
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Where [`Server::request_shutdown`] connects to wake a blocked
    /// `accept`: the listener's address, loopback when it is unspecified.
    wake_addr: Mutex<Option<SocketAddr>>,
}

/// The session server. Cheap to clone-share via its inner [`Arc`].
pub struct Server {
    inner: Arc<Inner>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Inner {
    fn ckpt_path(&self, id: u64) -> Option<PathBuf> {
        self.cfg
            .ckpt_dir
            .as_ref()
            .map(|d| d.join(format!("session-{id}.ck")))
    }

    /// Transition a session's lifecycle state, keeping the
    /// `serve.sessions{state}` gauge family consistent.
    fn set_state(&self, sess: &mut Session, to: SessionState) {
        let from = sess.state;
        if from == to {
            return;
        }
        sess.state = to;
        let mut counts = lock(&self.state_counts);
        let f = counts.entry(from.name()).or_insert(0);
        *f = f.saturating_sub(1);
        svbr_obsv::gauge_with("serve.sessions", &[("state", from.name())]).set(*f as f64);
        let t = counts.entry(to.name()).or_insert(0);
        *t += 1;
        svbr_obsv::gauge_with("serve.sessions", &[("state", to.name())]).set(*t as f64);
    }

    /// Record a session entering its first state.
    fn enter_state(&self, state: SessionState) {
        let mut counts = lock(&self.state_counts);
        let c = counts.entry(state.name()).or_insert(0);
        *c += 1;
        svbr_obsv::gauge_with("serve.sessions", &[("state", state.name())]).set(*c as f64);
    }

    /// A session reached a terminal state: drop its worker handle, free
    /// its admission slot, and remove its checkpoint file.
    fn retire(&self, sess: &mut Session, to: SessionState) {
        if sess.state.is_terminal() {
            return;
        }
        self.set_state(sess, to);
        sess.rx = None;
        sess.pending_ckpt = None;
        self.active.fetch_sub(1, Ordering::SeqCst);
        svbr_obsv::alerts::forget_session(sess.spec.id);
        if let Some(path) = self.ckpt_path(sess.spec.id) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// A session's checkpoint: spec, cursor, tier starts and model key.
    fn checkpoint(&self, spec: &SessionSpec, cursor: &GenCursor) -> Checkpoint {
        let mut ck = cursor.to_checkpoint(spec);
        self.model.write_into(&mut ck);
        ck
    }

    /// Persist a pending post-chunk cursor when the work-count tick is due.
    fn flush_pending_ckpt(&self, sess: &mut Session) -> Result<(), ServeError> {
        let Some(post) = sess.pending_ckpt.take() else {
            return Ok(());
        };
        let delivered = post.delivered;
        let due =
            delivered.is_multiple_of(self.cfg.ckpt_every.max(1)) || delivered == sess.spec.chunks;
        if !due {
            return Ok(());
        }
        if let Some(path) = self.ckpt_path(sess.spec.id) {
            let t0 = svbr_obsv::enabled().then(svbr_obsv::now_us);
            self.checkpoint(&sess.spec, &post).write_atomic(&path)?;
            // The checkpoint acknowledges the previously delivered chunk:
            // its span joins that chunk's trace under the server pull span.
            if let Some(t0) = t0 {
                let idx = delivered.saturating_sub(1);
                let trace_id = trace::chunk_trace_id(sess.spec.seed, idx);
                svbr_obsv::emit_span(
                    "serve.ckpt",
                    t0,
                    svbr_obsv::now_us().saturating_sub(t0),
                    TraceCtx {
                        trace_id,
                        span_id: trace::span_id(trace_id, trace::role::CHECKPOINT, 0),
                        parent: trace::span_id(trace_id, trace::role::SERVER_PULL, 0),
                    },
                    vec![("idx".to_string(), idx as f64)],
                );
            }
            if !sess.degraded {
                self.set_state(sess, SessionState::Checkpointed);
            }
        }
        Ok(())
    }
}

impl Server {
    /// Build a server: prepares the positive-definite ACF table for the
    /// configured horizon and the lognormal frame-size transform once,
    /// shared by every session.
    pub fn new(cfg: ServerConfig) -> Result<Self, ServeError> {
        let gen_err = |e: &dyn std::fmt::Display| ServeError::Generate(e.to_string());
        let acf = FgnAcf::new(cfg.hurst).map_err(|e| gen_err(&e))?;
        let (table, _shrink) =
            prepare_table(acf, cfg.max_session_samples + 1).map_err(|e| gen_err(&e))?;
        let marginal = Lognormal::from_moments(1.0, 0.25).map_err(|e| gen_err(&e))?;
        if let Some(dir) = &cfg.ckpt_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Self {
            inner: Arc::new(Inner {
                model: ModelKey::new(cfg.hurst, &table),
                cfg,
                table,
                transform: GaussianTransform::new(marginal),
                sessions: Mutex::new(BTreeMap::new()),
                state_counts: Mutex::new(BTreeMap::new()),
                next_id: AtomicU64::new(1),
                active: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                wake_addr: Mutex::new(None),
            }),
        })
    }

    /// The configured listen address.
    pub fn addr(&self) -> &str {
        &self.inner.cfg.addr
    }

    /// Open a session: admission control, then a supervised worker behind
    /// a bounded channel. Returns the session id, or the typed
    /// [`ServeError::Overloaded`] when at capacity (shedding is counted in
    /// `serve.shed` and recorded in the event log).
    pub fn open_session(
        &self,
        seed: u64,
        chunk_len: usize,
        chunks: u64,
        deadline_ms: Option<u64>,
    ) -> Result<u64, ServeError> {
        if chunk_len == 0 || chunks == 0 {
            return Err(ServeError::BadRequest(
                "chunk_len and chunks must be positive".into(),
            ));
        }
        let requested = chunk_len.saturating_mul(chunks as usize);
        if requested > self.inner.cfg.max_session_samples {
            return Err(ServeError::TooLong {
                requested,
                cap: self.inner.cfg.max_session_samples,
            });
        }
        let active = self.inner.active.load(Ordering::SeqCst);
        if active >= self.inner.cfg.max_sessions {
            svbr_obsv::counter("serve.shed").add(1);
            record_event(format!(
                "shed: session rejected at {active} active (capacity {})",
                self.inner.cfg.max_sessions
            ));
            return Err(ServeError::Overloaded {
                active,
                cap: self.inner.cfg.max_sessions,
            });
        }
        svbr_obsv::counter("serve.opened").add(1);
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        let spec = SessionSpec {
            id,
            seed,
            chunk_len,
            chunks,
            deadline_ms,
        };
        let start = GenCursor::default();
        // Durable before the first chunk, so a crash between open and
        // first delivery still resumes the session.
        if let Some(path) = self.inner.ckpt_path(id) {
            self.inner.checkpoint(&spec, &start).write_atomic(&path)?;
        }
        self.install_session(spec, start, SessionState::Open);
        Ok(id)
    }

    /// Insert a session record and spawn its worker.
    fn install_session(&self, spec: SessionSpec, start: GenCursor, state: SessionState) {
        let rx = self.spawn_worker(spec.clone(), start);
        let sess = Session {
            spec: spec.clone(),
            state,
            degraded: false,
            pending_ckpt: None,
            rx: Some(Arc::new(Mutex::new(rx))),
            fail_reason: None,
        };
        self.inner.active.fetch_add(1, Ordering::SeqCst);
        self.inner.enter_state(state);
        lock(&self.inner.sessions).insert(spec.id, sess);
    }

    /// Spawn the session's worker. It first replays the stream up to
    /// `start` (nothing for a new session), so resuming many sessions runs
    /// their replays in parallel rather than one after another.
    fn spawn_worker(&self, spec: SessionSpec, start: GenCursor) -> Receiver<WorkerMsg> {
        let (tx, rx) = mpsc::sync_channel(self.inner.cfg.buffer_chunks.max(1));
        let inner = Arc::clone(&self.inner);
        #[expect(
            clippy::disallowed_methods,
            reason = "one supervised worker per session behind a bounded channel; a blocked (slow) client parks only this thread"
        )]
        std::thread::spawn(move || {
            let state =
                match start.replay(spec.seed, &inner.table, &inner.transform, spec.chunk_len) {
                    Ok(state) => state,
                    Err(e) => {
                        let reason = format!("resume replay: {e}");
                        let _ = tx.send(WorkerMsg::Failed { reason });
                        return;
                    }
                };
            let pressure = || inner.active.load(Ordering::SeqCst) >= inner.cfg.degrade_watermark;
            run_session(&spec, state, &inner.table, &inner.transform, pressure, &tx);
        });
        rx
    }

    /// Pull the next chunk of `id`. Delivery acknowledges the *previous*
    /// chunk: its post-state checkpoint is flushed here, before the new
    /// chunk is handed out, so persistence never runs ahead of the client.
    pub fn pull_chunk(&self, id: u64) -> Result<PullOutcome, ServeError> {
        self.pull_chunk_traced(id, None)
    }

    /// [`Server::pull_chunk`] with an optional remote trace context parsed
    /// from the client's `x-svbr-trace` header. When tracing is on, the
    /// served chunk emits `serve.queue_wait` + `serve.pull` spans into the
    /// chunk's deterministic trace tree; the remote span is adopted as the
    /// pull span's parent when its trace id matches the chunk actually
    /// served (a stale prediction after a resume re-pull falls back to a
    /// root span rather than mislinking).
    pub fn pull_chunk_traced(
        &self,
        id: u64,
        remote: Option<TraceCtx>,
    ) -> Result<PullOutcome, ServeError> {
        let t0 = svbr_obsv::enabled().then(svbr_obsv::now_us);
        let (rx, seed) = {
            let mut sessions = lock(&self.inner.sessions);
            let sess = sessions
                .get_mut(&id)
                .ok_or(ServeError::UnknownSession(id))?;
            match sess.state {
                SessionState::Closed => return Ok(PullOutcome::End),
                SessionState::Failed => {
                    return Err(ServeError::SessionFailed {
                        id,
                        reason: sess.fail_reason.clone().unwrap_or_default(),
                    })
                }
                _ => {}
            }
            self.inner.flush_pending_ckpt(sess)?;
            match &sess.rx {
                Some(rx) => (Arc::clone(rx), sess.spec.seed),
                None => return Err(ServeError::UnknownSession(id)),
            }
        };
        // Receive outside the session map lock: a slow worker must never
        // stall other sessions' pulls.
        let recv0 = t0.map(|_| svbr_obsv::now_us());
        let msg = lock(&rx).recv_timeout(self.inner.cfg.pull_timeout);
        let recv1 = t0.map(|_| svbr_obsv::now_us());
        let mut sessions = lock(&self.inner.sessions);
        let sess = sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        match msg {
            Ok(WorkerMsg::Chunk {
                idx,
                tier,
                body,
                post,
            }) => {
                if let (Some(t0), Some(recv0), Some(recv1)) = (t0, recv0, recv1) {
                    let trace_id = trace::chunk_trace_id(seed, idx);
                    let pull_span = trace::span_id(trace_id, trace::role::SERVER_PULL, 0);
                    let parent = remote
                        .filter(|r| r.trace_id == trace_id)
                        .map_or(0, |r| r.span_id);
                    svbr_obsv::emit_span(
                        "serve.queue_wait",
                        recv0,
                        recv1.saturating_sub(recv0),
                        TraceCtx {
                            trace_id,
                            span_id: trace::span_id(trace_id, trace::role::QUEUE_WAIT, 0),
                            parent: pull_span,
                        },
                        Vec::new(),
                    );
                    svbr_obsv::emit_span(
                        "serve.pull",
                        t0,
                        svbr_obsv::now_us().saturating_sub(t0),
                        TraceCtx {
                            trace_id,
                            span_id: pull_span,
                            parent,
                        },
                        vec![("idx".to_string(), idx as f64)],
                    );
                }
                svbr_obsv::record_tick(sess.spec.chunk_len as u64);
                svbr_obsv::counter_with("serve.chunks", &[("outcome", "delivered")]).add(1);
                if tier != GeneratorTier::HoskingExact && !sess.degraded {
                    sess.degraded = true;
                    self.inner.set_state(sess, SessionState::Degraded);
                } else if matches!(
                    sess.state,
                    SessionState::Open | SessionState::Checkpointed | SessionState::Resumed
                ) && !sess.degraded
                {
                    self.inner.set_state(sess, SessionState::Streaming);
                }
                sess.pending_ckpt = Some(post);
                Ok(PullOutcome::Chunk(body))
            }
            Ok(WorkerMsg::Done) => {
                self.inner.retire(sess, SessionState::Closed);
                Ok(PullOutcome::End)
            }
            Ok(WorkerMsg::Failed { reason }) => {
                sess.fail_reason = Some(reason.clone());
                self.inner.retire(sess, SessionState::Failed);
                Err(ServeError::SessionFailed { id, reason })
            }
            Err(RecvTimeoutError::Timeout) => Err(ServeError::PullTimeout(id)),
            Err(RecvTimeoutError::Disconnected) => {
                sess.fail_reason = Some("worker disconnected".into());
                self.inner.retire(sess, SessionState::Failed);
                Err(ServeError::SessionFailed {
                    id,
                    reason: "worker disconnected".into(),
                })
            }
        }
    }

    /// Close a session early. Dropping the receiver unblocks and ends the
    /// worker (its next bounded send fails).
    pub fn close_session(&self, id: u64) -> Result<(), ServeError> {
        let mut sessions = lock(&self.inner.sessions);
        let sess = sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        self.inner.retire(sess, SessionState::Closed);
        Ok(())
    }

    /// Restore every checkpointed session from the checkpoint directory
    /// (state `resumed`, generation continuing bit-identically once the
    /// session's worker has replayed it up to its cursor). Returns how
    /// many sessions were restored. A checkpoint in an older layout or
    /// from another model fails with [`ServeError::IncompatibleCheckpoint`].
    pub fn resume_sessions(&self) -> Result<usize, ServeError> {
        let Some(dir) = self.inner.cfg.ckpt_dir.clone() else {
            return Ok(0);
        };
        let mut restored = 0;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if !name.starts_with("session-") || !name.ends_with(".ck") {
                continue;
            }
            let ck = Checkpoint::load(&path)?;
            let (spec, cursor) = GenCursor::from_checkpoint(&ck)?;
            self.inner.model.check(&ck)?;
            let next = self.inner.next_id.load(Ordering::SeqCst);
            self.inner
                .next_id
                .store(next.max(spec.id + 1), Ordering::SeqCst);
            record_event(format!(
                "resumed: session {} at chunk {} (tier {})",
                spec.id,
                cursor.delivered,
                cursor.tier.name()
            ));
            self.install_session(spec, cursor, SessionState::Resumed);
            restored += 1;
        }
        Ok(restored)
    }

    /// Ask the accept loop to exit, and wake it from its blocking
    /// `accept` with a throwaway connection to the listener.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // `serve_on` records the address before it first reads the flag,
        // so either it sees the flag or this sees the address.
        if let Some(addr) = *lock(&self.inner.wake_addr) {
            // A refused connect means the listener is already closed.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Bind the configured listen address.
    pub fn bind(&self) -> Result<TcpListener, ServeError> {
        Ok(TcpListener::bind(&self.inner.cfg.addr)?)
    }

    /// Serve the HTTP front end on `listener` until
    /// [`Server::request_shutdown`] (e.g. via `GET /shutdown`). The loop
    /// blocks in `accept`; the shutdown request wakes it.
    pub fn serve_on(&self, listener: TcpListener) -> Result<(), ServeError> {
        listener.set_nonblocking(false)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        *lock(&self.inner.wake_addr) = Some(wake);
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            match listener.accept() {
                // The wake-up connection (or a client racing shutdown).
                Ok(_) if self.inner.shutdown.load(Ordering::SeqCst) => return Ok(()),
                Ok((stream, _peer)) => {
                    let inner = Arc::clone(&self.inner);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "one short-lived handler per connection; all request state lives behind the session map lock"
                    )]
                    std::thread::spawn(move || handle_conn(&Server { inner }, stream));
                }
                // A real accept error (e.g. out of file descriptors): back
                // off rather than spin on it.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

/// Map a [`ServeError`] to its HTTP status.
fn status_of(e: &ServeError) -> u16 {
    match e {
        ServeError::Overloaded { .. } => 503,
        ServeError::UnknownSession(_) => 404,
        ServeError::SessionFailed { .. } => 410,
        ServeError::PullTimeout(_) => 504,
        ServeError::BadRequest(_) | ServeError::TooLong { .. } => 400,
        ServeError::Generate(_)
        | ServeError::Checkpoint(_)
        | ServeError::IncompatibleCheckpoint(_)
        | ServeError::Io(_) => 500,
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        410 => "Gone",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

fn respond(stream: &mut TcpStream, code: u16, body: &str) {
    let head = format!(
        "HTTP/1.0 {code} {}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        body.len()
    );
    // The client may already be gone; delivery is acknowledged by the
    // *next* pull, so a failed write is safe to ignore here.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
}

/// Parse `path?k=v&k2=v2` into the route and its query parameters.
fn parse_query(target: &str) -> (&str, BTreeMap<&str, &str>) {
    let (route, query) = target.split_once('?').unwrap_or((target, ""));
    let mut params = BTreeMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.insert(k, v);
    }
    (route, params)
}

fn parse_u64(params: &BTreeMap<&str, &str>, key: &str) -> Result<u64, ServeError> {
    params
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ServeError::BadRequest(format!("missing or invalid `{key}`")))
}

/// Extract a [`TraceCtx`] from the request's `x-svbr-trace` header, if
/// present and well-formed (header names are case-insensitive).
fn parse_trace_header(request: &str) -> Option<TraceCtx> {
    for line in request.lines().skip(1) {
        if line.trim().is_empty() {
            break; // end of headers
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case(trace::TRACE_HEADER) {
            return TraceCtx::from_header_value(value);
        }
    }
    None
}

/// Handle one request on one connection (HTTP/1.0, connection: close).
fn handle_conn(server: &Server, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // Read until the blank line that ends the headers. Responding while
    // request bytes are still in flight leaves them unread at close, which
    // turns the close into an RST — and an RST can destroy the buffered
    // response on the client side, silently un-delivering a chunk.
    let mut buf = [0u8; 4096];
    let mut n = 0usize;
    loop {
        match stream.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(m) => {
                n += m;
                if buf[..n].windows(4).any(|w| w == b"\r\n\r\n") || n == buf.len() {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    if n == 0 {
        return;
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let remote = parse_trace_header(&request);
    let mut parts = request.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(&mut stream, 400, "malformed request line\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 400, "only GET is served\n");
    }
    let (route, params) = parse_query(target);
    match route {
        "/open" => {
            let open = parse_u64(&params, "seed").and_then(|seed| {
                let chunk_len = parse_u64(&params, "chunk_len")? as usize;
                let chunks = parse_u64(&params, "chunks")?;
                let deadline_ms = params.get("deadline_ms").and_then(|v| v.parse().ok());
                server.open_session(seed, chunk_len, chunks, deadline_ms)
            });
            match open {
                Ok(id) => respond(&mut stream, 200, &format!("session {id}\n")),
                Err(e) => respond(&mut stream, status_of(&e), &format!("{e}\n")),
            }
        }
        "/pull" => match parse_u64(&params, "session")
            .and_then(|id| server.pull_chunk_traced(id, remote))
        {
            Ok(PullOutcome::Chunk(body)) => respond(&mut stream, 200, &body),
            Ok(PullOutcome::End) => respond(&mut stream, 200, "end\n"),
            Err(e) => respond(&mut stream, status_of(&e), &format!("{e}\n")),
        },
        "/close" => match parse_u64(&params, "session").and_then(|id| {
            server.close_session(id)?;
            Ok(id)
        }) {
            Ok(id) => respond(&mut stream, 200, &format!("closed {id}\n")),
            Err(e) => respond(&mut stream, status_of(&e), &format!("{e}\n")),
        },
        "/metrics" | "/stats" => {
            let text = svbr_obsv::TextExposer::new().render(&svbr_obsv::snapshot());
            respond(&mut stream, 200, &text);
        }
        "/alerts" => {
            // Fired alerts in their JSONL wire form, one per line — the
            // same records the trace carries, replayable by Event::parse.
            let mut text = String::new();
            for alert in svbr_obsv::alerts::fired() {
                text.push_str(&alert.to_event().to_jsonl());
                text.push('\n');
            }
            respond(&mut stream, 200, &text);
        }
        "/shutdown" => {
            // Answer first: the woken accept loop returns at once, and the
            // process may exit before a later write would happen.
            respond(&mut stream, 200, "shutting down\n");
            server.request_shutdown();
        }
        _ => respond(&mut stream, 404, "unknown route\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(dir: Option<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 4,
            degrade_watermark: 4,
            buffer_chunks: 2,
            ckpt_every: 1,
            ckpt_dir: dir,
            hurst: 0.8,
            max_session_samples: 256,
            pull_timeout: Duration::from_secs(30),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("svbr-serve-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pull_all(server: &Server, id: u64) -> Vec<String> {
        let mut bodies = Vec::new();
        loop {
            match server.pull_chunk(id) {
                Ok(PullOutcome::Chunk(b)) => bodies.push(b),
                Ok(PullOutcome::End) => return bodies,
                Err(e) => panic!("pull: {e}"),
            }
        }
    }

    #[test]
    fn sessions_stream_to_completion_and_close() {
        let server = match Server::new(test_cfg(None)) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let id = match server.open_session(42, 16, 3, None) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        let bodies = pull_all(&server, id);
        assert_eq!(bodies.len(), 3);
        assert!(bodies[0].starts_with("chunk 0 tier=hosking-exact n=16\n"));
        // Closed is sticky: further pulls still answer End.
        assert!(matches!(server.pull_chunk(id), Ok(PullOutcome::End)));
    }

    #[test]
    fn admission_control_sheds_with_typed_overloaded() {
        let mut cfg = test_cfg(None);
        cfg.max_sessions = 1;
        let server = match Server::new(cfg) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let shed_before = svbr_obsv::counter("serve.shed").get();
        let id = match server.open_session(1, 8, 2, None) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        match server.open_session(2, 8, 2, None) {
            Err(ServeError::Overloaded { active, cap }) => {
                assert_eq!((active, cap), (1, 1));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(svbr_obsv::counter("serve.shed").get() > shed_before);
        // Draining the first session frees the slot.
        pull_all(&server, id);
        assert!(server.open_session(3, 8, 2, None).is_ok());
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let dir = tmp_dir("resume");
        // Uninterrupted reference stream.
        let ref_server = match Server::new(test_cfg(None)) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let rid = match ref_server.open_session(0xabcd, 16, 5, None) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        let reference = pull_all(&ref_server, rid);

        // Interrupted run: pull two chunks, then drop the server cold
        // (worker threads and all) — the moral equivalent of SIGKILL.
        let server = match Server::new(test_cfg(Some(dir.clone()))) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let id = match server.open_session(0xabcd, 16, 5, None) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        let mut got = Vec::new();
        for _ in 0..2 {
            match server.pull_chunk(id) {
                Ok(PullOutcome::Chunk(b)) => got.push(b),
                other => panic!("expected chunk, got {other:?}"),
            }
        }
        drop(server);

        // Restart from the checkpoint directory and finish the stream.
        let revived = match Server::new(test_cfg(Some(dir.clone()))) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let restored = match revived.resume_sessions() {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(restored, 1);
        for body in pull_all(&revived, id) {
            got.push(body);
        }
        // Checkpoints trail delivery, so the tail may re-serve chunks the
        // client already saw — dedupe by index, then compare bytes.
        let mut by_idx: BTreeMap<u64, String> = BTreeMap::new();
        for body in got {
            let idx: u64 = body
                .split_whitespace()
                .nth(1)
                .and_then(|t| t.parse().ok())
                .unwrap_or(u64::MAX);
            if let Some(prev) = by_idx.get(&idx) {
                assert_eq!(prev, &body, "duplicate chunk {idx} must be byte-identical");
            }
            by_idx.entry(idx).or_insert(body);
        }
        let resumed: Vec<String> = by_idx.into_values().collect();
        assert_eq!(
            resumed, reference,
            "resumed stream must match uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_sessions_end_failed_not_hung() {
        let server = match Server::new(test_cfg(None)) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let id = match server.open_session(5, 8, 2, Some(0)) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        match server.pull_chunk(id) {
            Err(ServeError::SessionFailed { reason, .. }) => {
                assert!(reason.contains("exhausted"), "typed history: {reason}");
            }
            other => panic!("expected SessionFailed, got {other:?}"),
        }
        // Failed is sticky and typed on every subsequent pull.
        assert!(matches!(
            server.pull_chunk(id),
            Err(ServeError::SessionFailed { .. })
        ));
    }

    #[test]
    fn http_front_end_serves_open_pull_metrics_end_to_end() {
        let server = match Server::new(test_cfg(None)) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let listener = match server.bind() {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        };
        let addr = match listener.local_addr() {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        };
        let inner = Arc::clone(&server.inner);
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness: the accept loop must run while this test drives it as a client"
        )]
        let accept = std::thread::spawn(move || Server { inner }.serve_on(listener));

        let get = |path: &str| -> (u16, String) {
            let mut stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => panic!("connect: {e}"),
            };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
            match write!(stream, "GET {path} HTTP/1.0\r\n\r\n") {
                Ok(()) => {}
                Err(e) => panic!("write: {e}"),
            }
            let mut text = String::new();
            let _ = stream.read_to_string(&mut text);
            let code = text
                .split_whitespace()
                .nth(1)
                .and_then(|c| c.parse().ok())
                .unwrap_or(0);
            let body = text
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.to_string())
                .unwrap_or_default();
            (code, body)
        };

        let (code, body) = get("/open?seed=7&chunk_len=8&chunks=2");
        assert_eq!(code, 200, "{body}");
        let id: u64 = match body.trim().strip_prefix("session ").map(str::parse) {
            Some(Ok(id)) => id,
            other => panic!("bad open response {body:?}: {other:?}"),
        };
        let (code, chunk0) = get(&format!("/pull?session={id}"));
        assert_eq!(code, 200);
        assert!(
            chunk0.starts_with("chunk 0 tier=hosking-exact n=8\n"),
            "{chunk0}"
        );
        let (_, _) = get(&format!("/pull?session={id}"));
        let (code, end) = get(&format!("/pull?session={id}"));
        assert_eq!((code, end.as_str()), (200, "end\n"));
        let (code, _) = get("/pull?session=999");
        assert_eq!(code, 404);
        let (code, metrics) = get("/metrics");
        assert_eq!(code, 200);
        assert!(
            metrics.contains("serve_chunks{outcome=\"delivered\"}"),
            "exposition must carry serve metrics: {metrics}"
        );
        // The exposition must parse line-by-line: every sample line is
        // `name[{labels}] value` with a finite numeric value, and every
        // histogram carries its `_sum` / `_count` aggregate lines.
        for line in metrics.lines().filter(|l| !l.starts_with('#')) {
            if line.trim().is_empty() {
                continue;
            }
            let (name, value) = match line.rsplit_once(' ') {
                Some(p) => p,
                None => panic!("unparseable exposition line: {line:?}"),
            };
            assert!(!name.is_empty(), "{line:?}");
            let v: f64 = match value.parse() {
                Ok(v) => v,
                Err(e) => panic!("bad sample value in {line:?}: {e}"),
            };
            assert!(v.is_finite() || value == "+Inf", "{line:?}");
        }
        assert!(
            metrics.contains("serve_chunk_us_sum ") && metrics.contains("serve_chunk_us_count "),
            "histograms must expose _sum and _count: {metrics}"
        );
        let (code, alerts) = get("/alerts");
        assert_eq!(code, 200);
        for line in alerts.lines() {
            assert!(
                matches!(
                    svbr_obsv::Event::parse(line),
                    Some(svbr_obsv::Event::Alert { .. })
                ),
                "every /alerts line must be a JSONL alert event: {line:?}"
            );
        }
        let (code, _) = get("/shutdown");
        assert_eq!(code, 200);
        match accept.join() {
            Ok(Ok(())) => {}
            other => panic!("accept loop: {other:?}"),
        }
    }

    #[test]
    fn alerts_endpoint_replays_fired_rules_as_jsonl() {
        use svbr_obsv::{AlertRule, Event, RuleKind, Severity};
        let server = match Server::new(test_cfg(None)) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let listener = match server.bind() {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        };
        let addr = match listener.local_addr() {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        };
        let inner = Arc::clone(&server.inner);
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness: the accept loop must run while this test drives it as a client"
        )]
        let accept = std::thread::spawn(move || Server { inner }.serve_on(listener));

        let engine = svbr_obsv::install_alerts(vec![AlertRule::new(
            "latency-slo-chunk",
            Severity::Warning,
            RuleKind::P95AboveUs {
                series: "serve.chunk_us",
                threshold_us: 1.0,
            },
        )]);
        let reg = svbr_obsv::Registry::new();
        reg.histogram("serve.chunk_us").record(1_000_000);
        engine.evaluate(0, &reg.snapshot());
        assert_eq!(engine.fired().len(), 1);

        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => panic!("connect: {e}"),
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        match write!(stream, "GET /alerts HTTP/1.0\r\n\r\n") {
            Ok(()) => {}
            Err(e) => panic!("write: {e}"),
        }
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        let parsed: Vec<Event> = body.lines().filter_map(Event::parse).collect();
        assert!(
            parsed.iter().any(|e| matches!(
                e,
                Event::Alert { rule, series, .. }
                    if rule == "latency-slo-chunk" && series == "serve.chunk_us"
            )),
            "fired alert must replay on /alerts: {body:?}"
        );
        svbr_obsv::uninstall_alerts();

        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => panic!("connect: {e}"),
        };
        let _ = write!(stream, "GET /shutdown HTTP/1.0\r\n\r\n");
        let mut drain = String::new();
        let _ = stream.read_to_string(&mut drain);
        match accept.join() {
            Ok(Ok(())) => {}
            other => panic!("accept loop: {other:?}"),
        }
    }

    /// Run `serve_on` on a fresh listener in its own thread; the receiver
    /// gets its result when the loop exits.
    fn spawn_accept(
        server: &Server,
    ) -> (
        std::net::SocketAddr,
        mpsc::Receiver<Result<(), ServeError>>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = match server.bind() {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        };
        let addr = match listener.local_addr() {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        };
        let inner = Arc::clone(&server.inner);
        let (tx, rx) = mpsc::sync_channel(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness: the accept loop must block in its own thread while the test asks it to stop"
        )]
        let handle = std::thread::spawn(move || {
            let _ = tx.send(Server { inner }.serve_on(listener));
        });
        // Give the loop time to block in accept. Stopping it earlier would
        // also pass (it reads the flag first), but test less.
        std::thread::sleep(Duration::from_millis(50));
        (addr, rx, handle)
    }

    #[test]
    fn request_shutdown_ends_an_idle_accept_loop_within_a_second() {
        let server = match Server::new(test_cfg(None)) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let (_, done, handle) = spawn_accept(&server);
        server.request_shutdown();
        match done.recv_timeout(Duration::from_secs(1)) {
            Ok(Ok(())) => {}
            other => panic!("accept loop did not stop within 1 s: {other:?}"),
        }
        assert!(handle.join().is_ok());
    }

    #[test]
    fn get_shutdown_ends_an_idle_accept_loop_within_a_second() {
        let server = match Server::new(test_cfg(None)) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let (addr, done, handle) = spawn_accept(&server);
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => panic!("connect: {e}"),
        };
        let _ = write!(stream, "GET /shutdown HTTP/1.0\r\n\r\n");
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        assert!(reply.ends_with("shutting down\n"), "{reply:?}");
        match done.recv_timeout(Duration::from_secs(1)) {
            Ok(Ok(())) => {}
            other => panic!("accept loop did not stop within 1 s: {other:?}"),
        }
        assert!(handle.join().is_ok());
    }

    #[test]
    fn resume_refuses_checkpoints_from_another_model() {
        let dir = tmp_dir("model");
        let server = match Server::new(test_cfg(Some(dir.clone()))) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let id = match server.open_session(17, 16, 4, None) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        assert!(matches!(server.pull_chunk(id), Ok(PullOutcome::Chunk(_))));
        drop(server);
        let mut other_hurst = test_cfg(Some(dir.clone()));
        other_hurst.hurst = 0.7;
        let mut other_horizon = test_cfg(Some(dir.clone()));
        other_horizon.max_session_samples = 512;
        for cfg in [other_hurst, other_horizon] {
            let revived = match Server::new(cfg) {
                Ok(s) => s,
                Err(e) => panic!("{e}"),
            };
            match revived.resume_sessions() {
                Err(ServeError::IncompatibleCheckpoint(msg)) => {
                    assert!(msg.contains("hurst"), "{msg}");
                }
                other => panic!("expected IncompatibleCheckpoint, got {other:?}"),
            }
        }
        let same = match Server::new(test_cfg(Some(dir.clone()))) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        assert!(matches!(same.resume_sessions(), Ok(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The set of traced span identities for `seed`'s chunks: every
    /// `(name, trace_id, span_id, parent)` whose trace id belongs to one of
    /// the session's `chunks` chunk trees.
    fn traced_span_set(
        events: &[svbr_obsv::Event],
        seed: u64,
        chunks: u64,
    ) -> std::collections::BTreeSet<(String, u64, u64, u64)> {
        let ids: std::collections::BTreeSet<u64> = (0..chunks)
            .map(|k| trace::chunk_trace_id(seed, k))
            .collect();
        events
            .iter()
            .filter_map(|e| match e {
                svbr_obsv::Event::Span { name, ctx, .. } if ids.contains(&ctx.trace_id) => {
                    Some((name.clone(), ctx.trace_id, ctx.span_id, ctx.parent))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn resume_regenerates_identical_traced_span_ids() {
        let seed = 0x7ace_5eed_u64;
        let chunks = 5u64;
        let sink = Arc::new(svbr_obsv::MemorySink::new());
        svbr_obsv::install(sink.clone());

        // Uninterrupted reference run (checkpointing on, so serve.ckpt
        // spans appear in both runs).
        let ref_dir = tmp_dir("trace-ref");
        let server = match Server::new(test_cfg(Some(ref_dir.clone()))) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let id = match server.open_session(seed, 16, chunks, None) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        pull_all(&server, id);
        drop(server);
        let reference = traced_span_set(&sink.events(), seed, chunks);
        assert!(
            reference.iter().any(|(name, ..)| name == "serve.pull"),
            "reference run must contain pull spans"
        );
        assert!(
            reference.iter().any(|(name, ..)| name == "serve.chunk"),
            "reference run must contain worker spans"
        );
        sink.clear();

        // Interrupted run: two pulls, cold drop, resume, finish.
        let dir = tmp_dir("trace-resume");
        let server = match Server::new(test_cfg(Some(dir.clone()))) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        let id = match server.open_session(seed, 16, chunks, None) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        for _ in 0..2 {
            match server.pull_chunk(id) {
                Ok(PullOutcome::Chunk(_)) => {}
                other => panic!("expected chunk, got {other:?}"),
            }
        }
        drop(server);
        let revived = match Server::new(test_cfg(Some(dir.clone()))) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        match revived.resume_sessions() {
            Ok(1) => {}
            other => panic!("expected 1 restored session, got {other:?}"),
        }
        pull_all(&revived, id);
        drop(revived);
        let resumed = traced_span_set(&sink.events(), seed, chunks);
        svbr_obsv::uninstall();

        // Deterministic derivation means re-served chunks regenerate the
        // *same* span ids: after dedup the interrupted run's span set
        // equals the uninterrupted run's exactly.
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
