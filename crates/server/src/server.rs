//! The server proper: a blocking accept loop, one thread per
//! connection, and a single *engine thread* that owns the
//! [`Runtime`] and serializes every state change.
//!
//! The engine thread is the robustness anchor: the runtime is never
//! shared or locked, so no wire fault, slow client, or panicking
//! connection can leave it half-mutated. A connection decodes each
//! mutation frame into the runtime [`Command`] it carries — the decode
//! parses its SQL and policy XML — sets the command's session to its
//! own, and forwards it as an [`EngineCommand`] over an unbounded
//! channel (control traffic must never deadlock); the engine thread
//! applies each with one [`Runtime::apply`]. The *data* path is bounded per connection by
//! the [`IngestGate`](crate::queue::IngestGate) instead. Shutdown
//! drops every sender, lets the engine drain the channel — counting
//! drained batches — and, when the runtime is durable, commits the
//! WAL with a final snapshot before handing the runtime back.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paradise_core::{Command, CoreError, QueryHandle, Runtime};

use crate::admission::AdmissionConfig;
use crate::connection::{serve_connection, ConnCtx};
use crate::protocol::{self, ErrorCode, Response, TickEntry, DEFAULT_MAX_FRAME_BYTES};
use crate::queue::{IngestGate, OverloadPolicy};
use crate::stats::{ServerStats, StatsCell};

/// Everything tunable about a [`Server`]. The defaults favour
/// robustness: bounded queues, finite timeouts, and caps everywhere.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Resource caps refused at the edge.
    pub admission: AdmissionConfig,
    /// Default per-connection ingest queue capacity (a `Hello` may
    /// lower or raise it for its own connection).
    pub queue_capacity: usize,
    /// Default overload policy (a `Hello` may override it).
    pub overload: OverloadPolicy,
    /// Socket read timeout — also the granularity at which idle and
    /// shutdown are noticed.
    pub read_timeout: Duration,
    /// Socket write timeout — a client that stops draining replies is
    /// disconnected rather than wedging its thread forever.
    pub write_timeout: Duration,
    /// A connection idle (no frame started) past this is reaped.
    pub idle_timeout: Duration,
    /// Hard cap on one frame's payload; larger length prefixes are
    /// rejected before any allocation.
    pub max_frame_bytes: usize,
    /// When set, the server appends a line-oriented event log here
    /// (accepted/reaped/malformed/quarantined…) for post-mortems.
    pub log_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission: AdmissionConfig::default(),
            queue_capacity: 64,
            overload: OverloadPolicy::Block { deadline: Duration::from_secs(5) },
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            log_path: None,
        }
    }
}

/// Line-oriented event log (no-op when unconfigured).
pub(crate) struct Logger {
    file: Option<Mutex<File>>,
    start: Instant,
}

impl Logger {
    fn new(path: Option<&PathBuf>) -> Self {
        let file = path.and_then(|p| File::create(p).ok()).map(Mutex::new);
        Logger { file, start: Instant::now() }
    }

    pub(crate) fn log(&self, line: impl AsRef<str>) {
        if let Some(file) = &self.file {
            if let Ok(mut f) = file.lock() {
                let t = self.start.elapsed();
                let _ = writeln!(f, "[{:>8.3}s] {}", t.as_secs_f64(), line.as_ref());
            }
        }
    }
}

/// Engine-side identity of a client: either the connection itself
/// (anonymous `Hello`, state dies with the socket) or a client-chosen
/// named session (state survives disconnects so a retrying client can
/// resume where it left off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SessKey {
    /// Anonymous session scoped to one connection id.
    Conn(u64),
    /// Durable session named by the client at `Hello`.
    Named(u64),
}

impl SessKey {
    /// The session id used for WAL-durable `(session, seq)` dedup —
    /// `0` (no dedup) for anonymous connections.
    pub(crate) fn session_id(self) -> u64 {
        match self {
            SessKey::Named(s) => s,
            SessKey::Conn(_) => 0,
        }
    }
}

/// A command from a connection thread to the engine thread: one runtime
/// [`Command`], or a server-local request. Replies travel over a
/// per-request channel, except an ingest's (see [`Reply::Deferred`]).
pub(crate) enum EngineCommand {
    /// Apply one runtime mutation for a session.
    Apply {
        /// Calling session (owns registered handles and deferred
        /// ingest errors).
        sess: SessKey,
        /// The mutation, its origin's session already the caller's.
        cmd: Command,
        /// Where the answer goes.
        reply: Reply,
    },
    /// Resume (or create) a named session at `Hello` and report its
    /// dedup high-water mark back to the client.
    Resume {
        /// The named session.
        sess: SessKey,
        /// Reply channel (a `Welcome`).
        reply: Sender<Response>,
    },
    /// Tick the calling session's handles alone and reply with their
    /// per-handle results.
    Tick {
        /// Calling session.
        sess: SessKey,
        /// Client-assigned dedup sequence (`0` = none); a repeat
        /// returns the cached reply instead of re-ticking.
        seq: u64,
        /// Reply channel.
        reply: Sender<Response>,
    },
    /// Fetch server + runtime counters.
    Stats {
        /// Reply channel.
        reply: Sender<Response>,
    },
    /// A connection ended; anonymous sessions release everything they
    /// owned, named sessions keep their state for resumption.
    Disconnect {
        /// The session.
        sess: SessKey,
    },
}

/// Where the engine thread answers an [`EngineCommand::Apply`].
pub(crate) enum Reply {
    /// Send the response on this channel.
    Now(Sender<Response>),
    /// An ingest, answered `Accepted` by its connection at enqueue:
    /// apply is asynchronous, a failure is deferred to the session's
    /// next tick reply, and one slot of the connection's gate is
    /// released after apply.
    Deferred(Arc<IngestGate>),
}

/// Engine-side per-session state.
#[derive(Default)]
struct ConnState {
    /// `(runtime handle, module)` in registration order; the wire id
    /// is the handle's [`id`](QueryHandle::id).
    handles: Vec<(QueryHandle, String)>,
    /// Ingest-apply errors awaiting the next tick reply (bounded).
    deferred: Vec<String>,
    /// Recent `(seq, reply)` pairs for ticks served to a named
    /// session: a retried tick returns its cached reply instead of
    /// re-evaluating (and re-billing ε for) the same tick. In-memory
    /// only — the cache does not survive a server crash.
    tick_replies: VecDeque<(u64, Response)>,
}

const MAX_DEFERRED: usize = 32;
const MAX_TICK_REPLIES: usize = 32;

/// A multi-tenant TCP front end over one [`Runtime`].
///
/// ```no_run
/// use paradise_core::{ProcessingChain, Runtime};
/// use paradise_server::{Server, ServerConfig};
///
/// let runtime = Runtime::new(ProcessingChain::apartment());
/// let server = Server::start(runtime, ServerConfig::default()).unwrap();
/// println!("serving on {}", server.local_addr());
/// let _runtime = server.shutdown().unwrap();
/// ```
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    crash: Arc<AtomicBool>,
    tx: Option<Sender<EngineCommand>>,
    engine: Option<JoinHandle<Option<Runtime>>>,
    accept: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conn_sockets: Arc<Mutex<HashMap<u64, TcpStream>>>,
    stats: Arc<StatsCell>,
}

impl Server {
    /// Bind `config.addr`, move `runtime` onto the engine thread, and
    /// start serving. Returns once the listener is live.
    pub fn start(runtime: Runtime, config: ServerConfig) -> Result<Server, CoreError> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| CoreError::Io(e.to_string()))?;
        let local_addr = listener.local_addr().map_err(|e| CoreError::Io(e.to_string()))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let crash = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsCell::default());
        let logger = Arc::new(Logger::new(config.log_path.as_ref()));
        let (tx, rx) = mpsc::channel::<EngineCommand>();

        let engine = {
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let crash = Arc::clone(&crash);
            let logger = Arc::clone(&logger);
            let admission = config.admission.clone();
            std::thread::Builder::new()
                .name("paradise-engine".into())
                .spawn(move || engine_loop(runtime, rx, admission, stats, shutdown, crash, logger))
                .map_err(|e| CoreError::Io(e.to_string()))?
        };

        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let conn_sockets = Arc::new(Mutex::new(HashMap::new()));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let logger = Arc::clone(&logger);
            let tx = tx.clone();
            let conn_threads = Arc::clone(&conn_threads);
            let conn_sockets = Arc::clone(&conn_sockets);
            let config = Arc::new(config);
            std::thread::Builder::new()
                .name("paradise-accept".into())
                .spawn(move || {
                    accept_loop(
                        listener,
                        config,
                        tx,
                        stats,
                        shutdown,
                        logger,
                        conn_threads,
                        conn_sockets,
                    )
                })
                .map_err(|e| CoreError::Io(e.to_string()))?
        };

        Ok(Server {
            local_addr,
            shutdown,
            crash,
            tx: Some(tx),
            engine: Some(engine),
            accept: Some(accept),
            conn_threads,
            conn_sockets,
            stats,
        })
    }

    /// The bound address (with the real port when `addr` used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the server's robustness counters.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, disconnect clients, drain
    /// the queued ingest batches, commit the durability WAL (when the
    /// runtime is durable), and hand the runtime back.
    pub fn shutdown(mut self) -> Option<Runtime> {
        self.stop()
    }

    /// Crash emulation for recovery tests: tear the process state
    /// down as `kill -9` would — queued batches are still applied,
    /// but the final WAL commit is skipped, so everything the
    /// durability layer buffered since the last tick is lost. The
    /// runtime is leaked, not returned.
    pub fn crash(mut self) {
        self.crash.store(true, Ordering::SeqCst);
        self.stop();
    }

    fn stop(&mut self) -> Option<Runtime> {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Kick every live connection off its socket read.
        if let Ok(sockets) = self.conn_sockets.lock() {
            for stream in sockets.values() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        let threads = match self.conn_threads.lock() {
            Ok(mut threads) => std::mem::take(&mut *threads),
            Err(_) => Vec::new(),
        };
        for t in threads {
            let _ = t.join();
        }
        // All senders gone → the engine drains the channel and exits.
        self.tx.take();
        self.engine.take().and_then(|engine| engine.join().unwrap_or(None))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.engine.is_some() {
            self.stop();
        }
    }
}

/// Accept connections until shutdown, enforcing the connection cap.
#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    config: Arc<ServerConfig>,
    tx: Sender<EngineCommand>,
    stats: Arc<StatsCell>,
    shutdown: Arc<AtomicBool>,
    logger: Arc<Logger>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conn_sockets: Arc<Mutex<HashMap<u64, TcpStream>>>,
) {
    let next_id = AtomicU64::new(1);
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let live = stats.connections_live.load(Ordering::Relaxed);
        if live as usize >= config.admission.max_connections {
            StatsCell::bump(&stats.connections_rejected);
            logger.log("accept: connection rejected (connection cap)");
            reject_connection(stream, &config);
            continue;
        }
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        StatsCell::bump(&stats.connections_accepted);
        StatsCell::bump(&stats.connections_live);
        logger.log(format!("conn {id}: accepted from {:?}", stream.peer_addr().ok()));
        if let Ok(clone) = stream.try_clone() {
            if let Ok(mut sockets) = conn_sockets.lock() {
                sockets.insert(id, clone);
            }
        }
        let ctx = ConnCtx {
            id,
            tx: tx.clone(),
            stats: Arc::clone(&stats),
            config: Arc::clone(&config),
            shutdown: Arc::clone(&shutdown),
            logger: Arc::clone(&logger),
        };
        let sockets = Arc::clone(&conn_sockets);
        let thread = std::thread::Builder::new()
            .name(format!("paradise-conn-{id}"))
            .spawn(move || {
                serve_connection(stream, ctx);
                if let Ok(mut sockets) = sockets.lock() {
                    sockets.remove(&id);
                }
            });
        match thread {
            Ok(handle) => {
                if let Ok(mut threads) = conn_threads.lock() {
                    threads.push(handle);
                }
            }
            Err(_) => {
                StatsCell::drop_one(&stats.connections_live);
                StatsCell::bump(&stats.connections_closed);
            }
        }
    }
}

/// Best-effort typed refusal for an over-cap connection.
fn reject_connection(mut stream: TcpStream, config: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = protocol::write_response(
        &mut stream,
        &Response::Error { code: ErrorCode::Admission, message: "connection limit reached".into() },
    );
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// The engine thread: apply commands in arrival order until every
/// sender is gone, then finish the durability story.
fn engine_loop(
    mut runtime: Runtime,
    rx: Receiver<EngineCommand>,
    admission: AdmissionConfig,
    stats: Arc<StatsCell>,
    shutdown: Arc<AtomicBool>,
    crash: Arc<AtomicBool>,
    logger: Arc<Logger>,
) -> Option<Runtime> {
    let mut conns: HashMap<SessKey, ConnState> = HashMap::new();
    let mut retained_rows: u64 = 0;

    while let Ok(cmd) = rx.recv() {
        // Crash emulation is immediate: a real `kill -9` would not
        // drain the queue, and control ops would otherwise commit the
        // WAL records buffered since the last tick.
        if crash.load(Ordering::SeqCst) {
            break;
        }
        match cmd {
            EngineCommand::Resume { sess, reply } => {
                let session = sess.session_id();
                let state = conns.entry(sess).or_default();
                if state.handles.is_empty() {
                    // Server restarted since this session registered:
                    // reattach its durably-recovered handles.
                    state.handles = runtime
                        .session_registrations(session)
                        .into_iter()
                        .map(|(_, qh, module)| (qh, module))
                        .collect();
                }
                let last_seq = runtime.session_mark(session);
                if last_seq > 0 || !state.handles.is_empty() {
                    StatsCell::bump(&stats.sessions_resumed);
                    logger.log(format!(
                        "session {session}: resumed (last_seq {last_seq}, {} handles)",
                        state.handles.len()
                    ));
                }
                let _ = reply.send(Response::Welcome { session_id: session, last_seq });
            }
            EngineCommand::Apply { sess, cmd, reply: Reply::Deferred(gate) } => {
                let (session, seq) = cmd.origin();
                let (target, rows) = match &cmd {
                    Command::Ingest { node, table, frame, .. } => {
                        (format!("{node}.{table}"), frame.len() as u64)
                    }
                    _ => (String::new(), 0),
                };
                // A duplicate re-send holds no new rows, so it must
                // not be refused by the retention cap.
                let over_retention = !runtime.is_duplicate(session, seq)
                    && admission.max_retained_rows != 0
                    && retained_rows + rows > admission.max_retained_rows as u64;
                if over_retention {
                    StatsCell::bump(&stats.admission_rejected);
                    defer_error(
                        &mut conns,
                        &stats,
                        sess,
                        format!(
                            "ingest into {target} rejected: retained-row cap ({}) exceeded",
                            admission.max_retained_rows
                        ),
                    );
                } else {
                    match runtime.apply(cmd) {
                        Ok(applied) if applied.duplicate => StatsCell::bump(&stats.dedup_hits),
                        Ok(_) => {
                            retained_rows += rows;
                            StatsCell::bump(&stats.ingest_applied);
                            if shutdown.load(Ordering::SeqCst) {
                                StatsCell::bump(&stats.drained_at_shutdown);
                            }
                        }
                        Err(e) => defer_error(
                            &mut conns,
                            &stats,
                            sess,
                            format!("ingest into {target} failed: {e}"),
                        ),
                    }
                }
                gate.leave();
            }
            EngineCommand::Apply { sess, cmd, reply: Reply::Now(reply) } => {
                let (session, seq) = cmd.origin();
                let refused = match &cmd {
                    // A retried Register that already applied must
                    // return its handle even if the module has since
                    // reached its cap — dedup takes precedence over
                    // admission.
                    Command::Register { module, .. } if !runtime.is_duplicate(session, seq) => {
                        let live = conns
                            .values()
                            .flat_map(|c| c.handles.iter())
                            .filter(|(_, m)| m == module)
                            .count();
                        (live >= admission.max_handles_per_module).then(|| {
                            StatsCell::bump(&stats.admission_rejected);
                            logger.log(format!(
                                "session {sess:?}: register rejected (module {module} handle cap)"
                            ));
                            Response::Error {
                                code: ErrorCode::Admission,
                                message: format!(
                                    "module {module} is at its handle limit ({})",
                                    admission.max_handles_per_module
                                ),
                            }
                        })
                    }
                    Command::RemoveQuery { handle } => {
                        let handles = &mut conns.entry(sess).or_default().handles;
                        match handles.iter().position(|(h, _)| h == handle) {
                            Some(at) => {
                                handles.remove(at);
                                None
                            }
                            None => Some(Response::Error {
                                code: ErrorCode::UnknownHandle,
                                message: format!(
                                    "handle {} is not owned by this session",
                                    handle.id()
                                ),
                            }),
                        }
                    }
                    _ => None,
                };
                let module = match &cmd {
                    Command::Register { module, .. } => module.clone(),
                    _ => String::new(),
                };
                let rsp = match refused {
                    Some(rsp) => rsp,
                    None => match runtime.apply(cmd) {
                        Err(e) => error_response(&e),
                        Ok(applied) => {
                            if applied.duplicate {
                                StatsCell::bump(&stats.dedup_hits);
                            }
                            for handle in &applied.denied {
                                logger.log(format!(
                                    "session {sess:?}: policy swap denied handle {handle}"
                                ));
                            }
                            match applied.handle {
                                Some(handle) => {
                                    let state = conns.entry(sess).or_default();
                                    if !state.handles.iter().any(|(h, _)| *h == handle) {
                                        state.handles.push((handle, module));
                                    }
                                    Response::Registered { handle: handle.id() }
                                }
                                None => Response::Ok,
                            }
                        }
                    },
                };
                let _ = reply.send(rsp);
            }
            EngineCommand::Tick { sess, seq, reply } => {
                let cached = if seq != 0 && sess.session_id() != 0 {
                    conns.get(&sess).and_then(|s| {
                        s.tick_replies.iter().find(|(q, _)| *q == seq).map(|(_, r)| r.clone())
                    })
                } else {
                    None
                };
                let rsp = if let Some(rsp) = cached {
                    // A retried tick must not re-run the evaluation:
                    // DP modules would bill ε a second time for the
                    // same logical request.
                    StatsCell::bump(&stats.dedup_hits);
                    logger.log(format!("session {sess:?}: tick seq {seq} served from cache"));
                    rsp
                } else {
                    let state = conns.entry(sess).or_default();
                    let mine: Vec<_> = state.handles.iter().map(|(h, _)| *h).collect();
                    let rsp = match runtime.tick_each(&mine) {
                        Err(e) => {
                            logger.log(format!("tick failed globally: {e}"));
                            error_response(&e)
                        }
                        Ok(results) => {
                            StatsCell::bump(&stats.ticks_served);
                            let results = results
                                .into_iter()
                                .map(|(handle, result)| TickEntry {
                                    handle: handle.id(),
                                    result: result.map(|outcome| outcome.result).map_err(|e| {
                                        StatsCell::bump(&stats.handles_quarantined);
                                        logger.log(format!("handle {handle} quarantined: {e}"));
                                        (ErrorCode::Quarantined, e.to_string())
                                    }),
                                })
                                .collect();
                            let deferred = std::mem::take(&mut state.deferred);
                            Response::TickResults { results, deferred }
                        }
                    };
                    if seq != 0 && sess.session_id() != 0 {
                        let replies = &mut conns.entry(sess).or_default().tick_replies;
                        replies.push_back((seq, rsp.clone()));
                        if replies.len() > MAX_TICK_REPLIES {
                            replies.pop_front();
                        }
                    }
                    rsp
                };
                let _ = reply.send(rsp);
            }
            EngineCommand::Stats { reply } => {
                let mut counters = stats.snapshot().named();
                let rt = runtime.stats();
                counters.push(("runtime_registered".into(), rt.registered as u64));
                counters.push(("runtime_ticks".into(), rt.ticks));
                counters.push(("runtime_shared_plans".into(), rt.shared_plans as u64));
                counters.push(("runtime_dp_epsilon_spent_micro".into(), rt.dp_epsilon_spent_micro));
                counters.push(("runtime_dp_noise_draws".into(), rt.dp_noise_draws));
                counters.push(("runtime_dp_budget_exhausted".into(), rt.dp_budget_exhausted));
                if let Some(d) = runtime.durability_stats() {
                    counters.push(("runtime_wal_generation".into(), d.generation));
                    counters.push(("runtime_wal_records".into(), d.wal_records));
                    counters.push(("runtime_wal_commits".into(), d.wal_commits));
                    counters.push(("runtime_wal_bytes".into(), d.wal_bytes));
                    counters.push(("runtime_snapshots".into(), d.snapshots));
                    counters.push(("runtime_recovered".into(), u64::from(d.recovered)));
                    counters.push(("runtime_replayed".into(), d.replayed));
                    counters.push(("runtime_replay_skipped".into(), d.skipped));
                    counters.push(("runtime_torn_bytes".into(), d.torn_bytes));
                    counters.push(("runtime_corrupt_snapshots".into(), d.corrupt_snapshots));
                }
                let _ = reply.send(Response::Stats { counters });
            }
            EngineCommand::Disconnect { sess } => {
                match sess {
                    SessKey::Conn(_) => {
                        // Anonymous: the socket was the session.
                        if let Some(state) = conns.remove(&sess) {
                            for (qh, _) in state.handles {
                                let _ = runtime.remove_query(qh);
                            }
                        }
                    }
                    SessKey::Named(_) => {
                        // Named sessions outlive their sockets — the
                        // client may reconnect and resume. Handles
                        // stay registered; state stays for dedup.
                    }
                }
            }
        }
    }

    if crash.load(Ordering::SeqCst) {
        // Emulate `kill -9`: nothing buffered since the last commit
        // reaches the WAL, and destructors must not run. (The
        // durability directory's in-process lock is released first —
        // a real kill would release an OS lock too.)
        logger.log("engine: crash requested — leaking runtime without final commit");
        runtime.simulate_crash();
        return None;
    }
    if runtime.durability_stats().is_some() {
        match runtime.snapshot() {
            Ok(()) => logger.log("engine: final WAL commit + snapshot written"),
            Err(e) => logger.log(format!("engine: final commit failed: {e}")),
        }
    }
    Some(runtime)
}

/// Record a deferred ingest error for `conn`, bounded so a wedged
/// client cannot grow the list without limit.
fn defer_error(
    conns: &mut HashMap<SessKey, ConnState>,
    stats: &StatsCell,
    sess: SessKey,
    message: String,
) {
    StatsCell::bump(&stats.ingest_deferred_errors);
    let deferred = &mut conns.entry(sess).or_default().deferred;
    if deferred.len() < MAX_DEFERRED {
        deferred.push(message);
    }
}

/// Map a [`CoreError`] onto the wire failure taxonomy.
pub(crate) fn error_response(e: &CoreError) -> Response {
    let code = match e {
        CoreError::QueryDenied(_) => ErrorCode::PolicyDenied,
        CoreError::NoPolicy(_) | CoreError::Parse(_) | CoreError::UnsupportedQuery(_) => {
            ErrorCode::BadRequest
        }
        CoreError::UnknownHandle(_) => ErrorCode::UnknownHandle,
        // An exhausted privacy budget fails exactly the offending
        // module's handles, like any other per-handle tick error.
        CoreError::BudgetExhausted { .. } => ErrorCode::Quarantined,
        // Durability failed; the runtime refuses mutations until an
        // operator resumes it — a retriable condition, not a bug.
        CoreError::Degraded(_) => ErrorCode::Degraded,
        _ => ErrorCode::Internal,
    };
    Response::Error { code, message: e.to_string() }
}
