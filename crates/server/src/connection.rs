//! One thread per client connection: read frames, enforce the edge
//! caps (batch size, rate, bounded queue), forward each decoded
//! [`Command`] to the engine thread under the connection's own session,
//! write replies. Decoding a `Request::Apply` already parsed the
//! command's SQL and policy XML: nothing here translates or parses.
//!
//! Graceful degradation is local: a malformed frame, oversized
//! payload, or mid-frame disconnect closes *this* connection with a
//! typed error (when the socket still works) and a counter bump —
//! never a panic, never collateral damage to another tenant.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use paradise_core::Command;

use crate::admission::TokenBucket;
use crate::protocol::{
    self, ErrorCode, Request, Response, WireError, QUEUE_CAPACITY_DEFAULT,
};
use crate::queue::{Admit, IngestGate, OverloadPolicy};
use crate::server::{EngineCommand, Logger, Reply, ServerConfig, SessKey};
use crate::stats::StatsCell;

/// Everything a connection thread needs from the server.
pub(crate) struct ConnCtx {
    pub(crate) id: u64,
    pub(crate) tx: Sender<EngineCommand>,
    pub(crate) stats: Arc<StatsCell>,
    pub(crate) config: Arc<ServerConfig>,
    pub(crate) shutdown: Arc<std::sync::atomic::AtomicBool>,
    pub(crate) logger: Arc<Logger>,
}

/// Why the connection ended (for the event log).
enum Close {
    PeerClosed,
    IdleReaped,
    Shutdown,
    WireFault(String),
    SocketError(String),
}

/// Serve one client until it disconnects, faults, idles out, or the
/// server shuts down. Never panics on wire input.
pub(crate) fn serve_connection(mut stream: TcpStream, ctx: ConnCtx) {
    let _ = stream.set_read_timeout(Some(ctx.config.read_timeout));
    let _ = stream.set_write_timeout(Some(ctx.config.write_timeout));
    let _ = stream.set_nodelay(true);

    let mut sess = SessKey::Conn(ctx.id);
    let close = connection_loop(&mut stream, &ctx, &mut sess);
    let reason = match &close {
        Close::PeerClosed => "peer closed".to_string(),
        Close::IdleReaped => "idle reaped".to_string(),
        Close::Shutdown => "server shutdown".to_string(),
        Close::WireFault(what) => format!("wire fault: {what}"),
        Close::SocketError(what) => format!("socket error: {what}"),
    };
    ctx.logger.log(format!("conn {}: closed ({reason})", ctx.id));
    if matches!(close, Close::IdleReaped) {
        StatsCell::bump(&ctx.stats.idle_reaped);
    }
    // On shutdown the engine still drains queued ingest; Disconnect
    // afterwards releases an anonymous session's handles (a named
    // session keeps its state so the client can resume).
    let _ = ctx.tx.send(EngineCommand::Disconnect { sess });
    let _ = stream.shutdown(std::net::Shutdown::Both);
    StatsCell::drop_one(&ctx.stats.connections_live);
    StatsCell::bump(&ctx.stats.connections_closed);
}

fn connection_loop(stream: &mut TcpStream, ctx: &ConnCtx, sess: &mut SessKey) -> Close {
    let mut policy = ctx.config.overload;
    let mut gate = Arc::new(IngestGate::new(ctx.config.queue_capacity));
    let mut bucket = TokenBucket::new(ctx.config.admission.max_rows_per_sec);

    loop {
        // Between frames: poll at read-timeout granularity so both
        // idle reaping and shutdown are noticed promptly.
        let mut idle = Duration::ZERO;
        let first = loop {
            if ctx.shutdown.load(Ordering::SeqCst) {
                return Close::Shutdown;
            }
            let mut byte = [0u8; 1];
            match stream.read(&mut byte) {
                Ok(0) => return Close::PeerClosed,
                Ok(_) => break byte[0],
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    idle += ctx.config.read_timeout;
                    if idle >= ctx.config.idle_timeout {
                        return Close::IdleReaped;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Close::SocketError(e.to_string()),
            }
        };

        // Mid-frame: a timeout now means a truncated/half-open frame.
        let payload = match protocol::read_frame_after(stream, first, ctx.config.max_frame_bytes)
        {
            Ok(payload) => payload,
            Err(e) => return close_on_wire_fault(stream, ctx, e),
        };
        StatsCell::bump(&ctx.stats.frames_received);

        let request = match protocol::decode_request(&payload) {
            Ok(request) => request,
            Err(e) => return close_on_wire_fault(stream, ctx, e),
        };

        let response = match request {
            Request::Ping => Response::Pong,
            Request::Hello { version, session_id, shed, block_ms, queue_capacity } => {
                if version != protocol::PROTOCOL_VERSION {
                    // A peer speaking another protocol version gets a
                    // typed refusal and a clean close — its later
                    // frames must never be misinterpreted.
                    StatsCell::bump(&ctx.stats.version_rejected);
                    let msg = format!(
                        "unsupported protocol version {version} (server speaks {})",
                        protocol::PROTOCOL_VERSION
                    );
                    let _ = send_response(
                        stream,
                        ctx,
                        &Response::Error { code: ErrorCode::Version, message: msg.clone() },
                    );
                    ctx.logger.log(format!("conn {}: version rejected ({msg})", ctx.id));
                    return Close::WireFault(msg);
                }
                policy = if shed {
                    OverloadPolicy::Shed
                } else {
                    OverloadPolicy::Block { deadline: Duration::from_millis(block_ms) }
                };
                if queue_capacity != QUEUE_CAPACITY_DEFAULT {
                    // In-flight batches hold their own Arc to the old
                    // gate, so swapping is safe at any time.
                    gate = Arc::new(IngestGate::new(queue_capacity as usize));
                }
                *sess = if session_id != 0 {
                    SessKey::Named(session_id)
                } else {
                    SessKey::Conn(ctx.id)
                };
                ctx.logger.log(format!(
                    "conn {}: hello (session {session_id}, {})",
                    ctx.id,
                    if shed { "shed".to_string() } else { format!("block {block_ms}ms") }
                ));
                if session_id != 0 {
                    let sess = *sess;
                    roundtrip(ctx, |reply| EngineCommand::Resume { sess, reply })
                } else {
                    Response::Welcome { session_id: 0, last_seq: 0 }
                }
            }
            Request::Apply(mut cmd) => {
                // the session is the connection's own, never the frame's
                cmd.set_session(sess.session_id());
                if matches!(cmd, Command::Ingest { .. }) {
                    handle_ingest(ctx, *sess, &gate, policy, &mut bucket, cmd)
                } else {
                    apply(ctx, *sess, cmd)
                }
            }
            Request::Tick { seq } => {
                let sess = *sess;
                roundtrip(ctx, |reply| EngineCommand::Tick { sess, seq, reply })
            }
            Request::Stats => roundtrip(ctx, |reply| EngineCommand::Stats { reply }),
        };

        if let Err(e) = send_response(stream, ctx, &response) {
            return Close::SocketError(e);
        }
    }
}

/// Edge checks + bounded enqueue for one `Command::Ingest`.
fn handle_ingest(
    ctx: &ConnCtx,
    sess: SessKey,
    gate: &Arc<IngestGate>,
    policy: OverloadPolicy,
    bucket: &mut TokenBucket,
    cmd: Command,
) -> Response {
    let rows = match &cmd {
        Command::Ingest { frame, .. } => frame.len(),
        _ => 0,
    };
    if rows > ctx.config.admission.max_batch_rows {
        StatsCell::bump(&ctx.stats.admission_rejected);
        return Response::Error {
            code: ErrorCode::Admission,
            message: format!(
                "batch of {rows} rows exceeds the {}-row cap",
                ctx.config.admission.max_batch_rows
            ),
        };
    }
    if !bucket.admit(rows as u64) {
        StatsCell::bump(&ctx.stats.ingest_rate_limited);
        return Response::Overloaded {
            reason: format!(
                "rate limit: {} rows/s per connection",
                ctx.config.admission.max_rows_per_sec
            ),
        };
    }
    match gate.enter(policy) {
        Admit::Shed => {
            StatsCell::bump(&ctx.stats.ingest_shed);
            Response::Overloaded { reason: "ingest queue full (shed)".into() }
        }
        Admit::DeadlineExpired => {
            StatsCell::bump(&ctx.stats.ingest_block_timeouts);
            Response::Overloaded { reason: "ingest queue full (block deadline expired)".into() }
        }
        Admit::Enter { depth } => {
            let reply = Reply::Deferred(Arc::clone(gate));
            match ctx.tx.send(EngineCommand::Apply { sess, cmd, reply }) {
                Ok(()) => {
                    StatsCell::bump(&ctx.stats.ingest_accepted);
                    Response::Accepted { depth }
                }
                Err(_) => {
                    gate.leave();
                    shutting_down()
                }
            }
        }
    }
}

/// Have the engine apply `cmd` for `sess` and wait for its reply.
fn apply(ctx: &ConnCtx, sess: SessKey, cmd: Command) -> Response {
    roundtrip(ctx, |reply| EngineCommand::Apply { sess, cmd, reply: Reply::Now(reply) })
}

/// Send a command to the engine and wait for its reply.
fn roundtrip(
    ctx: &ConnCtx,
    build: impl FnOnce(Sender<Response>) -> EngineCommand,
) -> Response {
    let (reply_tx, reply_rx) = mpsc::channel();
    if ctx.tx.send(build(reply_tx)).is_err() {
        return shutting_down();
    }
    reply_rx.recv().unwrap_or_else(|_| shutting_down())
}

fn shutting_down() -> Response {
    Response::Error { code: ErrorCode::ShuttingDown, message: "server is shutting down".into() }
}

/// Classify a wire fault, bump its counter, best-effort send a typed
/// error (only when the stream may still be usable), and close.
fn close_on_wire_fault(stream: &mut TcpStream, ctx: &ConnCtx, e: WireError) -> Close {
    match &e {
        WireError::Oversized(_) => StatsCell::bump(&ctx.stats.oversized_frames),
        WireError::Closed | WireError::Io(_) => {}
        _ => StatsCell::bump(&ctx.stats.malformed_frames),
    }
    match e {
        WireError::Closed => Close::PeerClosed,
        WireError::Io(what) => Close::SocketError(what),
        WireError::Truncated(what) => {
            // Half-open or mid-frame disconnect: the peer is gone or
            // wedged — no point writing an error frame.
            Close::WireFault(format!("truncated: {what}"))
        }
        e @ (WireError::BadMagic(_)
        | WireError::Oversized(_)
        | WireError::BadCrc
        | WireError::Malformed(_)) => {
            let msg = e.to_string();
            let _ = send_response(
                stream,
                ctx,
                &Response::Error { code: ErrorCode::BadRequest, message: msg.clone() },
            );
            Close::WireFault(msg)
        }
        WireError::Idle => Close::IdleReaped,
    }
}

fn send_response(stream: &mut TcpStream, ctx: &ConnCtx, rsp: &Response) -> Result<(), String> {
    protocol::write_response(stream, rsp).map_err(|e| e.to_string())?;
    StatsCell::bump(&ctx.stats.frames_sent);
    Ok(())
}
