//! A minimal blocking client for the wire protocol — used by the
//! tests, the benchmark and the examples, and small enough to crib
//! for real integrations. A mutation is one [`Command`], parsed here —
//! SQL and policy XML included — and sent by [`Client::apply`].

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use paradise_core::{Command, QueryHandle};
use paradise_engine::Frame;
use paradise_policy::parse_policy;
use paradise_sql::parse_query;

use crate::protocol::{
    self, ErrorCode, Request, Response, TickEntry, WireError, DEFAULT_MAX_FRAME_BYTES,
    QUEUE_CAPACITY_DEFAULT,
};
use crate::queue::OverloadPolicy;
use crate::stats::ServerStats;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(String),
    /// A typed refusal: the server's error reply, or the client's own
    /// before sending — SQL or policy XML that does not parse is
    /// [`ErrorCode::BadRequest`], as the server would answer it.
    Server {
        /// Failure category.
        code: ErrorCode,
        /// Detail, from the server or the client.
        message: String,
    },
    /// The server replied with something the request cannot mean —
    /// a protocol bug or version skew.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(what) => write!(f, "i/o error: {what}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ClientError::Protocol(what) => write!(f, "protocol error: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Io(e.to_string())
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// Result of one [`Client::ingest`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestAck {
    /// The batch is queued; `depth` is the connection's in-flight
    /// count (a pacing signal).
    Accepted {
        /// Queue depth after the enqueue.
        depth: u32,
    },
    /// The batch was refused (shed, deadline expired, or rate
    /// limited) — the caller still owns the data.
    Overloaded {
        /// Why the batch was refused.
        reason: String,
    },
}

/// One handle's tick outcome: its result frame, or a typed error
/// (for a quarantined handle, [`ErrorCode::Quarantined`] plus the
/// engine's message).
pub type HandleResult = Result<Frame, (ErrorCode, String)>;

/// Result of one [`Client::tick`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReply {
    /// Per-handle outcomes for this connection, registration order. A
    /// quarantined handle carries [`ErrorCode::Quarantined`]; other
    /// handles' frames are unaffected.
    pub results: Vec<(u64, HandleResult)>,
    /// Errors from batches accepted since the last tick whose apply
    /// failed.
    pub deferred: Vec<String>,
}

/// Server + runtime counters, from [`Client::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// Parsed server counters.
    pub server: ServerStats,
    /// All counters as raw pairs (`server_*` and `runtime_*`).
    pub counters: Vec<(String, u64)>,
}

/// A blocking connection to a [`Server`](crate::Server).
pub struct Client {
    stream: TcpStream,
    max_frame_bytes: usize,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, max_frame_bytes: DEFAULT_MAX_FRAME_BYTES })
    }

    /// Set a socket read timeout (otherwise requests block forever on
    /// a dead server).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Configure this connection's overload policy and, optionally,
    /// its ingest queue capacity (anonymous session).
    pub fn hello(
        &mut self,
        policy: OverloadPolicy,
        queue_capacity: Option<u32>,
    ) -> Result<(), ClientError> {
        self.hello_session(policy, queue_capacity, 0).map(|_| ())
    }

    /// Like [`Client::hello`], but binds this connection to the named
    /// session `session_id` (when non-zero). Returns the server's
    /// dedup high-water mark for the session — the highest client
    /// `seq` already applied, `0` for a fresh session.
    pub fn hello_session(
        &mut self,
        policy: OverloadPolicy,
        queue_capacity: Option<u32>,
        session_id: u64,
    ) -> Result<u64, ClientError> {
        let (shed, block_ms) = match policy {
            OverloadPolicy::Shed => (true, 0),
            OverloadPolicy::Block { deadline } => (false, deadline.as_millis() as u64),
        };
        let req = Request::Hello {
            version: protocol::PROTOCOL_VERSION,
            session_id,
            shed,
            block_ms,
            queue_capacity: queue_capacity.unwrap_or(QUEUE_CAPACITY_DEFAULT),
        };
        match self.call(&req)? {
            Response::Welcome { last_seq, .. } => Ok(last_seq),
            // Tolerate plain Ok for forward compatibility.
            Response::Ok => Ok(0),
            other => Err(unexpected("Welcome", other)),
        }
    }

    /// Apply one runtime mutation: the one method that sends a
    /// [`Command`], which the typed wrappers below and
    /// [`RetryClient`](crate::RetryClient)'s call. The origin's `seq`
    /// is the dedup sequence (exactly-once on a named session; `0`
    /// disables dedup); the server replaces its session with this
    /// connection's. Returns the server's reply.
    pub fn apply(&mut self, cmd: Command) -> Result<Response, ClientError> {
        self.call(&Request::Apply(cmd))
    }

    /// Install (or replace) a source table at a chain node.
    pub fn install_source(
        &mut self,
        node: &str,
        table: &str,
        frame: Frame,
    ) -> Result<(), ClientError> {
        let cmd = Command::InstallSource { node: node.into(), table: table.into(), frame };
        expect_ok(self.apply(cmd)?)
    }

    /// Register a continuous query; the returned id names the handle
    /// in [`TickReply::results`] and [`Client::remove_query`]. SQL
    /// that does not parse is refused here, before sending.
    pub fn register(&mut self, module: &str, sql: &str) -> Result<u64, ClientError> {
        registered(self.apply(register_command(module, sql, (0, 0))?)?)
    }

    /// Queue one stream batch. `Overloaded` is a normal outcome under
    /// pressure, not an error — the caller decides whether to retry.
    pub fn ingest(
        &mut self,
        node: &str,
        table: &str,
        frame: Frame,
    ) -> Result<IngestAck, ClientError> {
        let cmd =
            Command::Ingest { node: node.into(), table: table.into(), frame, origin: (0, 0) };
        ingest_ack(self.apply(cmd)?)
    }

    /// Evaluate all registered queries and fetch this connection's
    /// per-handle results.
    pub fn tick(&mut self) -> Result<TickReply, ClientError> {
        self.tick_seq(0)
    }

    /// [`Client::tick`] with a client-assigned dedup sequence: on a
    /// named session a retried tick returns the server's cached reply
    /// instead of evaluating (and billing ε for) a second tick.
    pub fn tick_seq(&mut self, seq: u64) -> Result<TickReply, ClientError> {
        match self.call(&Request::Tick { seq })? {
            Response::TickResults { results, deferred } => Ok(TickReply {
                results: results
                    .into_iter()
                    .map(|TickEntry { handle, result }| (handle, result))
                    .collect(),
                deferred,
            }),
            other => Err(unexpected("TickResults", other)),
        }
    }

    /// Install or swap a module policy (PP4SE XML) live. XML that
    /// does not parse, or holds no policy for `module`, is refused
    /// here, before sending.
    pub fn set_policy(&mut self, module: &str, xml: &str) -> Result<(), ClientError> {
        expect_ok(self.apply(set_policy_command(module, xml, (0, 0))?)?)
    }

    /// Deregister one of this connection's handles.
    pub fn remove_query(&mut self, handle: u64) -> Result<(), ClientError> {
        expect_ok(self.apply(Command::RemoveQuery { handle: QueryHandle::from_id(handle) })?)
    }

    /// Fetch server + runtime counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { counters } => {
                Ok(StatsReply { server: ServerStats::from_named(&counters), counters })
            }
            other => Err(unexpected("Stats", other)),
        }
    }

    /// Liveness probe (answered by the connection thread, no engine
    /// round trip).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", other)),
        }
    }

    /// One request/response round trip. `Error` replies become
    /// [`ClientError::Server`].
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        protocol::write_request(&mut self.stream, req)?;
        let reply = protocol::read_frame(&mut self.stream, self.max_frame_bytes)?;
        match protocol::decode_response(&reply)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }
}

fn unexpected(wanted: &str, got: Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}

fn bad_request(message: String) -> ClientError {
    ClientError::Server { code: ErrorCode::BadRequest, message }
}

/// `Register` of `sql` under `module`, parsed here.
pub(crate) fn register_command(
    module: &str,
    sql: &str,
    origin: (u64, u64),
) -> Result<Command, ClientError> {
    let query = parse_query(sql).map_err(|e| bad_request(format!("parse error: {e}")))?;
    Ok(Command::Register { module: module.into(), query: Box::new(query), origin })
}

/// `SetPolicy` of the policy `xml` holds for `module`, parsed here.
pub(crate) fn set_policy_command(
    module: &str,
    xml: &str,
    origin: (u64, u64),
) -> Result<Command, ClientError> {
    let parsed = parse_policy(xml).map_err(|e| bad_request(format!("policy parse error: {e}")))?;
    let policy = parsed
        .modules
        .into_iter()
        .find(|m| m.module_id == module)
        .ok_or_else(|| bad_request(format!("policy XML has no module {module}")))?;
    Ok(Command::SetPolicy { module: module.into(), policy, origin })
}

/// The reply to an install, a removal or a policy swap.
pub(crate) fn expect_ok(rsp: Response) -> Result<(), ClientError> {
    match rsp {
        Response::Ok => Ok(()),
        other => Err(unexpected("Ok", other)),
    }
}

/// The reply to a registration: the new handle's id.
pub(crate) fn registered(rsp: Response) -> Result<u64, ClientError> {
    match rsp {
        Response::Registered { handle } => Ok(handle),
        other => Err(unexpected("Registered", other)),
    }
}

/// The reply to an ingest.
pub(crate) fn ingest_ack(rsp: Response) -> Result<IngestAck, ClientError> {
    match rsp {
        Response::Accepted { depth } => Ok(IngestAck::Accepted { depth }),
        Response::Overloaded { reason } => Ok(IngestAck::Overloaded { reason }),
        other => Err(unexpected("Accepted/Overloaded", other)),
    }
}
