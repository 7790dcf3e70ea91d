//! The wire protocol: length-prefixed, CRC-framed request/response
//! messages over a plain TCP stream.
//!
//! Every message is one *frame*:
//!
//! ```text
//! magic  u32 LE   0x50445331 ("PDS1")
//! len    u32 LE   payload length in bytes (bounded by the server's
//!                 `max_frame_bytes` — an oversized prefix is rejected
//!                 before any allocation)
//! crc    u32 LE   CRC-32 (IEEE) of the payload
//! payload         `len` bytes, a tagged [`Request`] or [`Response`]
//! ```
//!
//! Payloads reuse the bounds-checked binary codec of the durability
//! layer ([`paradise_core::storage::codec`]). A mutation travels as
//! [`Request::Apply`]: one runtime [`Command`], laid out by
//! [`enc_command`] — the body the write-ahead log records for the same
//! command — so a frame ingested over the wire round-trips identically
//! to one ingested in-process, and decoding a command parses its SQL
//! and policy XML. Decoding is paranoid: every structural
//! inconsistency is a typed [`WireError`], never a panic — the fault
//! corpus in `tests/failure_injection.rs` pins that no byte sequence
//! can take a connection down with anything but a clean typed close.
//!
//! Version history ([`PROTOCOL_VERSION`]):
//!
//! - v1: no client sessions.
//! - v2: client sessions — `Hello` carries `(version, session_id)`,
//!   mutating requests carry a client-assigned `seq`, and the server
//!   deduplicates `(session_id, seq)` so a retried mutation is applied
//!   at most once.
//! - v3: the five mutation requests become one [`Request::Apply`],
//!   whose command carries the `seq` in its origin. No v2 reader is
//!   kept.

use std::io::{self, Read, Write};

use paradise_core::storage::codec::{
    command_tag, crc32, dec_command, dec_frame, enc_command, enc_frame, Dec, Enc,
};
use paradise_core::{Command, CoreError};
use paradise_engine::Frame;

/// Frame magic: "PDS1" little-endian.
pub const MAGIC: u32 = 0x5044_5331;

/// The protocol version both sides must speak (history in the module
/// docs). A [`Request::Hello`] carrying any other version is answered
/// with a typed [`ErrorCode::Version`] error and a clean close — never
/// silent misinterpretation of older or newer frames.
pub const PROTOCOL_VERSION: u32 = 3;

/// Default cap on one frame's payload (16 MiB) — see
/// [`ServerConfig::max_frame_bytes`](crate::ServerConfig::max_frame_bytes).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Sentinel for "keep the server default" in [`Request::Hello`]'s
/// queue-capacity override.
pub const QUEUE_CAPACITY_DEFAULT: u32 = u32::MAX;

/// Everything that can go wrong reading or decoding one frame.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The peer disconnected (or the read timed out) *mid-frame* — a
    /// truncated frame or a half-open connection.
    Truncated(String),
    /// The connection idled past the reap deadline between frames.
    Idle,
    /// The first four bytes were not the protocol magic.
    BadMagic(u32),
    /// The length prefix exceeds the configured frame cap.
    Oversized(usize),
    /// The payload failed its CRC — bit rot or a corrupted stream.
    BadCrc,
    /// The payload decoded to garbage (bad tag, truncated field, …).
    Malformed(String),
    /// An underlying socket error (reset, broken pipe, …).
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated(what) => write!(f, "truncated frame: {what}"),
            WireError::Idle => write!(f, "connection idle past the reap deadline"),
            WireError::BadMagic(got) => write!(f, "bad frame magic {got:#010x}"),
            WireError::Oversized(len) => write!(f, "oversized frame: {len} bytes"),
            WireError::BadCrc => write!(f, "frame payload failed its CRC"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(what) => write!(f, "socket error: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CoreError> for WireError {
    fn from(e: CoreError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

/// Typed error category carried in [`Response::Error`] — the wire
/// projection of the server's failure taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Rejected by admission control (connection/handle/batch caps).
    Admission,
    /// The privacy policy denies the query (or the rewrite failed).
    PolicyDenied,
    /// The request itself is invalid (parse error, unknown table, …).
    BadRequest,
    /// The referenced query handle is unknown or not owned by this
    /// connection.
    UnknownHandle,
    /// The handle's tick failed and the handle is quarantined; other
    /// tenants were unaffected.
    Quarantined,
    /// A server-side invariant violation or unexpected failure.
    Internal,
    /// The server is shutting down.
    ShuttingDown,
    /// The client's [`PROTOCOL_VERSION`] does not match the server's.
    Version,
    /// The server's durability layer failed and it is serving reads
    /// only; mutations are refused until an operator resumes
    /// durability (disk faults are not silently dropped).
    Degraded,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Admission => 1,
            ErrorCode::PolicyDenied => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::UnknownHandle => 4,
            ErrorCode::Quarantined => 5,
            ErrorCode::Internal => 6,
            ErrorCode::ShuttingDown => 7,
            ErrorCode::Version => 8,
            ErrorCode::Degraded => 9,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            1 => ErrorCode::Admission,
            2 => ErrorCode::PolicyDenied,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::UnknownHandle,
            5 => ErrorCode::Quarantined,
            6 => ErrorCode::Internal,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::Version,
            9 => ErrorCode::Degraded,
            _ => return Err(WireError::Malformed(format!("unknown error code {tag}"))),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Admission => "admission",
            ErrorCode::PolicyDenied => "policy-denied",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownHandle => "unknown-handle",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Version => "version-mismatch",
            ErrorCode::Degraded => "degraded",
        };
        f.write_str(s)
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Per-connection configuration: protocol version handshake,
    /// optional session resumption, overload policy (shed vs. block
    /// with a deadline) and an optional ingest-queue capacity override
    /// ([`QUEUE_CAPACITY_DEFAULT`] keeps the server default).
    Hello {
        /// Must equal [`PROTOCOL_VERSION`]; any other value is
        /// answered with [`ErrorCode::Version`] and a close.
        version: u32,
        /// Client-chosen session id, or `0` for an anonymous
        /// connection-scoped session. A non-zero id names a durable
        /// session: its registered handles and dedup window survive
        /// disconnects (and — for the dedup window — server
        /// restarts), and the server replies [`Response::Welcome`]
        /// with the highest `seq` it has already applied.
        session_id: u64,
        /// `true` = shed on a full queue, `false` = block.
        shed: bool,
        /// Block deadline in milliseconds (ignored when shedding).
        block_ms: u64,
        /// Ingest-queue capacity override.
        queue_capacity: u32,
    },
    /// One runtime mutation — install a source, ingest a batch,
    /// register or remove a query, set a policy — as the runtime
    /// applies it. The origin's `seq` is the client's dedup sequence
    /// (`0` = no dedup; only meaningful on a named session). Its
    /// session is not read: the server applies the command under the
    /// connection's own session. An ingest is queued through the
    /// bounded ingest gate.
    Apply(Command),
    /// Evaluate this session's registered queries, and no other
    /// tenant's: only they run and spend ε. The reply carries their
    /// per-handle results.
    Tick {
        /// Client-assigned sequence number. On a named session a
        /// retried `Tick` with an already-served `seq` returns the
        /// cached reply instead of running (and billing ε for) a
        /// second evaluation — but the cache is in-memory only, so a
        /// tick retried across a server crash re-executes (see the
        /// fault-tolerance notes in the README).
        seq: u64,
    },
    /// Fetch server + runtime counters.
    Stats,
    /// Liveness probe (answered by the connection thread directly).
    Ping,
}

/// Per-handle tick outcome inside [`Response::TickResults`].
#[derive(Debug, Clone, PartialEq)]
pub struct TickEntry {
    /// The handle id.
    pub handle: u64,
    /// The handle's result frame, or its typed quarantine error.
    pub result: Result<Frame, (ErrorCode, String)>,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Reply to [`Request::Hello`]: the handshake succeeded.
    Welcome {
        /// Echo of the client's session id (`0` for anonymous).
        session_id: u64,
        /// Highest `seq` the server has already applied for this
        /// session — a resuming client skips everything at or below
        /// it instead of retrying blind.
        last_seq: u64,
    },
    /// A query was registered; the id names it in tick results and
    /// [`Command::RemoveQuery`].
    Registered {
        /// The new handle id.
        handle: u64,
    },
    /// An ingest batch was accepted into the bounded queue.
    Accepted {
        /// Queue depth after the enqueue (client-side pacing signal).
        depth: u32,
    },
    /// The ingest was shed (full queue under the shed policy, block
    /// deadline exceeded, or rate limit) — resend later or slow down.
    Overloaded {
        /// Why the batch was refused.
        reason: String,
    },
    /// A typed failure.
    Error {
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// One tick's results for this connection's handles, in
    /// registration order, plus any ingest errors deferred since the
    /// last tick (batches accepted into the queue whose apply failed).
    TickResults {
        /// Per-handle outcomes.
        results: Vec<TickEntry>,
        /// Deferred ingest-apply errors.
        deferred: Vec<String>,
    },
    /// Server + runtime counters as (name, value) pairs.
    Stats {
        /// Counter name/value pairs (`server_*` and `runtime_*`).
        counters: Vec<(String, u64)>,
    },
    /// Liveness reply.
    Pong,
}

const REQ_HELLO: u8 = 0;
const REQ_TICK: u8 = 4;
const REQ_STATS: u8 = 7;
const REQ_PING: u8 = 8;
const REQ_APPLY: u8 = 9;

const RSP_OK: u8 = 128;
const RSP_REGISTERED: u8 = 129;
const RSP_ACCEPTED: u8 = 130;
const RSP_OVERLOADED: u8 = 131;
const RSP_ERROR: u8 = 132;
const RSP_TICK: u8 = 133;
const RSP_STATS: u8 = 134;
const RSP_PONG: u8 = 135;
const RSP_WELCOME: u8 = 136;

/// Encode a request payload (without the frame header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc::new();
    enc_request(&mut e, req);
    e.into_bytes()
}

fn enc_request(e: &mut Enc, req: &Request) {
    match req {
        Request::Hello { version, session_id, shed, block_ms, queue_capacity } => {
            e.u8(REQ_HELLO);
            e.u32(*version);
            e.u64(*session_id);
            e.u8(u8::from(*shed));
            e.u64(*block_ms);
            e.u32(*queue_capacity);
        }
        Request::Apply(cmd) => {
            e.u8(REQ_APPLY);
            e.u8(command_tag(cmd));
            enc_command(e, cmd);
        }
        Request::Tick { seq } => {
            e.u8(REQ_TICK);
            e.u64(*seq);
        }
        Request::Stats => e.u8(REQ_STATS),
        Request::Ping => e.u8(REQ_PING),
    }
}

/// Decode a request payload. Trailing bytes after a complete message
/// are malformed (no smuggling data past the decoder).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut d = Dec::new(payload);
    let req = match d.u8()? {
        REQ_HELLO => Request::Hello {
            version: d.u32()?,
            session_id: d.u64()?,
            shed: d.u8()? != 0,
            block_ms: d.u64()?,
            queue_capacity: d.u32()?,
        },
        REQ_APPLY => {
            let tag = d.u8()?;
            Request::Apply(dec_command(&mut d, tag)?)
        }
        REQ_TICK => Request::Tick { seq: d.u64()? },
        REQ_STATS => Request::Stats,
        REQ_PING => Request::Ping,
        tag => return Err(WireError::Malformed(format!("unknown request tag {tag}"))),
    };
    if !d.done() {
        return Err(WireError::Malformed("trailing bytes after request".into()));
    }
    Ok(req)
}

/// Encode a response payload (without the frame header).
pub fn encode_response(rsp: &Response) -> Vec<u8> {
    let mut e = Enc::new();
    enc_response(&mut e, rsp);
    e.into_bytes()
}

fn enc_response(e: &mut Enc, rsp: &Response) {
    match rsp {
        Response::Ok => e.u8(RSP_OK),
        Response::Welcome { session_id, last_seq } => {
            e.u8(RSP_WELCOME);
            e.u64(*session_id);
            e.u64(*last_seq);
        }
        Response::Registered { handle } => {
            e.u8(RSP_REGISTERED);
            e.u64(*handle);
        }
        Response::Accepted { depth } => {
            e.u8(RSP_ACCEPTED);
            e.u32(*depth);
        }
        Response::Overloaded { reason } => {
            e.u8(RSP_OVERLOADED);
            e.str(reason);
        }
        Response::Error { code, message } => {
            e.u8(RSP_ERROR);
            e.u8(code.tag());
            e.str(message);
        }
        Response::TickResults { results, deferred } => {
            e.u8(RSP_TICK);
            e.u32(results.len() as u32);
            for entry in results {
                e.u64(entry.handle);
                match &entry.result {
                    Ok(frame) => {
                        e.u8(1);
                        enc_frame(e, frame);
                    }
                    Err((code, message)) => {
                        e.u8(0);
                        e.u8(code.tag());
                        e.str(message);
                    }
                }
            }
            e.u32(deferred.len() as u32);
            for msg in deferred {
                e.str(msg);
            }
        }
        Response::Stats { counters } => {
            e.u8(RSP_STATS);
            e.u32(counters.len() as u32);
            for (name, value) in counters {
                e.str(name);
                e.u64(*value);
            }
        }
        Response::Pong => e.u8(RSP_PONG),
    }
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut d = Dec::new(payload);
    let rsp = match d.u8()? {
        RSP_OK => Response::Ok,
        RSP_WELCOME => Response::Welcome { session_id: d.u64()?, last_seq: d.u64()? },
        RSP_REGISTERED => Response::Registered { handle: d.u64()? },
        RSP_ACCEPTED => Response::Accepted { depth: d.u32()? },
        RSP_OVERLOADED => Response::Overloaded { reason: d.str()? },
        RSP_ERROR => Response::Error { code: ErrorCode::from_tag(d.u8()?)?, message: d.str()? },
        RSP_TICK => {
            let n = d.u32()? as usize;
            let mut results = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let handle = d.u64()?;
                let result = match d.u8()? {
                    1 => Ok(dec_frame(&mut d)?),
                    0 => Err((ErrorCode::from_tag(d.u8()?)?, d.str()?)),
                    tag => {
                        return Err(WireError::Malformed(format!("bad result tag {tag}")));
                    }
                };
                results.push(TickEntry { handle, result });
            }
            let m = d.u32()? as usize;
            let mut deferred = Vec::with_capacity(m.min(4096));
            for _ in 0..m {
                deferred.push(d.str()?);
            }
            Response::TickResults { results, deferred }
        }
        RSP_STATS => {
            let n = d.u32()? as usize;
            let mut counters = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                counters.push((d.str()?, d.u64()?));
            }
            Response::Stats { counters }
        }
        RSP_PONG => Response::Pong,
        tag => return Err(WireError::Malformed(format!("unknown response tag {tag}"))),
    };
    if !d.done() {
        return Err(WireError::Malformed("trailing bytes after response".into()));
    }
    Ok(rsp)
}

/// Bytes of a frame header: magic, payload length, payload CRC.
const HEADER: usize = 12;

/// Write `req` as one frame to `w`: the payload encodes behind the
/// header in the same buffer, which goes out in one `write_all`.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let mut e = Enc::from(vec![0; HEADER]);
    enc_request(&mut e, req);
    send(w, e.into_bytes())
}

/// Write `rsp` as one frame to `w`, as [`write_request`] does.
pub fn write_response(w: &mut impl Write, rsp: &Response) -> io::Result<()> {
    let mut e = Enc::from(vec![0; HEADER]);
    enc_response(&mut e, rsp);
    send(w, e.into_bytes())
}

/// Patch the header of `frame` (its first [`HEADER`] bytes, reserved)
/// from the payload behind it, then write the frame in one call.
fn send(w: &mut impl Write, mut frame: Vec<u8>) -> io::Result<()> {
    let (header, payload) = frame.split_at_mut(HEADER);
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read the 11 header bytes after `first` plus the payload. The caller
/// reads the first byte itself (that is where idle reaping and clean
/// EOF are detected); from here on a timeout or EOF is mid-frame and
/// therefore [`WireError::Truncated`].
pub fn read_frame_after(
    r: &mut impl Read,
    first: u8,
    max_frame_bytes: usize,
) -> Result<Vec<u8>, WireError> {
    let mut rest = [0u8; HEADER - 1];
    read_exact_framed(r, &mut rest, "frame header")?;
    let mut header = [0u8; HEADER];
    header[0] = first;
    header[1..].copy_from_slice(&rest);
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if len > max_frame_bytes {
        return Err(WireError::Oversized(len));
    }
    let crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len];
    read_exact_framed(r, &mut payload, "frame payload")?;
    if crc32(&payload) != crc {
        return Err(WireError::BadCrc);
    }
    Ok(payload)
}

/// Blocking read of one whole frame (client side — no idle handling).
pub fn read_frame(r: &mut impl Read, max_frame_bytes: usize) -> Result<Vec<u8>, WireError> {
    let mut first = [0u8; 1];
    match r.read(&mut first) {
        Ok(0) => return Err(WireError::Closed),
        Ok(_) => {}
        Err(e) => return Err(WireError::Io(e.to_string())),
    }
    read_frame_after(r, first[0], max_frame_bytes)
}

/// `read_exact` with mid-frame failures mapped to typed wire errors.
fn read_exact_framed(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), WireError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(WireError::Truncated(format!("eof inside {what}")))
        }
        Err(e)
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
        {
            Err(WireError::Truncated(format!("timeout inside {what}")))
        }
        Err(e) => Err(WireError::Io(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_core::QueryHandle;
    use paradise_engine::{DataType, Schema, Value};
    use paradise_policy::parse_policy;
    use paradise_sql::parse_query;

    fn sample_frame() -> Frame {
        let schema = Schema::from_pairs(&[("x", DataType::Integer), ("s", DataType::Text)]);
        Frame::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Null, Value::Str("☃".into())],
            ],
        )
        .unwrap()
    }

    /// One command of each kind, with a query and a policy that give
    /// the SQL and XML parsers something to chew on.
    fn sample_commands() -> Vec<Command> {
        let xml = r#"<module module_ID="Mod"><attributeList>
            <attribute name="x"><allow>true</allow>
              <condition><atomicCondition>x &gt; 2</atomicCondition></condition></attribute>
            <attribute name="s"><allow>true</allow><aggregation>
              <aggregationType>COUNT</aggregationType><groupBy>x</groupBy></aggregation></attribute>
          </attributeList></module>"#;
        let query = parse_query("SELECT x, COUNT(s) FROM stream WHERE x > 2 GROUP BY x").unwrap();
        vec![
            Command::InstallSource {
                node: "pc".into(),
                table: "stream".into(),
                frame: sample_frame(),
            },
            Command::Register { module: "Mod".into(), query: Box::new(query), origin: (9, 3) },
            Command::Ingest {
                node: "pc".into(),
                table: "stream".into(),
                frame: sample_frame(),
                origin: (9, 4),
            },
            Command::SetPolicy {
                module: "Mod".into(),
                policy: parse_policy(xml).unwrap().modules.remove(0),
                origin: (9, 6),
            },
            Command::RemoveQuery { handle: QueryHandle::from_id(0xDEAD_BEEF) },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Hello {
                version: PROTOCOL_VERSION,
                session_id: 0x1234_5678_9ABC_DEF0,
                shed: true,
                block_ms: 250,
                queue_capacity: 4,
            },
            Request::Tick { seq: 5 },
            Request::Stats,
            Request::Ping,
        ]
        .into_iter()
        .chain(sample_commands().into_iter().map(Request::Apply))
        {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_an_apply_decodes_or_errs() {
        // a value or a typed error, never a panic: the decode parses
        // the SQL and the XML too, so this feeds both parsers
        for cmd in sample_commands() {
            let bytes = encode_request(&Request::Apply(cmd));
            let truncations = (0..bytes.len()).map(|n| bytes[..n].to_vec());
            let flips = (0..bytes.len() * 8).map(|bit| {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            });
            for input in truncations.chain(flips) {
                let _ = decode_request(&input);
            }
        }
    }

    #[test]
    fn an_unparseable_query_in_an_apply_is_malformed() {
        let query = Box::new(parse_query("SELECT x FROM stream").unwrap());
        let cmd = Command::Register { module: "Mod".into(), query, origin: (0, 0) };
        let mut bytes = encode_request(&Request::Apply(cmd));
        let at = bytes.windows(6).position(|w| w == b"SELECT").unwrap();
        bytes[at + 4] = b'K';
        assert!(matches!(decode_request(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn responses_roundtrip() {
        for rsp in [
            Response::Ok,
            Response::Welcome { session_id: 42, last_seq: 17 },
            Response::Registered { handle: 7 },
            Response::Accepted { depth: 3 },
            Response::Overloaded { reason: "queue full".into() },
            Response::Error { code: ErrorCode::Quarantined, message: "denied".into() },
            Response::TickResults {
                results: vec![
                    TickEntry { handle: 1, result: Ok(sample_frame()) },
                    TickEntry {
                        handle: 2,
                        result: Err((ErrorCode::PolicyDenied, "no".into())),
                    },
                ],
                deferred: vec!["late".into()],
            },
            Response::Stats { counters: vec![("server_ticks".into(), 9)] },
            Response::Pong,
        ] {
            let bytes = encode_response(&rsp);
            assert_eq!(decode_response(&bytes).unwrap(), rsp);
        }
    }

    #[test]
    fn frames_roundtrip_through_a_byte_pipe() {
        let req = Request::Tick { seq: 0 };
        let payload = encode_request(&req);
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut r = wire.as_slice();
        let got = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(got, payload);
    }

    /// A byte sink that counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_header_and_payload() {
        let rsp = Response::TickResults {
            results: vec![TickEntry { handle: 1, result: Ok(sample_frame()) }],
            deferred: vec![],
        };
        let req = Request::Apply(sample_commands().remove(2));
        type WriteWith<'a> = &'a dyn Fn(&mut CountingWriter) -> io::Result<()>;
        let writes: [(Vec<u8>, WriteWith); 2] = [
            (encode_response(&rsp), &|w| write_response(w, &rsp)),
            (encode_request(&req), &|w| write_request(w, &req)),
        ];
        for (payload, write) in writes {
            let mut w = CountingWriter::default();
            write(&mut w).unwrap();
            // the header field by field: magic, payload length, CRC
            let mut expected = MAGIC.to_le_bytes().to_vec();
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&crc32(&payload).to_le_bytes());
            expected.extend_from_slice(&payload);
            assert_eq!((w.writes, w.bytes), (1, expected));
        }
    }

    #[test]
    fn bad_magic_oversized_and_crc_are_typed() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Ping).unwrap();

        let mut garbage = wire.clone();
        garbage[0] = 0x00;
        assert!(matches!(
            read_frame(&mut garbage.as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::BadMagic(_))
        ));

        let mut oversized = wire.clone();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversized.as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::Oversized(_))
        ));

        let mut flipped = wire.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            read_frame(&mut flipped.as_slice(), DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::BadCrc)
        ));

        let truncated = &wire[..wire.len() - 1];
        assert!(matches!(
            read_frame(&mut &truncated[..], DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::Truncated(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_request(&Request::Tick { seq: 0 });
        bytes.push(0xFF);
        assert!(matches!(decode_request(&bytes), Err(WireError::Malformed(_))));
        let mut bytes = encode_response(&Response::Pong);
        bytes.push(0x01);
        assert!(matches!(decode_response(&bytes), Err(WireError::Malformed(_))));
    }
}
