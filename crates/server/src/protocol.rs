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
//! layer ([`paradise_core::storage::codec`]) — the same bit-exact
//! `Value`/`Schema`/`Frame` encodings that snapshots and the WAL use,
//! so a frame ingested over the wire round-trips identically to one
//! ingested in-process. Decoding is paranoid: every structural
//! inconsistency is a typed [`WireError`], never a panic — the fault
//! corpus in `tests/failure_injection.rs` pins that no byte sequence
//! can take a connection down with anything but a clean typed close.

use std::io::{self, Read, Write};

use paradise_core::storage::codec::{crc32, dec_frame, enc_frame, Dec, Enc};
use paradise_core::CoreError;
use paradise_engine::Frame;

/// Frame magic: "PDS1" little-endian.
pub const MAGIC: u32 = 0x5044_5331;

/// The protocol version both sides must speak. A [`Request::Hello`]
/// carrying any other version is answered with a typed
/// [`ErrorCode::Version`] error and a clean close — never silent
/// misinterpretation of newer frames.
///
/// v2 added client sessions: `Hello` carries `(version, session_id)`,
/// mutating requests carry a client-assigned `seq`, and the server
/// deduplicates `(session_id, seq)` so a retried mutation is applied
/// at most once.
pub const PROTOCOL_VERSION: u32 = 2;

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
    /// Install (or replace) a source table at a chain node.
    InstallSource {
        /// Chain node name.
        node: String,
        /// Table name.
        table: String,
        /// Initial table contents.
        frame: Frame,
    },
    /// Register a continuous query under a module.
    Register {
        /// Module id the query runs under (selects the policy).
        module: String,
        /// The query SQL.
        sql: String,
        /// Client-assigned sequence number for exactly-once retry
        /// (`0` = no dedup; only meaningful on a named session).
        seq: u64,
    },
    /// Append a stream batch (queued through the bounded ingest gate).
    Ingest {
        /// Chain node name.
        node: String,
        /// Table name.
        table: String,
        /// The batch.
        frame: Frame,
        /// Client-assigned sequence number for exactly-once retry
        /// (`0` = no dedup; only meaningful on a named session).
        seq: u64,
    },
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
    /// Install or swap a module policy live (PP4SE XML). The XML is
    /// the full policy surface — including the optional `<dp>` element
    /// carrying a differential-privacy configuration (epsilon per
    /// tick, budget, clamp bounds) — so DP can be enabled, retuned,
    /// or disabled over the wire without a new message type.
    SetPolicy {
        /// Module id.
        module: String,
        /// Policy XML.
        xml: String,
        /// Client-assigned sequence number for exactly-once retry
        /// (`0` = no dedup; only meaningful on a named session).
        seq: u64,
    },
    /// Deregister one of this connection's handles.
    RemoveQuery {
        /// The handle id from [`Response::Registered`].
        handle: u64,
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
    /// [`Request::RemoveQuery`].
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
const REQ_INSTALL: u8 = 1;
const REQ_REGISTER: u8 = 2;
const REQ_INGEST: u8 = 3;
const REQ_TICK: u8 = 4;
const REQ_SET_POLICY: u8 = 5;
const REQ_REMOVE: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_PING: u8 = 8;

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
    match req {
        Request::Hello { version, session_id, shed, block_ms, queue_capacity } => {
            e.u8(REQ_HELLO);
            e.u32(*version);
            e.u64(*session_id);
            e.u8(u8::from(*shed));
            e.u64(*block_ms);
            e.u32(*queue_capacity);
        }
        Request::InstallSource { node, table, frame } => {
            e.u8(REQ_INSTALL);
            e.str(node);
            e.str(table);
            enc_frame(&mut e, frame);
        }
        Request::Register { module, sql, seq } => {
            e.u8(REQ_REGISTER);
            e.str(module);
            e.str(sql);
            e.u64(*seq);
        }
        Request::Ingest { node, table, frame, seq } => {
            e.u8(REQ_INGEST);
            e.str(node);
            e.str(table);
            enc_frame(&mut e, frame);
            e.u64(*seq);
        }
        Request::Tick { seq } => {
            e.u8(REQ_TICK);
            e.u64(*seq);
        }
        Request::SetPolicy { module, xml, seq } => {
            e.u8(REQ_SET_POLICY);
            e.str(module);
            e.str(xml);
            e.u64(*seq);
        }
        Request::RemoveQuery { handle } => {
            e.u8(REQ_REMOVE);
            e.u64(*handle);
        }
        Request::Stats => e.u8(REQ_STATS),
        Request::Ping => e.u8(REQ_PING),
    }
    e.into_bytes()
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
        REQ_INSTALL => Request::InstallSource {
            node: d.str()?,
            table: d.str()?,
            frame: dec_frame(&mut d)?,
        },
        REQ_REGISTER => Request::Register { module: d.str()?, sql: d.str()?, seq: d.u64()? },
        REQ_INGEST => Request::Ingest {
            node: d.str()?,
            table: d.str()?,
            frame: dec_frame(&mut d)?,
            seq: d.u64()?,
        },
        REQ_TICK => Request::Tick { seq: d.u64()? },
        REQ_SET_POLICY => Request::SetPolicy { module: d.str()?, xml: d.str()?, seq: d.u64()? },
        REQ_REMOVE => Request::RemoveQuery { handle: d.u64()? },
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
                        enc_frame(&mut e, frame);
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
    e.into_bytes()
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

/// Write one frame (header + payload) to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 12];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
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
    let mut rest = [0u8; 11];
    read_exact_framed(r, &mut rest, "frame header")?;
    let mut header = [0u8; 12];
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
    use paradise_engine::{DataType, Schema, Value};

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
            Request::InstallSource {
                node: "pc".into(),
                table: "stream".into(),
                frame: sample_frame(),
            },
            Request::Register {
                module: "Mod".into(),
                sql: "SELECT x FROM stream".into(),
                seq: 3,
            },
            Request::Ingest {
                node: "pc".into(),
                table: "stream".into(),
                frame: sample_frame(),
                seq: 4,
            },
            Request::Tick { seq: 5 },
            Request::SetPolicy { module: "Mod".into(), xml: "<module/>".into(), seq: 6 },
            Request::RemoveQuery { handle: 0xDEAD_BEEF },
            Request::Stats,
            Request::Ping,
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
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
        let payload = encode_request(&Request::Tick { seq: 0 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = wire.as_slice();
        let got = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn bad_magic_oversized_and_crc_are_typed() {
        let payload = encode_request(&Request::Ping);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();

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
