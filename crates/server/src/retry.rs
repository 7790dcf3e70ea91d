//! An idempotent retrying client: bounded exponential backoff with
//! jitter, automatic reconnect + session resumption, and
//! client-assigned `(session_id, seq)` on every mutating request so a
//! re-send after a timeout or mid-frame disconnect is applied at most
//! once by the server.
//!
//! The contract with the server (protocol v3):
//!
//! - Every mutating request ([`RetryClient::ingest`],
//!   [`RetryClient::register`], [`RetryClient::set_policy`]) is one
//!   [`Command`] whose origin carries a fresh monotonically increasing
//!   `seq`; every retry of that request re-sends the *same* command.
//!   The server's per-session dedup window (WAL-durable, so it
//!   survives crashes) applies each `(session, seq)` exactly once.
//! - [`RetryClient::tick`] also carries a `seq`: a retried tick
//!   returns the server's cached reply instead of evaluating — and
//!   billing differential-privacy ε for — a second tick. That cache
//!   is in-memory only; a tick retried across a server *crash*
//!   re-executes (documented in the README's fault-tolerance notes).
//! - Only transport failures ([`ClientError::Io`]) are retried. Typed
//!   server errors (policy denial, admission, degraded durability,
//!   version mismatch, …) are returned to the caller immediately:
//!   they are deterministic answers, not transient faults.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use paradise_core::Command;
use paradise_engine::Frame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{
    expect_ok, ingest_ack, register_command, registered, set_policy_command, Client,
    ClientError, IngestAck, StatsReply, TickReply,
};
use crate::queue::OverloadPolicy;

/// Tunables for a [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// The named session this client binds to at `Hello`. Must be
    /// non-zero: session `0` is anonymous and has no dedup window, so
    /// retrying under it could double-apply.
    pub session_id: u64,
    /// Attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Hard cap on one backoff sleep.
    pub max_backoff: Duration,
    /// Per-attempt socket deadline (read and write) — a wedged server
    /// surfaces as [`ClientError::Io`] and triggers a retry instead
    /// of blocking forever.
    pub request_timeout: Duration,
    /// Seed for the deterministic backoff jitter (tests pin it).
    pub jitter_seed: u64,
    /// Overload policy sent at `Hello`.
    pub policy: OverloadPolicy,
    /// Ingest-queue capacity override sent at `Hello`.
    pub queue_capacity: Option<u32>,
}

impl RetryConfig {
    /// Defaults for the named session `session_id` (must be non-zero).
    pub fn new(session_id: u64) -> RetryConfig {
        assert!(session_id != 0, "retry requires a non-zero session id");
        RetryConfig {
            session_id,
            max_attempts: 5,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            jitter_seed: session_id,
            policy: OverloadPolicy::Block { deadline: Duration::from_secs(5) },
            queue_capacity: None,
        }
    }
}

/// Observability counters for a [`RetryClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Re-sent requests (attempts beyond each request's first).
    pub retries: u64,
    /// Connections established after the initial one.
    pub reconnects: u64,
}

/// A [`Client`] wrapper that survives timeouts, mid-frame
/// disconnects, and server restarts without ever double-applying a
/// mutation.
pub struct RetryClient {
    addr: SocketAddr,
    config: RetryConfig,
    client: Option<Client>,
    connected_before: bool,
    next_seq: u64,
    resumed_mark: u64,
    rng: StdRng,
    stats: RetryStats,
}

impl RetryClient {
    /// Connect and bind the named session (retrying the initial
    /// connection like any other transport failure).
    pub fn connect(addr: impl ToSocketAddrs, config: RetryConfig) -> Result<Self, ClientError> {
        assert!(config.session_id != 0, "retry requires a non-zero session id");
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Io(e.to_string()))?
            .next()
            .ok_or_else(|| ClientError::Io("address resolved to nothing".into()))?;
        let rng = StdRng::seed_from_u64(config.jitter_seed);
        let mut rc = RetryClient {
            addr,
            config,
            client: None,
            connected_before: false,
            next_seq: 1,
            resumed_mark: 0,
            rng,
            stats: RetryStats::default(),
        };
        rc.request(|c| c.ping())?;
        // Resume the sequence above anything the server already
        // applied for this session (e.g. this process restarted).
        rc.next_seq = rc.next_seq.max(rc.resumed_mark + 1);
        Ok(rc)
    }

    /// The bound session id.
    pub fn session_id(&self) -> u64 {
        self.config.session_id
    }

    /// Retry/reconnect counters so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// The server's dedup high-water mark reported at the most recent
    /// (re)connection — the highest `seq` it had already applied.
    pub fn resumed_mark(&self) -> u64 {
        self.resumed_mark
    }

    /// Install (or replace) a source table. Carries no `seq`: a
    /// re-install of the same frame is a no-op by construction
    /// (replace semantics), so blind retry is safe.
    pub fn install_source(
        &mut self,
        node: &str,
        table: &str,
        frame: &Frame,
    ) -> Result<(), ClientError> {
        let frame = frame.clone();
        let cmd = Command::InstallSource { node: node.into(), table: table.into(), frame };
        self.request(|c| c.apply(cmd.clone())).and_then(expect_ok)
    }

    /// Register a continuous query, exactly once. SQL that does not
    /// parse is refused before sending.
    pub fn register(&mut self, module: &str, sql: &str) -> Result<u64, ClientError> {
        let cmd = register_command(module, sql, self.origin())?;
        self.request(|c| c.apply(cmd.clone())).and_then(registered)
    }

    /// Queue one stream batch, applied at most once no matter how
    /// many times the request is re-sent. `Overloaded` is returned to
    /// the caller (backpressure is an answer, not a fault).
    pub fn ingest(
        &mut self,
        node: &str,
        table: &str,
        frame: &Frame,
    ) -> Result<IngestAck, ClientError> {
        let (node, table, frame) = (node.into(), table.into(), frame.clone());
        let cmd = Command::Ingest { node, table, frame, origin: self.origin() };
        self.request(|c| c.apply(cmd.clone())).and_then(ingest_ack)
    }

    /// Evaluate all registered queries. A retried tick is served from
    /// the server's reply cache (no second evaluation, no double ε
    /// spend) — unless the server crashed in between, in which case
    /// it re-executes.
    pub fn tick(&mut self) -> Result<TickReply, ClientError> {
        let seq = self.take_seq();
        self.request(|c| c.tick_seq(seq))
    }

    /// Install or swap a module policy, exactly once. XML that does
    /// not parse, or holds no policy for `module`, is refused before
    /// sending.
    pub fn set_policy(&mut self, module: &str, xml: &str) -> Result<(), ClientError> {
        let cmd = set_policy_command(module, xml, self.origin())?;
        self.request(|c| c.apply(cmd.clone())).and_then(expect_ok)
    }

    /// Deregister a handle (single attempt after reconnect-if-needed:
    /// a retried remove that raced its own success would surface a
    /// misleading `UnknownHandle`).
    pub fn remove_query(&mut self, handle: u64) -> Result<(), ClientError> {
        self.ensure_connected()?;
        let r = self.client.as_mut().expect("connected").remove_query(handle);
        if matches!(r, Err(ClientError::Io(_))) {
            self.client = None;
        }
        r
    }

    /// Fetch server + runtime counters (read-only, safe to retry).
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.request(|c| c.stats())
    }

    /// Liveness probe (read-only, safe to retry).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(|c| c.ping())
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// A fresh origin for the next mutation.
    fn origin(&mut self) -> (u64, u64) {
        (self.config.session_id, self.take_seq())
    }

    /// Run one operation with reconnect + bounded backoff. The
    /// closure must re-send the *same* `seq` on every attempt — that
    /// is what makes the retry idempotent.
    fn request<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut last = None;
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(self.backoff(attempt));
            }
            if let Err(e) = self.ensure_connected() {
                last = Some(e);
                continue;
            }
            match op(self.client.as_mut().expect("connected")) {
                Ok(v) => return Ok(v),
                Err(ClientError::Io(what)) => {
                    // The connection is suspect (timeout, reset,
                    // mid-frame close): drop it and retry — the seq
                    // embedded in `op` makes the re-send safe.
                    self.client = None;
                    last = Some(ClientError::Io(what));
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Io("retries exhausted".into())))
    }

    /// (Re)connect and resume the session at `Hello` if needed.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.client.is_some() {
            return Ok(());
        }
        let mut client = Client::connect(self.addr)?;
        client.set_timeout(Some(self.config.request_timeout))?;
        let mark = client.hello_session(
            self.config.policy,
            self.config.queue_capacity,
            self.config.session_id,
        )?;
        self.resumed_mark = mark;
        if self.connected_before {
            self.stats.reconnects += 1;
        }
        self.connected_before = true;
        self.client = Some(client);
        Ok(())
    }

    /// Exponential backoff for retry `attempt` (1-based), capped at
    /// `max_backoff`, with deterministic jitter in `[0.5, 1.5)` of the
    /// nominal delay so synchronized clients fan out.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let nominal = self.config.base_backoff.as_secs_f64()
            * f64::powi(2.0, attempt.saturating_sub(1).min(20) as i32);
        let capped = nominal.min(self.config.max_backoff.as_secs_f64());
        let jitter = 0.5 + self.rng.gen::<f64>();
        Duration::from_secs_f64(capped * jitter).min(self.config.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let mut rc = RetryClient {
            addr: "127.0.0.1:1".parse().unwrap(),
            config: RetryConfig::new(7),
            client: None,
            connected_before: false,
            next_seq: 1,
            resumed_mark: 0,
            rng: StdRng::seed_from_u64(7),
            stats: RetryStats::default(),
        };
        let base = rc.config.base_backoff;
        let max = rc.config.max_backoff;
        for attempt in 1..12 {
            let d = rc.backoff(attempt);
            assert!(d <= max, "attempt {attempt}: {d:?} over the cap");
            if attempt == 1 {
                assert!(d >= base / 2, "jitter floor is half the nominal delay");
            }
        }
        // Determinism: same seed, same sleeps.
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
    }

    #[test]
    #[should_panic(expected = "non-zero session id")]
    fn session_zero_is_refused() {
        let _ = RetryConfig::new(0);
    }

    #[test]
    fn seqs_are_monotonic() {
        let mut rc = RetryClient {
            addr: "127.0.0.1:1".parse().unwrap(),
            config: RetryConfig::new(3),
            client: None,
            connected_before: false,
            next_seq: 1,
            resumed_mark: 0,
            rng: StdRng::seed_from_u64(3),
            stats: RetryStats::default(),
        };
        assert_eq!(rc.take_seq(), 1);
        assert_eq!(rc.take_seq(), 2);
        assert_eq!(rc.take_seq(), 3);
    }
}
