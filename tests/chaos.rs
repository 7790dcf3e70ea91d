//! Deterministic end-to-end chaos harness: seed-driven fault schedules
//! composing disk faults (`FaultVfs`), mid-frame connection kills (an
//! in-test byte-budget proxy), and whole-server crash/restart — across
//! shard counts {1, 4} — asserting that the recovered system is
//! *indistinguishable* from a fault-free reference run:
//!
//! * tick results are bitwise identical (including noisy DP rows —
//!   the ledger position, and therefore the noise stream, must not
//!   drift by even one draw),
//! * epsilon ledger seq/spend match exactly (no double spend, no
//!   refund),
//! * exactly-once accounting holds (`ingest_applied`/`ticks_served`
//!   equal the no-fault run; retries surface only as `dedup_hits`),
//! * every scheduled fault actually fired (`FaultStats::total()` is
//!   asserted against the schedule, so a silently-unreachable fault
//!   site fails the test instead of weakening it).
//!
//! Failure messages carry the seed so any failure reproduces locally.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use paradise::core::storage::{FaultKind, FaultOp, FaultVfs};
use paradise::core::Command;
use paradise::prelude::*;

/// Grouped aggregate over the partition key: small, order-pinned
/// results that exercise SUM/AVG/COUNT under both the exact and the
/// DP rewrite.
const QUERY: &str =
    "SELECT x, COUNT(*) AS n, SUM(z) AS sz, AVG(z) AS az FROM stream GROUP BY x ORDER BY x";
/// Second query registered mid-run (under a WAL fault in chaos runs).
const SECOND_QUERY: &str = "SELECT y, COUNT(*) AS c FROM stream GROUP BY y ORDER BY y";
/// Clamp bounds covering the generated `z`, so clamping never changes
/// a value and the exact run stays a valid reference for the noisy one.
const CLAMP: (f64, f64) = (-4.0, 8.0);

fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let base = option_env!("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!(
        "chaos-{}-{name}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic integer batches; `z` stays inside [`CLAMP`] and all
/// values are integers, so result comparison is exact.
fn users(seed: u64, rows: usize) -> Frame {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Integer),
        ("y", DataType::Integer),
        ("z", DataType::Integer),
        ("t", DataType::Integer),
    ]);
    let mut s = seed;
    let data = (0..rows)
        .map(|i| {
            let x = (splitmix(&mut s) % 7) as i64;
            let y = (splitmix(&mut s) % 5) as i64;
            let z = (splitmix(&mut s) % 13) as i64 - 4;
            let t = (seed.wrapping_mul(1_000_000) as i64).wrapping_add(i as i64);
            vec![Value::Int(x), Value::Int(y), Value::Int(z), Value::Int(t)]
        })
        .collect();
    Frame::new(schema, data).unwrap()
}

/// Allow-all policy (no structural rewriting) with an optional DP
/// config — any divergence between runs is then the fault's, not the
/// rewrite layer's.
fn policy(module: &str, dp: Option<DpConfig>) -> ModulePolicy {
    let mut m = ModulePolicy::new(module);
    for attr in ["x", "y", "z", "t"] {
        m.attributes.push(AttributeRule::allowed(attr));
    }
    m.dp = dp;
    m
}

/// Noisy DP with an infinite budget: every tick spends ε and draws
/// noise, so a single ledger-position drift shows up as a bitwise
/// result mismatch.
fn noisy() -> DpConfig {
    DpConfig::new(1.0, f64::INFINITY).with_clamp(CLAMP.0, CLAMP.1)
}

/// The common runtime shape: one exact module, one noisy-DP module,
/// explicit snapshots only (so chaos controls every disk write).
fn configure(shards: usize) -> Runtime {
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_retention(600)
        .with_snapshot_every(0)
        .with_policy("Exact", policy("Exact", None))
        .with_policy("Dp", policy("Dp", Some(noisy())));
    if shards > 1 {
        rt = rt.with_partitioning("x", shards);
    }
    rt
}

// --------------------------------------------------------------------
// disk chaos: injected I/O faults + degraded mode + crash/reopen
// --------------------------------------------------------------------

mod disk {
    use super::*;

    const SESSION: u64 = 9;
    const ROUNDS: u64 = 10;
    /// Scheduled faults per chaos run; asserted against
    /// `FaultStats::total()` at the end.
    const SCHEDULED_FAULTS: u64 = 6;

    /// One round's results: rows per registered handle.
    type TickRows = Vec<(QueryHandle, Vec<Row>)>;

    struct RunResult {
        /// Per-round tick rows; `None` where the chaos run's tick
        /// failed at the durability commit (results withheld).
        ticks: Vec<Option<TickRows>>,
        ledger_seq: u64,
        ledger_spent_bits: u64,
        mark: u64,
        registered: usize,
    }

    fn resume(rt: &mut Runtime, seed: u64) {
        rt.resume_durability()
            .unwrap_or_else(|e| panic!("seed {seed:#x}: resume_durability failed: {e}"));
        assert!(rt.degraded().is_none(), "seed {seed:#x}: still degraded after resume");
    }

    fn expect_degraded(result: Result<impl std::fmt::Debug, CoreError>, what: &str, seed: u64) {
        match result {
            Err(CoreError::Degraded(_)) => {}
            Err(other) => panic!("seed {seed:#x}: {what}: wrong error {other}"),
            Ok(v) => panic!("seed {seed:#x}: {what}: succeeded ({v:?}) despite the fault"),
        }
    }

    /// Run the fixed mutation schedule. With `faults`, a fault is
    /// injected at every durability touchpoint (inline register /
    /// policy commits, tick group commits — one EIO, one torn write —
    /// snapshot rename and fsync), each followed by
    /// `resume_durability` and an idempotent same-`seq` retry; the
    /// whole runtime is additionally crashed and reopened mid-run.
    fn drive(
        shards: usize,
        seed: u64,
        dir: &std::path::Path,
        faults: Option<&Arc<FaultVfs>>,
    ) -> RunResult {
        let mut rt = Some(match faults {
            Some(vfs) => {
                let vfs: Arc<dyn paradise::core::storage::Vfs> = vfs.clone();
                configure(shards).durable_with(dir, vfs).unwrap()
            }
            None => configure(shards).durable(dir).unwrap(),
        });
        let r = rt.as_mut().unwrap();
        r.install_source("motion-sensor", "stream", users(3, 120)).unwrap();
        let mut seq = 0u64;
        for module in ["Exact", "Dp"] {
            seq += 1;
            let applied = !r
                .apply(Command::Register {
                    module: module.into(),
                    query: Box::new(parse_query(QUERY).unwrap()),
                    origin: (SESSION, seq),
                })
                .unwrap()
                .duplicate;
            assert!(applied, "seed {seed:#x}: initial register deduped unexpectedly");
        }

        let mut ticks = Vec::new();
        for round in 0..ROUNDS {
            let r = rt.as_mut().unwrap();

            if round == 1 {
                // Mid-run registration; in chaos its inline WAL commit
                // fails, and the same-seq retry must return the
                // already-applied handle instead of a second one.
                seq += 1;
                let query = parse_query(SECOND_QUERY).unwrap();
                if let Some(vfs) = faults {
                    vfs.schedule(FaultOp::Write, 0, FaultKind::Eio);
                    expect_degraded(
                        r.apply(Command::Register {
                            module: "Exact".into(),
                            query: Box::new(query.clone()),
                            origin: (SESSION, seq),
                        }),
                        "register under WAL fault",
                        seed,
                    );
                    resume(r, seed);
                    let applied = !r
                        .apply(Command::Register {
                            module: "Exact".into(),
                            query: Box::new(query.clone()),
                            origin: (SESSION, seq),
                        })
                        .unwrap()
                        .duplicate;
                    assert!(!applied, "seed {seed:#x}: retried register applied twice");
                } else {
                    let applied = !r
                        .apply(Command::Register {
                            module: "Exact".into(),
                            query: Box::new(query.clone()),
                            origin: (SESSION, seq),
                        })
                        .unwrap()
                        .duplicate;
                    assert!(applied);
                }
            }

            if round == 2 {
                // Live policy swap (same content, new version — plans
                // invalidate, results don't change); chaos faults its
                // commit and retries with the same seq.
                seq += 1;
                let swap = policy("Exact", None);
                if let Some(vfs) = faults {
                    vfs.schedule(FaultOp::Write, 0, FaultKind::Eio);
                    expect_degraded(
                        r.apply(Command::SetPolicy {
                            module: "Exact".into(),
                            policy: swap.clone(),
                            origin: (SESSION, seq),
                        }),
                        "set_policy under WAL fault",
                        seed,
                    );
                    resume(r, seed);
                    let applied = !r
                        .apply(Command::SetPolicy {
                            module: "Exact".into(),
                            policy: swap,
                            origin: (SESSION, seq),
                        })
                        .unwrap()
                        .duplicate;
                    assert!(!applied, "seed {seed:#x}: retried policy swap applied twice");
                } else {
                    let applied = !r
                        .apply(Command::SetPolicy {
                            module: "Exact".into(),
                            policy: swap,
                            origin: (SESSION, seq),
                        })
                        .unwrap()
                        .duplicate;
                    assert!(applied);
                }
            }

            seq += 1;
            let batch = users(seed.wrapping_mul(31).wrapping_add(round), 40);
            let applied = !r
                .apply(Command::Ingest {
                    node: "motion-sensor".into(),
                    table: "stream".into(),
                    frame: batch.clone(),
                    origin: (SESSION, seq),
                })
                .unwrap()
                .duplicate;
            assert!(applied, "seed {seed:#x}: round {round}: fresh ingest deduped");
            if round == 5 && faults.is_some() {
                // A spurious duplicate delivery of the same batch must
                // be suppressed without error.
                let again = !r
                    .apply(Command::Ingest {
                        node: "motion-sensor".into(),
                        table: "stream".into(),
                        frame: batch,
                        origin: (SESSION, seq),
                    })
                    .unwrap()
                    .duplicate;
                assert!(!again, "seed {seed:#x}: duplicate ingest applied twice");
            }

            if round == 3 || round == 8 {
                // Explicit checkpoints; chaos fails the snapshot
                // install rename (round 3) and the log/snapshot fsync
                // (round 8), then resumes and retries.
                if let Some(vfs) = faults {
                    if round == 3 {
                        vfs.schedule(FaultOp::Rename, 0, FaultKind::Eio);
                    } else {
                        vfs.schedule(FaultOp::Sync, 0, FaultKind::Enospc);
                    }
                    expect_degraded(r.snapshot(), "snapshot under fault", seed);
                    resume(r, seed);
                    r.snapshot().unwrap_or_else(|e| {
                        panic!("seed {seed:#x}: snapshot retry failed: {e}")
                    });
                } else {
                    r.snapshot().unwrap();
                }
            }

            // The tick. Chaos rounds 4 and 6 fail the tick's group
            // commit (one EIO, one torn write): the runtime must
            // withhold results (acknowledging them would claim
            // durability it doesn't have), keep the spend pending, and
            // recover on resume without the ledger drifting.
            let faulted_tick = faults.is_some() && (round == 4 || round == 6);
            if faulted_tick {
                let vfs = faults.unwrap();
                if round == 4 {
                    vfs.schedule(FaultOp::Write, 0, FaultKind::Eio);
                } else {
                    vfs.schedule(
                        FaultOp::Write,
                        0,
                        FaultKind::Torn { keep: (seed % 40) as usize + 1 },
                    );
                }
                match r.tick() {
                    Err(CoreError::Degraded(_)) => {}
                    other => panic!(
                        "seed {seed:#x}: round {round}: tick under commit fault: {other:?}"
                    ),
                }
                if round == 4 {
                    // While degraded, a noisy-DP tick is refused up
                    // front: its ε spend could not be persisted.
                    match r.tick() {
                        Err(CoreError::Degraded(msg)) => assert!(
                            msg.contains("cannot persist"),
                            "seed {seed:#x}: wrong degraded-tick refusal: {msg}"
                        ),
                        other => panic!(
                            "seed {seed:#x}: degraded tick not refused: {other:?}"
                        ),
                    }
                }
                resume(r, seed);
                // Deliberately no tick retry: the evaluation already
                // charged its ledger position, so re-running would
                // shift every later noise draw off the reference.
                ticks.push(None);
            } else {
                let out = r.tick().unwrap_or_else(|e| {
                    panic!("seed {seed:#x}: round {round}: tick failed: {e}")
                });
                ticks.push(Some(
                    out.iter().map(|(h, o)| (*h, o.result.to_rows())).collect(),
                ));
            }

            if round == 7 {
                if let Some(fv) = faults {
                    // kill -9 right after a committed tick, then reopen
                    // the same directory through the same faulty VFS.
                    rt.take().unwrap().simulate_crash();
                    let vfs: Arc<dyn paradise::core::storage::Vfs> = fv.clone();
                    let reopened = configure(shards)
                        .durable_with(dir, vfs)
                        .unwrap_or_else(|e| panic!("seed {seed:#x}: reopen failed: {e}"));
                    assert!(reopened.degraded().is_none());
                    assert_eq!(
                        reopened.session_mark(SESSION),
                        seq,
                        "seed {seed:#x}: dedup mark lost across crash"
                    );
                    rt = Some(reopened);
                }
            }
        }

        let r = rt.as_mut().unwrap();
        let ledger = r.epsilon_ledger("Dp").expect("Dp module spent");
        RunResult {
            ticks,
            ledger_seq: ledger.seq(),
            ledger_spent_bits: ledger.spent().to_bits(),
            mark: r.session_mark(SESSION),
            registered: r.registered(),
        }
    }

    /// Disk faults at every durability touchpoint + a mid-run crash:
    /// the surviving state must be bitwise-identical to a fault-free
    /// run of the same schedule.
    #[test]
    fn disk_faults_degrade_resume_and_recover_identically() {
        for shards in [1usize, 4] {
            for seed in [0x5EED_0001u64, 0xD15C_C4A0] {
                let ref_dir = scratch(&format!("disk-ref-{shards}"));
                let reference = drive(shards, seed, &ref_dir, None);

                let chaos_dir = scratch(&format!("disk-chaos-{shards}"));
                let vfs = FaultVfs::new();
                let chaos = drive(shards, seed, &chaos_dir, Some(&vfs));

                let stats = vfs.stats();
                assert_eq!(
                    stats.total(),
                    SCHEDULED_FAULTS,
                    "seed {seed:#x}/{shards}: not every scheduled fault fired: {stats:?}"
                );
                assert_eq!(stats.torn_writes, 1, "seed {seed:#x}: {stats:?}");
                assert_eq!(vfs.pending_faults(), 0, "seed {seed:#x}: faults left armed");

                assert_eq!(chaos.ticks.len(), reference.ticks.len());
                for (round, (got, want)) in
                    chaos.ticks.iter().zip(&reference.ticks).enumerate()
                {
                    let want = want.as_ref().expect("reference runs fault-free");
                    if let Some(got) = got {
                        assert_eq!(
                            got, want,
                            "seed {seed:#x} shards {shards}: round {round} diverged"
                        );
                    }
                }
                assert_eq!(
                    (chaos.ledger_seq, chaos.ledger_spent_bits),
                    (reference.ledger_seq, reference.ledger_spent_bits),
                    "seed {seed:#x} shards {shards}: epsilon ledger drifted"
                );
                assert_eq!(chaos.mark, reference.mark, "seed {seed:#x}: dedup mark");
                assert_eq!(chaos.registered, reference.registered, "seed {seed:#x}");

                let _ = std::fs::remove_dir_all(&ref_dir);
                let _ = std::fs::remove_dir_all(&chaos_dir);
            }
        }
    }
}

// --------------------------------------------------------------------
// wire chaos: mid-frame connection kills against a RetryClient
// --------------------------------------------------------------------

mod wire {
    use super::*;
    use std::io::{Read, Write};

    /// Per-test server log under the harness target dir so CI uploads
    /// it with the other `server-*.log` artifacts on failure.
    fn server_log(name: &str) -> PathBuf {
        let base = option_env!("CARGO_TARGET_TMPDIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        base.join(format!("server-chaos-{}-{name}.log", std::process::id()))
    }

    fn start_server(runtime: Runtime, log: &str) -> Server {
        let config = ServerConfig {
            log_path: Some(server_log(log)),
            ..ServerConfig::default()
        };
        Server::start(runtime, config).unwrap()
    }

    /// One proxied direction: forward bytes until the connection's
    /// shared budget runs out, then cut *both* directions mid-stream —
    /// the shape of a yanked cable, not a polite close.
    fn pump(mut from: TcpStream, mut to: TcpStream, budget: Arc<AtomicIsize>) {
        let mut buf = [0u8; 512];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            if budget.fetch_sub(n as isize, Ordering::SeqCst) <= n as isize {
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    }

    /// A TCP proxy that kills each proxied connection after a seeded
    /// byte budget (counted over both directions, so the cut can land
    /// before the request is read *or* after the server applied it but
    /// before the client saw the ack). Budgets exceed any single frame
    /// (~2 KiB max here), so every connection makes progress before it
    /// dies — the retrying client must converge, exactly once.
    fn kill_proxy(upstream: SocketAddr, seed: u64) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut s = seed;
            for conn in listener.incoming() {
                let Ok(client) = conn else { break };
                let Ok(server) = TcpStream::connect(upstream) else { break };
                let budget =
                    Arc::new(AtomicIsize::new(2_500 + (splitmix(&mut s) % 2_500) as isize));
                let pair = [
                    (client.try_clone().unwrap(), server.try_clone().unwrap()),
                    (server, client),
                ];
                for (from, to) in pair {
                    let budget = budget.clone();
                    std::thread::spawn(move || pump(from, to, budget));
                }
            }
        });
        addr
    }

    /// One tick's results over the wire: rows per server-side handle id.
    type WireTick = Vec<(u64, Vec<Row>)>;

    /// The fixed workload, returning every tick's per-handle rows plus
    /// the server-side accounting it ended with.
    fn run_ops(addr: SocketAddr, session: u64) -> (Vec<WireTick>, RetryStats, ServerStats) {
        let mut cfg = RetryConfig::new(session);
        cfg.max_attempts = 10;
        cfg.base_backoff = Duration::from_millis(5);
        cfg.max_backoff = Duration::from_millis(100);
        cfg.request_timeout = Duration::from_secs(10);
        let mut rc = RetryClient::connect(addr, cfg).unwrap();
        rc.install_source("motion-sensor", "stream", &users(3, 40)).unwrap();
        rc.register("Exact", QUERY).unwrap();
        rc.register("Dp", QUERY).unwrap();
        let mut ticks = Vec::new();
        for round in 0..8u64 {
            match rc.ingest("motion-sensor", "stream", &users(2_000 + round, 30)).unwrap() {
                IngestAck::Accepted { .. } => {}
                IngestAck::Overloaded { reason } => panic!("unexpected shed: {reason}"),
            }
            if round == 3 {
                rc.set_policy("Exact", &policy_to_xml(&Policy::single(policy("Exact", None))))
                    .unwrap();
            }
            let reply = rc.tick().unwrap();
            assert!(reply.deferred.is_empty(), "deferred errors: {:?}", reply.deferred);
            ticks.push(
                reply
                    .results
                    .iter()
                    .map(|(h, r)| (*h, r.as_ref().expect("no quarantine").to_rows()))
                    .collect(),
            );
        }
        let server = rc.stats().unwrap().server;
        (ticks, rc.retry_stats(), server)
    }

    /// Seeded mid-frame connection kills between a [`RetryClient`] and
    /// the server: results, applied-ingest counts, and served-tick
    /// counts must all match an unproxied fault-free run — retries may
    /// only ever surface as `dedup_hits`.
    #[test]
    fn connection_kills_never_double_apply_or_lose_work() {
        for shards in [1usize, 4] {
            let seed = 0xBADC_0FFEu64 + shards as u64;
            let session = 0xFEED_0000 + shards as u64;

            let reference = start_server(configure(shards), &format!("wire-ref-{shards}"));
            let (want_ticks, _, want_stats) = run_ops(reference.local_addr(), session);
            reference.shutdown();

            let chaos = start_server(configure(shards), &format!("wire-chaos-{shards}"));
            let proxied = kill_proxy(chaos.local_addr(), seed);
            let (got_ticks, retries, got_stats) = run_ops(proxied, session);

            assert!(
                retries.reconnects >= 1,
                "seed {seed:#x}: proxy never killed a connection — no chaos exercised \
                 (retries {retries:?})"
            );
            assert_eq!(
                got_ticks, want_ticks,
                "seed {seed:#x} shards {shards}: results diverged from the fault-free run"
            );
            assert_eq!(
                got_stats.ingest_applied, want_stats.ingest_applied,
                "seed {seed:#x}: an ingest retry was double-applied or lost"
            );
            assert_eq!(
                got_stats.ticks_served, want_stats.ticks_served,
                "seed {seed:#x}: a tick retry re-evaluated instead of hitting the cache"
            );
            chaos.shutdown();
        }
    }

    /// A client speaking the wrong protocol version — newer, or the
    /// previous one — gets a typed [`ErrorCode::Version`] refusal, the
    /// connection is closed, and the reject is counted — it never
    /// reaches the engine.
    #[test]
    fn hello_version_mismatch_is_typed_counted_and_closed() {
        use paradise::server::protocol::{self, Request, Response};

        let server = start_server(configure(1), "version-mismatch");
        let versions = [protocol::PROTOCOL_VERSION + 1, protocol::PROTOCOL_VERSION - 1];
        for version in versions {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let hello = Request::Hello {
                version,
                session_id: 7,
                shed: true,
                block_ms: 0,
                queue_capacity: protocol::QUEUE_CAPACITY_DEFAULT,
            };
            protocol::write_request(&mut s, &hello).unwrap();
            let payload = protocol::read_frame(&mut s, 1 << 20).unwrap();
            match protocol::decode_response(&payload).unwrap() {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::Version, "version {version}");
                    assert!(message.contains("unsupported protocol version"), "{message}");
                }
                other => panic!("version {version}: expected a refusal, got {other:?}"),
            }
            let mut rest = [0u8; 16];
            match s.read(&mut rest) {
                Ok(0) => {}
                other => panic!("version {version}: connection stayed open: {other:?}"),
            }
        }
        assert_eq!(server.stats().version_rejected, versions.len() as u64);
        server.shutdown();
    }
}

// --------------------------------------------------------------------
// crash chaos: server kill -9 + restart under a live retrying session
// --------------------------------------------------------------------

mod crash {
    use super::*;
    use paradise::server::protocol::Response;

    const SESSION: u64 = 0xBEEF;

    fn retry_config() -> RetryConfig {
        let mut cfg = RetryConfig::new(SESSION);
        cfg.base_backoff = Duration::from_millis(5);
        cfg.max_backoff = Duration::from_millis(100);
        cfg.request_timeout = Duration::from_secs(10);
        cfg
    }

    fn rows_of(reply: &TickReply) -> Vec<(u64, Vec<Row>)> {
        reply
            .results
            .iter()
            .map(|(h, r)| (*h, r.as_ref().expect("no quarantine").to_rows()))
            .collect()
    }

    /// Kill the server between committed ticks, restart it over the
    /// same durability directory, and resume the session: the dedup
    /// window and registered handles must survive, a re-sent
    /// already-applied `seq` must be suppressed, and the three ticks'
    /// results (including noisy DP rows) must be bitwise identical to
    /// an uninterrupted in-process run.
    #[test]
    fn server_crash_restart_resumes_session_without_double_apply() {
        for shards in [1usize, 4] {
            let dir = scratch(&format!("crash-{shards}"));
            let batches: Vec<Frame> =
                (0..3).map(|r| users(7_000 + shards as u64 * 100 + r, 40)).collect();

            // Uninterrupted in-process reference for the same schedule.
            let mut reference = configure(shards);
            reference.install_source("motion-sensor", "stream", users(3, 120)).unwrap();
            reference.register("Exact", &parse_query(QUERY).unwrap()).unwrap();
            reference.register("Dp", &parse_query(QUERY).unwrap()).unwrap();
            let mut want = Vec::new();
            for batch in &batches {
                reference.ingest("motion-sensor", "stream", batch.clone()).unwrap();
                let out = reference.tick().unwrap();
                want.push(
                    out.iter().map(|(_, o)| o.result.to_rows()).collect::<Vec<_>>(),
                );
            }
            let want_ledger = reference.epsilon_ledger("Dp").expect("Dp spent");

            // Phase 1: durable server, two committed ticks.
            let runtime = configure(shards).durable(&dir).unwrap();
            let server = Server::start(runtime, ServerConfig::default()).unwrap();
            let mut rc = RetryClient::connect(server.local_addr(), retry_config()).unwrap();
            rc.install_source("motion-sensor", "stream", &users(3, 120)).unwrap();
            let hx = rc.register("Exact", QUERY).unwrap(); // seq 1
            let hd = rc.register("Dp", QUERY).unwrap(); // seq 2
            rc.ingest("motion-sensor", "stream", &batches[0]).unwrap(); // seq 3
            let t1 = rows_of(&rc.tick().unwrap()); // seq 4
            rc.ingest("motion-sensor", "stream", &batches[1]).unwrap(); // seq 5
            let t2 = rows_of(&rc.tick().unwrap()); // seq 6
            server.crash();
            drop(rc);

            // Phase 2: restart over the same directory.
            let recovered = configure(shards).durable(&dir).unwrap();
            let server = Server::start(recovered, ServerConfig::default()).unwrap();
            let addr = server.local_addr();

            // A blind re-send of the last pre-crash ingest (seq 5, as
            // a timed-out retry would do) must hit the WAL-durable
            // dedup window, not append a second copy.
            let mut raw = Client::connect(addr).unwrap();
            let mark = raw
                .hello_session(OverloadPolicy::Shed, None, SESSION)
                .unwrap();
            assert_eq!(
                mark, 5,
                "shards {shards}: durable dedup mark lost across the crash \
                 (ticks carry seqs but only mutations advance the mark)"
            );
            let resend = Command::Ingest {
                node: "motion-sensor".into(),
                table: "stream".into(),
                frame: batches[1].clone(),
                origin: (SESSION, 5),
            };
            match raw.apply(resend).unwrap() {
                Response::Accepted { .. } => {}
                other => panic!("dedup re-send shed: {other:?}"),
            }
            drop(raw);
            // The ack means "queued": the engine thread dedups when it
            // drains the command, so poll rather than race it.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while server.stats().dedup_hits < 1 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "shards {shards}: cross-crash retry was not deduplicated"
                );
                std::thread::sleep(Duration::from_millis(10));
            }

            // Phase 3: a fresh RetryClient resumes the same session —
            // its seq counter continues above the durable mark and the
            // pre-crash handles come back with their ids.
            let mut rc = RetryClient::connect(addr, retry_config()).unwrap();
            assert_eq!(rc.resumed_mark(), 5, "shards {shards}");
            rc.ingest("motion-sensor", "stream", &batches[2]).unwrap(); // seq 6
            let t3 = rows_of(&rc.tick().unwrap()); // seq 7
            assert!(server.stats().sessions_resumed >= 1, "shards {shards}");
            assert_eq!(
                t3.iter().map(|(h, _)| *h).collect::<Vec<_>>(),
                vec![hx, hd],
                "shards {shards}: recovered session lost its registered handles"
            );
            assert_eq!(
                server.stats().ingest_applied,
                1,
                "shards {shards}: post-restart server applied more than the one new batch"
            );

            for (round, (got, want)) in [t1, t2, t3].iter().zip(&want).enumerate() {
                let got: Vec<_> = got.iter().map(|(_, rows)| rows.clone()).collect();
                assert_eq!(
                    &got, want,
                    "shards {shards}: tick {round} diverged from the uninterrupted run"
                );
            }

            let rt = server.shutdown().expect("runtime returned");
            let ledger = rt.epsilon_ledger("Dp").expect("Dp spent");
            assert_eq!(ledger.seq(), want_ledger.seq(), "shards {shards}: ledger seq");
            assert_eq!(
                ledger.spent().to_bits(),
                want_ledger.spent().to_bits(),
                "shards {shards}: ledger spend drifted across the crash"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
