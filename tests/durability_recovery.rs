//! Kill-and-recover: a durable `Runtime` dropped at an arbitrary
//! prefix of a randomized ingest/tick/policy-swap/register/remove
//! schedule and reopened from disk must finish the schedule with
//! results bitwise-identical to an uninterrupted in-memory reference —
//! across shard counts, snapshot rotations, and whatever
//! `PARADISE_THREADS` the CI matrix sets. Caller-held `QueryHandle`s
//! must survive the restart.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use paradise::prelude::*;

const PAPER_ORIGINAL: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
                              FROM (SELECT x, y, z, t FROM stream)";

/// One aggregation-rewriting query, one window query.
const QUERIES: &[&str] = &["SELECT x, y, z, t FROM stream", PAPER_ORIGINAL];

/// A fresh scratch directory per call, under the harness target dir so
/// CI can upload it as an artifact when an assertion fails.
fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let base = option_env!("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!(
        "durability-{}-{name}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The figure-4-shaped policy of the runtime suites: `z` only released
/// aggregated (AVG over GROUP BY x, y with a SUM HAVING threshold),
/// with tunable constants so swaps genuinely change results.
fn policy_variant(module: &str, z_limit: i64, sum_threshold: i64) -> ModulePolicy {
    let mut m = ModulePolicy::new(module);
    m.attributes
        .push(AttributeRule::allowed("x").with_condition(parse_expr("x > y").unwrap()));
    m.attributes.push(AttributeRule::allowed("y"));
    m.attributes.push(
        AttributeRule::allowed("z")
            .with_condition(parse_expr(&format!("z < {z_limit}")).unwrap())
            .with_aggregation(
                AggregationSpec::new("AVG")
                    .group_by(&["x", "y"])
                    .having(parse_expr(&format!("SUM(z) > {sum_threshold}")).unwrap()),
            ),
    );
    m.attributes.push(AttributeRule::allowed("t"));
    m
}

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic integer stream: `x` the partition key, `(x, y)` the
/// group key, `z` the measure.
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
            let x = (splitmix(&mut s) % 17) as i64;
            let y = (splitmix(&mut s) % 5) as i64;
            let z = (splitmix(&mut s) % 9) as i64 - 2;
            let t = (seed * 1_000_000 + i as u64) as i64;
            vec![Value::Int(x), Value::Int(y), Value::Int(z), Value::Int(t)]
        })
        .collect();
    Frame::new(schema, data).unwrap()
}

/// One step of the randomized schedule. Every variant is applied
/// identically to the reference and the durable runtime.
#[derive(Debug, Clone)]
enum Op {
    Ingest(u64, usize),
    Tick,
    Swap(i64, i64),
    Register(usize),
    RemoveOldest,
}

/// A seed-driven schedule: ingest-heavy with ticks interspersed, plus
/// policy swaps, an extra registration, and a removal (slot reuse).
fn schedule(seed: u64, steps: usize) -> Vec<Op> {
    let mut s = seed;
    let mut ops = Vec::new();
    for i in 0..steps {
        match splitmix(&mut s) % 10 {
            0..=4 => ops.push(Op::Ingest(seed * 1000 + i as u64, 80 + (splitmix(&mut s) % 200) as usize)),
            5 | 6 => ops.push(Op::Tick),
            7 => ops.push(Op::Swap(2 + (splitmix(&mut s) % 3) as i64, (splitmix(&mut s) % 60) as i64)),
            8 => ops.push(Op::Register((splitmix(&mut s) % QUERIES.len() as u64) as usize)),
            _ => ops.push(Op::RemoveOldest),
        }
    }
    ops.push(Op::Tick); // every schedule ends on a comparable tick
    ops
}

/// Configure a runtime the one canonical way — identical for the
/// in-memory reference, the pre-crash durable run, and the reopened
/// run (durability persists *state*, the caller re-supplies config).
fn configure(shards: usize) -> Runtime {
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_retention(600)
        .with_snapshot_every(2); // rotate generations mid-schedule
    if shards > 1 {
        rt = rt.with_partitioning("x", shards);
    }
    for (i, _) in QUERIES.iter().enumerate() {
        rt.set_policy(format!("Mod{i}"), policy_variant(&format!("Mod{i}"), 2, 50));
    }
    rt
}

/// Install the source and register the initial queries — only on
/// first boot; a recovered runtime already holds them.
fn seed_state(rt: &mut Runtime, live: &mut Vec<QueryHandle>) {
    rt.install_source("motion-sensor", "stream", users(42, 300)).unwrap();
    for (i, q) in QUERIES.iter().enumerate() {
        live.push(rt.register(&format!("Mod{i}"), &parse_query(q).unwrap()).unwrap());
    }
}

/// Apply one op; `live` tracks handles identically in every run.
fn apply(rt: &mut Runtime, op: &Op, live: &mut Vec<QueryHandle>) -> Vec<(QueryHandle, Outcome)> {
    match op {
        Op::Ingest(seed, rows) => {
            rt.ingest("motion-sensor", "stream", users(*seed, *rows)).unwrap();
            Vec::new()
        }
        Op::Tick => rt.tick().unwrap(),
        Op::Swap(z, t) => {
            rt.set_policy("Mod0", policy_variant("Mod0", *z, *t));
            Vec::new()
        }
        Op::Register(q) => {
            let module = format!("Mod{}", q % QUERIES.len());
            live.push(rt.register(&module, &parse_query(QUERIES[*q]).unwrap()).unwrap());
            Vec::new()
        }
        Op::RemoveOldest => {
            if live.len() > 1 {
                let h = live.remove(0);
                rt.remove_query(h).unwrap();
            }
            Vec::new()
        }
    }
}

fn assert_same_outcomes(
    got: &[(QueryHandle, Outcome)],
    expect: &[(QueryHandle, Outcome)],
    context: &str,
) {
    assert_eq!(got.len(), expect.len(), "{context}: result count");
    for ((hg, og), (he, oe)) in got.iter().zip(expect) {
        assert_eq!(hg, he, "{context}: handle order");
        assert_eq!(og.result.to_rows(), oe.result.to_rows(), "{context}: final rows");
        assert_eq!(og.shipped, oe.shipped, "{context}: shipped frame");
        assert_eq!(og.planned.anonymized_at, oe.planned.anonymized_at, "{context}: anonymization node");
    }
}

/// The tentpole pin: for several crash points inside a randomized
/// schedule, [reference run] == [durable run, killed at the crash
/// point, reopened from disk, schedule finished] — at 1 shard and 4.
#[test]
fn kill_and_recover_matches_uninterrupted_run() {
    for shards in [1usize, 4] {
        let ops = schedule(0xD15EA5E + shards as u64, 14);

        // uninterrupted in-memory reference
        let mut reference = configure(shards);
        let mut ref_live = Vec::new();
        seed_state(&mut reference, &mut ref_live);
        let mut expect = Vec::new();
        for op in &ops {
            let out = apply(&mut reference, op, &mut ref_live);
            if !out.is_empty() {
                expect = out;
            }
        }

        for cut in [2usize, 7, 12] {
            let dir = scratch(&format!("kill-s{shards}-c{cut}"));
            let mut live = Vec::new();

            let mut rt = configure(shards).durable(&dir).unwrap();
            seed_state(&mut rt, &mut live);
            for op in &ops[..cut] {
                apply(&mut rt, op, &mut live);
            }
            drop(rt); // the crash point: state survives only on disk

            let mut rt = configure(shards).durable(&dir).unwrap();
            let stats = rt.durability_stats().expect("durable runtime has stats");
            assert!(stats.recovered, "shards={shards} cut={cut}: reopen must recover");

            let mut out = Vec::new();
            for op in &ops[cut..] {
                let o = apply(&mut rt, op, &mut live);
                if !o.is_empty() {
                    out = o;
                }
            }
            assert_same_outcomes(
                &out,
                &expect,
                &format!("shards={shards} cut={cut} ({})", dir.display()),
            );
            assert_eq!(live, ref_live, "shards={shards} cut={cut}: surviving handles");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Caller-held handles must keep resolving after a restart, stale
/// handles must stay dead, and the recovered registration set must
/// match (slots, generations, modules).
#[test]
fn handles_survive_recovery_and_stale_handles_stay_dead() {
    let dir = scratch("handles");
    let q = parse_query(PAPER_ORIGINAL).unwrap();

    let mut rt = configure(1).durable(&dir).unwrap();
    rt.install_source("motion-sensor", "stream", users(7, 120)).unwrap();
    let dead = rt.register("Mod0", &q).unwrap();
    let kept = rt.register("Mod1", &parse_query(QUERIES[0]).unwrap()).unwrap();
    rt.remove_query(dead).unwrap();
    let reused = rt.register("Mod0", &q).unwrap(); // reuses the freed slot
    rt.tick().unwrap();
    drop(rt);

    let mut rt = configure(1).durable(&dir).unwrap();
    assert_eq!(rt.registered(), 2);
    assert_eq!(rt.handle_stats(kept).unwrap().module, "Mod1");
    assert_eq!(rt.handle_stats(reused).unwrap().module, "Mod0");
    assert!(
        matches!(rt.handle_stats(dead), Err(CoreError::UnknownHandle(_))),
        "a handle removed before the crash must stay dead after recovery"
    );
    rt.remove_query(kept).unwrap();
    assert_eq!(rt.registered(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention evictions are themselves WAL records: a recovered window
/// must sit at exactly the original run's eviction boundary, pinned by
/// absolute stream positions, through multiple snapshot generations.
#[test]
fn recovered_window_matches_eviction_boundaries() {
    let dir = scratch("evict");
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_retention(400)
        .with_snapshot_every(3)
        .with_policy("Mod0", policy_variant("Mod0", 6, 0))
        .durable(&dir)
        .unwrap();
    rt.install_source("motion-sensor", "stream", users(1, 350)).unwrap();
    rt.register("Mod0", &parse_query(QUERIES[0]).unwrap()).unwrap();
    for round in 0..8u64 {
        rt.ingest("motion-sensor", "stream", users(50 + round, 170)).unwrap();
        rt.tick().unwrap();
    }
    let frame = rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap();
    let want_rows = frame.to_rows();
    let stats = rt.durability_stats().unwrap();
    assert!(stats.generation >= 2, "the schedule must rotate snapshots: {stats:?}");
    drop(rt);

    let rt = Runtime::new(ProcessingChain::apartment())
        .with_retention(400)
        .with_policy("Mod0", policy_variant("Mod0", 6, 0))
        .durable(&dir)
        .unwrap();
    let frame = rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap();
    assert_eq!(frame.to_rows(), want_rows, "recovered window differs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An explicit `snapshot()` right before the crash means replay has
/// nothing to do — and the state still matches.
#[test]
fn explicit_snapshot_then_recover() {
    let dir = scratch("explicit");
    let mut rt = configure(1).with_snapshot_every(0).durable(&dir).unwrap();
    let mut live = Vec::new();
    seed_state(&mut rt, &mut live);
    rt.ingest("motion-sensor", "stream", users(9, 100)).unwrap();
    let before = rt.tick().unwrap();
    rt.snapshot().unwrap();
    drop(rt);

    let mut rt = configure(1).with_snapshot_every(0).durable(&dir).unwrap();
    let stats = rt.durability_stats().unwrap();
    assert_eq!(stats.replayed, 0, "post-snapshot log must be empty: {stats:?}");
    let after = rt.tick().unwrap();
    assert_same_outcomes(&after, &before, "explicit snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A module policy that allows (or denies) every stream attribute.
fn every_attribute(module: &str, allowed: bool) -> ModulePolicy {
    let mut m = ModulePolicy::new(module);
    for attr in ["x", "y", "z", "t"] {
        let rule = if allowed { AttributeRule::allowed(attr) } else { AttributeRule::denied(attr) };
        m.attributes.push(rule);
    }
    m
}

/// A durable runtime that holds a handle its policy now denies must
/// still reopen — from a snapshot taken in that state, and from the log
/// alone. The recovered handle keeps reporting the same typed denial, a
/// bystander's results equal the uninterrupted run's, and a compatible
/// swap after the reopen un-denies the handle.
#[test]
fn a_denied_handle_survives_recovery() {
    let configure = || {
        Runtime::new(ProcessingChain::apartment())
            .with_snapshot_every(0)
            .with_policy("Victim", every_attribute("Victim", true))
            .with_policy("Mod0", policy_variant("Mod0", 6, 0))
    };
    let before_crash = |rt: &mut Runtime| -> (QueryHandle, QueryHandle) {
        rt.install_source("motion-sensor", "stream", users(42, 300)).unwrap();
        let flat = parse_query("SELECT x, y, z, t FROM stream").unwrap();
        let victim = rt.register("Victim", &flat).unwrap();
        let bystander = rt.register("Mod0", &parse_query(QUERIES[0]).unwrap()).unwrap();
        rt.tick().unwrap();
        rt.set_policy("Victim", every_attribute("Victim", false));
        (victim, bystander)
    };
    type Released = Vec<(QueryHandle, Result<Vec<Row>, CoreError>)>;
    let after_crash = |rt: &mut Runtime, handles: [QueryHandle; 2]| -> Vec<Released> {
        let mut ticks = Vec::new();
        for round in 0..2u64 {
            rt.ingest("motion-sensor", "stream", users(700 + round, 90)).unwrap();
            ticks.push(rt.tick_each(&handles).unwrap());
        }
        rt.set_policy("Victim", every_attribute("Victim", true));
        ticks.push(rt.tick_each(&handles).unwrap());
        ticks
            .into_iter()
            .map(|tick| tick.into_iter().map(|(h, r)| (h, r.map(|o| o.result.to_rows()))).collect())
            .collect()
    };

    let mut reference = configure();
    let (victim, bystander) = before_crash(&mut reference);
    let expect = after_crash(&mut reference, [victim, bystander]);
    assert!(matches!(expect[0][0], (h, Err(CoreError::QueryDenied(_))) if h == victim));
    assert!(matches!(expect[0][1], (h, Ok(_)) if h == bystander));
    assert!(expect[2][0].1.is_ok(), "a compatible swap un-denies the handle");

    for snapshot in [true, false] {
        let dir = scratch(if snapshot { "denied-snapshot" } else { "denied-wal" });
        let mut rt = configure().durable(&dir).unwrap();
        before_crash(&mut rt);
        if snapshot {
            rt.snapshot().unwrap();
        }
        drop(rt);

        let mut rt = configure()
            .durable(&dir)
            .unwrap_or_else(|e| panic!("snapshot={snapshot}: reopen failed: {e}"));
        assert_eq!(rt.registered(), 2, "snapshot={snapshot}: both handles survive");
        assert_eq!(rt.handle_stats(victim).unwrap().module, "Victim");
        assert_eq!(after_crash(&mut rt, [victim, bystander]), expect, "snapshot={snapshot}");
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `snapshot()` without an attached durability layer is a typed error,
/// and a non-durable runtime reports no durability stats.
#[test]
fn snapshot_requires_durability() {
    let mut rt = configure(1);
    assert!(rt.durability_stats().is_none());
    assert!(matches!(rt.snapshot(), Err(CoreError::Io(_))));
}

// --------------------------------------------------------------------
// served crash: `kill -9` while the runtime is being served over TCP,
// then reopen the directory — recovery must land exactly on the last
// group commit (control ops and ticked ingest survive; batches
// buffered since the last tick are lost, like a real crash)
// --------------------------------------------------------------------

mod served_crash {
    use super::*;
    use paradise::server::{Client, OverloadPolicy, Server, ServerConfig};
    use std::path::PathBuf;
    use std::time::Duration;

    fn durable_runtime(dir: &PathBuf) -> Runtime {
        Runtime::new(ProcessingChain::apartment())
            .with_policy("Mod0", policy_variant("Mod0", 6, 0))
            .with_snapshot_every(0) // recovery must come from the log
            .durable(dir)
            .unwrap()
    }

    #[test]
    fn crash_during_serving_recovers_the_last_commit_bitwise() {
        let dir = scratch("served-crash");
        let server = Server::start(durable_runtime(&dir), ServerConfig::default()).unwrap();

        let mut client = Client::connect(server.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        client.hello(OverloadPolicy::Block { deadline: Duration::from_secs(30) }, None).unwrap();
        client.install_source("motion-sensor", "stream", users(7, 50)).unwrap();
        let handle = client.register("Mod0", QUERIES[0]).unwrap();

        // committed rounds: each tick group-commits its ingest records
        let mut committed_rows = Vec::new();
        for round in 0..3u64 {
            client.ingest("motion-sensor", "stream", users(100 + round, 40)).unwrap();
            let reply = client.tick().unwrap();
            let (id, result) = reply.results.into_iter().next().unwrap();
            assert_eq!(id, handle);
            committed_rows = result.expect("healthy handle").to_rows();
        }
        assert!(!committed_rows.is_empty());

        // buffered-only tail: accepted and applied in memory, but no
        // tick follows — a crash must lose exactly these
        client.ingest("motion-sensor", "stream", users(900, 40)).unwrap();
        client.ingest("motion-sensor", "stream", users(901, 40)).unwrap();
        // drain marker: a ping round-trips through the connection after
        // the ingests were queued; the engine applies FIFO before it
        client.ping().unwrap();

        // crash with the connection still open: dropping the client
        // first would send a Disconnect, whose handle release is a
        // control op that commits the buffered tail
        server.crash();
        drop(client);

        // reopen the directory in-process with the same configuration
        let mut recovered = durable_runtime(&dir);
        let stats = recovered.durability_stats().unwrap();
        assert!(stats.recovered, "{stats:?}");
        assert_eq!(recovered.registered(), 1, "wire registration is a control op: committed");

        let outcomes = recovered.tick().unwrap();
        assert_eq!(outcomes[0].0.id(), handle, "the caller-held handle survives recovery");
        assert_eq!(
            outcomes[0].1.result.to_rows(),
            committed_rows,
            "recovery must land bitwise on the last group commit"
        );

        // the buffered tail must genuinely be gone: re-ingesting it
        // changes the result (so the equality above is not vacuous)
        let mut replay = durable_runtime(&scratch("served-crash-ref"));
        replay.install_source("motion-sensor", "stream", users(7, 50)).unwrap();
        replay.register("Mod0", &parse_query(QUERIES[0]).unwrap()).unwrap();
        for round in 0..3u64 {
            replay.ingest("motion-sensor", "stream", users(100 + round, 40)).unwrap();
        }
        replay.ingest("motion-sensor", "stream", users(900, 40)).unwrap();
        let with_tail = replay.tick().unwrap()[0].1.result.to_rows();
        assert_ne!(with_tail, committed_rows, "the lost tail is observable when present");

        // graceful path for contrast: shutdown commits the tail
        let server = Server::start(recovered, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        client.ingest("motion-sensor", "stream", users(902, 40)).unwrap();
        client.ping().unwrap();
        drop(client);
        let runtime = server.shutdown().expect("graceful shutdown returns the runtime");
        let expected = runtime
            .chain()
            .node("motion-sensor")
            .unwrap()
            .catalog
            .get("stream")
            .unwrap()
            .to_rows();
        drop(runtime);

        let reopened = durable_runtime(&dir);
        assert_eq!(
            reopened
                .chain()
                .node("motion-sensor")
                .unwrap()
                .catalog
                .get("stream")
                .unwrap()
                .to_rows(),
            expected,
            "graceful shutdown commits even un-ticked ingest"
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
