//! End-to-end pipeline latency: the whole Figure 2 chain at several
//! data scales, vs. the ship-raw-to-cloud baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use paradise_bench::{
    meeting_stream, paper_flat, paper_original, paper_runtime, users_runtime, users_stream,
};

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(20);
    for rows in [1_000usize, 5_000, 20_000] {
        group.bench_with_input(BenchmarkId::new("paradise", rows), &rows, |b, &rows| {
            b.iter_batched(
                || paper_runtime(42, 10, rows / 10),
                |mut rt| rt.run_once("ActionFilter", black_box(&paper_original())).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("cloud_baseline", rows), &rows, |b, &rows| {
            let rt = paper_runtime(42, 10, rows / 10);
            b.iter(|| rt.cloud_baseline(black_box(&paper_original())).unwrap())
        });
    }
    group.finish();
}

/// The continuous-query runtime under load: N registered queries
/// ticked over streaming ingest batches. One iteration = ingest one
/// 100-row batch + drain every registered query (`Runtime::tick`),
/// with a 2000-row retention window keeping the working set steady.
/// All plan caches stay warm, so this tracks the pure re-execution
/// cost of a steady-state tick; `PARADISE_THREADS` controls the
/// multi-query fan-out.
fn bench_runtime_multi_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(20);
    for queries in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("runtime_multi_query", queries),
            &queries,
            |b, &queries| {
                let mut runtime = paper_runtime(42, 10, 100).with_retention(2_000);
                let q = paper_original();
                for _ in 0..queries {
                    runtime.register("ActionFilter", &q).unwrap();
                }
                let batches: Vec<_> =
                    (0..32u64).map(|i| meeting_stream(100 + i, 10, 10)).collect();
                runtime.tick().unwrap(); // compile every stage plan once
                let mut next = 0usize;
                b.iter(|| {
                    let batch = batches[next % batches.len()].clone();
                    next += 1;
                    runtime.ingest("motion-sensor", "stream", batch).unwrap();
                    black_box(runtime.tick().unwrap())
                })
            },
        );
    }
    group.finish();
}

/// Steady-state tick cost at a 100k-row retained window with 1k-row
/// ingest batches (the paper's flat query, which the Figure 4 policy
/// rewrites into the incrementally-maintainable grouped aggregation):
/// stateless stages process the 1k-row batch, the aggregation folds it
/// into per-group accumulators, so cost ∝ batch (with one amortized
/// rebuild per batched retention trim — `core.runtime.slow_tick_p50_us`
/// in `benchmark/` is that rebuild's price).
fn bench_runtime_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(2);
    const WINDOW: usize = 100_000;
    const BATCH_STEPS: usize = 100; // × 10 persons = 1k rows/tick
    group.bench_function(BenchmarkId::new("runtime_incremental", "batch"), |b| {
        let mut runtime = paper_runtime(42, 10, WINDOW / 10).with_retention(WINDOW);
        runtime.register("ActionFilter", &paper_flat()).unwrap();
        let batches: Vec<_> =
            (0..32u64).map(|i| meeting_stream(1_000 + i, 10, BATCH_STEPS)).collect();
        runtime.tick().unwrap(); // compile plans + build state once
        let mut next = 0usize;
        b.iter(|| {
            let batch = batches[next % batches.len()].clone();
            next += 1;
            runtime.ingest("motion-sensor", "stream", batch).unwrap();
            black_box(runtime.tick().unwrap())
        })
    });
    group.finish();
}

/// Partition-parallel tick cost on the "many users" workload: a
/// per-user SUM aggregation (one group per user) over a single Pc
/// node, ticked with large ingest batches.
///
/// * `runtime_sharded/1m_users` — 1M distinct users in the retained
///   window, 64 shards, 128k-row batches over 16k distinct users per
///   tick. Run it under `PARADISE_THREADS=1` vs `=4` (on multicore
///   hardware) for the thread-scaling headline; the shard fold, the
///   split hashing and the per-shard state are all partition-local, so
///   per-tick time should drop near-linearly until the serial merge
///   and finalize floor.
/// * `runtime_sharded/shards_{1,4,64}` — the shard-count scaling curve
///   at a fixed 256k-user window (shards_1 is the serial incremental
///   reference path; results are identical across the curve, only the
///   execution strategy changes).
fn bench_runtime_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");

    group.sample_size(2);
    group.bench_function(BenchmarkId::new("runtime_sharded", "1m_users"), |b| {
        const USERS: u64 = 1_000_000;
        let mut runtime =
            users_runtime(64, users_stream(7, USERS as usize, USERS), 2_500_000, 4_000);
        let batches: Vec<_> =
            (0..16u64).map(|i| users_stream(100 + i, 131_072, 16_384)).collect();
        runtime.tick().unwrap(); // compile plans + seed the 1M-group state
        let mut next = 0usize;
        b.iter(|| {
            let batch = batches[next % batches.len()].clone();
            next += 1;
            runtime.ingest("server", "stream", batch).unwrap();
            black_box(runtime.tick().unwrap())
        })
    });

    group.sample_size(10);
    for shards in [1usize, 4, 64] {
        group.bench_with_input(
            BenchmarkId::new("runtime_sharded", format!("shards_{shards}")),
            &shards,
            |b, &shards| {
                const USERS: u64 = 262_144;
                let mut runtime =
                    users_runtime(shards, users_stream(9, USERS as usize, USERS), 700_000, 2_000);
                let batches: Vec<_> =
                    (0..16u64).map(|i| users_stream(200 + i, 32_768, 8_192)).collect();
                runtime.tick().unwrap();
                let mut next = 0usize;
                b.iter(|| {
                    let batch = batches[next % batches.len()].clone();
                    next += 1;
                    runtime.ingest("server", "stream", batch).unwrap();
                    black_box(runtime.tick().unwrap())
                })
            },
        );
    }
    group.finish();
}

/// The differential-privacy finalize tax, mirroring the WAL-tax
/// methodology: both entries run the exact `runtime_incremental/batch`
/// workload (100k-row retained window, 1k-row batches, delta-aware
/// ticks), differing only in the module's [`DpConfig`]:
///
/// * `runtime_dp/exact_ref` — DP off; a dedicated reference entry so
///   the pair is committed and gated together;
/// * `runtime_dp/noisy_tick` — finite ε with clamp bounds: every tick
///   clamps per-row contributions (the engine's dense `CLAMP` path,
///   shared between `SUM`/`AVG`/`HAVING` via common-argument
///   evaluation), spends the epsilon ledger, seeds the PRNG, and
///   Laplace-noises the aggregation stage's finalized output. The
///   acceptance bar for the noisy-over-exact delta is ≤10%; measured
///   at parity (~1.93 ms vs ~1.94 ms) on the reference container.
fn bench_runtime_dp(c: &mut Criterion) {
    use paradise_policy::{figure4_policy, DpConfig};

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(2);
    const WINDOW: usize = 100_000;
    const BATCH_STEPS: usize = 100; // × 10 persons = 1k rows/tick
    let dp = DpConfig::new(1.0, f64::INFINITY).with_clamp(-50.0, 50.0);
    for (name, config) in [("exact_ref", None), ("noisy_tick", Some(dp))] {
        group.bench_with_input(BenchmarkId::new("runtime_dp", name), &config, |b, config| {
            let mut policy = figure4_policy().modules.remove(0);
            policy.dp = *config;
            let mut runtime = paper_runtime(42, 10, WINDOW / 10)
                .with_retention(WINDOW)
                .with_policy("ActionFilter", policy);
            runtime.register("ActionFilter", &paper_flat()).unwrap();
            let batches: Vec<_> =
                (0..32u64).map(|i| meeting_stream(1_000 + i, 10, BATCH_STEPS)).collect();
            runtime.tick().unwrap(); // compile plans + build state once
            let mut next = 0usize;
            b.iter(|| {
                let batch = batches[next % batches.len()].clone();
                next += 1;
                runtime.ingest("motion-sensor", "stream", batch).unwrap();
                black_box(runtime.tick().unwrap())
            })
        });
    }
    group.finish();
}

/// The write-ahead-log tax and the cost of coming back from a crash.
///
/// * `runtime_durable/wal_tick` — the exact `runtime_incremental/batch`
///   workload (100k-row retained window, 1k-row batches, delta-aware
///   ticks) with a durability directory attached, so every ingest and
///   eviction is framed, CRC'd and group-committed to the log each
///   tick. Compare against `runtime_incremental/batch` for the WAL-on
///   vs WAL-off delta; the acceptance bar is ≤10% overhead.
/// * `runtime_durable/replay` — cold crash recovery: a durable
///   directory holding one catalog snapshot plus a 20-tick log
///   (~20k logged rows) is reopened from scratch each iteration —
///   snapshot decode, WAL replay, and query re-registration included.
fn bench_runtime_durable(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    let scratch = std::env::temp_dir().join(format!("paradise-bench-durable-{}", std::process::id()));

    group.sample_size(2);
    const WINDOW: usize = 100_000;
    const BATCH_STEPS: usize = 100; // × 10 persons = 1k rows/tick
    group.bench_function(BenchmarkId::new("runtime_durable", "wal_tick"), |b| {
        let dir = scratch.join("wal_tick");
        let _ = std::fs::remove_dir_all(&dir);
        let mut runtime = paper_runtime(42, 10, WINDOW / 10)
            .with_retention(WINDOW)
            .with_snapshot_every(0) // steady-state WAL cost, no rotation spikes
            .durable(&dir)
            .expect("fresh durability directory attaches");
        runtime.register("ActionFilter", &paper_flat()).unwrap();
        let batches: Vec<_> =
            (0..32u64).map(|i| meeting_stream(1_000 + i, 10, BATCH_STEPS)).collect();
        runtime.tick().unwrap(); // compile plans + build state once
        let mut next = 0usize;
        b.iter(|| {
            let batch = batches[next % batches.len()].clone();
            next += 1;
            runtime.ingest("motion-sensor", "stream", batch).unwrap();
            black_box(runtime.tick().unwrap())
        })
    });

    group.sample_size(10);
    group.bench_function(BenchmarkId::new("runtime_durable", "replay"), |b| {
        let dir = scratch.join("replay");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut runtime = paper_runtime(42, 10, 1_000)
                .with_retention(WINDOW)
                .with_snapshot_every(0) // keep every tick in the log
                .durable(&dir)
                .expect("fresh durability directory attaches");
            runtime.register("ActionFilter", &paper_flat()).unwrap();
            for i in 0..20u64 {
                runtime
                    .ingest("motion-sensor", "stream", meeting_stream(2_000 + i, 10, BATCH_STEPS))
                    .unwrap();
                runtime.tick().unwrap();
            }
        } // drop = crash point: the log holds 20 ticks past the snapshot
        b.iter(|| {
            let recovered = paper_runtime(42, 10, 1_000)
                .with_retention(WINDOW)
                .with_snapshot_every(0)
                .durable(&dir)
                .expect("recovery from an intact directory succeeds");
            black_box(recovered.durability_stats().unwrap().replayed)
        })
    });
    let _ = std::fs::remove_dir_all(&scratch);
    group.finish();
}

/// The TCP serving layer's tax over in-process calls:
///
/// * `server_roundtrip` — one iteration = ingest a 100-row batch and
///   tick, both over a localhost TCP connection (frame encode, CRC,
///   two request/response round trips, engine-thread handoff).
///   Compare against `runtime_incremental/batch` for the wire + queue
///   overhead; the payload work is identical.
fn bench_server_roundtrip(c: &mut Criterion) {
    use paradise_server::{Client, OverloadPolicy, Server, ServerConfig};
    use std::time::Duration;

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("server", "roundtrip"), |b| {
        // same single-Pc-node workload as `users_runtime`, but the
        // query is registered over the wire so each tick reply ships
        // the tenant's result frame back through the protocol
        let chain = paradise_nodes::ProcessingChain::new(vec![paradise_nodes::Node::new(
            "server",
            paradise_nodes::Level::Pc,
        )])
        .expect("single-node chain is valid");
        let mut runtime = paradise_core::Runtime::new(chain)
            .with_retention(100_000)
            .with_policy("UserStats", paradise_bench::users_policy(50));
        runtime.install_source("server", "stream", users_stream(1, 2_000, 500)).unwrap();
        let server = Server::start(runtime, ServerConfig::default()).expect("server starts");
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        client
            .hello(OverloadPolicy::Block { deadline: Duration::from_secs(30) }, None)
            .unwrap();
        client.register("UserStats", "SELECT uid, v FROM stream").unwrap();
        let batches: Vec<_> = (0..32u64).map(|i| users_stream(100 + i, 100, 500)).collect();
        // one warm-up round trip compiles every plan
        client.ingest("server", "stream", batches[0].clone()).unwrap();
        client.tick().unwrap();
        let mut next = 1usize;
        b.iter(|| {
            let batch = batches[next % batches.len()].clone();
            next += 1;
            client.ingest("server", "stream", batch).unwrap();
            black_box(client.tick().unwrap())
        });
        drop(client);
        server.shutdown();
    });
    // * `server_retry_roundtrip` — the same ingest + tick round trip
    //   through the idempotent `RetryClient` (protocol v2 seq stamping,
    //   session dedup window, tick reply cache on the server side).
    //   Compare against `server/roundtrip` for the exactly-once tax on
    //   the happy path (no faults injected here — that's tests/chaos.rs).
    group.bench_function(BenchmarkId::new("server", "retry_roundtrip"), |b| {
        use paradise_server::{RetryClient, RetryConfig};
        let chain = paradise_nodes::ProcessingChain::new(vec![paradise_nodes::Node::new(
            "server",
            paradise_nodes::Level::Pc,
        )])
        .expect("single-node chain is valid");
        let mut runtime = paradise_core::Runtime::new(chain)
            .with_retention(100_000)
            .with_policy("UserStats", paradise_bench::users_policy(50));
        runtime.install_source("server", "stream", users_stream(1, 2_000, 500)).unwrap();
        let server = Server::start(runtime, ServerConfig::default()).expect("server starts");
        let mut config = RetryConfig::new(0xB0A7);
        config.request_timeout = Duration::from_secs(60);
        let mut client =
            RetryClient::connect(server.local_addr(), config).expect("client connects");
        client.register("UserStats", "SELECT uid, v FROM stream").unwrap();
        let batches: Vec<_> = (0..32u64).map(|i| users_stream(100 + i, 100, 500)).collect();
        client.ingest("server", "stream", &batches[0]).unwrap();
        client.tick().unwrap();
        let mut next = 1usize;
        b.iter(|| {
            let batch = &batches[next % batches.len()];
            next += 1;
            client.ingest("server", "stream", batch).unwrap();
            black_box(client.tick().unwrap())
        });
        drop(client);
        server.shutdown();
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_end_to_end,
    bench_runtime_multi_query,
    bench_runtime_incremental,
    bench_runtime_dp,
    bench_runtime_sharded,
    bench_runtime_durable,
    bench_server_roundtrip
);
criterion_main!(benches);
