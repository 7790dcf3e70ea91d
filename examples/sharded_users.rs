//! Partition-parallel continuous queries over many users: declare a
//! partition key with [`Runtime::with_partitioning`] and the runtime
//! shards each registered stream by a hash of that key, folds every
//! tick's batch shard-parallel over the thread pool (grouped by the
//! key, every user's group lives on one shard), and lays the shards'
//! groups out in one merged view — with results identical to one shard.
//!
//! Run with `cargo run --example sharded_users`; set `PARADISE_THREADS`
//! to size the pool.

use std::time::Instant;

use paradise::nodes::{Level, Node};
use paradise::prelude::*;

/// A deterministic "many users" batch: `uid` is the partition key,
/// `v` the measure being aggregated per user.
fn users_batch(seed: u64, rows: usize, users: u64) -> Frame {
    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
    let mut s = seed;
    let mut next = || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let data = (0..rows)
        .map(|i| {
            let uid = if (i as u64) < users { i as u64 } else { next() % users };
            vec![Value::Int(uid as i64), Value::Int((next() % 100) as i64)]
        })
        .collect();
    Frame::new(schema, data).unwrap()
}

/// The privacy side: `v` leaves the node only summed per user, above a
/// HAVING threshold — so the registered flat query rewrites to the
/// grouped aggregation the sharded incremental driver maintains.
fn per_user_policy(threshold: i64) -> ModulePolicy {
    let mut m = ModulePolicy::new("UserStats");
    m.attributes.push(AttributeRule::allowed("uid"));
    m.attributes.push(
        AttributeRule::allowed("v").with_aggregation(
            AggregationSpec::new("SUM")
                .group_by(&["uid"])
                .having(parse_expr(&format!("SUM(v) > {threshold}")).unwrap()),
        ),
    );
    m
}

fn build(shards: usize, users: u64) -> Runtime {
    let chain = ProcessingChain::new(vec![Node::new("server", Level::Pc)]).unwrap();
    let mut runtime = Runtime::new(chain)
        // the tentpole line: shard the stream 'shards'-way by uid
        .with_partitioning("uid", shards)
        .with_retention(500_000)
        .with_policy("UserStats", per_user_policy(400));
    runtime
        .install_source("server", "stream", users_batch(1, users as usize, users))
        .unwrap();
    runtime.register("UserStats", &parse_query("SELECT uid, v FROM stream").unwrap()).unwrap();
    runtime
}

fn main() {
    const USERS: u64 = 100_000;
    const BATCH: usize = 20_000;

    // --- a sharded runtime and the serial reference, side by side ---
    let mut sharded = build(16, USERS);
    let mut serial = build(1, USERS);
    println!(
        "simulating {USERS} users, {BATCH}-row ingest batches, \
         16-way sharding vs the serial reference\n"
    );

    let (mut t_sharded, mut t_serial) = (0.0f64, 0.0f64);
    for round in 1..=5 {
        let batch = users_batch(100 + round, BATCH, USERS / 8);
        sharded.ingest("server", "stream", batch.clone()).unwrap();
        serial.ingest("server", "stream", batch).unwrap();

        let start = Instant::now();
        let a = sharded.tick().unwrap();
        t_sharded += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let b = serial.tick().unwrap();
        t_serial += start.elapsed().as_secs_f64();

        // sharding is purely an execution strategy: identical results
        assert_eq!(a[0].1.result, b[0].1.result, "sharded != serial");
        println!(
            "tick {round}: {} users above the SUM(v) threshold \
             (sharded == serial ✓)",
            a[0].1.result.len()
        );
    }

    let threads =
        std::env::var("PARADISE_THREADS").unwrap_or_else(|_| "auto".into());
    println!(
        "\n5 ticks (PARADISE_THREADS={threads}): sharded {:.1} ms, serial \
         {:.1} ms — identical output; the gap scales with the thread count \
         (on a single core the shard fan-out only adds split/merge overhead)",
        t_sharded * 1000.0,
        t_serial * 1000.0,
    );
}
