//! Shared scenario builders for the experiment harness and the
//! criterion benches.

use paradise_core::{ProcessingChain, Runtime};
use paradise_engine::{DataType, Frame, Schema, Value};
use paradise_nodes::{Level, Node, SmartRoomConfig, SmartRoomSim};
use paradise_policy::{figure4_policy, AggregationSpec, AttributeRule, ModulePolicy};
use paradise_sql::ast::Query;
use paradise_sql::{parse_expr, parse_query};

/// The paper's original query (§4.2, the SQL inside the R call).
pub const PAPER_ORIGINAL: &str =
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
     FROM (SELECT x, y, z, t FROM stream)";

/// The paper's rewritten query (§4.2).
pub const PAPER_REWRITTEN: &str =
    "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
     FROM (SELECT x, y, AVG(z) AS zAVG, t FROM stream \
     WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 100)";

/// Parse the paper's original query.
pub fn paper_original() -> Query {
    parse_query(PAPER_ORIGINAL).expect("static query parses")
}

/// Parse the paper's rewritten query.
pub fn paper_rewritten() -> Query {
    parse_query(PAPER_REWRITTEN).expect("static query parses")
}

/// The flat projection of the paper's stream attributes. Under the
/// Figure 4 policy this rewrites to the grouped-aggregation query —
/// the shape the delta-aware engine maintains incrementally — making
/// it the workload of the `runtime_incremental` benchmarks.
pub const PAPER_FLAT: &str = "SELECT x, y, z, t FROM stream";

/// Parse [`PAPER_FLAT`].
pub fn paper_flat() -> Query {
    parse_query(PAPER_FLAT).expect("static query parses")
}

/// Meeting-room position data at a given scale (rows ≈ persons × steps).
pub fn meeting_stream(seed: u64, persons: usize, steps: usize) -> Frame {
    let config = SmartRoomConfig { persons, switch_probability: 0.003, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_positions(steps)
}

/// A runtime for the §4.2 scenario with `rows ≈ persons × steps` of
/// simulated data at the sensor — callers `run_once`, or register
/// queries and tick it over ingested batches.
pub fn paper_runtime(seed: u64, persons: usize, steps: usize) -> Runtime {
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0));
    runtime
        .install_source("motion-sensor", "stream", meeting_stream(seed, persons, steps))
        .expect("sensor node exists");
    runtime
}

/// An integer "many users" stream for the sharded-runtime benches:
/// `uid` is the partition key, `v` a small measure. The first
/// `min(rows, users)` rows carry sequential uids so a window with
/// `rows >= users` contains every user; the remainder is a
/// deterministic splitmix64 draw over `0..users`.
pub fn users_stream(seed: u64, rows: usize, users: u64) -> Frame {
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
            let v = (next() % 100) as i64;
            vec![Value::Int(uid as i64), Value::Int(v)]
        })
        .collect();
    Frame::new(schema, data).expect("generated rows match the schema")
}

/// A per-user aggregation policy: `v` is only released summed per
/// `uid`, with a HAVING threshold — so the registered flat projection
/// rewrites to the grouped shape the sharded incremental driver
/// maintains (one group per user).
pub fn users_policy(sum_threshold: i64) -> ModulePolicy {
    let mut m = ModulePolicy::new("UserStats");
    m.attributes.push(AttributeRule::allowed("uid"));
    m.attributes.push(
        AttributeRule::allowed("v").with_aggregation(
            AggregationSpec::new("SUM")
                .group_by(&["uid"])
                .having(parse_expr(&format!("SUM(v) > {sum_threshold}")).unwrap()),
        ),
    );
    m
}

/// A runtime for the sharded "many users" workload: a single Pc node
/// (so the measurement isolates tick execution, not inter-node
/// shipping), partitioned `shards`-way by `uid`, with the flat user
/// query registered under [`users_policy`]. `shards <= 1` keeps the
/// serial incremental path as the reference.
pub fn users_runtime(shards: usize, source: Frame, retention: usize, sum_threshold: i64) -> Runtime {
    let chain = ProcessingChain::new(vec![Node::new("server", Level::Pc)])
        .expect("single-node chain is valid");
    let mut runtime = Runtime::new(chain)
        .with_retention(retention)
        .with_partitioning("uid", shards)
        .with_policy("UserStats", users_policy(sum_threshold));
    runtime.install_source("server", "stream", source).expect("server node exists");
    runtime
        .register("UserStats", &parse_query("SELECT uid, v FROM stream").unwrap())
        .expect("flat user query registers");
    runtime
}

/// A corpus of queries spanning every capability level, used by the
/// Table 1 experiment and several benches.
pub fn query_corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("const filter scan", "SELECT * FROM stream WHERE z < 2"),
        ("plain scan", "SELECT * FROM stream"),
        ("projection", "SELECT x, y FROM stream"),
        ("attr comparison", "SELECT x, y FROM stream WHERE x > y"),
        ("arithmetic filter", "SELECT x FROM stream WHERE x + 1 > 2"),
        ("aggregation", "SELECT AVG(z) FROM stream"),
        (
            "group by + having",
            "SELECT x, AVG(z) AS za FROM stream GROUP BY x HAVING SUM(z) > 10",
        ),
        ("join", "SELECT a.x FROM stream a JOIN stream b ON a.t = b.t"),
        ("order + limit", "SELECT x FROM stream ORDER BY x LIMIT 5"),
        ("subquery", "SELECT x FROM (SELECT x FROM stream)"),
        ("set operation", "SELECT x FROM stream UNION SELECT y FROM stream"),
        (
            "window regression",
            "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) FROM stream",
        ),
        ("udf / ML", "SELECT filterByClass(z) FROM stream"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builders_work() {
        let frame = meeting_stream(1, 2, 10);
        assert_eq!(frame.len(), 20);
        let mut rt = paper_runtime(1, 2, 10);
        assert!(rt.run_once("ActionFilter", &paper_original()).is_ok());
    }

    #[test]
    fn users_workload_ticks_and_shards_agree() {
        let window = users_stream(1, 2_000, 500);
        let mut serial = users_runtime(1, window.clone(), 100_000, 50);
        let mut sharded = users_runtime(8, window, 100_000, 50);
        let a = serial.tick().unwrap();
        let b = sharded.tick().unwrap();
        assert!(!a[0].1.result.is_empty(), "HAVING threshold keeps some users");
        assert_eq!(a[0].1.result, b[0].1.result);
        let batch = users_stream(2, 300, 100);
        serial.ingest("server", "stream", batch.clone()).unwrap();
        sharded.ingest("server", "stream", batch).unwrap();
        let a = serial.tick().unwrap();
        let b = sharded.tick().unwrap();
        assert_eq!(a[0].1.result, b[0].1.result);
    }

    #[test]
    fn corpus_parses() {
        for (name, sql) in query_corpus() {
            assert!(parse_query(sql).is_ok(), "{name}: {sql}");
        }
    }
}
