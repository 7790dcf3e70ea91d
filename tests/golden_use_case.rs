//! The golden test: paper §4.2 end to end, fragment for fragment.

use paradise::prelude::*;

const ORIGINAL: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
                        FROM (SELECT x, y, z, t FROM stream)";

const REWRITTEN: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
                         FROM (SELECT x, y, AVG(z) AS zAVG, t FROM stream \
                         WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 100)";

fn meeting_stream(seed: u64) -> Frame {
    let config = SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_positions(500)
}

#[test]
fn rewriting_matches_the_paper_listing() {
    let policy = parse_policy(FIG4_POLICY_XML).unwrap();
    let q = parse_query(ORIGINAL).unwrap();
    let out = paradise::core::preprocess(
        &q,
        policy.module("ActionFilter").unwrap(),
        &PreprocessOptions::default(),
    )
    .unwrap();
    assert_eq!(out.query, parse_query(REWRITTEN).unwrap());
}

#[test]
fn fragments_match_the_paper_listings_verbatim() {
    let q = parse_query(REWRITTEN).unwrap();
    let plan = fragment_query(&q).unwrap();
    let sqls: Vec<String> = plan.fragments.iter().map(|f| f.query.to_string()).collect();
    assert_eq!(
        sqls,
        vec![
            // paper: SELECT * FROM stream WHERE z<2   (sensor)
            "SELECT * FROM stream WHERE z < 2",
            // paper: SELECT x, y, z, t FROM d1 WHERE x>y   (appliance)
            "SELECT x, y, z, t FROM d1 WHERE x > y",
            // paper: media center aggregation
            "SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y HAVING SUM(z) > 100",
            // paper: local server regression window
            "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) FROM d3",
        ]
    );
}

#[test]
fn fragmented_execution_equals_unfragmented_execution() {
    // the fragmentation must not change the query's semantics
    for seed in [1u64, 7, 42, 99] {
        let stream = meeting_stream(seed);

        // unfragmented: run the rewritten query directly on the raw data
        let mut catalog = Catalog::new();
        catalog.register("stream", stream.clone()).unwrap();
        let expected = Executor::new(&catalog)
            .execute(&parse_query(REWRITTEN).unwrap())
            .unwrap();

        // fragmented: through the chain
        let policy = parse_policy(FIG4_POLICY_XML).unwrap();
        let mut runtime = Runtime::new(ProcessingChain::apartment())
            .with_policy("ActionFilter", policy.modules[0].clone());
        runtime.install_source("motion-sensor", "stream", stream).unwrap();
        let outcome = runtime.run_once("ActionFilter", &parse_query(ORIGINAL).unwrap()).unwrap();

        assert_eq!(
            outcome.shipped.to_rows(), expected.to_rows(),
            "seed {seed}: fragmented execution diverged"
        );
    }
}

#[test]
fn pipeline_reduces_data_leaving_the_apartment() {
    let stream = meeting_stream(42);
    let raw_bytes = stream.size_bytes();
    let policy = parse_policy(FIG4_POLICY_XML).unwrap();
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", policy.modules[0].clone());
    runtime.install_source("motion-sensor", "stream", stream).unwrap();
    let outcome = runtime.run_once("ActionFilter", &parse_query(ORIGINAL).unwrap()).unwrap();

    let shipped = outcome.result.size_bytes();
    assert!(
        shipped * 100 < raw_bytes,
        "data leaving the apartment ({shipped} B) should be ≪ raw ({raw_bytes} B)"
    );
    // traffic shrinks monotonically up the chain in this scenario
    let hop_bytes: Vec<usize> = outcome.traffic.hops.iter().map(|h| h.bytes).collect();
    for pair in hop_bytes.windows(2) {
        assert!(pair[0] >= pair[1], "traffic grew along the chain: {hop_bytes:?}");
    }
}

#[test]
fn stages_run_on_the_paper_nodes() {
    let policy = parse_policy(FIG4_POLICY_XML).unwrap();
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", policy.modules[0].clone());
    runtime.install_source("motion-sensor", "stream", meeting_stream(7)).unwrap();
    let outcome = runtime.run_once("ActionFilter", &parse_query(ORIGINAL).unwrap()).unwrap();
    let nodes: Vec<&str> = outcome.planned.stages.iter().map(|s| s.node.as_str()).collect();
    assert_eq!(nodes, vec!["motion-sensor", "appliance", "media-center", "local-server"]);
    // every fragment respects its node's capability (would have errored
    // otherwise), and the sensor fragment is the paper's SELECT *
    assert_eq!(outcome.planned.stages[0].fragment.to_string(), "SELECT * FROM stream WHERE z < 2");
}

#[test]
fn remainder_filter_by_class_completes_the_r_call() {
    let policy = parse_policy(FIG4_POLICY_XML).unwrap();
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", policy.modules[0].clone())
        .with_remainder(filter_by_class(ActionClass::Walk));
    runtime.install_source("motion-sensor", "stream", meeting_stream(123)).unwrap();
    let outcome = runtime.run_once("ActionFilter", &parse_query(ORIGINAL).unwrap()).unwrap();
    assert!(outcome.remainder_applied.unwrap().contains("action='walk'"));
    // the action column is appended by the classifier
    let names = outcome.result.schema.names();
    assert_eq!(names.last().copied(), Some("action"));
}
