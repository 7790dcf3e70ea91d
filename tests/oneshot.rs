//! The one-shot session, `Runtime::run_once`: register → tick → remove
//! over the one tick path. Its outcome equals the test-side reference
//! (`support/reference.rs`) on every field, it leaves nothing
//! registered on any exit, and the source-of-record chain it reads
//! never holds an intermediate table.

use std::path::PathBuf;

use paradise::nodes::{Capability, Level, NodeError};
use paradise::prelude::*;

#[path = "support/reference.rs"]
mod reference;
use reference::reference;

const PAPER_ORIGINAL: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
                              FROM (SELECT x, y, z, t FROM stream)";

/// The paper query, the flat projection (rewritten to the grouped
/// aggregation), the `LIMIT` variant and a grouped aggregate.
const SHAPES: &[&str] = &[
    PAPER_ORIGINAL,
    "SELECT x, y, z, t FROM stream",
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
     FROM (SELECT x, y, z, t FROM stream) LIMIT 9",
    "SELECT x, y, AVG(z) AS za FROM stream GROUP BY x, y",
];

fn stream(seed: u64, steps: usize) -> Frame {
    let config = SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_positions(steps)
}

/// The §4.2 scenario: 500 steps × 10 persons under the Figure 4 policy.
fn runtime() -> Runtime {
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0));
    rt.install_source("motion-sensor", "stream", stream(42, 500)).unwrap();
    rt
}

/// Every field the paper's Figure 3 numbers come from, not only the
/// result frame.
fn assert_same_outcome(got: &Outcome, expect: &Outcome, what: &str) {
    assert_eq!(got.planned.stages, expect.planned.stages, "{what}: stages");
    assert_eq!(got.stage_reports, expect.stage_reports, "{what}: stage reports");
    assert_eq!(got.traffic, expect.traffic, "{what}: traffic");
    assert_eq!(got.shipped, expect.shipped, "{what}: shipped");
    assert_eq!(got.post.decision, expect.post.decision, "{what}: anonymization decision");
    assert_eq!(got.planned.anonymized_at, expect.planned.anonymized_at, "{what}: anonymization site");
    assert_eq!(got.remainder_applied, expect.remainder_applied, "{what}: remainder");
    assert_eq!(got.result, expect.result, "{what}: result");
}

#[test]
fn oneshot_outcome_equals_the_reference_on_every_field() {
    let policy = figure4_policy().modules.remove(0);
    let mut rt = runtime();
    for sql in SHAPES {
        let q = parse_query(sql).unwrap();
        let got = rt.run_once("ActionFilter", &q).unwrap();
        let expect = reference(&rt, &policy, &q, None, None).unwrap();
        assert_same_outcome(&got, &expect, sql);
    }

    // … and through the cloud remainder
    let mut rt = runtime().with_remainder(filter_by_class(ActionClass::Walk));
    let q = parse_query(PAPER_ORIGINAL).unwrap();
    let got = rt.run_once("ActionFilter", &q).unwrap();
    let walk = filter_by_class(ActionClass::Walk);
    let expect = reference(&rt, &policy, &q, Some(&walk), None).unwrap();
    assert_same_outcome(&got, &expect, "remainder");
}

/// The equivalence suites are only as good as the reference: it must
/// move when the window or the policy does.
#[test]
fn the_reference_is_sensitive_to_window_and_policy() {
    let policy = figure4_policy().modules.remove(0);
    let mut rt = runtime();
    let q = parse_query(SHAPES[1]).unwrap();
    let before = reference(&rt, &policy, &q, None, None).unwrap();
    assert!(!before.result.is_empty(), "the scenario must release something");

    let mut stricter = policy.clone();
    let z = stricter.attributes.iter_mut().find(|a| a.name == "z").unwrap();
    z.conditions = vec![parse_expr("z < 1").unwrap()];
    let under_stricter = reference(&rt, &stricter, &q, None, None).unwrap();
    assert_ne!(under_stricter.shipped, before.shipped, "a tighter condition must show");

    rt.ingest("motion-sensor", "stream", stream(7, 100)).unwrap();
    let after = reference(&rt, &policy, &q, None, None).unwrap();
    assert_ne!(after.shipped, before.shipped, "a grown window must show");
}

#[test]
fn cloud_baseline_counts_only_source_tables() {
    let mut rt = runtime();
    let q = parse_query(PAPER_ORIGINAL).unwrap();
    let (_, before) = rt.cloud_baseline(&q).unwrap();
    rt.run_once("ActionFilter", &q).unwrap();
    let (_, after) = rt.cloud_baseline(&q).unwrap();
    assert_eq!(before, 160_000, "5000 rows × 4 columns × 8 bytes");
    assert_eq!(after, before, "a run must not leave intermediate tables in the raw data `d`");
    assert_eq!(rt.integrated_catalog().table_names(), vec!["stream"]);
}

#[test]
fn run_once_returns_its_own_outcome_beside_resident_handles() {
    let policy = figure4_policy().modules.remove(0);
    let mut rt = runtime();
    let flat = parse_query(SHAPES[1]).unwrap();
    let resident = rt.register("ActionFilter", &flat).unwrap();
    rt.tick().unwrap();

    let q = parse_query(PAPER_ORIGINAL).unwrap();
    let got = rt.run_once("ActionFilter", &q).unwrap();
    assert_same_outcome(&got, &reference(&rt, &policy, &q, None, None).unwrap(), "one-shot");
    assert_eq!(rt.registered(), 1, "only the resident query stays");

    // the resident handle keeps folding deltas as if nothing happened
    rt.ingest("motion-sensor", "stream", stream(7, 10)).unwrap();
    let ticked = rt.tick().unwrap();
    assert_eq!(ticked.len(), 1);
    assert_eq!(ticked[0].0, resident);
    // (a steady tick ships only its delta, so traffic is not comparable)
    let expect = reference(&rt, &policy, &flat, None, None).unwrap();
    assert_eq!(ticked[0].1.result, expect.result, "resident: result");
    assert_eq!(ticked[0].1.shipped, expect.shipped, "resident: shipped");
}

/// `run_once` ticks its own handle alone: a resident DP handle beside
/// it is neither run nor billed. Its epsilon ledger stays put, and the
/// nodes' statistics move by exactly what the same session moves them
/// by on a runtime without the resident.
#[test]
fn run_once_leaves_a_resident_dp_handle_untouched() {
    let mut dp = ModulePolicy::new("Dp");
    for attr in ["x", "z"] {
        dp.attributes.push(AttributeRule::allowed(attr));
    }
    dp.dp = Some(DpConfig::new(0.5, 100.0).with_clamp(0.0, 10.0));
    let mut rt = runtime().with_policy("Dp", dp);
    let grouped = parse_query("SELECT x, COUNT(*) AS n, SUM(z) AS sz FROM stream GROUP BY x").unwrap();
    rt.register("Dp", &grouped).unwrap();
    rt.tick().unwrap();
    let mut bare = runtime();

    let counters = |rt: &Runtime| -> Vec<[usize; 4]> {
        let stats = rt.chain().nodes().iter().map(|node| &node.stats);
        stats.map(|s| [s.fragments_executed, s.rows_in, s.rows_out, s.bytes_out]).collect()
    };
    let moved = |before: Vec<[usize; 4]>, after: Vec<[usize; 4]>| -> Vec<[usize; 4]> {
        let diff = |(b, a): ([usize; 4], [usize; 4])| std::array::from_fn(|i| a[i] - b[i]);
        before.into_iter().zip(after).map(diff).collect()
    };
    let ledger = rt.epsilon_ledger("Dp").expect("the resident ticked once");
    let (before, bare_before) = (counters(&rt), counters(&bare));
    let q = parse_query(PAPER_ORIGINAL).unwrap();
    let got = rt.run_once("ActionFilter", &q).unwrap();
    let expect = bare.run_once("ActionFilter", &q).unwrap();

    assert_same_outcome(&got, &expect, "beside a resident DP handle");
    assert_eq!(rt.epsilon_ledger("Dp"), Some(ledger), "the resident was not billed");
    let (mine, bare_mine) = (moved(before, counters(&rt)), moved(bare_before, counters(&bare)));
    assert_eq!(mine, bare_mine, "the nodes account the session's stages alone");
}

#[test]
fn run_once_leaves_no_registration_behind() {
    let q = parse_query(PAPER_ORIGINAL).unwrap();

    // after a successful run
    let mut rt = runtime();
    rt.run_once("ActionFilter", &q).unwrap();
    assert_eq!(rt.registered(), 0);

    // after a register-time refusal: no policy, then a denied attribute
    assert!(matches!(rt.run_once("Nobody", &q), Err(CoreError::NoPolicy(_))));
    let tracking = parse_query("SELECT tag FROM stream").unwrap();
    assert!(matches!(rt.run_once("ActionFilter", &tracking), Err(CoreError::QueryDenied(_))));
    assert_eq!(rt.registered(), 0);
    rt.run_once("ActionFilter", &q).expect("the runtime still serves one-shots");

    // after a tick-time failure: Stack assignment keeps the aggregation
    // on a 1 KiB appliance, which refuses it once the data arrives
    let mut capability = Capability::appliance_default();
    capability.memory_bytes = 1024;
    let chain = ProcessingChain::new(vec![
        Node::new("sensor", Level::Sensor),
        Node::with_capability("tiny-tv", Level::Appliance, capability),
        Node::new("cloud", Level::Cloud),
    ])
    .unwrap();
    let mut allow_all = ModulePolicy::new("M");
    for attr in ["x", "y", "z", "t"] {
        allow_all.attributes.push(AttributeRule::allowed(attr));
    }
    let mut rt = Runtime::new(chain).with_policy("M", allow_all).with_options(RuntimeOptions {
        assignment: AssignmentPolicy::Stack,
        ..Default::default()
    });
    rt.install_source("sensor", "stream", stream(42, 500)).unwrap(); // ~160 kB
    let grouped = parse_query("SELECT x, AVG(z) AS za FROM stream GROUP BY x").unwrap();
    assert!(matches!(
        rt.run_once("M", &grouped),
        Err(CoreError::Node(NodeError::CapacityExceeded { .. }))
    ));
    assert_eq!(rt.registered(), 0);
    let sensor_only = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
    rt.run_once("M", &sensor_only).expect("a query the chain can hold still runs");
    assert_eq!(rt.registered(), 0);

    // durable: the Register/RemoveQuery pair replays to zero
    let dir = option_env!("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("oneshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rt = runtime().durable(&dir).unwrap();
    rt.run_once("ActionFilter", &q).unwrap();
    rt.simulate_crash();
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .durable(&dir)
        .unwrap();
    assert!(rt.durability_stats().unwrap().recovered);
    assert_eq!(rt.registered(), 0, "crash + recover after a one-shot yields no registration");
    rt.run_once("ActionFilter", &q).expect("the recovered runtime serves one-shots");
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}
