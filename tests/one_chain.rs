//! The runtime keeps one chain: every handle's stages execute on it,
//! stage outputs reach the next stage by value and never enter a
//! catalog, a tick leaves the sources' buffers unshared, the nodes'
//! statistics account exactly what the stage reports say, a
//! handle's anonymisation failure stays that handle's error, and a
//! handle's plan is built at the events that change it and shared by
//! every tick in between.

use std::sync::Arc;

use paradise::prelude::*;

const PAPER_ORIGINAL: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
                              FROM (SELECT x, y, z, t FROM stream)";

/// The paper query, the flat projection (rewritten to the grouped
/// aggregation) and the `LIMIT` variant.
const QUERIES: &[&str] = &[
    PAPER_ORIGINAL,
    "SELECT x, y, z, t FROM stream",
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
     FROM (SELECT x, y, z, t FROM stream) LIMIT 9",
];

fn stream(seed: u64, steps: usize) -> Frame {
    let config = SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_positions(steps)
}

/// A module allowed every stream attribute, plus `w`, which the stream
/// does not have: its `SELECT w …` fragment fails to compile.
fn lenient() -> ModulePolicy {
    let mut policy = ModulePolicy::new("Lenient");
    for attr in ["x", "y", "z", "t", "w"] {
        policy.attributes.push(AttributeRule::allowed(attr));
    }
    policy
}

fn runtime(assignment: AssignmentPolicy) -> (Runtime, Vec<QueryHandle>) {
    let options = RuntimeOptions { assignment, ..Default::default() };
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_options(options)
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_policy("Lenient", lenient())
        .with_retention(600);
    rt.install_source("motion-sensor", "stream", stream(42, 40)).unwrap();
    let handles =
        QUERIES.iter().map(|q| rt.register("ActionFilter", &parse_query(q).unwrap()).unwrap()).collect();
    (rt, handles)
}

fn sorted_tables(catalog: &Catalog) -> Vec<String> {
    let mut names: Vec<String> = catalog.table_names().iter().map(|t| t.to_string()).collect();
    names.sort();
    names
}

#[test]
fn stage_outputs_never_enter_a_catalog() {
    for assignment in [AssignmentPolicy::Spread, AssignmentPolicy::Stack] {
        let (mut rt, mut handles) = runtime(assignment);
        let failing = rt.register("Lenient", &parse_query("SELECT w, t FROM stream").unwrap()).unwrap();
        handles.push(failing);
        for round in 0..4u64 {
            rt.ingest("motion-sensor", "stream", stream(100 + round, 5)).unwrap();
            let ticked = rt.tick_each(&handles).unwrap();
            assert_eq!(ticked.len(), QUERIES.len() + 1);
            for (handle, result) in &ticked {
                assert_eq!(result.is_err(), *handle == failing, "{assignment:?} round {round}");
            }
            assert_eq!(sorted_tables(&rt.integrated_catalog()), ["stream"], "{assignment:?}");
            for node in rt.chain().nodes() {
                let expect: &[&str] = if node.name == "motion-sensor" { &["stream"] } else { &[] };
                assert_eq!(sorted_tables(&node.catalog), expect, "{assignment:?} {}", node.name);
            }
        }
    }
}

#[test]
fn a_tick_leaves_the_source_buffers_unshared() {
    let (mut rt, _) = runtime(AssignmentPolicy::Spread);
    let shares = |rt: &Runtime| -> Vec<usize> {
        let frame = rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap();
        // minus the probe's own reference
        (0..frame.schema.len()).map(|c| Arc::strong_count(&frame.column_arc(c)) - 1).collect()
    };
    for round in 0..3u64 {
        rt.ingest("motion-sensor", "stream", stream(200 + round, 5)).unwrap();
        let before = shares(&rt);
        drop(rt.tick().unwrap());
        assert_eq!(shares(&rt), before, "round {round}: a tick must not keep the window's buffers");
        assert!(before.iter().all(|&n| n == 1), "the catalog is the only owner: {before:?}");
    }
}

#[test]
fn node_stats_sum_the_stage_reports() {
    let (mut rt, _) = runtime(AssignmentPolicy::Spread);
    let mut other = figure4_policy().modules.remove(0);
    other.module_id = "Other".into();
    rt.set_policy("Other", other);
    rt.register("Other", &parse_query(PAPER_ORIGINAL).unwrap()).unwrap();

    let mut expect: std::collections::HashMap<String, (usize, usize)> = Default::default();
    for round in 0..4u64 {
        rt.ingest("motion-sensor", "stream", stream(300 + round, 5)).unwrap();
        for (_, outcome) in rt.tick().unwrap() {
            for report in &outcome.stage_reports {
                let (fragments, rows_out) = expect.entry(report.node.clone()).or_default();
                *fragments += 1;
                *rows_out += report.rows_out;
            }
        }
    }
    assert!(expect.len() >= 2, "the pipeline spans several nodes: {expect:?}");
    for node in rt.chain().nodes() {
        let (fragments, rows_out) = expect.get(&node.name).copied().unwrap_or_default();
        assert_eq!(node.stats.fragments_executed, fragments, "{}", node.name);
        assert_eq!(node.stats.rows_out, rows_out, "{}", node.name);
    }
}

#[test]
fn a_nan_quasi_identifier_fails_only_its_own_handle() {
    // one NaN position at t = 15; the second query's filter excludes it
    let schema =
        Schema::from_pairs(&[("x", DataType::Float), ("y", DataType::Float), ("t", DataType::Integer)]);
    let rows = (0..20)
        .map(|i| {
            let x = if i == 15 { f64::NAN } else { i as f64 };
            vec![Value::Float(x), Value::Float((i * 7 % 13) as f64), Value::Int(i)]
        })
        .collect();
    let mut policy = ModulePolicy::new("M");
    for attr in ["x", "y", "t"] {
        policy.attributes.push(AttributeRule::allowed(attr));
    }
    let options = RuntimeOptions { anon: AnonStrategy::KAnonymity { k: 3 }, ..Default::default() };
    let mut rt = Runtime::new(ProcessingChain::apartment()).with_options(options).with_policy("M", policy);
    rt.install_source("motion-sensor", "stream", Frame::new(schema, rows).unwrap()).unwrap();
    let nan = rt.register("M", &parse_query("SELECT x, y, t FROM stream").unwrap()).unwrap();
    let clean =
        rt.register("M", &parse_query("SELECT x, y, t FROM stream WHERE t < 12").unwrap()).unwrap();

    let ticked = rt.tick_each(&[nan, clean]).unwrap();
    assert_eq!(ticked[0].0, nan);
    let err = ticked[0].1.as_ref().expect_err("the NaN result cannot be split");
    assert!(
        matches!(err, CoreError::Anon(paradise::anon::AnonError::NotANumber { .. })),
        "typed anonymisation error: {err}"
    );
    assert_eq!(ticked[1].0, clean);
    assert!(ticked[1].1.is_ok(), "the other handle is served");
}

#[test]
fn the_plan_cache_is_keyed_by_fragment_not_by_policy_version() {
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_retention(600);
    rt.install_source("motion-sensor", "stream", stream(42, 40)).unwrap();
    rt.register("ActionFilter", &parse_query(PAPER_ORIGINAL).unwrap()).unwrap();
    rt.tick().unwrap();
    let compiled = |rt: &Runtime| rt.stats().engine.misses;
    let first = compiled(&rt);

    // a swap that changes the rewrite changes the fragments: new plans
    let mut permissive = lenient();
    permissive.module_id = "ActionFilter".into();
    rt.set_policy("ActionFilter", permissive);
    rt.tick().unwrap();
    let swapped = compiled(&rt);
    assert!(swapped > first, "the permissive rewrite compiles its own fragments");

    // swapping back is a new policy version over the old fragments:
    // every stage finds its plans, nothing compiles
    rt.set_policy("ActionFilter", figure4_policy().modules.remove(0));
    rt.tick().unwrap();
    assert_eq!(compiled(&rt), swapped);
}

#[test]
fn steady_ticks_share_the_plan_and_only_events_replace_it() {
    let mut other = figure4_policy().modules.remove(0);
    other.module_id = "Other".into();
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_policy("Other", other);
    rt.install_source("motion-sensor", "stream", stream(42, 40)).unwrap();
    rt.register("ActionFilter", &parse_query(PAPER_ORIGINAL).unwrap()).unwrap();
    rt.register("Other", &parse_query(QUERIES[1]).unwrap()).unwrap();
    let planned = |rt: &mut Runtime| -> Vec<Arc<Planned>> {
        rt.tick().unwrap().into_iter().map(|(_, outcome)| outcome.planned).collect()
    };
    let same = |a: &[Arc<Planned>], b: &[Arc<Planned>]| -> Vec<bool> {
        a.iter().zip(b).map(|(a, b)| Arc::ptr_eq(a, b)).collect()
    };

    // consecutive ticks run on the one stored plan
    let first = planned(&mut rt);
    rt.ingest("motion-sensor", "stream", stream(500, 5)).unwrap();
    let steady = planned(&mut rt);
    assert_eq!(same(&first, &steady), [true, true], "steady ticks rebuild no plan");

    // a policy swap re-plans only its module's handle
    rt.set_policy("ActionFilter", figure4_policy().modules.remove(0));
    let swapped = planned(&mut rt);
    assert_eq!(same(&steady, &swapped), [false, true], "the swap replaces ActionFilter's plan only");

    // a same-schema source replacement keeps every plan …
    rt.install_source("motion-sensor", "stream", stream(43, 40)).unwrap();
    let replaced = planned(&mut rt);
    assert_eq!(same(&swapped, &replaced), [true, true], "same schema, same plans");

    // … a new column re-plans every handle reading the table
    let old = stream(44, 40);
    let mut schema = old.schema.clone();
    schema.push(paradise::engine::Column::new("w", DataType::Float));
    let rows: Vec<Row> = old
        .iter_rows()
        .map(|mut row| {
            row.push(Value::Float(0.0));
            row
        })
        .collect();
    rt.install_source("motion-sensor", "stream", Frame::new(schema, rows).unwrap()).unwrap();
    let widened = planned(&mut rt);
    assert_eq!(same(&replaced, &widened), [false, false], "a schema change re-plans");
}
