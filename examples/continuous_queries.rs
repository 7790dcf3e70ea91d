//! Continuous queries over live sensor streams: the registration-based
//! [`Runtime`] lifecycle — register a query once, ingest batches, tick
//! all registered queries, swap a policy live — plus the §3.3 stream
//! admission gate and the E4 sensor's filter and window aggregate run
//! through the engine's one executor.
//!
//! Run with `cargo run --example continuous_queries`.

use paradise::core::{GateDecision, StreamGate};
use paradise::policy::StreamSettings;
use paradise::prelude::*;

fn main() {
    // --- setup: policy, chain, runtime ------------------------------
    let policy = parse_policy(FIG4_POLICY_XML).unwrap();
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", policy.modules[0].clone())
        // keep at most 2000 stream rows — a long-running deployment
        // must not grow its working set forever
        .with_retention(2000);

    let mut sim = SmartRoomSim::with_config(
        42,
        SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() },
    );
    runtime.install_source("motion-sensor", "stream", sim.ubisense_positions(100)).unwrap();

    // --- register: rewrite + fragment happen ONCE, here -------------
    let query = parse_query(
        "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
         FROM (SELECT x, y, z, t FROM stream)",
    )
    .unwrap();
    let action = runtime.register("ActionFilter", &query).unwrap();
    let monitor = runtime
        .register("ActionFilter", &parse_query("SELECT x, y, z, t FROM stream").unwrap())
        .unwrap();
    println!("registered {action} (action filter) and {monitor} (monitor)");

    // --- the continuous loop: ingest a batch, tick every query ------
    for round in 1..=3 {
        runtime.ingest("motion-sensor", "stream", sim.ubisense_positions(20)).unwrap();
        let outcomes = runtime.tick().unwrap();
        let rows: Vec<usize> = outcomes.iter().map(|(_, o)| o.result.len()).collect();
        println!("tick {round}: result rows per handle (registration order) = {rows:?}");
    }
    let stats = runtime.stats();
    println!(
        "after 3 ticks: rewrite-plan cache {}/{} hits/misses, compiled-plan cache {}/{} — \
         steady-state ticks recompile nothing",
        stats.plan.hits, stats.plan.misses, stats.engine.hits, stats.engine.misses,
    );

    // --- live policy update: invalidates exactly this module --------
    let stricter = parse_policy(FIG4_POLICY_XML).unwrap();
    let version = runtime.set_policy("ActionFilter", stricter.modules[0].clone());
    runtime.tick().unwrap();
    let swapped = runtime.handle_stats(action).unwrap();
    println!(
        "policy swapped to {version}: handle {action} rebuilt its rewrite \
         ({} invalidation(s), {} fragment plan(s) compiled)",
        swapped.plan.invalidations,
        runtime.stats().engine.misses - stats.engine.misses,
    );

    // --- the §3.3 stream extension: query admission -----------------
    let mut gate = StreamGate::new();
    gate.set_settings(
        "Recognizer",
        StreamSettings {
            min_query_interval_secs: Some(60.0),
            allowed_aggregation_levels: vec!["minute".into()],
        },
    );
    println!("\nquery admission under the §3.3 stream policy:");
    for (t, level) in [(0.0, "minute"), (10.0, "minute"), (61.0, "minute"), (70.0, "raw")] {
        let decision = gate.admit("Recognizer", t, Some(level));
        let verdict = match decision {
            GateDecision::Admitted => "admitted",
            GateDecision::TooFrequent { .. } => "rejected (too frequent)",
            GateDecision::LevelNotAllowed { .. } => "rejected (level not allowed)",
        };
        println!("  t={t:>5}s level={level:<7} → {verdict}");
    }

    // --- the E4 sensor (paper Table 1): a constant filter plus
    // "aggregates on streams (over the last seconds)", here the average
    // height over the last 60 time units, on the one executor --------
    let readings = sim.ubisense_positions(300);
    let total = readings.len();
    let mut catalog = Catalog::new();
    catalog.register("stream", readings).unwrap();
    let executor = Executor::new(&catalog);
    let run = |sql: &str| executor.execute(&parse_query(sql).unwrap()).expect("sensor query");
    let passed = run("SELECT * FROM stream WHERE z < 2").len();
    let newest = run("SELECT MAX(t) FROM stream WHERE z < 2").value(0, 0);
    let newest = newest.as_f64().expect("a reading passed the filter");
    let avg = run(&format!("SELECT AVG(z) FROM stream WHERE z < 2 AND t >= {}", newest - 60.0))
        .value(0, 0);
    println!(
        "\nE4 sensor over 300 readings: {passed} passed the z<2 filter, {} dropped, \
         avg(z) over last 60 t = {avg}",
        total - passed
    );

    println!(
        "\nthe runtime held at most the retention window in memory and re-used \
         every cached plan between policy changes; the sensor's filter and \
         window aggregate are ordinary queries on the same executor."
    );
}
