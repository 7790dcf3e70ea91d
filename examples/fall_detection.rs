//! Ambient Assisted Living (paper §1): fall detection for an elderly
//! person's apartment, provided by the fictional company *Poodle*
//! (paper §4.2) — with and without the PArADISE option.
//!
//! Run with `cargo run --example fall_detection`.
//!
//! The fall detector needs to know when the tag height `z` drops to
//! floor level. The resident is fine with that — but does not want
//! Poodle to track *where* she is the rest of the day. The policy
//! therefore allows `z` and `t` freely (fall detection must work!) but
//! releases `x`/`y` only aggregated.

use paradise::prelude::*;
use paradise::sql::parse_expr;

fn main() {
    // --- the resident's policy, built programmatically
    let mut module = ModulePolicy::new("FallDetect");
    module.attributes.push(
        AttributeRule::allowed("x").with_aggregation(AggregationSpec::new("AVG").group_by(&["t"])),
    );
    module.attributes.push(
        AttributeRule::allowed("y").with_aggregation(AggregationSpec::new("AVG").group_by(&["t"])),
    );
    module
        .attributes
        .push(AttributeRule::allowed("z").with_condition(parse_expr("z >= 0").unwrap()));
    module.attributes.push(AttributeRule::allowed("t"));
    println!("fall-detection policy:\n{}", policy_to_xml(&Policy::single(module.clone())));

    // --- apartment data: one person, with a simulated fall at t=400
    let config = SmartRoomConfig { persons: 1, switch_probability: 0.01, ..Default::default() };
    let mut sim = SmartRoomSim::with_config(99, config);
    let mut stream = sim.ubisense_positions(500);
    // inject the fall: tag height drops to 0.2 m for 30 ticks
    for i in 0..stream.len() {
        let t = stream.value(i, 3).as_f64().unwrap_or(0.0);
        if (400.0..430.0).contains(&t) {
            stream.set_value(i, 2, Value::Float(0.2));
        }
    }

    let mut runtime =
        Runtime::new(ProcessingChain::apartment()).with_policy("FallDetect", module);
    runtime.install_source("motion-sensor", "stream", stream).unwrap();

    // --- Poodle's fall-detection query: low tag positions
    let query = parse_query("SELECT z, t FROM (SELECT x, y, z, t FROM stream) WHERE z < 0.5")
        .unwrap();
    let outcome = runtime.run_once("FallDetect", &query).expect("fall query runs");

    println!("rewritten: {}", outcome.planned.preprocess.query);
    println!("fragments:\n{}", outcome.planned.plan.describe());
    println!(
        "fall events shipped to Poodle: {} rows ({} bytes, vs {} raw stream bytes)",
        outcome.result.len(),
        outcome.result.size_bytes(),
        outcome.traffic.hops.first().map(|h| h.bytes).unwrap_or(0),
    );
    print!("{}", outcome.result.to_table_string(5));
    assert!(
        !outcome.result.is_empty(),
        "the fall MUST be detected despite the privacy rewriting"
    );

    // --- the profiling query Poodle would *like* to run is not so lucky:
    let profiling = parse_query("SELECT x, y, t FROM (SELECT x, y, t FROM stream)").unwrap();
    let profile_outcome = runtime.run_once("FallDetect", &profiling).expect("runs, aggregated");
    println!(
        "\nprofiling query was rewritten to:\n  {}",
        profile_outcome.planned.preprocess.query
    );
    println!(
        "positions leave the apartment only as per-tick averages: {} rows",
        profile_outcome.result.len()
    );

    // --- and a flat-out location-history request for a denied attribute
    //     (the tag id is not even in the policy):
    let tracking = parse_query("SELECT tag FROM stream").unwrap();
    match runtime.run_once("FallDetect", &tracking) {
        Err(e) => println!("\ntracking query rejected: {e}"),
        Ok(_) => unreachable!("policy must deny the tag attribute"),
    }
}
