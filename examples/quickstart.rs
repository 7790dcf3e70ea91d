//! Quickstart: the paper's §4.2 use case end to end.
//!
//! Run with `cargo run --example quickstart`.
//!
//! The assistive system (a cloud-side activity recognizer) issues the
//! regression query of the paper; PArADISE rewrites it under the
//! Figure 4 policy, fragments it over the apartment's node chain, and
//! only the aggregated, anonymized result leaves the apartment.

use paradise::prelude::*;

fn main() {
    // --- 1. the user's privacy policy (paper Figure 4, parsed from XML)
    let policy = parse_policy(FIG4_POLICY_XML).expect("Figure 4 policy parses");
    let issues = validate_policy(&policy);
    assert!(issues.is_empty(), "policy should be clean: {issues:?}");
    let module = policy.modules[0].clone();
    println!("policy for module {:?}:", module.module_id);
    for rule in &module.attributes {
        println!(
            "  {:>2}  allow={}  conditions={:?}  aggregation={:?}",
            rule.name,
            rule.allow,
            rule.conditions.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
            rule.aggregation.as_ref().map(|a| a.aggregation_type.as_str()),
        );
    }

    // --- 2. the apartment: sensor → appliance → media center → PC → cloud
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", module)
        .with_remainder(filter_by_class(ActionClass::Walk));

    // simulated Ubisense positions recorded in the smart meeting room
    let config = SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() };
    let mut sim = SmartRoomSim::with_config(42, config);
    let stream = sim.ubisense_positions(500);
    println!("\nsensor stream: {} rows, {} bytes", stream.len(), stream.size_bytes());
    runtime
        .install_source("motion-sensor", "stream", stream)
        .expect("sensor node exists");

    // --- 3. the system's query (paper §4.2): regression analysis in R,
    //        with this SQL core
    let query = parse_query(
        "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
         FROM (SELECT x, y, z, t FROM stream)",
    )
    .expect("query parses");
    println!("\noriginal query:\n  {query}");

    // --- 4. run the full PArADISE pipeline, once
    let outcome = runtime.run_once("ActionFilter", &query).expect("pipeline runs");

    println!("\nrewritten query:\n  {}", outcome.planned.preprocess.query);
    println!("\nrewrite actions:");
    for action in &outcome.planned.preprocess.actions {
        println!("  {action:?}");
    }

    println!("\nvertical fragmentation (bottom-up):");
    print!("{}", outcome.planned.plan.describe());

    println!("\nexecution across the chain:");
    for (report, stage) in outcome.stage_reports.iter().zip(&outcome.planned.stages) {
        println!(
            "  {:<14} [{}] rows_out={:<5} bytes_out={:<7} {}",
            report.node,
            report.level.paper_name(),
            report.rows_out,
            report.bytes_out,
            stage.fragment
        );
    }

    println!("\ntraffic:");
    for hop in &outcome.traffic.hops {
        println!(
            "  {:<14} → {:<14} {:>6} rows {:>8} bytes ({})",
            hop.from, hop.to, hop.rows, hop.bytes, hop.table
        );
    }

    println!("\nanonymization at {:?}: {:?}", outcome.planned.anonymized_at, outcome.post.decision);
    // the paper's §3.2 information-loss metrics, computed on request
    // from the shipped result d' and what left the anonymizer
    let all: Vec<usize> = (0..outcome.shipped.schema.len()).collect();
    println!(
        "information loss: DD ratio = {:.3}, KL = {:.4}",
        direct_distance_ratio(&outcome.shipped, &outcome.post.frame).expect("same shape"),
        kl_divergence(&outcome.shipped, &outcome.post.frame, &all).expect("same shape"),
    );
    if let Some(r) = &outcome.remainder_applied {
        println!("cloud remainder applied: {r}");
    }

    println!("\nresult leaving the apartment ({} rows):", outcome.result.len());
    print!("{}", outcome.result.to_table_string(10));
}
