//! The experiment harness: regenerates every table and figure of the
//! paper. The README's "Experiments" section is the experiment index,
//! and its "Deviations from the paper" says where this reproduction
//! departs from the paper.
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- table1 | figure2 |
//!     figure3 | figure4 | usecase | goldenpath | containment |
//!     preprocess | ablation
//! ```

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use paradise_anon::{
    direct_distance_ratio, kl_divergence, mondrian, slice, SlicingConfig,
};
use paradise_core::{
    attack_answerable, fragment_query, preprocess, ConjunctiveQuery, PreprocessOptions,
    ProcessingChain, Runtime,
};
use paradise_core::remainder::{filter_by_class, ActionClass};
use paradise_engine::{Catalog, Executor, Frame};
use paradise_nodes::{Capability, Level, SmartRoomConfig, SmartRoomSim};
use paradise_policy::{figure4_policy, parse_policy, policy_to_xml, FIG4_POLICY_XML};
use paradise_sql::analysis::block_features;
use paradise_sql::ast::Query;
use paradise_sql::parse_query;

/// The experiment index, in the order `all` runs it.
const EXPERIMENTS: [(&str, fn()); 9] = [
    ("table1", table1),
    ("figure2", figure2),
    ("figure3", figure3),
    ("figure4", figure4),
    ("usecase", usecase),
    ("goldenpath", goldenpath),
    ("containment", containment),
    ("preprocess", preprocess_exp),
    ("ablation", ablation),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if arg == "all" {
        EXPERIMENTS.iter().for_each(|(_, run)| run());
        return;
    }
    match EXPERIMENTS.iter().find(|(name, _)| *name == arg) {
        Some((_, run)) => run(),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!("unknown experiment {arg:?}");
            eprintln!("known: {} all", names.join(" "));
            std::process::exit(2);
        }
    }
}

/// The paper's original query (§4.2, the SQL inside the R call).
const PAPER_ORIGINAL: &str =
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
     FROM (SELECT x, y, z, t FROM stream)";

/// The paper's rewritten query (§4.2).
const PAPER_REWRITTEN: &str =
    "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
     FROM (SELECT x, y, AVG(z) AS zAVG, t FROM stream \
     WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 100)";

fn paper_original() -> Query {
    parse_query(PAPER_ORIGINAL).expect("static query parses")
}

fn paper_rewritten() -> Query {
    parse_query(PAPER_REWRITTEN).expect("static query parses")
}

/// Meeting-room position data at a given scale (rows ≈ persons × steps).
fn meeting_stream(seed: u64, persons: usize, steps: usize) -> Frame {
    let config = SmartRoomConfig { persons, switch_probability: 0.003, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_positions(steps)
}

/// A runtime for the §4.2 scenario with `rows ≈ persons × steps` of
/// simulated data at the sensor.
fn paper_runtime(seed: u64, persons: usize, steps: usize) -> Runtime {
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0));
    runtime
        .install_source("motion-sensor", "stream", meeting_stream(seed, persons, steps))
        .expect("sensor node exists");
    runtime
}

/// A corpus of queries spanning every capability level (Table 1).
fn query_corpus() -> Vec<(&'static str, &'static str)> {
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

/// Mean wall-clock µs per call of `f` over `calls` calls: an ungated
/// figure to cite, not a gate.
fn mean_us<T>(calls: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// EXP-T1 — Table 1: the capability matrix of the four levels.
fn table1() {
    banner("EXP-T1 (paper Table 1): SQL capability per level");
    println!(
        "{:<22} | {:^6} | {:^6} | {:^6} | {:^6}",
        "query class", "E4", "E3", "E2", "E1"
    );
    println!("{}", "-".repeat(60));
    let caps = [
        Capability::sensor_default(),
        Capability::appliance_default(),
        Capability::pc_default(),
        Capability::cloud_default(),
    ];
    for (name, sql) in query_corpus() {
        let query = parse_query(sql).expect("corpus parses");
        let features = block_features(&query);
        let marks: Vec<&str> = caps
            .iter()
            .map(|c| if c.supports(&features) { "yes" } else { "-" })
            .collect();
        println!(
            "{:<22} | {:^6} | {:^6} | {:^6} | {:^6}",
            name, marks[0], marks[1], marks[2], marks[3]
        );
    }
    println!("\nnode counts per person (Table 1 rightmost column):");
    for level in [Level::Sensor, Level::Appliance, Level::Pc, Level::Cloud] {
        let count = level
            .typical_node_count()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "n for m persons".to_string());
        println!("  {:<38} {}", level.to_string(), count);
    }
}

/// EXP-F2 — Figure 2: the privacy-aware query processor, stage by stage.
fn figure2() {
    banner("EXP-F2 (paper Figure 2): processor pipeline trace");
    let mut runtime = paper_runtime(42, 10, 500);
    let outcome = runtime
        .run_once("ActionFilter", &paper_original())
        .expect("pipeline runs");
    println!("[preprocessor]   rewrote the query with {} action(s):", outcome.planned.preprocess.actions.len());
    for a in &outcome.planned.preprocess.actions {
        println!("                 - {a:?}");
    }
    println!("[fragmentation]  {} fragment(s):", outcome.planned.plan.fragments.len());
    print!("{}", outcome.planned.plan.describe());
    println!("[execution]      per node:");
    for r in &outcome.stage_reports {
        println!(
            "                 {:<14} [{}] {:>6} rows out, {:>8} bytes out",
            r.node,
            r.level.paper_name(),
            r.rows_out,
            r.bytes_out
        );
    }
    println!(
        "[postprocessor]  anonymization at {:?}: {:?}",
        outcome.planned.anonymized_at, outcome.post.decision
    );
    // the §3.2 quality metrics, graded on request: the tick only releases
    let all: Vec<usize> = (0..outcome.shipped.schema.len()).collect();
    println!(
        "                 DD ratio {:.4}, KL {:.4}",
        direct_distance_ratio(&outcome.shipped, &outcome.post.frame).expect("same shape"),
        kl_divergence(&outcome.shipped, &outcome.post.frame, &all).expect("same shape"),
    );
    println!("[result]         {} row(s) leave the apartment", outcome.result.len());
}

/// EXP-F3 — Figure 3: per-peer query/result transformation and the
/// data-reduction story, vs. the ship-raw-to-cloud baseline.
fn figure3() {
    banner("EXP-F3 (paper Figure 3): vertical fragmentation data reduction");
    println!(
        "{:>8} | {:>12} | {:>12} | {:>12} | {:>9}",
        "rows", "raw d bytes", "PArADISE d'", "reduction", "hops"
    );
    println!("{}", "-".repeat(66));
    for (persons, steps) in [(4usize, 250usize), (10, 500), (10, 2000), (20, 5000)] {
        let mut runtime = paper_runtime(42, persons, steps);
        let (_, raw_bytes) = runtime
            .cloud_baseline(&paper_original())
            .expect("baseline runs");
        let outcome = runtime
            .run_once("ActionFilter", &paper_original())
            .expect("pipeline runs");
        let shipped = outcome.result.size_bytes().max(1);
        println!(
            "{:>8} | {:>12} | {:>12} | {:>11.0}x | {:>9}",
            persons * steps,
            raw_bytes,
            shipped,
            raw_bytes as f64 / shipped as f64,
            outcome.traffic.hops.len(),
        );
    }
    println!("\nper-hop volumes at 10 persons × 500 steps:");
    let mut runtime = paper_runtime(42, 10, 500);
    let outcome = runtime.run_once("ActionFilter", &paper_original()).unwrap();
    for hop in &outcome.traffic.hops {
        println!(
            "  {:<14} → {:<14} {:>7} rows {:>10} bytes",
            hop.from, hop.to, hop.rows, hop.bytes
        );
    }
}

/// EXP-F4 — Figure 4: the policy document parses, validates, round-trips
/// and drives the rewriting.
fn figure4() {
    banner("EXP-F4 (paper Figure 4): privacy policy round-trip");
    let policy = parse_policy(FIG4_POLICY_XML).expect("Figure 4 parses");
    let issues = paradise_policy::validate_policy(&policy);
    println!("parsed module {:?}: {} attribute rule(s), {} validation issue(s)",
        policy.modules[0].module_id,
        policy.modules[0].attributes.len(),
        issues.len(),
    );
    let xml = policy_to_xml(&policy);
    let reparsed = parse_policy(&xml).expect("round-trip parses");
    println!("round-trip identical: {}", policy == reparsed);
    println!("equals programmatic figure4_policy(): {}", policy == figure4_policy());
    println!("\nserialized form:\n{xml}");
}

/// EXP-UC — §4.2: the golden rewrite chain, listing for listing.
fn usecase() {
    banner("EXP-UC (paper §4.2): the running example, step by step");
    let policy = figure4_policy();
    let module = policy.module("ActionFilter").expect("module exists");

    let original = paper_original();
    println!("original query (cloud sends):\n  {original}\n");

    let rewritten = preprocess(&original, module, &PreprocessOptions::default())
        .expect("rewriting succeeds");
    println!("rewritten under the Figure 4 policy:\n  {}\n", rewritten.query);
    let expected = paper_rewritten();
    println!(
        "matches the paper's rewritten listing: {}",
        rewritten.query == expected
    );

    let plan = fragment_query(&rewritten.query).expect("fragmentation succeeds");
    println!("\nfragments (paper listings, bottom-up):");
    print!("{}", plan.describe());

    let mut runtime = paper_runtime(42, 10, 500)
        .with_remainder(filter_by_class(ActionClass::Walk));
    let outcome = runtime.run_once("ActionFilter", &original).expect("pipeline runs");
    println!("\nexecuted on simulated Ubisense data (10 persons × 500 ticks):");
    println!("  d' rows shipped to the cloud: {}", outcome.shipped.len());
    println!("  remainder: {}", outcome.remainder_applied.as_deref().unwrap_or("-"));
    println!("  rows classified action='walk': {}", outcome.result.len());
}

/// EXP-GP — §3.2: the Golden Path between information loss and privacy.
fn goldenpath() {
    banner("EXP-GP (paper §3.2): the Golden Path — k vs. information loss");
    let table = {
        let config =
            SmartRoomConfig { persons: 6, switch_probability: 0.01, ..Default::default() };
        SmartRoomSim::with_config(5, config).ubisense_tagged(400)
    };
    // columns: tag(0) x(1) y(2) z(3) t(4) valid(5)
    println!("k-anonymity (Mondrian on x, y, t):");
    println!(
        "{:>5} | {:>9} | {:>13} | {:>14}",
        "k", "DD-ratio", "KL intended", "KL unintended"
    );
    println!("{}", "-".repeat(52));
    for k in [2usize, 5, 10, 25, 50, 100] {
        let anonymized = mondrian(&table, &[1, 2, 4], k).expect("mondrian");
        let dd = direct_distance_ratio(&table, &anonymized).unwrap();
        // intended: activity recognition needs the z distribution
        let kl_intended = kl_divergence(&table, &anonymized, &[3]).unwrap();
        // unintended: per-person location profile (tag, x, y)
        let kl_unintended = kl_divergence(&table, &anonymized, &[0, 1, 2]).unwrap();
        println!("{k:>5} | {dd:>9.4} | {kl_intended:>13.4} | {kl_unintended:>14.4}");
    }
    println!("\nslicing (groups {{tag}} / {{x,y,z}} / {{t,valid}}):");
    println!("{:>7} | {:>9} | {:>13} | {:>14}", "bucket", "DD-ratio", "KL intended", "KL linkage");
    println!("{}", "-".repeat(52));
    for bucket in [2usize, 4, 8, 16, 32] {
        let config = SlicingConfig {
            column_groups: vec![vec![0], vec![1, 2, 3], vec![4, 5]],
            bucket_size: bucket,
            seed: 11,
        };
        let result = slice(&table, &config).expect("slice");
        let dd = direct_distance_ratio(&table, &result.frame).unwrap();
        let kl_intended = kl_divergence(&table, &result.frame, &[3]).unwrap();
        let kl_linkage = kl_divergence(&table, &result.frame, &[0, 1]).unwrap();
        println!("{bucket:>7} | {dd:>9.4} | {kl_intended:>13.6} | {kl_linkage:>14.4}");
    }
    println!(
        "\nGolden Path: intended loss stays ≈0 while unintended loss grows —\n\
         \"the loss of information for the intended queries should be kept to a\n\
         minimum while the loss for the unintended query should be as high as\n\
         possible\" (paper §3.2)."
    );
}

/// EXP-CT — §4.1/§5: the containment check on an attack-query suite.
fn containment() {
    banner("EXP-CT (paper §4.1/§5): query containment against attack queries");
    let mut schemas = HashMap::new();
    schemas.insert(
        "stream".to_string(),
        vec!["x".to_string(), "y".to_string(), "z".to_string(), "t".to_string()],
    );
    let cq = |sql: &str| {
        ConjunctiveQuery::from_query(&parse_query(sql).expect("parses"), &schemas)
            .expect("converts")
    };
    let revealed = cq("SELECT x, y, t FROM stream");
    println!("revealed view d': SELECT x, y, t FROM stream\n");
    let attacks = [
        ("full replica", "SELECT x, y, t FROM stream"),
        ("positions at fixed time", "SELECT x, y, t FROM stream WHERE t = 12"),
        ("needs hidden z", "SELECT x, y, z FROM stream"),
        ("x=y diagonal profile", "SELECT x, t FROM stream WHERE x = y"),
        ("self-join trajectory", "SELECT a.x, a.y, a.t FROM stream a JOIN stream b ON a.t = b.t"),
    ];
    let mut blocked = 0;
    for (name, sql) in attacks {
        let attack = cq(sql);
        let answerable = attack_answerable(&revealed, &attack);
        if !answerable {
            blocked += 1;
        }
        println!(
            "  {:<28} {:<55} → {}",
            name,
            sql,
            if answerable { "ANSWERABLE (extend A!)" } else { "blocked" }
        );
    }
    println!(
        "\n{blocked}/{} attack queries cannot be answered from d' alone;\n\
         answerable ones require extending the anonymization step A (paper §5).",
        attacks.len()
    );

    // per-call cost of the check, on a simple attack and on a 4-way
    // self-join whose homomorphism search is non-trivial
    const CALLS: u32 = 20_000;
    let simple_sql = "SELECT x, y, t FROM stream WHERE z = 1";
    let simple_ast = parse_query(simple_sql).expect("parses");
    let simple = cq(simple_sql);
    let join = cq("SELECT a.x, a.y, a.t FROM stream a \
         JOIN stream b ON a.t = b.t \
         JOIN stream c ON b.x = c.x \
         JOIN stream d ON c.y = d.y");
    println!("\nper-call cost (mean over {CALLS} calls, ungated):");
    let timings = [
        ("convert SPJ query to CQ", mean_us(CALLS, || {
            ConjunctiveQuery::from_query(black_box(&simple_ast), &schemas)
        })),
        ("simple containment", mean_us(CALLS, || {
            black_box(&simple).is_contained_in(black_box(&revealed))
        })),
        ("4-way self-join containment", mean_us(CALLS, || {
            black_box(&join).is_contained_in(black_box(&revealed))
        })),
    ];
    for (name, us) in timings {
        println!("  {name:<28} {us:>8.3} µs");
    }

    // extension: interval predicates (the paper's actual z<2 filter)
    use paradise_core::{range_attack_answerable, RangeQuery};
    let rq = |sql: &str| {
        RangeQuery::from_query(&parse_query(sql).expect("parses"), &schemas).expect("converts")
    };
    let revealed_range = rq("SELECT x, y, t FROM stream WHERE z < 2");
    println!("\nwith interval predicates (revealed: SELECT x, y, t FROM stream WHERE z < 2):");
    let range_attacks = [
        ("inside the range (z < 1)", "SELECT x, y, t FROM stream WHERE z < 1"),
        ("fall band (0 <= z < 0.5)", "SELECT x, y, t FROM stream WHERE z >= 0 AND z < 0.5"),
        ("needs the full range", "SELECT x, y, t FROM stream"),
        ("sticks out (z < 3)", "SELECT x, y, t FROM stream WHERE z < 3"),
        ("point probe (z = 1)", "SELECT x, y, t FROM stream WHERE z = 1"),
    ];
    for (name, sql) in range_attacks {
        let attack = rq(sql);
        let answerable = range_attack_answerable(&revealed_range, &attack);
        println!(
            "  {:<28} {:<55} → {}",
            name,
            sql,
            if answerable { "ANSWERABLE (extend A!)" } else { "blocked" }
        );
    }
}

/// EXP-PRE — §3.1: the preprocessor over a query corpus.
fn preprocess_exp() {
    banner("EXP-PRE (paper §3.1): preprocessing a query corpus");
    let policy = figure4_policy();
    let module = policy.module("ActionFilter").expect("module");
    let corpus = [
        "SELECT x, y, z, t FROM stream",
        "SELECT x, y FROM stream",
        "SELECT z FROM stream",
        "SELECT t FROM stream WHERE z < 1",
        "SELECT heart_rate FROM stream",
        "SELECT x, heart_rate FROM stream",
        "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
         FROM (SELECT x, y, z, t FROM stream)",
    ];
    let mut full = 0;
    let mut reduced = 0;
    let mut rejected = 0;
    let stream = meeting_stream(42, 10, 500);
    let mut catalog = Catalog::new();
    catalog.register("stream", stream).unwrap();
    let executor = Executor::new(&catalog);

    for sql in corpus {
        let query = parse_query(sql).expect("parses");
        match preprocess(&query, module, &PreprocessOptions::default()) {
            Err(e) => {
                rejected += 1;
                println!("REJECTED  {sql}\n          ({e})");
            }
            Ok(out) => {
                let kind = if out.actions.is_empty() && out.denied_attributes.is_empty() {
                    full += 1;
                    "UNCHANGED"
                } else {
                    reduced += 1;
                    "REWRITTEN"
                };
                // KL satisfaction estimate on shared columns
                let divergence = executor
                    .execute(&query)
                    .ok()
                    .zip(executor.execute(&out.query).ok())
                    .and_then(|(a, b)| paradise_core::compare_frames(&a, &b).ok())
                    .map(|r| format!("{:.4}", r.divergence))
                    .unwrap_or_else(|| "n/a".to_string());
                println!("{kind}  {sql}");
                println!("          → {}  (KL estimate {divergence})", out.query);
            }
        }
    }
    println!(
        "\ncorpus of {}: {} unchanged, {} rewritten, {} rejected",
        corpus.len(),
        full,
        reduced,
        rejected
    );
}

/// EXP-AB — ablation of two design choices:
/// (a) E2 capability profile (paper-compatible vs. strict SQL-92; the
/// README's "Deviations from the paper"),
/// (b) fragment-to-node assignment policy (Spread vs. Stack).
fn ablation() {
    banner("EXP-AB: ablations — E2 profile and assignment policy");

    use paradise_core::{assign_to_chain, AssignmentPolicy};

    let rewritten = paper_rewritten();
    let plan = fragment_query(&rewritten).expect("plan");

    println!("(a) E2 capability profile — where does each fragment run?\n");
    println!("{:<70} | {:<14} | {:<14}", "fragment", "paper E2", "strict SQL-92");
    println!("{}", "-".repeat(104));
    let paper_chain = ProcessingChain::apartment();
    let strict_chain = ProcessingChain::apartment_strict_sql92();
    let paper_stages =
        assign_to_chain(&plan, &paper_chain, AssignmentPolicy::Spread).expect("assign");
    let strict_stages =
        assign_to_chain(&plan, &strict_chain, AssignmentPolicy::Spread).expect("assign");
    for ((ps, ss), frag) in paper_stages.iter().zip(&strict_stages).zip(&plan.fragments) {
        let sql = frag.query.to_string();
        let short = if sql.len() > 68 { format!("{}…", &sql[..67]) } else { sql };
        println!("{short:<70} | {:<14} | {:<14}", ps.node, ss.node);
    }
    println!(
        "\nwith Table-1-verbatim SQL-92 at E2, the window/regression fragment\n\
         escalates to the cloud — the raw regression INPUT leaves the apartment.\n\
         Bytes shipped to the cloud:"
    );
    for (label, chain) in [("paper E2", ProcessingChain::apartment()),
                           ("strict SQL-92", ProcessingChain::apartment_strict_sql92())] {
        let mut runtime = Runtime::new(chain)
            .with_policy("ActionFilter", figure4_policy().modules.remove(0));
        runtime
            .install_source("motion-sensor", "stream", meeting_stream(42, 10, 500))
            .unwrap();
        let outcome = runtime.run_once("ActionFilter", &paper_original()).unwrap();
        let to_cloud = outcome
            .planned
            .stages
            .last()
            .map(|s| {
                if s.node == "cloud" {
                    // the cloud executed the last fragment: its INPUT was shipped
                    outcome.traffic.last_hop_bytes()
                } else {
                    outcome.result.size_bytes()
                }
            })
            .unwrap_or(0);
        println!(
            "  {label:<14} last fragment on {:<14} → {to_cloud} bytes cross the apartment boundary",
            outcome.planned.stages.last().map(|s| s.node.as_str()).unwrap_or("-")
        );
    }

    println!("\n(b) assignment policy — Spread (paper figure) vs. Stack (fewest nodes):");
    for policy in [AssignmentPolicy::Spread, AssignmentPolicy::Stack] {
        let stages = assign_to_chain(&plan, &paper_chain, policy).expect("assign");
        let nodes: Vec<&str> = stages.iter().map(|s| s.node.as_str()).collect();
        let distinct: std::collections::HashSet<&&str> = nodes.iter().collect();
        println!("  {policy:?}: {} node(s) used — {}", distinct.len(), nodes.join(" → "));
    }
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
    fn corpus_parses() {
        for (name, sql) in query_corpus() {
            assert!(parse_query(sql).is_ok(), "{name}: {sql}");
        }
    }
}
