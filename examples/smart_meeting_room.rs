//! The Smart Meeting Room scenario (paper §1): every sensor of the
//! MuSAMA Smart Appliance Lab feeds its own processing chain, and a
//! meeting-support module queries several of them under a generated
//! privacy policy.
//!
//! Run with `cargo run --example smart_meeting_room`.

use paradise::policy::StreamSettings;
use paradise::prelude::*;

/// A default policy for a device exposing `attributes`, derived from a
/// sensitivity heuristic: the identifying tag is denied, a position
/// coordinate is released only as its average grouped by the other
/// coordinates, and every other attribute is public. Queries may come
/// once a second, aggregated per second or minute.
fn generated_policy(module: &str, attributes: &[&str]) -> ModulePolicy {
    let mut policy = ModulePolicy::new(module);
    for &attr in attributes {
        let rule = match attr {
            "tag" => AttributeRule::denied(attr),
            "x" | "y" | "z" => {
                let group_by: Vec<&str> = ["x", "y"]
                    .into_iter()
                    .filter(|g| *g != attr && attributes.contains(g))
                    .collect();
                AttributeRule::allowed(attr)
                    .with_aggregation(AggregationSpec::new("AVG").group_by(&group_by))
            }
            _ => AttributeRule::allowed(attr),
        };
        policy.attributes.push(rule);
    }
    policy.stream = Some(StreamSettings {
        min_query_interval_secs: Some(1.0),
        allowed_aggregation_levels: vec!["second".into(), "minute".into()],
    });
    policy
}

fn main() {
    let mut sim = SmartRoomSim::with_config(
        7,
        SmartRoomConfig { persons: 6, switch_probability: 0.01, ..Default::default() },
    );

    // --- all sensor streams of the lab (paper §1 list)
    let ubisense = sim.ubisense_tagged(300);
    let sensfloor = sim.sensfloor(300);
    let thermometer = sim.thermometer(300);
    let powersockets = sim.powersockets(12, 300);
    let pens = sim.pensensors(4, 300);
    let lamps = sim.lamps(8, 300);
    let screens = sim.screens(3, 300);
    let vga = sim.vgasensors(6, 2, 300);
    let blinds = sim.eibgateway(4, 300);

    println!("Smart Appliance Lab streams:");
    for (name, frame) in [
        ("ubisense", &ubisense),
        ("sensfloor", &sensfloor),
        ("thermometer", &thermometer),
        ("powersocket", &powersockets),
        ("pensensor", &pens),
        ("lamps", &lamps),
        ("screens", &screens),
        ("vgasensor", &vga),
        ("eibgateway", &blinds),
    ] {
        println!("  {name:<12} {:>6} rows {:>9} bytes  {}", frame.len(), frame.size_bytes(), frame.schema);
    }

    // --- a generated policy for the stream (paper Figure 2's
    //     "automatic generation of privacy settings")
    let ubisense_policy = generated_policy("MeetingAssist", &["tag", "x", "y", "z", "t", "valid"]);
    println!("\ngenerated policy for the ubisense stream:");
    println!("{}", policy_to_xml(&Policy::single(ubisense_policy.clone())));

    // --- a meeting-support query: where are people concentrated?
    let mut runtime =
        Runtime::new(ProcessingChain::apartment()).with_policy("MeetingAssist", ubisense_policy);
    runtime.install_source("motion-sensor", "ubisense", ubisense).unwrap();

    let query = parse_query(
        "SELECT x, y, z, t FROM (SELECT x, y, z, t FROM ubisense)",
    )
    .unwrap();
    match runtime.run_once("MeetingAssist", &query) {
        Ok(outcome) => {
            println!("rewritten: {}", outcome.planned.preprocess.query);
            println!("fragments:\n{}", outcome.planned.plan.describe());
            println!(
                "result: {} rows, {} bytes left the apartment (raw stream: {} bytes)",
                outcome.result.len(),
                outcome.traffic.last_hop_bytes(),
                outcome
                    .traffic
                    .hops
                    .first()
                    .map(|h| h.bytes)
                    .unwrap_or(0)
            );
        }
        Err(e) => println!("query denied / failed: {e}"),
    }

    // --- occupancy analytics over the floor: joins at the appliance level
    let mut catalog = Catalog::new();
    catalog.register("sensfloor", sensfloor).unwrap();
    catalog.register("thermometer", thermometer).unwrap();
    let executor = Executor::new(&catalog);
    let occupancy = executor
        .execute(
            &parse_query(
                "SELECT cell_x, cell_y, COUNT(*) AS visits, AVG(pressure) AS load \
                 FROM sensfloor GROUP BY cell_x, cell_y \
                 HAVING COUNT(*) > 20 ORDER BY visits DESC LIMIT 5",
            )
            .unwrap(),
        )
        .unwrap();
    println!("\nbusiest floor cells:\n{occupancy}");

    let climate = executor
        .execute(
            &parse_query("SELECT MIN(temp_c) AS lo, AVG(temp_c) AS avg, MAX(temp_c) AS hi FROM thermometer")
                .unwrap(),
        )
        .unwrap();
    println!("room climate during the meeting:\n{climate}");
}
