//! Server soak: many concurrent tenants hammering one runtime over
//! TCP, under both overload policies, with every tenant's final
//! result pinned bitwise-equal to an in-process serial reference that
//! applies exactly the batches the server accepted.

use std::sync::Arc;
use std::time::Duration;

use paradise::core::{ProcessingChain, Runtime};
use paradise::prelude::*;
use paradise::server::{
    AdmissionConfig, Client, ErrorCode, IngestAck, OverloadPolicy, Server, ServerConfig,
};

const TENANTS: usize = 100;
const ROUNDS: usize = 3;

/// Deterministic per-tenant, per-round batch. Tiny on purpose: the
/// suite runs in debug builds.
fn batch(tenant: usize, round: usize) -> Frame {
    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
    let rows = (0..8)
        .map(|i| {
            let k = (tenant * 31 + round * 7 + i) as i64;
            vec![Value::Int(k % 5), Value::Int(k)]
        })
        .collect();
    Frame::new(schema, rows).unwrap()
}

/// The tenant's initial (installed) table contents.
fn initial(tenant: usize) -> Frame {
    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
    let rows = (0..4)
        .map(|i| {
            let k = (tenant * 13 + i) as i64;
            vec![Value::Int(k % 5), Value::Int(k)]
        })
        .collect();
    Frame::new(schema, rows).unwrap()
}

fn allow_all(module: &str) -> ModulePolicy {
    let mut m = ModulePolicy::new(module);
    for attr in ["uid", "v"] {
        m.attributes.push(AttributeRule::allowed(attr));
    }
    m
}

fn tenant_module(tenant: usize) -> String {
    format!("Mod{tenant}")
}

fn tenant_table(tenant: usize) -> String {
    format!("stream_{tenant}")
}

fn tenant_query(tenant: usize) -> String {
    format!(
        "SELECT uid, SUM(v) AS sv FROM {} GROUP BY uid ORDER BY uid",
        tenant_table(tenant)
    )
}

/// What one tenant's serial reference would produce after applying
/// exactly `accepted` (the rounds the server actually took).
fn reference_rows(tenant: usize, accepted: &[usize]) -> Vec<Row> {
    let module = tenant_module(tenant);
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy(&module, allow_all(&module));
    rt.install_source("motion-sensor", &tenant_table(tenant), initial(tenant))
        .unwrap();
    rt.register(&module, &parse_query(&tenant_query(tenant)).unwrap()).unwrap();
    for &round in accepted {
        rt.ingest("motion-sensor", &tenant_table(tenant), batch(tenant, round)).unwrap();
    }
    let outcomes = rt.tick().unwrap();
    outcomes.into_iter().next().unwrap().1.result.to_rows()
}

/// Per-test server log under the harness target dir so CI can upload
/// it as an artifact when an assertion fails.
fn server_log(name: &str) -> std::path::PathBuf {
    let base = option_env!("CARGO_TARGET_TMPDIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    base.join(format!("server-soak-{}-{name}.log", std::process::id()))
}

fn start_server() -> Server {
    let mut runtime = Runtime::new(ProcessingChain::apartment());
    for tenant in 0..TENANTS {
        let module = tenant_module(tenant);
        runtime = runtime.with_policy(&module, allow_all(&module));
    }
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_connections: TENANTS + 8,
            ..AdmissionConfig::default()
        },
        log_path: Some(server_log("soak")),
        ..ServerConfig::default()
    };
    Server::start(runtime, config).unwrap()
}

#[test]
fn soak_concurrent_tenants_match_the_serial_reference() {
    let server = Arc::new(start_server());
    let addr = server.local_addr();

    let threads: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(120))).unwrap();
                // even tenants shed, odd tenants block — both policies
                // continuously exercised in one soak
                if tenant % 2 == 0 {
                    client.hello(OverloadPolicy::Shed, Some(16)).unwrap();
                } else {
                    client
                        .hello(
                            OverloadPolicy::Block { deadline: Duration::from_secs(30) },
                            Some(4),
                        )
                        .unwrap();
                }
                client
                    .install_source(
                        "motion-sensor",
                        &tenant_table(tenant),
                        initial(tenant),
                    )
                    .unwrap();
                let handle =
                    client.register(&tenant_module(tenant), &tenant_query(tenant)).unwrap();

                let mut accepted = Vec::new();
                let mut final_rows = Vec::new();
                for round in 0..ROUNDS {
                    match client
                        .ingest("motion-sensor", &tenant_table(tenant), batch(tenant, round))
                        .unwrap()
                    {
                        IngestAck::Accepted { .. } => accepted.push(round),
                        IngestAck::Overloaded { .. } => {}
                    }
                    let reply = client.tick().unwrap();
                    assert!(reply.deferred.is_empty(), "no apply may fail: {:?}", reply.deferred);
                    let (id, result) = reply
                        .results
                        .into_iter()
                        .find(|(id, _)| *id == handle)
                        .expect("own handle in tick reply");
                    assert_eq!(id, handle);
                    final_rows = result.expect("healthy tenant").to_rows();
                }
                (tenant, accepted, final_rows)
            })
        })
        .collect();

    for thread in threads {
        let (tenant, accepted, rows) = thread.join().expect("tenant thread must not panic");
        assert_eq!(
            rows,
            reference_rows(tenant, &accepted),
            "tenant {tenant} (accepted rounds {accepted:?}) must match its serial reference"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.connections_accepted, TENANTS as u64);
    assert_eq!(stats.ticks_served, (TENANTS * ROUNDS) as u64);
    assert_eq!(
        stats.ingest_applied + stats.ingest_shed + stats.ingest_block_timeouts,
        (TENANTS * ROUNDS) as u64,
        "every batch is accounted for: {stats:?}"
    );
    assert_eq!(stats.handles_quarantined, 0);

    let runtime = Arc::try_unwrap(server)
        .ok()
        .expect("all clones dropped")
        .shutdown()
        .expect("graceful shutdown returns the runtime");
    assert_eq!(runtime.registered(), 0, "disconnects released every handle");
}

#[test]
fn zero_capacity_queue_sheds_deterministically() {
    let runtime =
        Runtime::new(ProcessingChain::apartment()).with_policy("Mod0", allow_all("Mod0"));
    let config =
        ServerConfig { log_path: Some(server_log("shed")), ..ServerConfig::default() };
    let server = Server::start(runtime, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client.hello(OverloadPolicy::Shed, Some(0)).unwrap();
    client.install_source("motion-sensor", "stream_0", initial(0)).unwrap();

    for round in 0..3 {
        match client.ingest("motion-sensor", "stream_0", batch(0, round)).unwrap() {
            IngestAck::Overloaded { reason } => assert!(reason.contains("shed"), "{reason}"),
            other => panic!("zero-capacity queue must shed, got {other:?}"),
        }
    }

    // block policy on the same dead queue: every ingest waits out its
    // deadline, then is refused as a block timeout
    client
        .hello(OverloadPolicy::Block { deadline: Duration::from_millis(30) }, Some(0))
        .unwrap();
    match client.ingest("motion-sensor", "stream_0", batch(0, 9)).unwrap() {
        IngestAck::Overloaded { reason } => assert!(reason.contains("deadline"), "{reason}"),
        other => panic!("expected block-deadline refusal, got {other:?}"),
    }

    let stats = server.stats();
    assert_eq!(stats.ingest_shed, 3);
    assert_eq!(stats.ingest_block_timeouts, 1);
    assert_eq!(stats.ingest_applied, 0);
    server.shutdown();
}

#[test]
fn quarantined_tenant_cannot_poison_its_neighbours() {
    let mut deny = ModulePolicy::new("Victim");
    for attr in ["uid", "v"] {
        deny.attributes.push(AttributeRule::denied(attr));
    }
    let runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("Victim", allow_all("Victim"))
        .with_policy("Bystander", allow_all("Bystander"));
    let config =
        ServerConfig { log_path: Some(server_log("quarantine")), ..ServerConfig::default() };
    let server = Server::start(runtime, config).unwrap();
    let addr = server.local_addr();

    let mut victim = Client::connect(addr).unwrap();
    victim.set_timeout(Some(Duration::from_secs(30))).unwrap();
    victim.install_source("motion-sensor", "stream_0", initial(0)).unwrap();
    let victim_handle = victim
        .register("Victim", "SELECT uid, SUM(v) AS sv FROM stream_0 GROUP BY uid ORDER BY uid")
        .unwrap();

    let mut bystander = Client::connect(addr).unwrap();
    bystander.set_timeout(Some(Duration::from_secs(30))).unwrap();
    bystander.install_source("motion-sensor", "stream_1", initial(1)).unwrap();
    let bystander_handle = bystander
        .register(
            "Bystander",
            "SELECT uid, SUM(v) AS sv FROM stream_1 GROUP BY uid ORDER BY uid",
        )
        .unwrap();

    // healthy baseline for both tenants
    let healthy = bystander.tick().unwrap();
    let baseline = healthy.results[0].1.as_ref().expect("healthy bystander").to_rows();
    assert_eq!(healthy.results[0].0, bystander_handle);

    // the victim swaps in a deny-all policy; its handle now fails
    // every tick — quarantined, not poisoning the tick
    victim.set_policy("Victim", &policy_to_xml(&Policy::single(deny))).unwrap();
    for _ in 0..2 {
        let reply = victim.tick().unwrap();
        let (id, result) = &reply.results[0];
        assert_eq!(*id, victim_handle);
        let (code, message) = result.as_ref().expect_err("denied tenant sees a typed error");
        assert_eq!(*code, ErrorCode::Quarantined);
        assert!(message.contains("denied"), "{message}");

        let reply = bystander.tick().unwrap();
        assert_eq!(
            reply.results[0].1.as_ref().expect("bystander unaffected").to_rows(),
            baseline,
            "a quarantined neighbour must not change this tenant's bytes"
        );
    }
    assert!(server.stats().handles_quarantined >= 2);

    // the victim recovers by restoring a compatible policy
    victim
        .set_policy("Victim", &policy_to_xml(&Policy::single(allow_all("Victim"))))
        .unwrap();
    let reply = victim.tick().unwrap();
    assert!(reply.results[0].1.is_ok(), "restored policy un-quarantines the handle");
    server.shutdown();
}

/// A tenant's tick runs and bills its own handles only. Tenants A and B
/// each register a DP query over their own table under their own
/// module; A ticks ten times at ε = 0.5, B never ticks, and B's
/// epsilon ledger is untouched when the server hands the runtime back.
#[test]
fn a_tenants_tick_never_bills_another_tenant() {
    let dp = |module: &str| {
        let mut m = allow_all(module);
        m.dp = Some(DpConfig::new(0.5, 100.0).with_clamp(0.0, 1000.0));
        m
    };
    let runtime =
        Runtime::new(ProcessingChain::apartment()).with_policy("A", dp("A")).with_policy("B", dp("B"));
    let config = ServerConfig { log_path: Some(server_log("scoped")), ..ServerConfig::default() };
    let server = Server::start(runtime, config).unwrap();
    let tenant = |module: &str, table: usize| {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        client.install_source("motion-sensor", &tenant_table(table), initial(table)).unwrap();
        let handle = client.register(module, &tenant_query(table)).unwrap();
        (client, handle)
    };
    let (mut a, a_handle) = tenant("A", 0);
    let (_b, _) = tenant("B", 1);

    for _ in 0..10 {
        let reply = a.tick().unwrap();
        assert_eq!(reply.results.len(), 1, "a tick answers the caller's handles only");
        assert_eq!(reply.results[0].0, a_handle);
        assert!(reply.results[0].1.is_ok(), "A is within budget");
    }
    let runtime = server.shutdown().expect("graceful shutdown returns the runtime");
    let spend = |module: &str| runtime.epsilon_ledger(module).map(|l| (l.seq(), l.spent()));
    assert_eq!(spend("A"), Some((10, 5.0)));
    assert_eq!(spend("B"), None, "B never ticked, so nothing is billed to it");
}
