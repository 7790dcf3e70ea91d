//! Failure-injection tests: every way the pipeline can refuse or
//! degrade must do so loudly and precisely.

use paradise::core::{fragment_query, preprocess, CoreError, PreprocessOptions, RuntimeOptions};
use paradise::nodes::{Capability, Node, NodeError, ProcessingChain};
use paradise::policy::{parse_policy, PolicyError};
use paradise::prelude::*;

fn stream(rows: usize) -> Frame {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("z", DataType::Float),
        ("t", DataType::Integer),
    ]);
    let data = (0..rows)
        .map(|i| {
            vec![
                Value::Float((i % 7) as f64),
                Value::Float((i % 5) as f64),
                Value::Float((i % 3) as f64),
                Value::Int(i as i64),
            ]
        })
        .collect();
    Frame::new(schema, data).unwrap()
}

// --------------------------------------------------------------------
// policy failures
// --------------------------------------------------------------------

#[test]
fn malformed_policy_xml_is_rejected() {
    for bad in [
        "<module>",                                        // unterminated
        "<module module_ID='M'></module>",                 // no attributeList
        "<notapolicy/>",                                   // wrong root
        r#"<module module_ID="M"><attributeList>
             <attribute name="x"><allow>perhaps</allow></attribute>
           </attributeList></module>"#,                    // bad allow value
        r#"<module module_ID="M"><attributeList>
             <attribute name="x"><allow>true</allow>
               <condition><atomicCondition>x ><</atomicCondition></condition>
             </attribute></attributeList></module>"#,      // bad condition SQL
    ] {
        assert!(parse_policy(bad).is_err(), "should reject: {bad}");
    }
}

#[test]
fn policy_error_display_is_informative() {
    let err = parse_policy("<module/>").unwrap_err();
    assert!(matches!(err, PolicyError::Structure(_)));
    assert!(err.to_string().contains("module_ID"));
}

#[test]
fn fully_denying_policy_blocks_every_query() {
    let mut module = ModulePolicy::new("Paranoid");
    for attr in ["x", "y", "z", "t"] {
        module.attributes.push(AttributeRule::denied(attr));
    }
    let q = parse_query("SELECT x, y, z, t FROM stream").unwrap();
    let err = preprocess(&q, &module, &PreprocessOptions::default()).unwrap_err();
    assert!(matches!(err, CoreError::QueryDenied(_)));
}

// --------------------------------------------------------------------
// chain / capability failures
// --------------------------------------------------------------------

#[test]
fn chain_without_capable_node_fails_assignment() {
    // a chain that tops out at an appliance cannot run the window fragment
    let chain = ProcessingChain::new(vec![
        Node::new("sensor", paradise::nodes::Level::Sensor),
        Node::new("tv", paradise::nodes::Level::Appliance),
    ])
    .unwrap();
    let q = parse_query(
        "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
         FROM (SELECT x, y, AVG(z) AS zAVG, t FROM stream GROUP BY x, y)",
    )
    .unwrap();
    let plan = fragment_query(&q).unwrap();
    let err = paradise::core::assign_to_chain(&plan, &chain, AssignmentPolicy::Spread)
        .unwrap_err();
    assert!(matches!(
        err,
        CoreError::Node(NodeError::CapabilityViolation { .. })
    ));
}

#[test]
fn strict_sql92_chain_pushes_window_fragment_to_cloud() {
    let chain = ProcessingChain::apartment_strict_sql92();
    let q = parse_query(
        "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
         FROM (SELECT x, y, AVG(z) AS zAVG, t FROM stream WHERE x > y AND z < 2 \
         GROUP BY x, y HAVING SUM(z) > 100)",
    )
    .unwrap();
    let plan = fragment_query(&q).unwrap();
    let stages =
        paradise::core::assign_to_chain(&plan, &chain, AssignmentPolicy::Spread).unwrap();
    assert_eq!(stages.last().unwrap().node, "cloud");
    // the paper-profile chain keeps it in the apartment
    let paper_stages = paradise::core::assign_to_chain(
        &plan,
        &ProcessingChain::apartment(),
        AssignmentPolicy::Spread,
    )
    .unwrap();
    assert_eq!(paper_stages.last().unwrap().node, "local-server");
}

#[test]
fn undersized_node_reports_capacity_exhaustion() {
    let mut capability = Capability::appliance_default();
    capability.memory_bytes = 1024; // 1 KiB TV
    let chain = ProcessingChain::new(vec![
        Node::new("sensor", paradise::nodes::Level::Sensor),
        Node::with_capability("tiny-tv", paradise::nodes::Level::Appliance, capability),
        Node::new("cloud", paradise::nodes::Level::Cloud),
    ])
    .unwrap();
    let mut runtime = Runtime::new(chain)
        .with_policy("M", {
            let mut m = ModulePolicy::new("M");
            for attr in ["x", "y", "z", "t"] {
                m.attributes.push(AttributeRule::allowed(attr));
            }
            m
        })
        // Stack assignment keeps the aggregation on the tiny TV, which
        // must then refuse with a capacity error (§3.2: the data has to
        // escalate to a more powerful node)
        .with_options(RuntimeOptions {
            assignment: AssignmentPolicy::Stack,
            ..Default::default()
        });
    runtime.install_source("sensor", "stream", stream(5000)).unwrap();
    let q = parse_query("SELECT x, AVG(z) AS za FROM stream GROUP BY x").unwrap();
    let err = runtime.run_once("M", &q).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Node(NodeError::CapacityExceeded { .. })
    ));
}

#[test]
fn spread_assignment_escalates_past_undersized_node() {
    // with the default Spread policy the aggregation fragment lands on
    // the next node up (here: the cloud) and the pipeline completes
    let mut capability = Capability::appliance_default();
    capability.memory_bytes = 1024;
    let chain = ProcessingChain::new(vec![
        Node::new("sensor", paradise::nodes::Level::Sensor),
        Node::with_capability("tiny-tv", paradise::nodes::Level::Appliance, capability),
        Node::new("cloud", paradise::nodes::Level::Cloud),
    ])
    .unwrap();
    let mut runtime = Runtime::new(chain).with_policy("M", {
        let mut m = ModulePolicy::new("M");
        for attr in ["x", "y", "z", "t"] {
            m.attributes.push(AttributeRule::allowed(attr));
        }
        m
    });
    runtime.install_source("sensor", "stream", stream(5000)).unwrap();
    let q = parse_query("SELECT x, AVG(z) AS za FROM stream GROUP BY x").unwrap();
    let outcome = runtime.run_once("M", &q).unwrap();
    assert_eq!(outcome.planned.stages.last().unwrap().node, "cloud");
    assert!(!outcome.result.is_empty());
}

#[test]
fn unknown_source_table_errors_at_execution() {
    let mut runtime = Runtime::new(ProcessingChain::apartment()).with_policy("M", {
        let mut m = ModulePolicy::new("M");
        m.attributes.push(AttributeRule::allowed("x"));
        m
    });
    // no install_source at all
    let q = parse_query("SELECT x FROM missing_stream").unwrap();
    let err = runtime.run_once("M", &q).unwrap_err();
    assert!(matches!(err, CoreError::Node(NodeError::Engine(_))));
}

// --------------------------------------------------------------------
// engine-level failures surfacing through the stack
// --------------------------------------------------------------------

#[test]
fn type_errors_surface_with_context() {
    let mut catalog = Catalog::new();
    catalog
        .register(
            "d",
            Frame::new(
                Schema::from_pairs(&[("s", DataType::Text)]),
                vec![vec![Value::Str("abc".into())]],
            )
            .unwrap(),
        )
        .unwrap();
    let executor = Executor::new(&catalog);
    let err = executor
        .execute(&parse_query("SELECT s + 1 FROM d").unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("arithmetic"), "{err}");
}

#[test]
fn union_fragmentation_rejected_cleanly() {
    let q = parse_query("SELECT x FROM a UNION SELECT x FROM b").unwrap();
    let err = fragment_query(&q).unwrap_err();
    assert!(matches!(err, CoreError::UnsupportedQuery(_)));
    assert!(err.to_string().contains("UNION"));
}

#[test]
fn info_gain_rejection_names_the_numbers() {
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_options(RuntimeOptions {
            info_gain_threshold: Some(1e-12),
            ..Default::default()
        });
    runtime.install_source("motion-sensor", "stream", stream(500)).unwrap();
    let q = parse_query("SELECT x, y, z, t FROM stream").unwrap();
    let err = runtime.run_once("ActionFilter", &q).unwrap_err();
    let CoreError::InsufficientInformation { divergence, threshold } = err else {
        panic!("expected InsufficientInformation, got {err}");
    };
    assert!(divergence > threshold);
}

// --------------------------------------------------------------------
// sharded (partition-parallel) execution failures
// --------------------------------------------------------------------

fn users_frame(rows: usize) -> Frame {
    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
    let data = (0..rows)
        .map(|i| vec![Value::Int((i % 13) as i64), Value::Int(i as i64)])
        .collect();
    Frame::new(schema, data).unwrap()
}

#[test]
fn sharded_partial_delta_without_matching_state_signals_stale_plan() {
    use paradise::engine::{DeltaInput, EngineError, IncrementalState};

    let mut catalog = Catalog::new();
    catalog.set_partitioning("uid", 4);
    catalog.register("s", users_frame(100)).unwrap();
    let q = parse_query("SELECT uid, SUM(v) AS sv FROM s GROUP BY uid").unwrap();
    let executor = Executor::new(&catalog);
    let plan = executor.compile_incremental(&q).unwrap().unwrap();

    // a pushed partial delta into a *fresh* state cannot be folded —
    // the engine must refuse with the retryable StalePlan signal, never
    // silently produce a partial aggregate
    let delta = users_frame(10);
    let mut fresh = IncrementalState::new();
    let err = executor
        .run_incremental(&plan, &mut fresh, DeltaInput::Pushed { delta: &delta, reset: false, evicted: 0 })
        .unwrap_err();
    assert!(matches!(err, EngineError::StalePlan), "got {err}");

    // same signal when the shard count changed under a live state: the
    // old routing is unusable for a partial delta
    let mut st = IncrementalState::new();
    executor.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
    catalog.set_partitioning("uid", 8);
    let executor = Executor::new(&catalog);
    let err = executor
        .run_incremental(&plan, &mut st, DeltaInput::Pushed { delta: &delta, reset: false, evicted: 0 })
        .unwrap_err();
    assert!(matches!(err, EngineError::StalePlan), "got {err}");
}

#[test]
fn shard_count_change_over_source_input_rebuilds_all_shards() {
    use paradise::engine::{DeltaInput, IncrementalState};

    let mut catalog = Catalog::new();
    catalog.set_partitioning("uid", 4);
    catalog.register("s", users_frame(200)).unwrap();
    let q = parse_query("SELECT uid, SUM(v) AS sv FROM s GROUP BY uid ORDER BY uid").unwrap();
    let executor = Executor::new(&catalog);
    let plan = executor.compile_incremental(&q).unwrap().unwrap();

    let mut st = IncrementalState::new();
    executor.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
    assert_eq!(st.rows_seen(), 200);

    // source-backed input carries the full window, so a shard-count
    // change rebuilds coherently instead of failing — and the rebuilt
    // result is exact against the one-shot executor
    catalog.set_partitioning("uid", 8);
    let executor = Executor::new(&catalog);
    let run = executor.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
    assert!(run.reset, "routing change must rebuild, not fold");
    assert_eq!(run.result.to_rows(), executor.execute(&q).unwrap().to_rows());
}

#[test]
fn sharded_fold_failure_is_all_or_nothing() {
    use paradise::engine::{DeltaInput, IncrementalState};

    // SUM over a Text column: NULLs fold fine, a non-numeric string
    // errors mid-fold on exactly one shard while others succeed
    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("w", DataType::Text)]);
    let ok = Frame::new(
        schema.clone(),
        (0..60).map(|i| vec![Value::Int(i % 13), Value::Null]).collect(),
    )
    .unwrap();
    let bad =
        Frame::new(schema, vec![vec![Value::Int(5), Value::Str("not a number".into())]]).unwrap();

    let mut catalog = Catalog::new();
    catalog.set_partitioning("uid", 4);
    catalog.register("s", ok).unwrap();
    let q = parse_query("SELECT uid, SUM(w) AS sw FROM s GROUP BY uid ORDER BY uid").unwrap();
    let mut st = IncrementalState::new();
    {
        let executor = Executor::new(&catalog);
        let plan = executor.compile_incremental(&q).unwrap().unwrap();
        executor.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
    }
    assert_eq!(st.rows_seen(), 60);

    catalog.append("s", bad).unwrap();
    {
        let executor = Executor::new(&catalog);
        let plan = executor.compile_incremental(&q).unwrap().unwrap();
        assert!(executor.run_incremental(&plan, &mut st, DeltaInput::Source).is_err());
    }
    // the failing tick must not leave the folds of the *other* shards
    // observable: the whole state poisons at once
    assert_eq!(st.rows_seen(), 0, "no partial merge may survive a failed tick");

    // recovery: once the poisonous batch is evicted the next tick
    // rebuilds every shard from the clean window and matches a rescan
    catalog.evict_front("s", 61).unwrap();
    let clean = Frame::new(
        Schema::from_pairs(&[("uid", DataType::Integer), ("w", DataType::Text)]),
        (0..40).map(|i| vec![Value::Int(i % 7), Value::Null]).collect(),
    )
    .unwrap();
    catalog.append("s", clean).unwrap();
    let executor = Executor::new(&catalog);
    let plan = executor.compile_incremental(&q).unwrap().unwrap();
    let run = executor.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
    assert!(run.reset, "recovery rebuilds from scratch");
    assert_eq!(run.result.to_rows(), executor.execute(&q).unwrap().to_rows());
}

// --------------------------------------------------------------------
// anonymization failures
// --------------------------------------------------------------------

#[test]
fn anonymizers_validate_parameters_at_the_boundary() {
    use paradise::anon::{mondrian, mondrian_l_diverse, AnonError};
    let f = stream(10);
    assert!(matches!(mondrian(&f, &[0], 0), Err(AnonError::BadParameter(_))));
    assert!(matches!(mondrian(&f, &[42], 2), Err(AnonError::BadColumn(42))));
    assert!(matches!(mondrian(&f, &[0], 99), Err(AnonError::Infeasible(_))));
    assert!(matches!(
        mondrian_l_diverse(&f, &[0], 1, 2, 999),
        Err(AnonError::Infeasible(_))
    ));
}

#[test]
fn stream_gate_blocks_hammering_module() {
    use paradise::core::{GateDecision, StreamGate};
    use paradise::policy::StreamSettings;
    let mut gate = StreamGate::new();
    gate.set_settings(
        "Recognizer",
        StreamSettings {
            min_query_interval_secs: Some(10.0),
            allowed_aggregation_levels: vec!["minute".into()],
        },
    );
    assert_eq!(gate.admit("Recognizer", 0.0, Some("minute")), GateDecision::Admitted);
    let mut blocked = 0;
    for i in 1..10 {
        if gate.admit("Recognizer", i as f64, Some("minute")) != GateDecision::Admitted {
            blocked += 1;
        }
    }
    assert_eq!(blocked, 9, "all queries inside the interval must be blocked");
}

// --------------------------------------------------------------------
// durability failures: every way the disk can lie must recover
// cleanly or fail with a typed error — never panic
// --------------------------------------------------------------------

mod durability {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let base = option_env!("CARGO_TARGET_TMPDIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "fault-{}-{name}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn allow_all(module: &str) -> ModulePolicy {
        let mut m = ModulePolicy::new(module);
        for attr in ["x", "y", "z", "t"] {
            m.attributes.push(AttributeRule::allowed(attr));
        }
        m
    }

    /// A durable runtime with a snapshot, a registration, and a few
    /// logged ingest batches — snapshots held off so the log stays
    /// populated for the fault to hit.
    fn populated(dir: &PathBuf) -> Runtime {
        let mut rt = Runtime::new(ProcessingChain::apartment())
            .with_policy("M", allow_all("M"))
            .with_snapshot_every(0)
            .durable(dir)
            .unwrap();
        rt.install_source("motion-sensor", "stream", stream(50)).unwrap();
        rt.register("M", &parse_query("SELECT x, y, z, t FROM stream").unwrap()).unwrap();
        for _ in 0..3 {
            rt.ingest("motion-sensor", "stream", stream(20)).unwrap();
            rt.tick().unwrap();
        }
        rt
    }

    fn reopen(dir: &PathBuf) -> Result<Runtime, CoreError> {
        Runtime::new(ProcessingChain::apartment())
            .with_policy("M", allow_all("M"))
            .with_snapshot_every(0)
            .durable(dir)
    }

    /// Path of the newest write-ahead log in the directory.
    fn newest_wal(dir: &PathBuf) -> PathBuf {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                name.starts_with("wal.") && name.ends_with(".log")
            })
            .max()
            .expect("a durable directory has a log")
    }

    fn snapshots(dir: &PathBuf) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                name.starts_with("snapshot.") && name.ends_with(".pds")
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn torn_final_wal_record_recovers_the_prefix() {
        let dir = scratch("torn");
        drop(populated(&dir));
        let wal = newest_wal(&dir);
        let bytes = std::fs::read(&wal).unwrap();
        assert!(bytes.len() > 10, "the log must have content to tear");
        std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

        let rt = reopen(&dir).expect("a torn tail is a crash, not corruption");
        let stats = rt.durability_stats().unwrap();
        assert!(stats.recovered);
        assert!(stats.torn_bytes > 0, "the tear must be counted: {stats:?}");
        assert_eq!(rt.registered(), 1, "registration precedes the torn ingest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_crc_mid_log_truncates_from_the_damage() {
        let dir = scratch("bitflip");
        drop(populated(&dir));
        let wal = newest_wal(&dir);
        let mut bytes = std::fs::read(&wal).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&wal, &bytes).unwrap();

        // recovery holds the valid prefix; the damaged region and
        // everything after it are truncated, and appending resumes
        let mut rt = reopen(&dir).expect("mid-log damage truncates, never panics");
        let stats = rt.durability_stats().unwrap();
        assert!(stats.torn_bytes > 0, "the damage must be counted: {stats:?}");
        rt.ingest("motion-sensor", "stream", stream(5)).unwrap();
        rt.tick().unwrap();
        drop(rt);
        assert!(reopen(&dir).is_ok(), "the repaired log must read back cleanly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_length_and_truncated_snapshots_fall_back_or_error() {
        // rotate once so a fallback generation exists
        let dir = scratch("snapfall");
        let mut rt = populated(&dir);
        rt.snapshot().unwrap();
        rt.ingest("motion-sensor", "stream", stream(10)).unwrap();
        rt.tick().unwrap();
        let rows =
            rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().to_rows();
        drop(rt);

        let snaps = snapshots(&dir);
        assert!(snaps.len() >= 2, "rotation keeps the previous generation: {snaps:?}");
        // truncate the newest snapshot mid-file: recovery must fall
        // back to the previous generation + its logs, losing nothing
        let newest = snaps.last().unwrap();
        let full = std::fs::read(newest).unwrap();
        std::fs::write(newest, &full[..full.len() / 3]).unwrap();
        let rt = reopen(&dir).expect("fallback generation must carry recovery");
        let stats = rt.durability_stats().unwrap();
        assert_eq!(stats.corrupt_snapshots, 1, "{stats:?}");
        assert_eq!(
            rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().to_rows(),
            rows,
            "fallback + log replay must rebuild the exact window"
        );
        drop(rt);

        // now zero every snapshot generation: recovery must refuse
        // with a typed error, not panic and not fabricate state
        for snap in snapshots(&dir) {
            std::fs::write(snap, b"").unwrap();
        }
        assert!(
            matches!(reopen(&dir), Err(CoreError::Corrupt(_))),
            "no valid generation left must be CoreError::Corrupt"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_replay_converges_via_idempotent_records() {
        let dir = scratch("double");
        let rows = {
            let rt = populated(&dir);
            rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().to_rows()
        };
        // duplicate the whole log: every record now replays twice
        let wal = newest_wal(&dir);
        let bytes = std::fs::read(&wal).unwrap();
        let doubled: Vec<u8> = bytes.iter().chain(bytes.iter()).copied().collect();
        std::fs::write(&wal, &doubled).unwrap();

        let rt = reopen(&dir).expect("duplicated records must be skipped, not re-applied");
        let stats = rt.durability_stats().unwrap();
        assert!(stats.skipped > 0, "idempotency skips must be counted: {stats:?}");
        assert_eq!(
            rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().to_rows(),
            rows,
            "double replay must converge to the single-replay state"
        );
        assert_eq!(rt.registered(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_degraded_runtime_refuses_every_policy_swap() {
        use paradise::core::storage::{FaultKind, FaultOp, FaultVfs, Vfs};
        use paradise::core::Command;
        use std::sync::Arc;
        let dir = scratch("degraded-swap");
        let faults = FaultVfs::new();
        let vfs: Arc<dyn Vfs> = faults.clone();
        let mut rt = Runtime::new(ProcessingChain::apartment())
            .with_policy("M", allow_all("M"))
            .with_snapshot_every(0)
            .durable_with(&dir, vfs)
            .unwrap();
        rt.install_source("motion-sensor", "stream", stream(50)).unwrap();
        let query = parse_query("SELECT x, y, z, t FROM stream").unwrap();
        let handles = [rt.register("M", &query).unwrap(), rt.register("M", &query).unwrap()];
        faults.schedule(FaultOp::Write, 0, FaultKind::Eio);
        assert!(matches!(rt.register("M", &query), Err(CoreError::Degraded(_))));

        let mut deny_all = ModulePolicy::new("M");
        for attr in ["x", "y", "z", "t"] {
            deny_all.attributes.push(AttributeRule::denied(attr));
        }
        let version = rt.policy_version("M").unwrap();
        assert_eq!(rt.set_policy("M", deny_all.clone()), version, "a refused swap moves nothing");
        assert_eq!(rt.policy_version("M"), Some(version));
        let ticked = rt.tick_each(&handles).unwrap();
        for handle in handles {
            let (_, result) = ticked.iter().find(|(h, _)| *h == handle).unwrap();
            assert!(result.is_ok(), "{handle} lost its plan: {:?}", result.as_ref().err());
        }
        let swap = Command::SetPolicy { module: "M".into(), policy: deny_all, origin: (0, 0) };
        assert!(matches!(rt.apply(swap), Err(CoreError::Degraded(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_record_type_with_valid_crc_is_corrupt() {
        let dir = scratch("unknown");
        drop(populated(&dir));
        let wal = newest_wal(&dir);
        // hand-frame a record with an unassigned tag and a correct
        // CRC: structurally valid, semantically impossible
        let body = [250u8, 1, 2, 3];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in &body {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        let mut framed = std::fs::read(&wal).unwrap();
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&(!crc).to_le_bytes());
        framed.extend_from_slice(&body);
        std::fs::write(&wal, &framed).unwrap();
        assert!(matches!(reopen(&dir), Err(CoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// --------------------------------------------------------------------
// wire failures: no byte sequence a client can send may panic the
// server or disturb another tenant's results — faults kill exactly
// one connection, loudly
// --------------------------------------------------------------------

mod wire {
    use super::*;
    use paradise::core::Command;
    use paradise::server::protocol::{self, Request, Response};
    use paradise::server::{Client, Server, ServerConfig};
    use std::io::{Read as _, Write as _};
    use std::net::{SocketAddr, TcpStream};
    use std::time::{Duration, Instant};

    fn allow_all(module: &str) -> ModulePolicy {
        let mut m = ModulePolicy::new(module);
        for attr in ["x", "y", "z", "t"] {
            m.attributes.push(AttributeRule::allowed(attr));
        }
        m
    }

    /// Per-test server log under the harness target dir so CI can
    /// upload it as an artifact when an assertion fails.
    fn server_log(name: &str) -> std::path::PathBuf {
        let base = option_env!("CARGO_TARGET_TMPDIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        base.join(format!("server-wire-{}-{name}.log", std::process::id()))
    }

    /// Server with a fast mid-frame read timeout (so half-open frames
    /// are reaped quickly) but the default generous idle timeout (so
    /// the bystander tenant is never reaped while the corpus runs).
    fn start_server(log: &str) -> Server {
        let runtime =
            Runtime::new(ProcessingChain::apartment()).with_policy("M", allow_all("M"));
        let config = ServerConfig {
            read_timeout: Duration::from_millis(40),
            log_path: Some(server_log(log)),
            ..ServerConfig::default()
        };
        Server::start(runtime, config).unwrap()
    }

    /// One tick through the wire, returning the handle's result rows.
    fn tick_rows(client: &mut Client, handle: u64) -> Vec<Row> {
        let reply = client.tick().unwrap();
        let (got, result) = reply
            .results
            .iter()
            .find(|(id, _)| *id == handle)
            .cloned()
            .expect("own handle present in tick reply");
        assert_eq!(got, handle);
        result.expect("healthy handle yields a frame").to_rows()
    }

    /// A raw frame header, with every field under test control.
    fn header(magic: u32, len: u32, crc: u32) -> [u8; 12] {
        let mut h = [0u8; 12];
        h[0..4].copy_from_slice(&magic.to_le_bytes());
        h[4..8].copy_from_slice(&len.to_le_bytes());
        h[8..12].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Drain the socket until the peer closes it (bounded); returns
    /// the bytes it sent first (a typed error reply, when one fits).
    fn read_until_close(stream: &mut TcpStream) -> Vec<u8> {
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut buf = [0u8; 256];
        while Instant::now() < deadline {
            match stream.read(&mut buf) {
                Ok(0) => return got,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return got,
            }
        }
        panic!("server never closed the faulty connection");
    }

    fn wait_for<T: PartialOrd + Copy + std::fmt::Debug>(
        what: &str,
        want: T,
        mut probe: impl FnMut() -> T,
    ) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let got = probe();
            if got >= want {
                return;
            }
            if Instant::now() > deadline {
                panic!("{what}: wanted >= {want:?}, got {got:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn wire_fault_corpus_kills_one_connection_never_the_server() {
        let server = start_server("corpus");
        let addr = server.local_addr();

        // the bystander tenant the corpus must not disturb
        let mut good = Client::connect(addr).unwrap();
        good.set_timeout(Some(Duration::from_secs(30))).unwrap();
        good.install_source("motion-sensor", "stream", stream(30)).unwrap();
        let handle = good.register("M", "SELECT x, y, z, t FROM stream").unwrap();
        let baseline = tick_rows(&mut good, handle);
        assert!(!baseline.is_empty());

        // 1. garbage magic — typed refusal, connection closed
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&header(0xDEAD_BEEF, 0, 0)).unwrap();
            read_until_close(&mut s);
        }

        // 2. oversized length prefix — refused before any allocation
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&header(protocol::MAGIC, u32::MAX, 0)).unwrap();
            read_until_close(&mut s);
        }

        // 3. truncated frame — header promises more payload than ever
        // arrives, then a clean FIN mid-frame
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let payload = protocol::encode_request(&Request::Tick { seq: 0 });
            s.write_all(&header(protocol::MAGIC, payload.len() as u32 + 50, 0)).unwrap();
            s.write_all(&payload).unwrap();
            drop(s);
        }

        // 4. half-open connection — half a header, then silence; the
        // mid-frame read timeout must reap it
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&header(protocol::MAGIC, 4, 0)[..6]).unwrap();
            read_until_close(&mut s);
        }

        // 5. disconnect mid-ingest — a well-formed Ingest frame cut
        // off halfway through its payload
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let payload = protocol::encode_request(&Request::Apply(Command::Ingest {
                node: "motion-sensor".into(),
                table: "stream".into(),
                frame: stream(50),
                origin: (0, 0),
            }));
            let crc = paradise::core::storage::codec::crc32(&payload);
            s.write_all(&header(protocol::MAGIC, payload.len() as u32, crc)).unwrap();
            s.write_all(&payload[..payload.len() / 2]).unwrap();
            drop(s);
        }

        // 6. corrupted payload — right length, wrong CRC
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let payload = protocol::encode_request(&Request::Tick { seq: 0 });
            let crc = paradise::core::storage::codec::crc32(&payload) ^ 0xFFFF;
            s.write_all(&header(protocol::MAGIC, payload.len() as u32, crc)).unwrap();
            s.write_all(&payload).unwrap();
            read_until_close(&mut s);
        }

        // 7. valid CRC, undecodable payload (unknown request tag)
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let payload = vec![0xEEu8, 1, 2, 3];
            let crc = paradise::core::storage::codec::crc32(&payload);
            s.write_all(&header(protocol::MAGIC, payload.len() as u32, crc)).unwrap();
            s.write_all(&payload).unwrap();
            read_until_close(&mut s);
        }

        // every faulty connection must unwind cleanly (a panicking
        // connection thread would never reach its close accounting)
        wait_for("fault connections closed", 7, || server.stats().connections_closed);
        let stats = server.stats();
        assert_eq!(
            stats.connections_accepted - stats.connections_closed,
            1,
            "only the good tenant may remain: {stats:?}"
        );
        assert!(stats.malformed_frames >= 5, "{stats:?}");
        assert!(stats.oversized_frames >= 1, "{stats:?}");

        // the bystander's results are byte-identical after the corpus
        assert_eq!(tick_rows(&mut good, handle), baseline);
        good.ping().unwrap();

        let runtime = server.shutdown().expect("graceful shutdown returns the runtime");
        assert_eq!(runtime.registered(), 0, "disconnect released the good tenant's handle");
    }

    #[test]
    fn idle_connections_are_reaped_on_schedule() {
        let runtime =
            Runtime::new(ProcessingChain::apartment()).with_policy("M", allow_all("M"));
        let config = ServerConfig {
            read_timeout: Duration::from_millis(40),
            idle_timeout: Duration::from_millis(200),
            log_path: Some(server_log("idle")),
            ..ServerConfig::default()
        };
        let server = Server::start(runtime, config).unwrap();
        let mut idle = TcpStream::connect(server.local_addr()).unwrap();
        // never speaks: the server must close it from its side
        let closed = read_until_close(&mut idle);
        assert!(closed.is_empty(), "an idle reap sends nothing");
        wait_for("idle reap counted", 1, || server.stats().idle_reaped);
        server.shutdown();
    }

    #[test]
    fn over_cap_connections_get_a_typed_admission_refusal() {
        use paradise::server::{AdmissionConfig, ErrorCode};
        let runtime =
            Runtime::new(ProcessingChain::apartment()).with_policy("M", allow_all("M"));
        let config = ServerConfig {
            admission: AdmissionConfig { max_connections: 1, ..AdmissionConfig::default() },
            read_timeout: Duration::from_millis(40),
            log_path: Some(server_log("overcap")),
            ..ServerConfig::default()
        };
        let server = Server::start(runtime, config).unwrap();
        let addr: SocketAddr = server.local_addr();

        let mut first = Client::connect(addr).unwrap();
        first.set_timeout(Some(Duration::from_secs(30))).unwrap();
        first.ping().unwrap();

        // the second connection is refused with a typed error frame
        let mut second = Client::connect(addr).unwrap();
        second.set_timeout(Some(Duration::from_secs(30))).unwrap();
        match second.ping() {
            Err(paradise::server::ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::Admission)
            }
            Err(paradise::server::ClientError::Io(_)) => {
                // the refusal frame can race the close; either way the
                // connection is gone and the first tenant unaffected
            }
            other => panic!("expected admission refusal, got {other:?}"),
        }
        assert!(server.stats().connections_rejected >= 1);
        first.ping().unwrap();
        server.shutdown();
    }

    /// A session's dedup mark as a fresh connection resuming it sees it.
    fn mark(addr: SocketAddr, session: u64) -> u64 {
        let mut c = Client::connect(addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(30))).unwrap();
        c.hello_session(OverloadPolicy::Shed, None, session).unwrap()
    }

    /// The session in a frame's origin is not the sender's to choose: a
    /// raw `Apply` naming another session runs under the connection's
    /// own, so it neither dedups against nor advances the named
    /// session's mark.
    #[test]
    fn an_apply_naming_another_session_runs_under_the_connections_own() {
        const OWNER: u64 = 77;
        const INTRUDER: u64 = 88;
        let server = start_server("foreign-origin");
        let addr = server.local_addr();
        let ingest = |origin| Command::Ingest {
            node: "motion-sensor".into(),
            table: "stream".into(),
            frame: stream(5),
            origin,
        };
        let connect = |session| {
            let mut c = Client::connect(addr).unwrap();
            c.set_timeout(Some(Duration::from_secs(30))).unwrap();
            c.hello_session(OverloadPolicy::Shed, None, session).unwrap();
            c
        };

        let mut owner = connect(OWNER);
        owner.install_source("motion-sensor", "stream", stream(10)).unwrap();
        assert!(matches!(owner.apply(ingest((OWNER, 5))).unwrap(), Response::Accepted { .. }));
        wait_for("owner's ingest applied", 1, || server.stats().ingest_applied);
        assert_eq!(mark(addr, OWNER), 5);

        // the owner's (session, seq) again, from another session: a
        // server that trusted the frame would drop it as a duplicate
        let mut intruder = connect(INTRUDER);
        assert!(matches!(intruder.apply(ingest((OWNER, 5))).unwrap(), Response::Accepted { .. }));
        wait_for("intruder's ingest applied", 2, || server.stats().ingest_applied);
        assert_eq!(server.stats().dedup_hits, 0, "deduplicated against another session");

        // a higher seq naming the owner advances the intruder's mark
        assert!(matches!(intruder.apply(ingest((OWNER, 9))).unwrap(), Response::Accepted { .. }));
        wait_for("second intruder ingest applied", 3, || server.stats().ingest_applied);
        assert_eq!(mark(addr, OWNER), 5, "another session moved the owner's mark");
        assert_eq!(mark(addr, INTRUDER), 9);
        server.shutdown();
    }

    /// SQL nested far past the parser's limit, sent as a raw
    /// `Apply(Register)` frame, is a typed bad request on that
    /// connection. It must not overflow the connection thread's stack:
    /// that aborts the server process, and every tenant with it.
    #[test]
    fn deeply_nested_sql_is_a_bad_request_not_a_crash() {
        let server = start_server("deep-sql");
        let addr = server.local_addr();
        let mut bystander = Client::connect(addr).unwrap();
        bystander.set_timeout(Some(Duration::from_secs(30))).unwrap();
        bystander.install_source("motion-sensor", "stream", stream(10)).unwrap();
        let handle = bystander.register("M", "SELECT x, y, z, t FROM stream").unwrap();

        // the frame a client sends for `SELECT 1`, its SQL text swapped
        // for `SELECT 1 + (1 + (… 1 …))`, 5 000 levels deep
        let shallow = "SELECT 1";
        let deep = format!("SELECT {}1{}", "1 + (".repeat(5_000), ")".repeat(5_000));
        let template = protocol::encode_request(&Request::Apply(Command::Register {
            module: "M".into(),
            query: Box::new(parse_query(shallow).unwrap()),
            origin: (0, 0),
        }));
        let mut text = (shallow.len() as u32).to_le_bytes().to_vec();
        text.extend_from_slice(shallow.as_bytes());
        let at = template.windows(text.len()).position(|w| w == text).expect("the SQL is in the frame");
        let mut payload = template[..at].to_vec();
        payload.extend_from_slice(&(deep.len() as u32).to_le_bytes());
        payload.extend_from_slice(deep.as_bytes());
        payload.extend_from_slice(&template[at + text.len()..]);

        let mut s = TcpStream::connect(addr).unwrap();
        let crc = paradise::core::storage::codec::crc32(&payload);
        s.write_all(&header(protocol::MAGIC, payload.len() as u32, crc)).unwrap();
        s.write_all(&payload).unwrap();
        let reply = read_until_close(&mut s);
        match protocol::decode_response(&reply[12..]) {
            Ok(Response::Error { code: ErrorCode::BadRequest, message }) => {
                assert!(message.contains("nesting deeper than"), "{message}")
            }
            other => panic!("expected a bad request, got {other:?}"),
        }

        bystander.ping().unwrap();
        assert_eq!(tick_rows(&mut bystander, handle).len(), 10);
        server.shutdown();
    }

    /// SQL that does not parse and policy XML without the module are the
    /// client's own typed refusals, before anything is sent; the
    /// connection keeps serving.
    #[test]
    fn the_client_refuses_what_does_not_parse_as_a_bad_request() {
        let server = start_server("client-refusals");
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.set_timeout(Some(Duration::from_secs(30))).unwrap();
        match c.register("M", "SELEKT x FROM stream") {
            Err(ClientError::Server { code: ErrorCode::BadRequest, message }) => {
                assert!(message.contains("parse error"), "{message}")
            }
            other => panic!("expected a bad request, got {other:?}"),
        }
        let foreign = r#"<module module_ID="Other"><attributeList/></module>"#;
        match c.set_policy("M", foreign) {
            Err(ClientError::Server { code: ErrorCode::BadRequest, message }) => {
                assert!(message.contains("no module M"), "{message}")
            }
            other => panic!("expected a bad request, got {other:?}"),
        }
        match c.set_policy("M", "<module") {
            Err(ClientError::Server { code: ErrorCode::BadRequest, .. }) => {}
            other => panic!("expected a bad request, got {other:?}"),
        }

        c.ping().unwrap();
        c.install_source("motion-sensor", "stream", stream(10)).unwrap();
        let handle = c.register("M", "SELECT x, y, z, t FROM stream").unwrap();
        assert_eq!(tick_rows(&mut c, handle).len(), 10);
        let stats = server.stats();
        assert_eq!(stats.malformed_frames, 0, "{stats:?}");
        assert_eq!(stats.connections_closed, 0, "{stats:?}");
        server.shutdown();
    }
}
