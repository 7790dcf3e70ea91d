//! Cross-crate anonymization tests: the postprocessor on realistic
//! sensor frames, attack containment, and metric sanity.

use paradise::anon::{achieved_k, detect_qids, QidConfig};
use paradise::core::{postprocess, AnonStrategy};
use paradise::prelude::*;

fn tagged_positions(seed: u64, steps: usize) -> Frame {
    let config = SmartRoomConfig { persons: 5, switch_probability: 0.02, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_tagged(steps)
}

#[test]
fn qid_detection_flags_position_and_time() {
    let frame = tagged_positions(3, 200);
    let report = detect_qids(&frame, &QidConfig::default()).unwrap();
    // (x, y, t) or a subset identifies readings; something must be found
    assert!(report.quasi_identifier.is_some());
}

#[test]
fn kanon_postprocessing_guarantees_k() {
    let frame = tagged_positions(4, 100);
    let out = postprocess(frame.clone(), &AnonStrategy::KAnonymity { k: 5 }).unwrap();
    if let paradise::core::AnonDecision::TupleWise { qid_columns, .. } = &out.decision {
        let k = achieved_k(&out.frame, qid_columns).unwrap().unwrap();
        assert!(k >= 5, "achieved k = {k}");
    } else {
        panic!("expected tuple-wise anonymization, got {:?}", out.decision);
    }
    // shape is preserved so DD is well-defined
    assert_eq!(out.frame.len(), frame.len());
    assert!(direct_distance_ratio(&frame, &out.frame).unwrap() > 0.0);
}

#[test]
fn slicing_postprocessing_preserves_column_distributions() {
    let frame = tagged_positions(5, 100);
    let out = postprocess(frame.clone(), &AnonStrategy::Slicing { bucket_size: 10 }).unwrap();
    for c in 0..frame.schema.len() {
        let mut orig: Vec<String> = frame.column_values(c).map(|v| v.to_string()).collect();
        let mut anon: Vec<String> = out.frame.column_values(c).map(|v| v.to_string()).collect();
        orig.sort();
        anon.sort();
        assert_eq!(orig, anon, "column {c} multiset changed");
    }
}

#[test]
fn golden_path_monotonicity() {
    // information loss grows with k for the profiling view
    let frame = tagged_positions(6, 300);
    let all: Vec<usize> = (0..frame.schema.len()).collect();
    let mut last_kl = -1.0;
    for k in [2usize, 8, 32] {
        let out = postprocess(frame.clone(), &AnonStrategy::KAnonymity { k }).unwrap();
        let kl = kl_divergence(&frame, &out.frame, &all).unwrap();
        assert!(kl >= last_kl - 1e-9, "KL should not decrease with k: {last_kl} → {kl} at k={k}");
        last_kl = kl;
    }
}

#[test]
fn containment_attack_suite() {
    use paradise::core::{attack_answerable, ConjunctiveQuery};
    use std::collections::HashMap;

    let mut schemas = HashMap::new();
    schemas.insert(
        "stream".to_string(),
        vec!["x".to_string(), "y".to_string(), "z".to_string(), "t".to_string()],
    );
    let cq = |sql: &str| {
        ConjunctiveQuery::from_query(&parse_query(sql).unwrap(), &schemas).unwrap()
    };

    // the apartment reveals the projected positions
    let revealed = cq("SELECT x, y, t FROM stream");

    // answerable attacks (contained in the revealed view)
    let a1 = cq("SELECT x, y, t FROM stream");
    assert!(attack_answerable(&revealed, &a1));

    // NOT answerable: needs z, which is not revealed… structurally the
    // containment holds on (x,y,t) but arity differs for (x,y,z)
    let a2 = cq("SELECT x, y, z FROM stream");
    // head of a2 includes a z-variable that the revealed head never
    // exposes at that position → containment fails
    assert!(!attack_answerable(&revealed, &a2));

    // a more selective revealed view cannot answer the general query
    let narrow = cq("SELECT x, y, t FROM stream WHERE z = 1");
    let broad = cq("SELECT x, y, t FROM stream");
    assert!(!attack_answerable(&narrow, &broad));
    assert!(attack_answerable(&broad, &narrow));
}
