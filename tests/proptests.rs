//! Property-based tests over the whole stack: parser round-trips,
//! fragmentation semantics preservation, anonymization invariants.

#[path = "../crates/engine/tests/oracle/mod.rs"]
mod oracle;

use proptest::prelude::*;

use paradise::anon::{achieved_k, direct_distance, mondrian, slice, SlicingConfig};
use paradise::core::fragment_query;
use paradise::prelude::*;
use paradise::sql::ast::{
    BinaryOp, CaseBranch, ColumnRef, Expr, Literal, Query, SelectItem, TableRef,
};

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        paradise::sql::token::Keyword::lookup(s).is_none()
    })
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        any::<i32>().prop_map(|v| Literal::Integer(v as i64)),
        (-1000i32..1000).prop_map(|v| Literal::Float(v as f64 / 8.0)),
        "[a-z ]{0,8}".prop_map(Literal::String),
        Just(Literal::Boolean(true)),
        Just(Literal::Null),
    ]
}

fn arb_simple_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_ident().prop_map(|n| Expr::Column(ColumnRef::bare(n))),
        arb_literal().prop_map(Expr::Literal),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Gt, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::And, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Plus, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Eq, r)),
            inner
                .clone()
                .prop_map(|e| Expr::Unary { op: paradise::sql::ast::UnaryOp::Not, expr: Box::new(e) }),
        ]
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec(arb_ident(), 1..4),
        arb_ident(),
        proptest::option::of(arb_simple_expr()),
        proptest::option::of(1u64..100),
        any::<bool>(),
    )
        .prop_map(|(cols, table, where_clause, limit, distinct)| Query {
            distinct,
            items: cols
                .into_iter()
                .map(|c| SelectItem::expr(Expr::Column(ColumnRef::bare(c))))
                .collect(),
            from: Some(TableRef::table(table)),
            where_clause,
            limit,
            ..Query::default()
        })
}

// ---------------------------------------------------------------------
// SQL round-trip properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rendered_queries_reparse_to_the_same_ast(q in arb_query()) {
        let sql = q.to_string();
        let parsed = parse_query(&sql)
            .unwrap_or_else(|e| panic!("rendered SQL failed to parse: {sql:?}: {e}"));
        prop_assert_eq!(parsed, q);
    }

    #[test]
    fn rendered_exprs_reparse_to_the_same_ast(e in arb_simple_expr()) {
        let sql = e.to_string();
        let parsed = parse_expr(&sql)
            .unwrap_or_else(|err| panic!("rendered expr failed to parse: {sql:?}: {err}"));
        prop_assert_eq!(parsed, e);
    }

    #[test]
    fn conjoin_and_conjuncts_are_inverse(
        exprs in proptest::collection::vec(arb_simple_expr()
            .prop_filter("no top-level AND", |e| !matches!(e, Expr::Binary { op: BinaryOp::And, .. })), 1..5)
    ) {
        let joined = Expr::conjoin(exprs.clone()).unwrap();
        let split: Vec<Expr> = joined.conjuncts().into_iter().cloned().collect();
        prop_assert_eq!(split, exprs);
    }
}

// ---------------------------------------------------------------------
// fragmentation semantics
// ---------------------------------------------------------------------

fn arb_frame() -> impl Strategy<Value = Frame> {
    proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..3.0, 0i64..100), 1..60)
        .prop_map(|tuples| {
            let schema = Schema::from_pairs(&[
                ("x", DataType::Float),
                ("y", DataType::Float),
                ("z", DataType::Float),
                ("t", DataType::Integer),
            ]);
            let rows = tuples
                .into_iter()
                .map(|(x, y, z, t)| {
                    vec![
                        Value::Float((x * 4.0).round() / 4.0),
                        Value::Float((y * 4.0).round() / 4.0),
                        Value::Float((z * 4.0).round() / 4.0),
                        Value::Int(t),
                    ]
                })
                .collect();
            Frame::new(schema, rows).unwrap()
        })
}

/// Queries the fragmenter handles: nested aggregation shapes over the
/// ubisense schema.
fn arb_fragmentable_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("SELECT * FROM stream WHERE z < 2".to_string()),
        Just("SELECT x, y, t FROM stream WHERE x > y".to_string()),
        Just("SELECT x, AVG(z) AS za FROM stream WHERE z < 2 GROUP BY x".to_string()),
        Just(
            "SELECT x, y, AVG(z) AS zAVG, t FROM stream WHERE x > y AND z < 2 \
             GROUP BY x, y HAVING SUM(z) > 1"
                .to_string()
        ),
        Just("SELECT t FROM stream WHERE z < 1 AND x > 2 ORDER BY t LIMIT 7".to_string()),
        Just(
            "SELECT za FROM (SELECT x, AVG(z) AS za FROM stream WHERE z < 2 GROUP BY x)"
                .to_string()
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fragmented_equals_direct_execution(frame in arb_frame(), sql in arb_fragmentable_query()) {
        let query = parse_query(&sql).unwrap();

        // direct execution
        let mut catalog = Catalog::new();
        catalog.register("stream", frame.clone()).unwrap();
        let direct = Executor::new(&catalog).execute(&query).unwrap();

        // fragmented execution over the apartment chain
        let plan = fragment_query(&query).unwrap();
        let mut chain = ProcessingChain::apartment();
        chain.node_mut("motion-sensor").unwrap().install_table("stream", frame);
        let stages = paradise::core::assign_to_chain(&plan, &chain, AssignmentPolicy::Spread).unwrap();
        let run = chain.run_stages(&stages).unwrap();

        prop_assert_eq!(run.result.to_rows(), direct.to_rows(), "query: {}", sql);
    }

    #[test]
    fn every_fragment_respects_its_level(sql in arb_fragmentable_query()) {
        let query = parse_query(&sql).unwrap();
        let plan = fragment_query(&query).unwrap();
        for fragment in &plan.fragments {
            let cap = Capability::for_level(fragment.min_level);
            let features = paradise::sql::analysis::block_features(&fragment.query);
            prop_assert!(cap.supports(&features), "fragment {} breaks {:?}", fragment.query, fragment.min_level);
        }
    }
}

// ---------------------------------------------------------------------
// columnar frame ↔ row-view conversion invariants
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|v| Value::Int(v as i64)),
        (-1000i32..1000).prop_map(|v| Value::Float(v as f64 / 8.0)),
        "[a-z]{0,6}".prop_map(Value::Str),
    ]
}

/// A frame whose columns may mix runtime types (forcing the exact
/// `Mixed` representation) next to homogeneous typed buffers.
fn arb_mixed_frame() -> impl Strategy<Value = Frame> {
    (1usize..5, 0usize..40).prop_flat_map(|(width, height)| {
        proptest::collection::vec(
            proptest::collection::vec(arb_value(), width..(width + 1)),
            height..(height + 1),
        )
        .prop_map(move |rows| {
            let pairs: Vec<(String, DataType)> =
                (0..width).map(|i| (format!("c{i}"), DataType::Float)).collect();
            let pairs_ref: Vec<(&str, DataType)> =
                pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            Frame::new(Schema::from_pairs(&pairs_ref), rows).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn columnar_row_view_roundtrips(frame in arb_mixed_frame()) {
        // frame → rows → frame preserves every cell and the shape
        let rows = frame.to_rows();
        prop_assert_eq!(rows.len(), frame.len());
        let rebuilt = Frame::new(frame.schema.clone(), rows).unwrap();
        prop_assert_eq!(&rebuilt, &frame);
        // and the cached size accounting equals a full per-cell rescan
        let rescan: usize = rebuilt
            .to_rows()
            .iter()
            .map(|r| r.iter().map(Value::size_bytes).sum::<usize>())
            .sum();
        prop_assert_eq!(frame.size_bytes(), rescan);
        prop_assert_eq!(rebuilt.size_bytes(), rescan);
    }

    #[test]
    fn push_row_matches_bulk_construction(frame in arb_mixed_frame()) {
        let mut incremental = Frame::empty(frame.schema.clone());
        for row in frame.iter_rows() {
            incremental.push_row(row).unwrap();
        }
        prop_assert_eq!(&incremental, &frame);
        prop_assert_eq!(incremental.size_bytes(), frame.size_bytes());
    }

    #[test]
    fn cell_mutation_preserves_size_accounting(
        frame in arb_mixed_frame(),
        v in arb_value(),
        r in 0usize..40,
        c in 0usize..5,
    ) {
        prop_assume!(!frame.is_empty());
        let mut m = frame.clone();
        let (r, c) = (r % frame.len(), c % frame.schema.len());
        m.set_value(r, c, v);
        let rescan: usize = m
            .to_rows()
            .iter()
            .map(|row| row.iter().map(Value::size_bytes).sum::<usize>())
            .sum();
        prop_assert_eq!(m.size_bytes(), rescan);
        // the original is untouched (copy-on-write)
        prop_assert_eq!(&Frame::new(frame.schema.clone(), frame.to_rows()).unwrap(), &frame);
    }

    #[test]
    fn compiled_plans_match_the_oracle(frame in arb_frame(), sql in arb_fragmentable_query()) {
        let query = parse_query(&sql).unwrap();
        let mut catalog = Catalog::new();
        catalog.register("stream", frame).unwrap();
        let exec = Executor::new(&catalog);
        let plan = exec.compile(&query).unwrap();
        // run the same plan twice: compile-once/run-many must be stable
        let a = exec.run_plan(&plan).unwrap();
        let b = exec.run_plan(&plan).unwrap();
        prop_assert_eq!(&a, &b, "plan re-run diverged: {}", sql);
        let reference = oracle::run(&catalog, &query).unwrap();
        prop_assert_eq!(&a, &reference, "query: {}", sql);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// DISTINCT, ORDER BY, grouping and UNION over frames whose columns
    /// mix runtime types (the exact `Mixed` buffers next to typed ones)
    /// agree with the oracle's per-`Value` semantics.
    #[test]
    fn mixed_frames_sort_group_and_dedupe_like_the_oracle(frame in arb_mixed_frame()) {
        let mut catalog = Catalog::new();
        catalog.register("m", frame).unwrap();
        for sql in [
            "SELECT DISTINCT c0 FROM m ORDER BY 1",
            "SELECT * FROM m ORDER BY c0 DESC LIMIT 5 OFFSET 1",
            "SELECT c0, COUNT(*) AS n FROM m GROUP BY c0 ORDER BY n DESC, c0",
            "SELECT c0 FROM m UNION SELECT c0 FROM m WHERE c0 IS NOT NULL",
            "SELECT c0, ROW_NUMBER() OVER (PARTITION BY c0) AS rn FROM m",
        ] {
            let query = parse_query(sql).unwrap();
            let engine = Executor::new(&catalog).execute(&query).unwrap();
            prop_assert_eq!(&engine, &oracle::run(&catalog, &query).unwrap(), "query: {}", sql);
        }
    }
}

// ---------------------------------------------------------------------
// physical-plan layer: expression programs and plan-cache invalidation
// ---------------------------------------------------------------------

/// Expressions over the known `stream(x, y, z, t)` columns, so programs
/// compile (unknown columns are a compile-time error by design).
fn arb_stream_expr() -> impl Strategy<Value = Expr> {
    use paradise::sql::ast::UnaryOp;
    let col = proptest::sample::select(vec!["x", "y", "z", "t"])
        .prop_map(|n| Expr::Column(ColumnRef::bare(n.to_string())));
    let leaf = prop_oneof![col, arb_literal().prop_map(Expr::Literal)];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Gt, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::And, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Plus, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Multiply, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Eq, r)),
            inner
                .clone()
                .prop_map(|e| Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }),
            inner
                .clone()
                .prop_map(|e| Expr::IsNull { expr: Box::new(e), negated: false }),
            // the operators whose operands the row interpreter may skip
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(l, BinaryOp::Or, r)),
            (proptest::collection::vec((inner.clone(), inner.clone()), 1..3), inner.clone())
                .prop_map(|(branches, e)| Expr::Case {
                    operand: None,
                    branches: branches
                        .into_iter()
                        .map(|(when, then)| CaseBranch { when, then })
                        .collect(),
                    else_result: Some(Box::new(e)),
                }),
            (inner.clone(), proptest::collection::vec(inner.clone(), 1..4))
                .prop_map(|(e, list)| Expr::InList { expr: Box::new(e), list, negated: false }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(e, low, high)| Expr::Between {
                expr: Box::new(e),
                low: Box::new(low),
                high: Box::new(high),
                negated: false,
            }),
        ]
    })
}

/// A frame under a random subset of the column pool, so two draws
/// usually have different schemas (names and/or declared types).
fn arb_named_frame() -> impl Strategy<Value = Frame> {
    (
        proptest::collection::vec(any::<bool>(), 4..5),
        0usize..20,
        any::<bool>(),
    )
        .prop_map(|(mask, height, ints)| {
            let pool = ["a", "b", "c", "d"];
            let mut cols: Vec<&str> =
                pool.iter().zip(&mask).filter(|(_, &m)| m).map(|(n, _)| *n).collect();
            if cols.is_empty() {
                cols.push("a");
            }
            let dt = if ints { DataType::Integer } else { DataType::Float };
            let pairs: Vec<(&str, DataType)> = cols.iter().map(|n| (*n, dt)).collect();
            let rows = (0..height)
                .map(|r| {
                    pairs
                        .iter()
                        .enumerate()
                        .map(|(c, _)| {
                            if ints {
                                Value::Int((r * 7 + c) as i64)
                            } else {
                                Value::Float((r * 7 + c) as f64 / 2.0)
                            }
                        })
                        .collect()
                })
                .collect();
            Frame::new(Schema::from_pairs(&pairs), rows).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expression_programs_match_the_row_interpreter(
        frame in arb_frame(),
        e in arb_stream_expr(),
    ) {
        use paradise::engine::eval::{eval_expr, EvalContext};
        use paradise::engine::plan::ExprProgram;
        let ctx = EvalContext::new(&frame.schema);
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&e, &frame.schema, &exec).expect("columns resolve");
        // the reference: the row interpreter over every row in order,
        // failing with the first row's error
        let reference: Result<Vec<Value>, _> =
            frame.iter_rows().map(|row| eval_expr(&e, &row, &ctx)).collect();
        match (program.eval(&frame, &exec), reference) {
            (Ok(a), Ok(b)) => {
                for (i, expected) in b.into_iter().enumerate() {
                    prop_assert_eq!(a.value(i), expected, "row {} of {}", i, e);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "expr: {}", e),
            other => prop_assert!(false, "program and interpreter disagree for {}: {:?}", e, other),
        }
    }

    #[test]
    fn plan_cache_invalidates_on_schema_change(fa in arb_named_frame(), fb in arb_named_frame()) {
        use paradise::engine::plan::PlanCache;
        let q = parse_query("SELECT * FROM stream").unwrap();
        let mut cache = PlanCache::new();

        let mut c1 = Catalog::new();
        c1.register("stream", fa.clone()).unwrap();
        {
            let exec = Executor::new(&c1);
            let plan = cache.get_or_compile(&exec, &q).expect("compilable");
            prop_assert_eq!(exec.run_plan(&plan).unwrap().to_rows(), fa.to_rows());
        }

        let mut c2 = Catalog::new();
        c2.register("stream", fb.clone()).unwrap();
        {
            let exec = Executor::new(&c2);
            // the cache must never serve a plan compiled for schema A
            // against schema B: it either hits (same schema) or
            // invalidates and recompiles — the result is always correct
            let plan = cache.get_or_compile(&exec, &q).expect("compilable");
            prop_assert_eq!(exec.run_plan(&plan).unwrap().to_rows(), fb.to_rows());
        }

        let stats = cache.stats();
        if fa.schema == fb.schema {
            prop_assert_eq!(stats.hits, 1);
            prop_assert_eq!(stats.invalidations, 0);
        } else {
            prop_assert_eq!(stats.invalidations, 1, "schema change must invalidate");
        }
    }
}

// ---------------------------------------------------------------------
// anonymization invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mondrian_always_reaches_k(frame in arb_frame(), k in 1usize..6) {
        prop_assume!(frame.len() >= k);
        let result = mondrian(&frame, &[0, 1], k).unwrap();
        let achieved = achieved_k(&result, &[0, 1]).unwrap().unwrap();
        prop_assert!(achieved >= k, "achieved {achieved} < k {k}");
        // shape preserved
        prop_assert_eq!(result.len(), frame.len());
        // non-QID columns untouched
        for (orig, anon) in frame.iter_rows().zip(result.iter_rows()) {
            prop_assert_eq!(&orig[2], &anon[2]);
            prop_assert_eq!(&orig[3], &anon[3]);
        }
    }

    #[test]
    fn l_diverse_mondrian_at_l1_is_plain_mondrian(frame in arb_frame(), k in 1usize..=4) {
        use paradise::anon::mondrian_l_diverse;
        // every non-empty partition holds ≥ 1 distinct sensitive value,
        // so l = 1 adds no condition to k-anonymity's split
        let diverse = mondrian_l_diverse(&frame, &[0], 3, k, 1);
        let plain = mondrian(&frame, &[0], k);
        match (diverse, plain) {
            (Ok(d), Ok(p)) => prop_assert_eq!(d.to_rows(), p.to_rows()),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "only one side failed: {other:?}"),
        }
    }

    #[test]
    fn dd_is_a_metric_like_distance(frame in arb_frame()) {
        // identity
        prop_assert_eq!(direct_distance(&frame, &frame).unwrap(), 0);
        // symmetry
        let mut modified = frame.clone();
        if !modified.is_empty() {
            modified.set_value(0, 0, Value::Float(-1.0));
        }
        let d1 = direct_distance(&frame, &modified).unwrap();
        let d2 = direct_distance(&modified, &frame).unwrap();
        prop_assert_eq!(d1, d2);
        // bounded by cell count
        prop_assert!(d1 <= frame.cell_count());
    }

    #[test]
    fn slicing_preserves_multisets(frame in arb_frame(), bucket in 1usize..10) {
        let config = SlicingConfig {
            column_groups: vec![vec![0, 1], vec![2], vec![3]],
            bucket_size: bucket,
            seed: 7,
        };
        let out = slice(&frame, &config).unwrap();
        prop_assert_eq!(out.frame.len(), frame.len());
        for c in 0..frame.schema.len() {
            let mut a: Vec<String> = frame.column_values(c).map(|v| v.to_string()).collect();
            let mut b: Vec<String> = out.frame.column_values(c).map(|v| v.to_string()).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
        // grouped columns stay linked
        let orig_rows = frame.to_rows();
        for out_row in out.frame.iter_rows() {
            // find the (x, y) pair of out_row somewhere in the original
            let pair_exists =
                orig_rows.iter().any(|r| r[0] == out_row[0] && r[1] == out_row[1]);
            prop_assert!(pair_exists, "slicing invented a new (x, y) pair");
        }
    }
}

// ---------------------------------------------------------------------
// policy round-trip and anonymization-extension properties
// ---------------------------------------------------------------------

use paradise::policy::{
    parse_policy, policy_to_xml, AggregationSpec, AttributeRule, ModulePolicy, Policy,
    StreamSettings,
};

fn arb_attribute_rule() -> impl Strategy<Value = AttributeRule> {
    (
        arb_ident(),
        any::<bool>(),
        proptest::option::of((0.0f64..100.0).prop_map(|b| {
            parse_expr(&format!("z < {b}")).unwrap()
        })),
        proptest::option::of(proptest::sample::select(vec!["AVG", "SUM", "MIN", "MAX"])),
    )
        .prop_map(|(name, allow, condition, agg)| {
            let mut rule = if allow {
                AttributeRule::allowed(name)
            } else {
                AttributeRule::denied(name)
            };
            if let Some(c) = condition {
                rule.conditions.push(c);
            }
            if let Some(a) = agg {
                rule.aggregation =
                    Some(AggregationSpec::new(a).group_by(&["x", "y"]));
            }
            rule
        })
}

fn arb_module_policy() -> impl Strategy<Value = ModulePolicy> {
    (
        "[A-Za-z][A-Za-z0-9]{0,10}",
        proptest::collection::vec(arb_attribute_rule(), 1..6),
        proptest::option::of((0.1f64..3600.0, any::<bool>())),
    )
        .prop_map(|(id, attributes, stream)| {
            let mut m = ModulePolicy::new(id);
            // dedupe attribute names (validation would flag duplicates)
            for rule in attributes {
                if m.attribute(&rule.name).is_none() {
                    m.attributes.push(rule);
                }
            }
            m.stream = stream.map(|(secs, minute)| StreamSettings {
                min_query_interval_secs: Some((secs * 10.0).round() / 10.0),
                allowed_aggregation_levels: if minute {
                    vec!["minute".to_string()]
                } else {
                    vec![]
                },
            });
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn policy_xml_roundtrips(module in arb_module_policy()) {
        let policy = Policy::single(module);
        let xml = policy_to_xml(&policy);
        let parsed = parse_policy(&xml)
            .unwrap_or_else(|e| panic!("serialized policy failed to parse: {e}\n{xml}"));
        prop_assert_eq!(parsed, policy);
    }

    #[test]
    fn wal_frame_codec_roundtrips(frame in arb_frame()) {
        // the durability layer's frame codec must reproduce any frame
        // the engine can hold: schema, row count, and every value
        use paradise::core::storage::codec::{dec_frame, enc_frame, Dec, Enc};
        let mut e = Enc::new();
        enc_frame(&mut e, &frame);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let decoded = dec_frame(&mut d).expect("encoded frame decodes");
        prop_assert!(d.done(), "decoder must consume the whole encoding");
        prop_assert_eq!(&decoded.schema, &frame.schema);
        prop_assert_eq!(decoded.to_rows(), frame.to_rows());
    }

    #[test]
    fn range_containment_is_monotone(a in 0.0f64..50.0, b in 0.0f64..50.0) {
        use paradise::core::RangeQuery;
        use std::collections::HashMap;
        prop_assume!(a != b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mut schemas = HashMap::new();
        schemas.insert(
            "stream".to_string(),
            vec!["x".to_string(), "y".to_string(), "z".to_string(), "t".to_string()],
        );
        let tight = RangeQuery::from_query(
            &parse_query(&format!("SELECT x FROM stream WHERE z < {lo}")).unwrap(),
            &schemas,
        )
        .unwrap();
        let loose = RangeQuery::from_query(
            &parse_query(&format!("SELECT x FROM stream WHERE z < {hi}")).unwrap(),
            &schemas,
        )
        .unwrap();
        prop_assert!(tight.is_contained_in(&loose));
        prop_assert!(!loose.is_contained_in(&tight));
    }
}
