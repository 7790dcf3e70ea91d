//! End-to-end executor tests, including the paper's §4.2 query fragments.

mod oracle;

use paradise_engine::{Catalog, DataType, EngineError, Executor, Frame, Schema, Value};
use paradise_sql::parse_query;

fn sensor_catalog() -> Catalog {
    // ubisense-style stream: x, y, z coordinates and timestamp t
    let schema = Schema::from_pairs(&[
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("z", DataType::Float),
        ("t", DataType::Integer),
    ]);
    let rows = vec![
        // x, y, z, t
        vec![Value::Float(3.0), Value::Float(1.0), Value::Float(1.5), Value::Int(1)],
        vec![Value::Float(2.0), Value::Float(4.0), Value::Float(1.0), Value::Int(2)], // x<y
        vec![Value::Float(5.0), Value::Float(2.0), Value::Float(2.5), Value::Int(3)], // z>=2
        vec![Value::Float(4.0), Value::Float(3.0), Value::Float(0.5), Value::Int(4)],
        vec![Value::Float(6.0), Value::Float(1.0), Value::Float(1.8), Value::Int(5)],
    ];
    let mut c = Catalog::new();
    c.register("stream", Frame::new(schema, rows).unwrap()).unwrap();
    c
}

fn run(catalog: &Catalog, sql: &str) -> Frame {
    Executor::new(catalog).execute(&parse_query(sql).unwrap()).unwrap()
}

#[test]
fn sensor_fragment_select_star_with_constant_filter() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT * FROM stream WHERE z < 2");
    assert_eq!(f.len(), 4);
    assert_eq!(f.schema.names(), vec!["x", "y", "z", "t"]);
}

#[test]
fn appliance_fragment_projection_and_attr_comparison() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT x, y, z, t FROM stream WHERE x > y");
    assert_eq!(f.len(), 4); // row 2 has x<y
}

#[test]
fn media_center_fragment_group_by_having() {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Integer),
        ("y", DataType::Integer),
        ("z", DataType::Float),
        ("t", DataType::Integer),
    ]);
    // two groups: (1,1) with z sum 150, (2,2) with z sum 30
    let rows = vec![
        vec![Value::Int(1), Value::Int(1), Value::Float(70.0), Value::Int(1)],
        vec![Value::Int(1), Value::Int(1), Value::Float(80.0), Value::Int(2)],
        vec![Value::Int(2), Value::Int(2), Value::Float(30.0), Value::Int(3)],
    ];
    let mut c = Catalog::new();
    c.register("d2", Frame::new(schema, rows).unwrap()).unwrap();
    let f = run(&c, "SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y HAVING SUM(z) > 100");
    assert_eq!(f.len(), 1);
    assert_eq!(f.schema.names(), vec!["x", "y", "zAVG", "t"]);
    assert_eq!(f.value(0, 2), Value::Float(75.0));
    // lenient group-by: t comes from the group's first row
    assert_eq!(f.value(0, 3), Value::Int(1));
}

#[test]
fn full_nested_paper_query() {
    let c = sensor_catalog();
    let f = run(
        &c,
        "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
         FROM (SELECT x, y, AVG(z) AS zAVG, t FROM stream \
               WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 0)",
    );
    // rows surviving the inner query: (3,1),(4,3),(6,1) → 3 groups of 1
    assert_eq!(f.len(), 3);
}

#[test]
fn count_star_and_aliases() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT COUNT(*) AS n, MIN(t) AS lo, MAX(t) AS hi FROM stream");
    assert_eq!(f.row(0), vec![Value::Int(5), Value::Int(1), Value::Int(5)]);
}

#[test]
fn global_aggregate_over_empty_input() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT COUNT(*) AS n, AVG(z) AS a FROM stream WHERE z > 100");
    assert_eq!(f.len(), 1);
    assert_eq!(f.value(0, 0), Value::Int(0));
    assert_eq!(f.value(0, 1), Value::Null);
}

#[test]
fn group_by_on_empty_input_produces_no_groups() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT x, COUNT(*) FROM stream WHERE z > 100 GROUP BY x");
    assert!(f.is_empty());
}

#[test]
fn order_by_desc_and_limit_offset() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT t FROM stream ORDER BY t DESC LIMIT 2 OFFSET 1");
    let ts: Vec<Value> = f.column_values(0).collect();
    assert_eq!(ts, vec![Value::Int(4), Value::Int(3)]);
}

#[test]
fn order_by_alias() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT x + y AS s FROM stream ORDER BY s");
    let first = f.value(0, 0).as_f64().unwrap();
    let last = f.value(f.len() - 1, 0).as_f64().unwrap();
    assert!(first <= last);
}

#[test]
fn order_by_positional() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT t FROM stream ORDER BY 1 DESC");
    assert_eq!(f.value(0, 0), Value::Int(5));
}

#[test]
fn distinct_removes_duplicates() {
    let schema = Schema::from_pairs(&[("v", DataType::Integer)]);
    let rows = vec![vec![Value::Int(1)], vec![Value::Int(1)], vec![Value::Int(2)]];
    let mut c = Catalog::new();
    c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
    let f = run(&c, "SELECT DISTINCT v FROM d");
    assert_eq!(f.len(), 2);
}

#[test]
fn inner_join_and_qualifiers() {
    let mut c = Catalog::new();
    c.register(
        "u",
        Frame::new(
            Schema::from_pairs(&[("k", DataType::Integer), ("x", DataType::Float)]),
            vec![
                vec![Value::Int(1), Value::Float(10.0)],
                vec![Value::Int(2), Value::Float(20.0)],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(
        "s",
        Frame::new(
            Schema::from_pairs(&[("k", DataType::Integer), ("p", DataType::Float)]),
            vec![
                vec![Value::Int(2), Value::Float(0.5)],
                vec![Value::Int(3), Value::Float(0.7)],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let f = run(&c, "SELECT u.x, s.p FROM u JOIN s ON u.k = s.k");
    assert_eq!(f.len(), 1);
    assert_eq!(f.row(0), vec![Value::Float(20.0), Value::Float(0.5)]);

    let lf = run(&c, "SELECT u.k, s.p FROM u LEFT JOIN s ON u.k = s.k ORDER BY u.k");
    assert_eq!(lf.len(), 2);
    assert_eq!(lf.value(0, 1), Value::Null); // unmatched left row

    let rf = run(&c, "SELECT u.k, s.k FROM u RIGHT JOIN s ON u.k = s.k ORDER BY s.k");
    assert_eq!(rf.len(), 2);
    assert_eq!(rf.value(1, 0), Value::Null); // unmatched right row

    let ff = run(&c, "SELECT u.k, s.k FROM u FULL JOIN s ON u.k = s.k");
    assert_eq!(ff.len(), 3);

    let cf = run(&c, "SELECT u.k, s.k FROM u CROSS JOIN s");
    assert_eq!(cf.len(), 4);
}

#[test]
fn join_using_desugars() {
    let mut c = Catalog::new();
    for name in ["a", "b"] {
        c.register(
            name,
            Frame::new(
                Schema::from_pairs(&[("k", DataType::Integer)]),
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            )
            .unwrap(),
        )
        .unwrap();
    }
    let f = run(&c, "SELECT a.k FROM a JOIN b USING (k)");
    assert_eq!(f.len(), 2);
}

#[test]
fn derived_table_with_alias() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT s.z FROM (SELECT z FROM stream WHERE z < 2) AS s WHERE s.z > 1");
    assert_eq!(f.len(), 2); // z ∈ {1.5, 1.8}
}

#[test]
fn scalar_subquery_in_where() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT t FROM stream WHERE z > (SELECT AVG(z) FROM stream)");
    // avg z = 1.46; rows with z > 1.46: 1.5, 2.5, 1.8
    assert_eq!(f.len(), 3);
}

#[test]
fn exists_subquery() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT COUNT(*) FROM stream WHERE EXISTS (SELECT 1 FROM stream WHERE z > 2)");
    assert_eq!(f.value(0, 0), Value::Int(5));
}

#[test]
fn union_and_union_all() {
    let c = sensor_catalog();
    let all = run(&c, "SELECT t FROM stream UNION ALL SELECT t FROM stream");
    assert_eq!(all.len(), 10);
    let dedup = run(&c, "SELECT t FROM stream UNION SELECT t FROM stream");
    assert_eq!(dedup.len(), 5);
}

#[test]
fn union_width_mismatch_errors() {
    let c = sensor_catalog();
    let err = Executor::new(&c)
        .execute(&parse_query("SELECT t FROM stream UNION SELECT t, z FROM stream").unwrap())
        .unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)));
}

#[test]
fn select_without_from() {
    let c = Catalog::new();
    let f = run(&c, "SELECT 1 + 1 AS two, 'hi' AS greeting");
    assert_eq!(f.row(0), vec![Value::Int(2), Value::Str("hi".into())]);
}

#[test]
fn qualified_wildcard_projection() {
    let mut c = Catalog::new();
    c.register(
        "a",
        Frame::new(
            Schema::from_pairs(&[("x", DataType::Integer)]),
            vec![vec![Value::Int(1)]],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(
        "b",
        Frame::new(
            Schema::from_pairs(&[("y", DataType::Integer)]),
            vec![vec![Value::Int(2)]],
        )
        .unwrap(),
    )
    .unwrap();
    let f = run(&c, "SELECT b.* FROM a CROSS JOIN b");
    assert_eq!(f.schema.names(), vec!["y"]);
    assert_eq!(f.row(0), vec![Value::Int(2)]);
}

#[test]
fn wildcard_with_group_by_is_unsupported() {
    let c = sensor_catalog();
    let err = Executor::new(&c)
        .execute(&parse_query("SELECT * FROM stream GROUP BY x").unwrap())
        .unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)));
}

#[test]
fn unknown_table_errors() {
    let c = Catalog::new();
    let err =
        Executor::new(&c).execute(&parse_query("SELECT * FROM nope").unwrap()).unwrap_err();
    assert!(matches!(err, EngineError::UnknownTable(name) if name == "nope"));
}

#[test]
fn aggregate_inside_expression() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT SUM(z) / COUNT(*) AS manual_avg, AVG(z) AS real_avg FROM stream");
    let manual = f.value(0, 0).as_f64().unwrap();
    let real = f.value(0, 1).as_f64().unwrap();
    assert!((manual - real).abs() < 1e-9);
}

#[test]
fn having_without_group_by() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT COUNT(*) AS n FROM stream HAVING COUNT(*) > 3");
    assert_eq!(f.len(), 1);
    let f2 = run(&c, "SELECT COUNT(*) AS n FROM stream HAVING COUNT(*) > 10");
    assert_eq!(f2.len(), 0);
}

#[test]
fn group_key_mixes_int_and_float() {
    let schema = Schema::from_pairs(&[("v", DataType::Float)]);
    let rows = vec![vec![Value::Int(2)], vec![Value::Float(2.0)], vec![Value::Float(3.0)]];
    let mut c = Catalog::new();
    c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
    let f = run(&c, "SELECT v, COUNT(*) AS n FROM d GROUP BY v ORDER BY v");
    assert_eq!(f.len(), 2);
    assert_eq!(f.value(0, 1), Value::Int(2));
}

#[test]
fn output_types_are_inferred() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT t, z, x > y AS gt, 'label' AS lab FROM stream");
    let types: Vec<DataType> =
        f.schema.columns().iter().map(|col| col.data_type).collect();
    assert_eq!(
        types,
        vec![DataType::Integer, DataType::Float, DataType::Boolean, DataType::Text]
    );
}

#[test]
fn where_clause_with_case() {
    let c = sensor_catalog();
    let f = run(
        &c,
        "SELECT t, CASE WHEN z < 1 THEN 'low' WHEN z < 2 THEN 'mid' ELSE 'high' END AS lvl \
         FROM stream ORDER BY t",
    );
    assert_eq!(f.value(0, 1), Value::Str("mid".into()));
    assert_eq!(f.value(2, 1), Value::Str("high".into()));
    assert_eq!(f.value(3, 1), Value::Str("low".into()));
}

#[test]
fn deep_nesting_executes() {
    let c = sensor_catalog();
    let f = run(
        &c,
        "SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM stream WHERE z < 2) \
         WHERE x > y) WHERE t > 1) WHERE x > 3",
    );
    assert_eq!(f.len(), 2); // t=4 (4>3) and t=5 (6>1)
}

#[test]
fn order_by_aggregate_in_grouped_query() {
    let schema = Schema::from_pairs(&[("g", DataType::Text), ("v", DataType::Integer)]);
    let rows = vec![
        vec![Value::Str("a".into()), Value::Int(1)],
        vec![Value::Str("b".into()), Value::Int(5)],
        vec![Value::Str("b".into()), Value::Int(5)],
        vec![Value::Str("a".into()), Value::Int(1)],
        vec![Value::Str("a".into()), Value::Int(1)],
    ];
    let mut c = Catalog::new();
    c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
    let f = run(&c, "SELECT g, SUM(v) AS total FROM d GROUP BY g ORDER BY SUM(v) DESC");
    assert_eq!(f.value(0, 0), Value::Str("b".into())); // 10 > 3
    assert_eq!(f.value(0, 1), Value::Int(10));
    assert_eq!(f.value(1, 1), Value::Int(3));
}

#[test]
fn having_with_arithmetic_over_aggregates() {
    let c = sensor_catalog();
    let f = run(
        &c,
        "SELECT COUNT(*) AS n FROM stream HAVING SUM(z) / COUNT(*) > 1",
    );
    // avg z = 1.46 > 1 → the single global group passes
    assert_eq!(f.len(), 1);
}

#[test]
fn union_of_aggregates() {
    let c = sensor_catalog();
    let f = run(
        &c,
        "SELECT MIN(z) FROM stream UNION ALL SELECT MAX(z) FROM stream",
    );
    assert_eq!(f.len(), 2);
    assert_eq!(f.value(0, 0), Value::Float(0.5));
    assert_eq!(f.value(1, 0), Value::Float(2.5));
}

#[test]
fn distinct_aggregate_in_group() {
    let schema = Schema::from_pairs(&[("g", DataType::Integer), ("v", DataType::Integer)]);
    let rows = vec![
        vec![Value::Int(1), Value::Int(7)],
        vec![Value::Int(1), Value::Int(7)],
        vec![Value::Int(1), Value::Int(8)],
    ];
    let mut c = Catalog::new();
    c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
    let f = run(&c, "SELECT COUNT(DISTINCT v) AS dv, COUNT(v) AS av FROM d GROUP BY g");
    assert_eq!(f.row(0), vec![Value::Int(2), Value::Int(3)]);
}

#[test]
fn case_over_aggregates() {
    let c = sensor_catalog();
    let f = run(
        &c,
        "SELECT CASE WHEN AVG(z) > 1 THEN 'high' ELSE 'low' END AS lvl FROM stream",
    );
    assert_eq!(f.value(0, 0), Value::Str("high".into()));
}

#[test]
fn nested_aggregation_blocks() {
    // aggregate of an aggregate via nesting (the legal SQL way)
    let c = sensor_catalog();
    let f = run(
        &c,
        "SELECT MAX(za) FROM (SELECT x, AVG(z) AS za FROM stream GROUP BY x)",
    );
    assert_eq!(f.len(), 1);
    assert!(f.value(0, 0).as_f64().unwrap() > 0.0);
}

#[test]
fn where_on_window_output_requires_nesting() {
    // window calls are select-stage only; filtering needs a derived table
    let c = sensor_catalog();
    let f = run(
        &c,
        "SELECT rs FROM (SELECT SUM(z) OVER (ORDER BY t) AS rs FROM stream) WHERE rs > 3",
    );
    assert!(!f.is_empty());
    assert!(f.column_values(0).all(|v| v.as_f64().unwrap() > 3.0));
}

#[test]
fn offset_beyond_rows_is_empty() {
    let c = sensor_catalog();
    let f = run(&c, "SELECT t FROM stream OFFSET 100");
    assert!(f.is_empty());
}

#[test]
fn like_and_concat_in_queries() {
    let schema = Schema::from_pairs(&[("name", DataType::Text)]);
    let rows = vec![
        vec![Value::Str("walker".into())],
        vec![Value::Str("runner".into())],
    ];
    let mut c = Catalog::new();
    c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
    let f = run(&c, "SELECT name || '!' AS shout FROM d WHERE name LIKE 'w%'");
    assert_eq!(f.to_rows(), vec![vec![Value::Str("walker!".into())]]);
}

#[test]
fn hash_equi_join_matches_nested_loop() {
    // same join expressed as a plain equality (hash path) and as a
    // double inequality (nested loop): identical results, same order
    let schema_a = Schema::from_pairs(&[("t", DataType::Integer), ("x", DataType::Float)]);
    let schema_b = Schema::from_pairs(&[("t", DataType::Integer), ("y", DataType::Float)]);
    let rows_a: Vec<Vec<Value>> = (0..40)
        .map(|i| vec![Value::Int(i % 7), Value::Float(i as f64)])
        .collect();
    let mut rows_b: Vec<Vec<Value>> = (0..30)
        .map(|i| vec![Value::Int(i % 5), Value::Float(-(i as f64))])
        .collect();
    rows_b.push(vec![Value::Null, Value::Float(99.0)]); // NULL keys never match
    let mut c = Catalog::new();
    c.register("a", Frame::new(schema_a, rows_a).unwrap()).unwrap();
    c.register("b", Frame::new(schema_b, rows_b).unwrap()).unwrap();

    for kind in ["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"] {
        let hash = run(&c, &format!("SELECT a.x, b.y FROM a {kind} b ON a.t = b.t"));
        let nested = run(
            &c,
            &format!("SELECT a.x, b.y FROM a {kind} b ON a.t <= b.t AND a.t >= b.t"),
        );
        assert_eq!(hash.to_rows(), nested.to_rows(), "{kind} diverges");
        // swapped orientation hits the hash path too
        let swapped = run(&c, &format!("SELECT a.x, b.y FROM a {kind} b ON b.t = a.t"));
        assert_eq!(hash.to_rows(), swapped.to_rows(), "{kind} swapped diverges");
    }
}

#[test]
fn int_float_join_keys_fall_back_to_sql_eq_semantics() {
    // group-key folding and f64 comparison disagree beyond 2^53, so
    // Int×Float key pairs must not take the hash path
    let schema_l = Schema::from_pairs(&[("a", DataType::Integer)]);
    let schema_r = Schema::from_pairs(&[("b", DataType::Float)]);
    let big = 9_007_199_254_740_993i64; // 2^53 + 1
    let mut c = Catalog::new();
    c.register("l", Frame::new(schema_l, vec![vec![Value::Int(big)]]).unwrap()).unwrap();
    c.register(
        "r",
        Frame::new(schema_r, vec![vec![Value::Float(9_007_199_254_740_992.0)]]).unwrap(),
    )
    .unwrap();
    let eq = run(&c, "SELECT l.a FROM l JOIN r ON l.a = r.b");
    let nested = run(&c, "SELECT l.a FROM l JOIN r ON l.a <= r.b AND l.a >= r.b");
    assert_eq!(eq.to_rows(), nested.to_rows());
    assert_eq!(eq.len(), 1, "sql_eq compares as f64: 2^53+1 == 2^53 there");
}

#[test]
fn predicates_are_not_evaluated_over_empty_relations() {
    // data-dependent errors stay lazy: nothing evaluates a predicate or
    // a scalar call when there are no rows, in the engine as in the
    // row-at-a-time oracle
    let empty = Frame::empty(Schema::from_pairs(&[("x", DataType::Integer)]));
    let mut c = Catalog::new();
    c.register("d", empty).unwrap();
    for sql in ["SELECT x FROM d WHERE 'abc'", "SELECT ABS('nope') FROM d"] {
        let f = run(&c, sql);
        assert!(f.is_empty(), "{sql} must yield an empty result, not an error");
        assert_eq!(f, oracle::run(&c, &parse_query(sql).unwrap()).unwrap(), "{sql}");
    }
}

/// A catalog holding `d(x INTEGER)` with the given rows.
fn d_catalog(rows: Vec<Vec<Value>>) -> Catalog {
    let schema = Schema::from_pairs(&[("x", DataType::Integer)]);
    let mut c = Catalog::new();
    c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
    c
}

#[test]
fn static_errors_surface_at_compile() {
    // an error that is a property of (query, schema) comes from
    // `compile`, with the same text over empty and non-empty inputs
    let cases: &[(&str, &str)] = &[
        ("SELECT * FROM nope", "unknown table or stream \"nope\""),
        ("SELECT y FROM d", "unknown column \"y\""),
        ("SELECT x FROM d WHERE y > 1", "unknown column \"y\""),
        ("SELECT nope(x) OVER () FROM d", "unknown function \"nope OVER\""),
        ("SELECT x, SUM(x, x) FROM d GROUP BY x", "SUM expects 1 argument(s), got 2"),
        ("SELECT nope(x) FROM d", "unknown function \"NOPE\""),
        ("SELECT ABS(x, x) FROM d", "ABS expects 1 argument(s), got 2"),
        (
            "SELECT x FROM d UNION SELECT x, x FROM d",
            "unsupported: UNION branches have different widths (1 vs 2)",
        ),
        ("SELECT * FROM d GROUP BY x", "unsupported: SELECT * with GROUP BY/aggregates"),
    ];
    for rows in [Vec::new(), vec![vec![Value::Int(1)], vec![Value::Int(2)]]] {
        let populated = !rows.is_empty();
        let c = d_catalog(rows);
        let exec = Executor::new(&c);
        for (sql, message) in cases {
            let query = parse_query(sql).unwrap();
            let err = exec.compile(&query).expect_err(sql);
            assert_eq!(err.to_string(), *message, "{sql} (populated: {populated})");
            assert_eq!(exec.execute(&query).unwrap_err(), err, "{sql}");
            if populated {
                // with rows to trip over, the lazy oracle finds the same error
                assert_eq!(oracle::run(&c, &query).unwrap_err(), err, "{sql}");
            }
        }
    }
}

#[test]
fn subqueries_and_join_predicates_bind_at_compile() {
    // a subquery or an ON predicate is bound with the query: its static
    // error is the compile error over an empty stream as over a
    // populated one, not a run-time error once there are rows
    let unknown_column = |c: &str| EngineError::UnknownColumn(c.into());
    let cases = [
        ("SELECT t FROM stream WHERE z > (SELECT nope FROM stream)", unknown_column("nope")),
        (
            "SELECT t FROM stream WHERE EXISTS (SELECT 1 FROM missing)",
            EngineError::UnknownTable("missing".into()),
        ),
        ("SELECT a.t FROM stream a JOIN stream b ON a.nope = b.t", unknown_column("a.nope")),
        (
            "SELECT a.t FROM stream a JOIN stream b ON a.t < b.t AND b.nope > 1",
            unknown_column("b.nope"),
        ),
        (
            "SELECT t FROM stream WHERE z > (SELECT x, y FROM stream)",
            EngineError::Unsupported("scalar subquery must return exactly one column".into()),
        ),
    ];
    let populated = sensor_catalog();
    let mut empty = Catalog::new();
    let schema = populated.get("stream").unwrap().schema.clone();
    empty.register("stream", Frame::empty(schema)).unwrap();
    for (sql, expected) in cases {
        let query = parse_query(sql).unwrap();
        for c in [&empty, &populated] {
            assert_eq!(Executor::new(c).compile(&query).unwrap_err(), expected, "{sql}");
        }
        // with rows to trip over, the lazy oracle finds the same error
        assert_eq!(oracle::run(&populated, &query).unwrap_err(), expected, "{sql}");
    }
}

#[test]
fn correlated_subquery_is_a_compile_error() {
    // subqueries bind against the catalog alone: an outer column is
    // unknown inside them, over an empty stream as over a populated one
    let sql = "SELECT t FROM stream a WHERE z > (SELECT MIN(z) FROM stream b WHERE b.t < a.t)";
    let query = parse_query(sql).unwrap();
    let populated = sensor_catalog();
    let mut empty = Catalog::new();
    empty.register("stream", Frame::empty(populated.get("stream").unwrap().schema.clone())).unwrap();
    for c in [&empty, &populated] {
        let err = Executor::new(c).compile(&query).unwrap_err();
        assert_eq!(err, EngineError::UnknownColumn("a.t".into()));
    }
}

#[test]
fn scalar_subquery_cardinality_is_a_run_time_error() {
    // how many rows a scalar subquery returns depends on the data: the
    // plan compiles either way, runs to 0 rows over an empty stream and
    // fails like the oracle once the subquery yields several rows
    let sql = "SELECT t FROM stream WHERE z > (SELECT z FROM stream)";
    let query = parse_query(sql).unwrap();
    let populated = sensor_catalog();
    let mut empty = Catalog::new();
    empty.register("stream", Frame::empty(populated.get("stream").unwrap().schema.clone())).unwrap();
    let exec = Executor::new(&empty);
    assert_eq!(exec.run_plan(&exec.compile(&query).unwrap()).unwrap().len(), 0);
    let exec = Executor::new(&populated);
    let err = exec.run_plan(&exec.compile(&query).unwrap()).unwrap_err();
    assert_eq!(err, EngineError::Unsupported("scalar subquery returned more than one row".into()));
    assert_eq!(oracle::run(&populated, &query).unwrap_err(), err);
}

#[test]
fn nested_loop_join_spans_blocks() {
    // the nested loop evaluates `ON` over a block of row pairs at a
    // time: left rows spread over several blocks (70 × 100) and a right
    // side longer than one block (3 × 4100) must still give the hash
    // join's rows in its order, NULL left keys included
    let keys = |n: i64, m: i64| -> Frame {
        let rows = (0..n)
            .map(|i| vec![if i % 11 == 10 { Value::Null } else { Value::Int(i % m) }, Value::Int(i)])
            .collect();
        Frame::new(Schema::from_pairs(&[("k", DataType::Integer), ("i", DataType::Integer)]), rows)
            .unwrap()
    };
    for (left, right) in [(70, 100), (3, 4100)] {
        let mut c = Catalog::new();
        c.register("l", keys(left, 9)).unwrap();
        c.register("r", keys(right, 13)).unwrap();
        for kind in ["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"] {
            let select = format!("SELECT l.i, r.i FROM l {kind} r ON");
            let hash = run(&c, &format!("{select} l.k = r.k"));
            let nested = run(&c, &format!("{select} l.k <= r.k AND l.k >= r.k"));
            assert!(!hash.is_empty(), "{kind} over {left}×{right}");
            assert_eq!(nested.to_rows(), hash.to_rows(), "{kind} over {left}×{right}");
        }
    }
}

/// Shapes the deleted in-library reference comparisons covered: every
/// operator of the planner, compiled once, run twice, against the oracle.
#[test]
fn compiled_plans_match_the_oracle() {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("z", DataType::Float),
        ("t", DataType::Integer),
    ]);
    let rows = (0..200)
        .map(|i| {
            vec![
                Value::Float((i % 9) as f64),
                Value::Float((i % 4) as f64),
                Value::Float((i % 3) as f64 * 0.9),
                Value::Int(i),
            ]
        })
        .collect();
    let mut c = Catalog::new();
    c.register("stream", Frame::new(schema, rows).unwrap()).unwrap();
    let exec = Executor::new(&c);
    for sql in [
        "SELECT * FROM stream",
        "SELECT x, t FROM stream WHERE z < 2",
        "SELECT x, AVG(z) AS za FROM stream GROUP BY x HAVING SUM(z) > 1 ORDER BY za DESC",
        "SELECT SUM(z) OVER (PARTITION BY x ORDER BY t) FROM stream",
        "SELECT x, ROW_NUMBER() OVER (PARTITION BY x ORDER BY z DESC) AS rn, RANK() OVER (ORDER BY y) FROM stream",
        "SELECT DISTINCT x FROM stream ORDER BY x LIMIT 3",
        "SELECT a.x FROM stream a JOIN stream b ON a.t = b.t WHERE a.z < 1",
        "SELECT a.t, b.t FROM stream a FULL JOIN stream b ON a.t = b.t + 195 ORDER BY 1, 2",
        "SELECT za FROM (SELECT x, AVG(z) AS za FROM stream GROUP BY x)",
        "SELECT COUNT(*) FROM stream",
        "SELECT regr_intercept(y, x) AS ri FROM stream",
        "SELECT x FROM stream ORDER BY t DESC LIMIT 5 OFFSET 2",
        "SELECT x FROM stream UNION SELECT y FROM stream",
        "SELECT x, t FROM stream WHERE t < 3 UNION ALL SELECT y, t FROM stream WHERE t < 2 UNION SELECT 1, 1",
        "SELECT s.* FROM (SELECT x, y FROM stream UNION SELECT y, x FROM stream) AS s ORDER BY 1, 2",
        "SELECT t FROM stream WHERE z > (SELECT AVG(z) FROM stream) AND EXISTS (SELECT 1 FROM stream)",
        // both inputs name their columns x, y, z, t: the grouped stage
        // still prunes its representative columns
        "SELECT a.x, SUM(b.t) FROM stream a JOIN stream b ON a.x = b.x GROUP BY a.x",
    ] {
        let query = parse_query(sql).unwrap();
        let plan = exec.compile(&query).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let once = exec.run_plan(&plan).unwrap();
        assert_eq!(once, exec.run_plan(&plan).unwrap(), "re-running the plan diverged: {sql}");
        let reference = oracle::run(&c, &query).unwrap();
        assert_eq!(once.schema, reference.schema, "schema diverges for {sql}");
        assert_eq!(once.to_rows(), reference.to_rows(), "rows diverge for {sql}");
    }
}

/// Windows over a text partition key, with ties in the sort key: every
/// ranking function and the running / whole-partition aggregate forms.
#[test]
fn window_queries_match_the_oracle() {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Text),
        ("t", DataType::Integer),
        ("v", DataType::Integer),
    ]);
    let rows = (0..30)
        .map(|i| {
            let g = if i % 7 == 0 { Value::Null } else { Value::Str(format!("g{}", i % 3)) };
            vec![g, Value::Int(i / 4), Value::Int(i * 13 % 10)]
        })
        .collect();
    let mut c = Catalog::new();
    c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
    for sql in [
        "SELECT g, t, SUM(v) OVER (PARTITION BY g ORDER BY t) AS rs FROM d",
        "SELECT g, SUM(v) OVER (PARTITION BY g) AS total, COUNT(*) OVER () AS n FROM d",
        "SELECT g, v, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) AS rn FROM d ORDER BY g, rn",
        "SELECT t, RANK() OVER (ORDER BY t) AS r, DENSE_RANK() OVER (ORDER BY t) AS dr FROM d",
        "SELECT ROW_NUMBER() OVER () AS rn, RANK() OVER (PARTITION BY g) AS r FROM d",
        "SELECT COUNT(DISTINCT v) OVER (PARTITION BY g ORDER BY t DESC, v) AS dv FROM d",
        "SELECT g FROM d ORDER BY AVG(v) OVER (PARTITION BY g), t, v LIMIT 11",
        "SELECT MAX(v) OVER (PARTITION BY t) - v AS gap FROM d WHERE g IS NOT NULL",
    ] {
        let query = parse_query(sql).unwrap();
        assert_eq!(run(&c, sql), oracle::run(&c, &query).unwrap(), "{sql}");
    }
}
