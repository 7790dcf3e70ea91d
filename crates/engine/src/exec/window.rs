//! Window function evaluation.
//!
//! Semantics follow the SQL default frame:
//! * `OVER (PARTITION BY p ORDER BY s)` — running aggregate from the
//!   partition start to the current row **including peers** (rows with an
//!   equal sort key), i.e. `RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT
//!   ROW`;
//! * `OVER (PARTITION BY p)` / `OVER ()` — the whole partition for every
//!   row.
//!
//! Besides the aggregate kinds, `ROW_NUMBER()` and `RANK()` are supported.
//!
//! This module holds the AST side — finding window calls and replacing
//! them by references to their synthetic `__winN` columns; the planner
//! compiles each call to a window plan and computes its column (see
//! `crate::plan`).

use paradise_sql::ast::{ColumnRef, Expr, FunctionCall};
use paradise_sql::visit::transform_expr;

/// Collect window function calls (structurally deduplicated).
pub fn collect_window_calls(expr: &Expr, out: &mut Vec<FunctionCall>) {
    match expr {
        Expr::Function(f) if f.over.is_some() && !out.contains(f) => {
            out.push(f.clone());
        }
        Expr::Function(f) if f.over.is_some() => {}
        Expr::Function(f) => {
            for a in &f.args {
                collect_window_calls(a, out);
            }
        }
        Expr::Unary { expr, .. } => collect_window_calls(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_window_calls(left, out);
            collect_window_calls(right, out);
        }
        Expr::Case { operand, branches, else_result } => {
            if let Some(op) = operand {
                collect_window_calls(op, out);
            }
            for b in branches {
                collect_window_calls(&b.when, out);
                collect_window_calls(&b.then, out);
            }
            if let Some(e) = else_result {
                collect_window_calls(e, out);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            collect_window_calls(expr, out);
            collect_window_calls(low, out);
            collect_window_calls(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_window_calls(expr, out);
            for e in list {
                collect_window_calls(e, out);
            }
        }
        Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => collect_window_calls(expr, out),
        _ => {}
    }
}

/// Replace window calls with their synthetic column references.
pub fn replace_window_calls(expr: Expr, map: &[(FunctionCall, String)]) -> Expr {
    transform_expr(expr, &mut |e| match &e {
        Expr::Function(f) if f.over.is_some() => map
            .iter()
            .find(|(c, _)| c == f)
            .map(|(_, name)| Expr::Column(ColumnRef::bare(name.clone()))),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use crate::catalog::Catalog;
    use crate::error::EngineError;
    use crate::exec::Executor;
    use crate::frame::Frame;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};
    use paradise_sql::parse_query;

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("g", DataType::Text),
            ("t", DataType::Integer),
            ("v", DataType::Integer),
        ]);
        let rows = vec![
            vec![Value::Str("a".into()), Value::Int(1), Value::Int(10)],
            vec![Value::Str("a".into()), Value::Int(2), Value::Int(20)],
            vec![Value::Str("b".into()), Value::Int(1), Value::Int(5)],
            vec![Value::Str("a".into()), Value::Int(3), Value::Int(30)],
            vec![Value::Str("b".into()), Value::Int(2), Value::Int(7)],
        ];
        let mut c = Catalog::new();
        c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
        c
    }

    fn run(sql: &str) -> Frame {
        let c = catalog();
        let e = Executor::new(&c);
        e.execute(&parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn running_sum_per_partition() {
        let f = run("SELECT g, t, SUM(v) OVER (PARTITION BY g ORDER BY t) AS rs FROM d");
        // input order preserved
        let rs: Vec<Value> = f.column_values(2).collect();
        assert_eq!(
            rs,
            vec![Value::Int(10), Value::Int(30), Value::Int(5), Value::Int(60), Value::Int(12)]
        );
    }

    #[test]
    fn whole_partition_without_order() {
        let f = run("SELECT g, SUM(v) OVER (PARTITION BY g) AS total FROM d");
        let totals: Vec<Value> = f.column_values(1).collect();
        assert_eq!(
            totals,
            vec![Value::Int(60), Value::Int(60), Value::Int(12), Value::Int(60), Value::Int(12)]
        );
    }

    #[test]
    fn global_window() {
        let f = run("SELECT COUNT(*) OVER () AS n FROM d");
        assert!(f.column_values(0).all(|v| v == Value::Int(5)));
    }

    #[test]
    fn peers_share_running_value() {
        let c = {
            let schema = Schema::from_pairs(&[("k", DataType::Integer), ("v", DataType::Integer)]);
            let rows = vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(2), Value::Int(30)],
            ];
            let mut c = Catalog::new();
            c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
            c
        };
        let e = Executor::new(&c);
        let f = e
            .execute(&parse_query("SELECT SUM(v) OVER (ORDER BY k) AS rs FROM d").unwrap())
            .unwrap();
        let rs: Vec<Value> = f.column_values(0).collect();
        // k=1 rows are peers: both see 30; k=2 sees 60
        assert_eq!(rs, vec![Value::Int(30), Value::Int(30), Value::Int(60)]);
    }

    #[test]
    fn row_number_and_rank() {
        let f = run(
            "SELECT g, v, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) AS rn FROM d \
             ORDER BY g, rn",
        );
        let first = f.row(0);
        assert_eq!(first[0], Value::Str("a".into()));
        assert_eq!(first[1], Value::Int(30));
        assert_eq!(first[2], Value::Int(1));
    }

    #[test]
    fn rank_with_ties() {
        let c = {
            let schema = Schema::from_pairs(&[("v", DataType::Integer)]);
            let rows = vec![
                vec![Value::Int(10)],
                vec![Value::Int(10)],
                vec![Value::Int(20)],
            ];
            let mut c = Catalog::new();
            c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
            c
        };
        let e = Executor::new(&c);
        let f = e
            .execute(&parse_query("SELECT RANK() OVER (ORDER BY v) AS r FROM d").unwrap())
            .unwrap();
        let rs: Vec<Value> = f.column_values(0).collect();
        assert_eq!(rs, vec![Value::Int(1), Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn regr_intercept_window_like_the_paper() {
        // regression y over x, running per partition
        let c = {
            let schema = Schema::from_pairs(&[
                ("x", DataType::Float),
                ("y", DataType::Float),
                ("p", DataType::Integer),
                ("t", DataType::Integer),
            ]);
            // y = 3x + 2 exactly
            let rows = (1..=4)
                .map(|i| {
                    vec![
                        Value::Float(i as f64),
                        Value::Float(3.0 * i as f64 + 2.0),
                        Value::Int(1),
                        Value::Int(i),
                    ]
                })
                .collect();
            let mut c = Catalog::new();
            c.register("d3", Frame::new(schema, rows).unwrap()).unwrap();
            c
        };
        let e = Executor::new(&c);
        let f = e
            .execute(
                &parse_query(
                    "SELECT regr_intercept(y, x) OVER (PARTITION BY p ORDER BY t) AS i FROM d3",
                )
                .unwrap(),
            )
            .unwrap();
        // first row: single point → NULL (sxx = 0); afterwards intercept = 2
        assert_eq!(f.value(0, 0), Value::Null);
        let Value::Float(i2) = f.value(1, 0) else { panic!() };
        assert!((i2 - 2.0).abs() < 1e-9);
        let Value::Float(i4) = f.value(3, 0) else { panic!() };
        assert!((i4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_window_function_errors() {
        let c = catalog();
        let e = Executor::new(&c);
        let err = e
            .execute(&parse_query("SELECT nope(v) OVER () FROM d").unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownFunction(_)));
    }
}
