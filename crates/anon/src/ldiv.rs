//! l-diversity (Machanavajjhala et al.) — one of the "similar concepts"
//! the paper groups with k-anonymity (§3.2). k-anonymity alone leaves a
//! class vulnerable when all its sensitive values coincide; l-diversity
//! additionally requires every equivalence class to contain at least `l`
//! "well-represented" sensitive values.
//!
//! Provided here: the distinct-l check, plus an enforcing anonymizer
//! that runs Mondrian's split with an l-diversity acceptance condition.
//! Both count distinct sensitive values by the sensitive column's group
//! ids ([`paradise_engine::ColumnData::dense_ids`]), numbered once.

use paradise_engine::Frame;

use crate::error::{AnonError, AnonResult};
use crate::kanon::partition_and_recode;
use crate::qid::classes;

/// Distinct l-diversity of an anonymized table: the minimum, over all
/// equivalence classes (by QID columns), of the number of distinct
/// sensitive values. `None` for an empty table.
pub fn distinct_l(
    frame: &Frame,
    qid_columns: &[usize],
    sensitive: usize,
) -> AnonResult<Option<usize>> {
    let classes = classes(frame, qid_columns)?;
    if sensitive >= frame.schema.len() {
        return Err(AnonError::BadColumn(sensitive));
    }
    // a (class, sensitive value) pair's first row adds one distinct
    // value to its class: pair ids are numbered by first appearance
    let pairs = classes.joint(&frame.column(sensitive).dense_ids());
    let mut distinct = vec![0; classes.groups()];
    let mut next = 0;
    for (&pair, &class) in pairs.ids().iter().zip(classes.ids()) {
        if pair == next {
            distinct[class as usize] += 1;
            next += 1;
        }
    }
    Ok(distinct.into_iter().min())
}

/// Mondrian-style anonymization that guarantees **both** k-anonymity and
/// distinct l-diversity: a median split is taken only when both halves
/// keep ≥ k rows *and* ≥ l distinct sensitive values.
pub fn mondrian_l_diverse(
    frame: &Frame,
    qid_columns: &[usize],
    sensitive: usize,
    k: usize,
    l: usize,
) -> AnonResult<Frame> {
    if k == 0 || l == 0 {
        return Err(AnonError::BadParameter("k and l must be ≥ 1".into()));
    }
    for &c in qid_columns.iter().chain(std::iter::once(&sensitive)) {
        if c >= frame.schema.len() {
            return Err(AnonError::BadColumn(c));
        }
    }
    let values = frame.column(sensitive).dense_ids();
    if frame.len() < k || values.groups() < l {
        return Err(AnonError::Infeasible(format!(
            "table cannot satisfy k={k}, l={l}: {} rows, {} distinct sensitive values",
            frame.len(),
            values.groups()
        )));
    }
    // `seen[id] == epoch`: value `id` was met in the half being counted
    let mut seen = vec![0u32; values.groups()];
    let mut epoch = 0;
    partition_and_recode(frame, qid_columns, k, &mut |half| {
        epoch += 1;
        let mut distinct = 0;
        half.iter().any(|&ri| {
            let id = values.ids()[ri as usize] as usize;
            if seen[id] != epoch {
                seen[id] = epoch;
                distinct += 1;
            }
            distinct >= l
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::achieved_k;
    use paradise_engine::{DataType, Schema, Value};

    fn medical() -> Frame {
        let schema = Schema::from_pairs(&[
            ("age", DataType::Integer),
            ("zip", DataType::Integer),
            ("condition", DataType::Text),
        ]);
        let conditions = ["flu", "cold", "ok", "flu", "ok", "cold", "flu", "ok"];
        let rows = (0..8)
            .map(|i| {
                vec![
                    Value::Int(20 + i * 5),
                    Value::Int(18000 + i % 4),
                    Value::Str(conditions[i as usize].to_string()),
                ]
            })
            .collect();
        Frame::new(schema, rows).unwrap()
    }

    #[test]
    fn distinct_l_measures_worst_class() {
        // one class, three conditions → l = 3
        let uniform = {
            let mut f = medical();
            for i in 0..f.len() {
                f.set_value(i, 0, Value::Int(30));
                f.set_value(i, 1, Value::Int(18000));
            }
            f
        };
        assert_eq!(distinct_l(&uniform, &[0, 1], 2).unwrap(), Some(3));
        // fully distinct QIDs → classes of 1 → l = 1
        assert_eq!(distinct_l(&medical(), &[0], 2).unwrap(), Some(1));
    }

    #[test]
    fn mondrian_l_diverse_guarantees_both() {
        let f = medical();
        let result = mondrian_l_diverse(&f, &[0, 1], 2, 2, 2).unwrap();
        let k = achieved_k(&result, &[0, 1]).unwrap().unwrap();
        let l = distinct_l(&result, &[0, 1], 2).unwrap().unwrap();
        assert!(k >= 2, "k = {k}");
        assert!(l >= 2, "l = {l}");
        // sensitive column untouched
        for (a, b) in f.column_values(2).zip(result.column_values(2)) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn infeasible_l_errors() {
        let f = medical(); // only 3 distinct conditions
        assert!(matches!(
            mondrian_l_diverse(&f, &[0, 1], 2, 2, 4),
            Err(AnonError::Infeasible(_))
        ));
    }

    #[test]
    fn nan_in_the_split_column_is_a_typed_error() {
        let schema = Schema::from_pairs(&[("q", DataType::Float), ("s", DataType::Integer)]);
        let rows = (0..20)
            .map(|i| {
                let q = if i == 5 { f64::NAN } else { i as f64 };
                vec![Value::Float(q), Value::Int(i % 4)]
            })
            .collect();
        let frame = Frame::new(schema, rows).unwrap();
        let err = mondrian_l_diverse(&frame, &[0], 1, 3, 2).unwrap_err();
        assert_eq!(err, AnonError::NotANumber { column: 0 });
    }

    #[test]
    fn parameter_validation() {
        let f = medical();
        assert!(matches!(
            mondrian_l_diverse(&f, &[0], 2, 0, 1),
            Err(AnonError::BadParameter(_))
        ));
        assert!(matches!(distinct_l(&f, &[9], 2), Err(AnonError::BadColumn(9))));
    }

    #[test]
    fn empty_table_yields_none() {
        let f = Frame::empty(
            Schema::from_pairs(&[("a", DataType::Integer), ("s", DataType::Text)]),
        );
        assert_eq!(distinct_l(&f, &[0], 1).unwrap(), None);
    }

    #[test]
    fn l_diverse_split_is_coarser_than_plain_mondrian() {
        // with a skewed sensitive distribution the l-diversity condition
        // blocks splits that plain Mondrian would take
        let schema = Schema::from_pairs(&[
            ("v", DataType::Integer),
            ("s", DataType::Text),
        ]);
        let rows: Vec<Vec<Value>> = (0..16)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(if i < 8 { "a".to_string() } else { "b".to_string() }),
                ]
            })
            .collect();
        let f = Frame::new(schema, rows).unwrap();
        let plain = crate::kanon::mondrian(&f, &[0], 2).unwrap();
        let diverse = mondrian_l_diverse(&f, &[0], 1, 2, 2).unwrap();
        // plain mondrian may create classes where s is constant;
        // the diverse variant must not
        let l_plain = distinct_l(&plain, &[0], 1).unwrap().unwrap();
        let l_diverse = distinct_l(&diverse, &[0], 1).unwrap().unwrap();
        assert_eq!(l_plain, 1);
        assert!(l_diverse >= 2);
    }
}
