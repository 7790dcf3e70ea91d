//! k-anonymity \[Sam01\]: tuple-wise anonymization by Mondrian
//! multidimensional median partitioning (LeFevre et al.): recursively
//! split on the QID with the widest range while both halves stay
//! acceptable, then recode each partition's QID values to their
//! range/set. [`mondrian`] accepts a half of ≥ k rows; the l-diverse
//! variant ([`crate::ldiv::mondrian_l_diverse`]) runs the same split
//! and also asks for ≥ l distinct sensitive values.

use paradise_engine::{ColumnData, Frame, Value};

use crate::error::{AnonError, AnonResult};

/// The recoding of a categorical QID with more than five distinct values.
const SUPPRESSED: &str = "*";

/// Mondrian multidimensional k-anonymity over numeric QIDs.
///
/// Categorical QID values are handled by suppression-to-set recoding:
/// a partition's categorical column is recoded to the sorted set of its
/// distinct values (or `*` if more than 5 distinct values remain).
pub fn mondrian(frame: &Frame, qid_columns: &[usize], k: usize) -> AnonResult<Frame> {
    if k == 0 {
        return Err(AnonError::BadParameter("k must be ≥ 1".into()));
    }
    for &c in qid_columns {
        if c >= frame.schema.len() {
            return Err(AnonError::BadColumn(c));
        }
    }
    if frame.len() < k {
        return Err(AnonError::Infeasible(format!(
            "table has {} rows, fewer than k = {}",
            frame.len(),
            k
        )));
    }
    partition_and_recode(frame, qid_columns, k, &|_| true)
}

/// The Mondrian run shared by k-anonymity and l-diversity: reject a
/// NaN in any QID column, split the whole table, recode each partition.
/// A split is kept when both halves hold ≥ k rows and pass `accept`.
pub(crate) fn partition_and_recode(
    frame: &Frame,
    qids: &[usize],
    k: usize,
    accept: &dyn Fn(&[usize]) -> bool,
) -> AnonResult<Frame> {
    for &c in qids {
        let col = frame.column(c);
        if (0..col.len()).any(|ri| col.as_f64(ri).is_some_and(f64::is_nan)) {
            return Err(AnonError::NotANumber { column: c });
        }
    }
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    split(frame, qids, k, accept, (0..frame.len()).collect(), &mut partitions);
    let mut anonymized = frame.clone();
    for part in &partitions {
        recode_partition(&mut anonymized, qids, part);
    }
    Ok(anonymized)
}

fn split(
    frame: &Frame,
    qids: &[usize],
    k: usize,
    accept: &dyn Fn(&[usize]) -> bool,
    indices: Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if indices.len() < 2 * k {
        out.push(indices);
        return;
    }
    // choose the numeric QID with the widest range
    let mut best: Option<(usize, f64)> = None;
    for &c in qids {
        let col = frame.column(c);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut numeric = true;
        for &ri in &indices {
            match col.as_f64(ri) {
                Some(x) => {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                None => {
                    numeric = false;
                    break;
                }
            }
        }
        if numeric && hi > lo {
            let range = hi - lo;
            if best.map(|(_, r)| range > r).unwrap_or(true) {
                best = Some((c, range));
            }
        }
    }
    let Some((split_col, _)) = best else {
        out.push(indices);
        return;
    };
    // median split (strict less / greater-equal)
    let col = frame.column(split_col);
    let values = sorted_values(col, &indices);
    let median = values[values.len() / 2];
    let (left, right): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&ri| col.as_f64(ri).expect("numeric") < median);
    let acceptable = |half: &[usize]| half.len() >= k && accept(half);
    if !acceptable(&left) || !acceptable(&right) {
        out.push(indices);
        return;
    }
    split(frame, qids, k, accept, left, out);
    split(frame, qids, k, accept, right, out)
}

/// The numeric values of `indices` in a (checked numeric, NaN-free)
/// column, sorted for a median split.
fn sorted_values(col: &ColumnData, indices: &[usize]) -> Vec<f64> {
    let mut values: Vec<f64> =
        indices.iter().map(|&ri| col.as_f64(ri).expect("checked numeric")).collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN was rejected up front"));
    values
}

fn recode_partition(frame: &mut Frame, qids: &[usize], indices: &[usize]) {
    for &c in qids {
        // numeric range recoding when all values are numeric
        let numeric: Option<(f64, f64)> = {
            let col = frame.column(c);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut ok = true;
            for &ri in indices {
                match col.as_f64(ri) {
                    Some(x) => {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && indices.is_empty() {
                ok = false;
            }
            ok.then_some((lo, hi))
        };
        match numeric {
            Some((lo, hi)) if lo == hi => {
                // singleton range: keep the value as-is
            }
            Some((lo, hi)) => {
                let label = Value::Str(format!(
                    "[{},{}]",
                    trim_float(lo),
                    trim_float(hi)
                ));
                let data = frame.column_mut(c);
                for &ri in indices {
                    data.set(ri, label.clone());
                }
            }
            None => {
                // categorical set recoding
                let mut distinct: Vec<String> = Vec::new();
                {
                    let col = frame.column(c);
                    for &ri in indices {
                        let s = col.value(ri).to_string();
                        if !distinct.contains(&s) {
                            distinct.push(s);
                        }
                    }
                }
                distinct.sort();
                let label = if distinct.len() == 1 {
                    continue;
                } else if distinct.len() > 5 {
                    Value::Str(SUPPRESSED.to_string())
                } else {
                    Value::Str(format!("{{{}}}", distinct.join(",")))
                };
                let data = frame.column_mut(c);
                for &ri in indices {
                    data.set(ri, label.clone());
                }
            }
        }
    }
}

fn trim_float(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::achieved_k;
    use paradise_engine::{DataType, Schema};

    fn people() -> Frame {
        // age, zip, condition — the classic k-anonymity example shape
        let schema = Schema::from_pairs(&[
            ("age", DataType::Integer),
            ("zip", DataType::Integer),
            ("condition", DataType::Text),
        ]);
        let rows = vec![
            vec![Value::Int(25), Value::Int(18051), Value::Str("flu".into())],
            vec![Value::Int(27), Value::Int(18051), Value::Str("cold".into())],
            vec![Value::Int(34), Value::Int(18059), Value::Str("flu".into())],
            vec![Value::Int(36), Value::Int(18059), Value::Str("ok".into())],
            vec![Value::Int(52), Value::Int(18107), Value::Str("ok".into())],
            vec![Value::Int(57), Value::Int(18107), Value::Str("flu".into())],
        ];
        Frame::new(schema, rows).unwrap()
    }

    #[test]
    fn k_zero_is_bad_parameter() {
        assert!(matches!(mondrian(&people(), &[0], 0), Err(AnonError::BadParameter(_))));
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
        assert_eq!(mondrian(&frame, &[0], 3).unwrap_err(), AnonError::NotANumber { column: 0 });
    }

    #[test]
    fn mondrian_reaches_k() {
        for k in [2, 3] {
            let r = mondrian(&people(), &[0, 1], k).unwrap();
            let achieved = achieved_k(&r, &[0, 1]).unwrap().unwrap();
            assert!(achieved >= k, "k={k} achieved={achieved}");
            assert_eq!(r.len(), people().len());
        }
    }

    #[test]
    fn mondrian_preserves_sensitive_values() {
        let r = mondrian(&people(), &[0, 1], 2).unwrap();
        let conditions: Vec<Value> = r.column_values(2).collect();
        let original: Vec<Value> = people().column_values(2).collect();
        assert_eq!(conditions, original);
    }

    #[test]
    fn mondrian_recodes_to_ranges() {
        let r = mondrian(&people(), &[0], 3).unwrap();
        // ages split at median 36: [25,34] and [36,57]
        let first = r.value(0, 0).to_string();
        assert!(first.starts_with('['), "expected interval, got {first}");
    }

    #[test]
    fn mondrian_with_k_equal_rows_gives_one_class() {
        let r = mondrian(&people(), &[0, 1], 6).unwrap();
        let k = achieved_k(&r, &[0, 1]).unwrap().unwrap();
        assert_eq!(k, 6);
    }

    #[test]
    fn mondrian_categorical_recoding() {
        let schema = Schema::from_pairs(&[("room", DataType::Text)]);
        let rows = vec![
            vec![Value::Str("lab".into())],
            vec![Value::Str("office".into())],
            vec![Value::Str("lab".into())],
            vec![Value::Str("office".into())],
        ];
        let f = Frame::new(schema, rows).unwrap();
        let r = mondrian(&f, &[0], 2).unwrap();
        // single partition (categorical can't split) → set recoding
        assert_eq!(r.value(0, 0), Value::Str("{lab,office}".into()));
    }

    #[test]
    fn bad_column_is_error() {
        assert!(matches!(mondrian(&people(), &[9], 2), Err(AnonError::BadColumn(9))));
    }
}
