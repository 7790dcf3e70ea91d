//! Quasi-identifier detection (paper §5: "detecting quasi-identifiers and
//! using column-wise or tuple-wise anonymization").
//!
//! An attribute combination is a quasi-identifier when it singles out a
//! large fraction of the tuples. We score single attributes by their
//! *distinct ratio* and combinations by their *uniqueness ratio* (fraction
//! of tuples with a unique key under that combination).
//!
//! Every column is numbered once ([`ColumnData::dense_ids`]): one hash
//! pass over its borrowed cells gives each row a dense `u32` group id and
//! each group its size. A column's distinct ratio is its number of groups
//! over the rows, and its uniqueness the share of groups of size one. A
//! combination joins its columns' ids pairwise ([`DenseIds::joint`]), a
//! pass over `u32`s per extra column, so no cell is cloned and no key is
//! built whichever combinations are explored.
//!
//! [`ColumnData::dense_ids`]: paradise_engine::ColumnData::dense_ids

use paradise_engine::{DenseIds, Frame};

use crate::error::{AnonError, AnonResult};

/// The equivalence classes of `frame`'s rows under `columns`: rows
/// share a class exactly when their keys agree on every column. One
/// class holds every row when `columns` is empty.
pub(crate) fn classes(frame: &Frame, columns: &[usize]) -> AnonResult<DenseIds> {
    if let Some(&c) = columns.iter().find(|&&c| c >= frame.schema.len()) {
        return Err(AnonError::BadColumn(c));
    }
    let mut ids = columns.iter().map(|&c| frame.column(c).dense_ids());
    Ok(match ids.next() {
        Some(first) => ids.fold(first, |joint, next| joint.joint(&next)),
        None => DenseIds::one_group(frame.len()),
    })
}

/// distinct keys / rows ∈ [0, 1]; 1 = key-like, 0 for no rows.
fn distinct_ratio(ids: &DenseIds) -> f64 {
    let n = ids.ids().len();
    if n == 0 { 0.0 } else { ids.groups() as f64 / n as f64 }
}

/// Uniqueness of a column *combination* (by index into the numbered
/// `columns`): the fraction of rows whose combined key appears exactly
/// once, 0 for no rows.
fn combination_uniqueness(columns: &[DenseIds], combo: &[usize]) -> f64 {
    let joined;
    let classes = match combo {
        [] => return 0.0,
        [c] => &columns[*c],
        [a, b, rest @ ..] => {
            joined = rest.iter().fold(columns[*a].joint(&columns[*b]), |j, &c| j.joint(&columns[c]));
            &joined
        }
    };
    let n = classes.ids().len();
    if n == 0 { 0.0 } else { classes.singletons() as f64 / n as f64 }
}

/// Detection configuration.
#[derive(Debug, Clone)]
pub struct QidConfig {
    /// Columns at or above this distinct ratio are *direct identifiers*:
    /// reported, and kept out of the quasi-identifier search. Nothing in
    /// this crate removes or generalises them; the postprocessor
    /// releases them unchanged, so only a policy that projects them away
    /// keeps them from the requester.
    pub identifier_threshold: f64,
    /// A candidate set is a QID when its combined uniqueness is at or
    /// above this value.
    pub qid_threshold: f64,
    /// Maximum combination size explored.
    pub max_combination: usize,
}

impl Default for QidConfig {
    fn default() -> Self {
        QidConfig { identifier_threshold: 0.95, qid_threshold: 0.5, max_combination: 3 }
    }
}

/// Detection outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct QidReport {
    /// Direct identifiers (near-unique single columns). Reported only:
    /// they are excluded from the quasi-identifier, not removed or
    /// generalised.
    pub identifiers: Vec<usize>,
    /// The smallest column combination exceeding the QID threshold
    /// (direct identifiers excluded), if any.
    pub quasi_identifier: Option<Vec<usize>>,
    /// Uniqueness of that combination.
    pub uniqueness: f64,
}

/// Detect identifiers and the minimal quasi-identifier combination.
pub fn detect_qids(frame: &Frame, config: &QidConfig) -> AnonResult<QidReport> {
    let columns: Vec<DenseIds> =
        (0..frame.schema.len()).map(|c| frame.column(c).dense_ids()).collect();
    let identifiers: Vec<usize> = (0..columns.len())
        .filter(|&c| distinct_ratio(&columns[c]) >= config.identifier_threshold)
        .collect();
    let candidates: Vec<usize> =
        (0..columns.len()).filter(|c| !identifiers.contains(c)).collect();

    // explore combinations in order of size, then combined score
    for size in 1..=config.max_combination.min(candidates.len()) {
        let mut best: Option<(Vec<usize>, f64)> = None;
        for combo in combinations(&candidates, size) {
            let u = combination_uniqueness(&columns, &combo);
            if u >= config.qid_threshold
                && best.as_ref().map(|(_, bu)| u > *bu).unwrap_or(true)
            {
                best = Some((combo, u));
            }
        }
        if let Some((combo, u)) = best {
            return Ok(QidReport { identifiers, quasi_identifier: Some(combo), uniqueness: u });
        }
    }
    Ok(QidReport { identifiers, quasi_identifier: None, uniqueness: 0.0 })
}

/// All `size`-subsets of `items`, preserving order.
fn combinations(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    fn rec(items: &[usize], size: usize, start: usize, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if acc.len() == size {
            out.push(acc.clone());
            return;
        }
        for i in start..items.len() {
            acc.push(items[i]);
            rec(items, size, i + 1, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    rec(items, size, 0, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::{DataType, Schema, Value};

    fn tagged_people() -> Frame {
        // tag ≈ direct identifier, (age, zip) ≈ QID, condition sensitive
        let schema = Schema::from_pairs(&[
            ("tag", DataType::Integer),
            ("age", DataType::Integer),
            ("zip", DataType::Integer),
            ("condition", DataType::Text),
        ]);
        let rows = vec![
            vec![Value::Int(101), Value::Int(25), Value::Int(18051), Value::Str("flu".into())],
            vec![Value::Int(102), Value::Int(25), Value::Int(18059), Value::Str("ok".into())],
            vec![Value::Int(103), Value::Int(34), Value::Int(18051), Value::Str("ok".into())],
            vec![Value::Int(104), Value::Int(34), Value::Int(18059), Value::Str("flu".into())],
            vec![Value::Int(105), Value::Int(52), Value::Int(18051), Value::Str("ok".into())],
            vec![Value::Int(106), Value::Int(52), Value::Int(18059), Value::Str("cold".into())],
        ];
        Frame::new(schema, rows).unwrap()
    }

    /// Every column of `frame`, numbered.
    fn numbered(frame: &Frame) -> Vec<DenseIds> {
        (0..frame.schema.len()).map(|c| frame.column(c).dense_ids()).collect()
    }

    #[test]
    fn scores_identify_key_columns() {
        let columns = numbered(&tagged_people());
        assert_eq!(distinct_ratio(&columns[0]), 1.0); // tag unique
        assert!(distinct_ratio(&columns[1]) < 1.0); // age repeats
    }

    #[test]
    fn combination_uniqueness_grows_with_columns() {
        let columns = numbered(&tagged_people());
        let age = combination_uniqueness(&columns, &[1]);
        let age_zip = combination_uniqueness(&columns, &[1, 2]);
        assert!(age < age_zip);
        assert_eq!(age_zip, 1.0); // (age, zip) is unique here
        // a third column cannot make a unique combination less unique
        assert_eq!(combination_uniqueness(&columns, &[1, 2, 3]), 1.0);
    }

    #[test]
    fn detects_identifier_and_qid() {
        let report = detect_qids(&tagged_people(), &QidConfig::default()).unwrap();
        assert_eq!(report.identifiers, vec![0]); // tag
        let qid = report.quasi_identifier.unwrap();
        // (age, zip) is the minimal fully-identifying combination; age or
        // zip alone identify nobody uniquely (every value appears ≥ 2×)
        assert_eq!(qid, vec![1, 2]);
        assert_eq!(report.uniqueness, 1.0);
    }

    #[test]
    fn no_qid_in_homogeneous_data() {
        let schema = Schema::from_pairs(&[("v", DataType::Integer)]);
        let rows = vec![vec![Value::Int(1)]; 10];
        let f = Frame::new(schema, rows).unwrap();
        let report = detect_qids(&f, &QidConfig::default()).unwrap();
        assert!(report.identifiers.is_empty());
        assert!(report.quasi_identifier.is_none());
    }

    #[test]
    fn empty_frame_yields_zero() {
        let f = Frame::empty(Schema::from_pairs(&[("v", DataType::Integer)]));
        assert_eq!(combination_uniqueness(&numbered(&f), &[0]), 0.0);
        assert_eq!(distinct_ratio(&numbered(&f)[0]), 0.0);
        let report = detect_qids(&f, &QidConfig::default()).unwrap();
        assert!(report.quasi_identifier.is_none());
    }

    #[test]
    fn bad_column_errors() {
        let f = tagged_people();
        assert!(matches!(classes(&f, &[1, 99]), Err(AnonError::BadColumn(99))));
        // no columns: one class of every row
        assert_eq!(classes(&f, &[]).unwrap().counts(), [6]);
    }

    #[test]
    fn combinations_enumerate() {
        let combos = combinations(&[1, 2, 3], 2);
        assert_eq!(combos, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
    }
}
