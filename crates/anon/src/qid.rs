//! Quasi-identifier detection (paper §5: "detecting quasi-identifiers and
//! using column-wise or tuple-wise anonymization").
//!
//! An attribute combination is a quasi-identifier when it singles out a
//! large fraction of the tuples. We score single attributes by their
//! *distinct ratio* and combinations by their *uniqueness ratio* (fraction
//! of tuples with a unique key under that combination).

use std::collections::HashMap;

use paradise_engine::{Frame, GroupKey};

use crate::error::{AnonError, AnonResult};

/// Per-column identifying power.
struct ColumnScore {
    /// Column index.
    column: usize,
    /// distinct values / rows ∈ [0, 1]; 1 = key-like.
    distinct_ratio: f64,
}

/// Score every column of the frame.
fn score_columns(frame: &Frame) -> Vec<ColumnScore> {
    let n = frame.len();
    (0..frame.schema.len())
        .map(|c| {
            let col = frame.column(c);
            let mut hist: HashMap<GroupKey, usize> = HashMap::new();
            for i in 0..n {
                *hist.entry(col.group_key_at(i)).or_insert(0) += 1;
            }
            ColumnScore {
                column: c,
                distinct_ratio: if n == 0 { 0.0 } else { hist.len() as f64 / n as f64 },
            }
        })
        .collect()
}

/// Uniqueness of a column *combination*: fraction of rows whose combined
/// key appears exactly once.
fn combination_uniqueness(frame: &Frame, columns: &[usize]) -> AnonResult<f64> {
    for &c in columns {
        if c >= frame.schema.len() {
            return Err(AnonError::BadColumn(c));
        }
    }
    if frame.is_empty() || columns.is_empty() {
        return Ok(0.0);
    }
    let cols: Vec<_> = columns.iter().map(|&c| frame.column(c)).collect();
    let mut hist: HashMap<Vec<GroupKey>, usize> = HashMap::new();
    for i in 0..frame.len() {
        let key: Vec<GroupKey> = cols.iter().map(|c| c.group_key_at(i)).collect();
        *hist.entry(key).or_insert(0) += 1;
    }
    let unique = hist.values().filter(|&&cnt| cnt == 1).count();
    Ok(unique as f64 / frame.len() as f64)
}

/// Detection configuration.
#[derive(Debug, Clone)]
pub struct QidConfig {
    /// Columns at or above this distinct ratio are *direct identifiers*
    /// (to be removed outright, not generalized).
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
    /// Direct identifiers (near-unique single columns).
    pub identifiers: Vec<usize>,
    /// The smallest column combination exceeding the QID threshold
    /// (direct identifiers excluded), if any.
    pub quasi_identifier: Option<Vec<usize>>,
    /// Uniqueness of that combination.
    pub uniqueness: f64,
}

/// Detect identifiers and the minimal quasi-identifier combination.
pub fn detect_qids(frame: &Frame, config: &QidConfig) -> AnonResult<QidReport> {
    let scores = score_columns(frame);
    let identifiers: Vec<usize> = scores
        .iter()
        .filter(|s| s.distinct_ratio >= config.identifier_threshold)
        .map(|s| s.column)
        .collect();
    let candidates: Vec<usize> = scores
        .iter()
        .map(|s| s.column)
        .filter(|c| !identifiers.contains(c))
        .collect();

    // explore combinations in order of size, then combined score
    for size in 1..=config.max_combination.min(candidates.len()) {
        let mut best: Option<(Vec<usize>, f64)> = None;
        for combo in combinations(&candidates, size) {
            let u = combination_uniqueness(frame, &combo)?;
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

    #[test]
    fn scores_identify_key_columns() {
        let scores = score_columns(&tagged_people());
        assert_eq!(scores[0].distinct_ratio, 1.0); // tag unique
        assert!(scores[1].distinct_ratio < 1.0); // age repeats
    }

    #[test]
    fn combination_uniqueness_grows_with_columns() {
        let f = tagged_people();
        let age = combination_uniqueness(&f, &[1]).unwrap();
        let age_zip = combination_uniqueness(&f, &[1, 2]).unwrap();
        assert!(age < age_zip);
        assert_eq!(age_zip, 1.0); // (age, zip) is unique here
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
        assert_eq!(combination_uniqueness(&f, &[0]).unwrap(), 0.0);
        let report = detect_qids(&f, &QidConfig::default()).unwrap();
        assert!(report.quasi_identifier.is_none());
    }

    #[test]
    fn bad_column_errors() {
        let f = tagged_people();
        assert!(matches!(
            combination_uniqueness(&f, &[99]),
            Err(AnonError::BadColumn(99))
        ));
    }

    #[test]
    fn combinations_enumerate() {
        let combos = combinations(&[1, 2, 3], 2);
        assert_eq!(combos, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
    }
}
