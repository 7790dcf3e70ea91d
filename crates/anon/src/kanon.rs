//! k-anonymity \[Sam01\]: tuple-wise anonymization by Mondrian
//! multidimensional median partitioning (LeFevre et al.): recursively
//! split on the QID with the widest range while both halves stay
//! acceptable, then recode each partition's QID values to their
//! range/set. [`mondrian`] accepts a half of ≥ k rows; the l-diverse
//! variant ([`crate::ldiv::mondrian_l_diverse`]) runs the same split
//! and also asks for ≥ l distinct sensitive values.
//!
//! One release costs O(rows · QIDs) per level of the split tree and
//! sorts nothing. Each QID column is read once into an `f64` view (NaN
//! marks a cell that is no number; a real NaN is rejected up front).
//! Partitions are ranges of one row-order buffer: a split finds its
//! median by selection (`select_nth_unstable_by`), not by a sort, and
//! partitions its range stably in place through one reused scratch
//! buffer, left half before right. The QID ranges a split measures are
//! kept for its leaves.
//! Recoding formats one label per partition and QID and writes each
//! recoded column in one pass ([`ColumnData::relabeled`]). A
//! categorical QID's partition is labelled by rendering each of its
//! cells, then sorting and deduplicating the renderings.

use std::fmt::Write as _;
use std::ops::Range;

use paradise_engine::{ColumnData, Frame};

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
    partition_and_recode(frame, qid_columns, k, &mut |_| true)
}

/// The Mondrian run shared by k-anonymity and l-diversity: reject a
/// NaN in any QID column, split the whole table, recode each partition.
/// A split is kept when both halves hold ≥ k rows and pass `accept`.
pub(crate) fn partition_and_recode(
    frame: &Frame,
    qids: &[usize],
    k: usize,
    accept: &mut dyn FnMut(&[u32]) -> bool,
) -> AnonResult<Frame> {
    let numbers =
        qids.iter().map(|&c| numeric_view(frame.column(c), c)).collect::<AnonResult<Vec<_>>>()?;
    let partitions = Partitions::split(&numbers, frame.len(), k, accept);
    Ok(partitions.recode(frame, qids))
}

/// Column `c` as `f64`s, NaN where a cell is no number (NULL, text,
/// boolean); a NaN cell is an error, since NaN has no order.
fn numeric_view(col: &ColumnData, c: usize) -> AnonResult<Vec<f64>> {
    (0..col.len())
        .map(|ri| match col.as_f64(ri) {
            Some(x) if x.is_nan() => Err(AnonError::NotANumber { column: c }),
            x => Ok(x.unwrap_or(f64::NAN)),
        })
        .collect()
}

/// `(lo, hi)` of `x` over `rows` when every one of them is a number.
fn bounds(x: &[f64], rows: &[u32]) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &ri in rows {
        let x = x[ri as usize];
        if x.is_nan() {
            return None;
        }
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (!rows.is_empty()).then_some((lo, hi))
}

/// The leaves of a Mondrian split.
struct Partitions {
    /// Every row once; each partition is a range of it.
    order: Vec<u32>,
    /// The partitions, in the split's depth-first order (left first).
    ranges: Vec<Range<usize>>,
    /// Per partition, per QID: its `(lo, hi)` when all numbers.
    bounds: Vec<Option<(f64, f64)>>,
}

impl Partitions {
    /// Split `rows` rows on the `numbers` QIDs: take a median split of
    /// the widest numeric QID while both halves hold ≥ k rows and pass
    /// `accept`.
    fn split(
        numbers: &[Vec<f64>],
        rows: usize,
        k: usize,
        accept: &mut dyn FnMut(&[u32]) -> bool,
    ) -> Partitions {
        // at most rows / k partitions; no buffer grows
        let leaves = rows / k + 1;
        let mut out = Partitions {
            order: (0..rows as u32).collect(),
            ranges: Vec::with_capacity(leaves),
            bounds: Vec::with_capacity(leaves * numbers.len()),
        };
        let mut here: Vec<Option<(f64, f64)>> = Vec::with_capacity(numbers.len());
        let mut values: Vec<f64> = Vec::with_capacity(rows);
        let mut right: Vec<u32> = Vec::with_capacity(rows);
        // the ranges still to split, the next (leftmost) on top
        let mut stack: Vec<Range<usize>> = Vec::new();
        stack.push(0..rows);
        while let Some(range) = stack.pop() {
            here.clear();
            here.extend(numbers.iter().map(|x| bounds(x, &out.order[range.clone()])));
            // the numeric QID with the widest range, the first on ties
            let mut best: Option<(usize, f64)> = None;
            for (qi, bounds) in here.iter().enumerate() {
                if let Some((lo, hi)) = *bounds {
                    if hi > lo && best.map(|(_, r)| hi - lo > r).unwrap_or(true) {
                        best = Some((qi, hi - lo));
                    }
                }
            }
            let halves = best.filter(|_| range.len() >= 2 * k).and_then(|(qi, _)| {
                let x = &numbers[qi];
                let rows = &mut out.order[range.clone()];
                // the median: the middle of the sorted values
                values.clear();
                values.extend(rows.iter().map(|&ri| x[ri as usize]));
                let middle = values.len() / 2;
                let median = *values.select_nth_unstable_by(middle, f64::total_cmp).1;
                // stable partition: strictly less to the left
                right.clear();
                let mut left = 0;
                for i in 0..rows.len() {
                    let ri = rows[i];
                    if x[ri as usize] < median {
                        rows[left] = ri;
                        left += 1;
                    } else {
                        right.push(ri);
                    }
                }
                rows[left..].copy_from_slice(&right);
                let (l, r) = rows.split_at(left);
                (l.len() >= k && r.len() >= k && accept(l) && accept(r))
                    .then(|| (range.start..range.start + left, range.start + left..range.end))
            });
            match halves {
                Some((l, r)) => {
                    stack.push(r);
                    stack.push(l);
                }
                None => {
                    out.ranges.push(range);
                    out.bounds.extend_from_slice(&here);
                }
            }
        }
        out
    }

    /// `frame` with each partition's QID values recoded: a numeric
    /// range to `[lo,hi]` (kept when lo = hi), anything else to the set
    /// of its distinct renderings.
    fn recode(&self, frame: &Frame, qids: &[usize]) -> Frame {
        let mut part_of = vec![0u32; frame.len()];
        for (p, range) in self.ranges.iter().enumerate() {
            for &ri in &self.order[range.clone()] {
                part_of[ri as usize] = p as u32;
            }
        }
        let mut columns: Vec<_> = (0..frame.schema.len()).map(|c| frame.column_arc(c)).collect();
        let mut recoded = false;
        let mut labels: Vec<Option<String>> = Vec::with_capacity(self.ranges.len());
        let mut names: Vec<String> = Vec::new();
        for (qi, &c) in qids.iter().enumerate() {
            let col = frame.column(c);
            labels.clear();
            for (p, range) in self.ranges.iter().enumerate() {
                labels.push(match self.bounds[p * qids.len() + qi] {
                    Some((lo, hi)) if lo == hi => None, // a singleton range keeps its value
                    Some((lo, hi)) => Some(range_label(lo, hi)),
                    None => set_label(col, &self.order[range.clone()], &mut names),
                });
            }
            if labels.iter().any(Option::is_some) {
                columns[c] = col.relabeled(|ri| labels[part_of[ri] as usize].as_deref()).into();
                recoded = true;
            }
        }
        if !recoded {
            return frame.clone();
        }
        Frame::from_arc_columns(frame.schema.clone(), columns)
            .expect("recoding keeps every column's length")
    }
}

/// The set label of the partition `rows` of a categorical QID column:
/// the sorted set of its distinct renderings, `*` past five, none for a
/// single one. `names` is scratch reused across partitions.
fn set_label(col: &ColumnData, rows: &[u32], names: &mut Vec<String>) -> Option<String> {
    names.clear();
    names.extend(rows.iter().map(|&ri| col.value(ri as usize).to_string()));
    names.sort_unstable();
    names.dedup();
    match names.len() {
        1 => None,
        n if n > 5 => Some(SUPPRESSED.to_string()),
        _ => Some(format!("{{{}}}", names.join(","))),
    }
}

/// `[lo,hi]`, an integral bound printed as an integer.
fn range_label(lo: f64, hi: f64) -> String {
    fn bound(out: &mut String, x: f64) {
        let _ = if x.fract() == 0.0 && x.abs() < 1e15 {
            write!(out, "{}", x as i64)
        } else {
            write!(out, "{x}")
        };
    }
    let mut label = String::with_capacity(16);
    label.push('[');
    bound(&mut label, lo);
    label.push(',');
    bound(&mut label, hi);
    label.push(']');
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::achieved_k;
    use paradise_engine::{DataType, Schema, Value};

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
