//! The anonymiser as it was before its dense-id rewrite, kept verbatim
//! as the reference the equivalence test compares against: QID
//! detection by a `HashMap` of owned `GroupKey` vectors, Mondrian by a
//! sort per partition, l-diversity by `Vec::contains`. Only the imports
//! and `partition_and_recode`'s visibility differ from the original.

use std::collections::HashMap;

use paradise_anon::{AnonError, AnonResult, QidConfig, QidReport};
use paradise_engine::{ColumnData, Frame, GroupKey, Value};

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
fn partition_and_recode(
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
    let whole: Vec<usize> = (0..frame.len()).collect();
    if frame.len() < k || distinct_count(frame, &whole, sensitive) < l {
        return Err(AnonError::Infeasible(format!(
            "table cannot satisfy k={k}, l={l}: {} rows, {} distinct sensitive values",
            frame.len(),
            distinct_count(frame, &whole, sensitive)
        )));
    }
    partition_and_recode(frame, qid_columns, k, &|half| {
        distinct_count(frame, half, sensitive) >= l
    })
}

fn distinct_count(frame: &Frame, indices: &[usize], sensitive: usize) -> usize {
    let col = frame.column(sensitive);
    let mut seen: Vec<GroupKey> = Vec::new();
    for &ri in indices {
        let key = col.group_key_at(ri);
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    seen.len()
}
