//! k-anonymity \[Sam01\]: tuple-wise anonymization.
//!
//! Two algorithms are provided:
//!
//! * [`generalize_to_k`] — Samarati-style uniform generalization: walk
//!   the per-attribute level lattice (minimal total level first) until
//!   every equivalence class reaches size ≥ k, optionally suppressing up
//!   to `max_suppressed` outlier tuples;
//! * [`mondrian`] — the multidimensional median-partitioning algorithm
//!   (LeFevre et al.): recursively split on the QID with the widest
//!   normalised range until partitions would fall under k, then recode
//!   each partition's QID values to their range/set.

use std::collections::HashMap;

use paradise_engine::{ColumnData, Frame, GroupKey, Value};

use crate::error::{AnonError, AnonResult};
use crate::hierarchy::{Hierarchy, SUPPRESSED};

/// Outcome of a k-anonymization run.
#[derive(Debug, Clone)]
pub struct KAnonResult {
    /// The anonymized table (same shape as the input).
    pub frame: Frame,
    /// Chosen generalization level per QID (generalization algorithm) or
    /// empty (Mondrian).
    pub levels: Vec<usize>,
    /// Number of fully suppressed tuples.
    pub suppressed: usize,
}

/// Configuration for [`generalize_to_k`].
#[derive(Debug, Clone)]
pub struct GeneralizeConfig {
    /// Quasi-identifier column indices with their hierarchies.
    pub qids: Vec<(usize, Hierarchy)>,
    /// Required minimum class size.
    pub k: usize,
    /// Tuples allowed to be suppressed instead of generalising further.
    pub max_suppressed: usize,
}

/// Samarati-style uniform generalization.
///
/// Enumerates level vectors in order of increasing total level; for each,
/// checks whether generalising every QID to its level leaves at most
/// `max_suppressed` tuples in classes smaller than `k`. Those tuples are
/// suppressed (all QID cells → `*`).
///
/// Each distinct (QID, level) pair generalizes its column **once** into
/// an interned code table (`LevelCodes`, built lazily); candidate
/// level vectors are then checked by counting dense integer codes —
/// no frame clone, no re-generalization, no string hashing per
/// candidate round. Only the winning vector materialises a frame.
pub fn generalize_to_k(frame: &Frame, config: &GeneralizeConfig) -> AnonResult<KAnonResult> {
    if config.k == 0 {
        return Err(AnonError::BadParameter("k must be ≥ 1".into()));
    }
    for (c, _) in &config.qids {
        if *c >= frame.schema.len() {
            return Err(AnonError::BadColumn(*c));
        }
    }
    if frame.len() < config.k && frame.len() > config.max_suppressed {
        return Err(AnonError::Infeasible(format!(
            "table has {} rows, fewer than k = {}",
            frame.len(),
            config.k
        )));
    }

    let max_levels: Vec<usize> = config.qids.iter().map(|(_, h)| h.max_level()).collect();
    let total_max: usize = max_levels.iter().sum();

    let mut codes: Vec<Vec<Option<LevelCodes>>> =
        max_levels.iter().map(|&m| (0..=m).map(|_| None).collect()).collect();

    for total in 0..=total_max {
        let mut candidates = level_vectors(&max_levels, total);
        // deterministic order: prefer generalising later QIDs first
        candidates.sort();
        for levels in candidates {
            if let Some(result) = try_levels(frame, config, &levels, &mut codes)? {
                return Ok(result);
            }
        }
    }
    Err(AnonError::Infeasible(format!(
        "cannot reach {}-anonymity even at full generalization with {} suppressions",
        config.k, config.max_suppressed
    )))
}

/// One QID column generalized to one level, interned: `ids[row]` is a
/// dense code of the generalized value's grouping key, `values[code]`
/// the generalized value itself (all level ≥ 1 generalizations are
/// strings, so key-equal values are identical).
struct LevelCodes {
    ids: Vec<u32>,
    values: Vec<Value>,
}

fn level_codes(frame: &Frame, column: usize, hierarchy: &Hierarchy, level: usize) -> LevelCodes {
    let data = frame.column(column);
    let n = frame.len();
    let mut intern: HashMap<GroupKey, u32> = HashMap::with_capacity(64);
    let mut ids = Vec::with_capacity(n);
    let mut values = Vec::new();
    for ri in 0..n {
        let v = hierarchy.generalize(&data.value(ri), level);
        let id = *intern.entry(v.group_key()).or_insert_with(|| {
            values.push(v);
            (values.len() - 1) as u32
        });
        ids.push(id);
    }
    LevelCodes { ids, values }
}

/// All vectors `v` with `v[i] <= max[i]` and `Σv = total`.
fn level_vectors(max: &[usize], total: usize) -> Vec<Vec<usize>> {
    fn rec(max: &[usize], total: usize, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if max.is_empty() {
            if total == 0 {
                out.push(acc.clone());
            }
            return;
        }
        let cap = max[0].min(total);
        for v in 0..=cap {
            acc.push(v);
            rec(&max[1..], total - v, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    rec(max, total, &mut Vec::new(), &mut out);
    out
}

fn try_levels(
    frame: &Frame,
    config: &GeneralizeConfig,
    levels: &[usize],
    codes: &mut [Vec<Option<LevelCodes>>],
) -> AnonResult<Option<KAnonResult>> {
    // generalize each needed (QID, level) once, lazily
    for (qi, (col, hierarchy)) in config.qids.iter().enumerate() {
        if codes[qi][levels[qi]].is_none() {
            codes[qi][levels[qi]] = Some(level_codes(frame, *col, hierarchy, levels[qi]));
        }
    }
    let active: Vec<&LevelCodes> = config
        .qids
        .iter()
        .enumerate()
        .map(|(qi, _)| codes[qi][levels[qi]].as_ref().expect("just filled"))
        .collect();

    // class sizes over dense codes (≤ 2 QIDs pack into one u64 key)
    let n = frame.len();
    let undersized: Vec<usize> = if active.len() <= 2 {
        let mut classes: HashMap<u64, Vec<usize>> = HashMap::new();
        for ri in 0..n {
            let mut key = 0u64;
            for lc in &active {
                key = (key << 32) | lc.ids[ri] as u64;
            }
            classes.entry(key).or_default().push(ri);
        }
        collect_undersized(&classes, config.k)
    } else {
        let mut classes: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for ri in 0..n {
            let key: Vec<u32> = active.iter().map(|lc| lc.ids[ri]).collect();
            classes.entry(key).or_default().push(ri);
        }
        collect_undersized(&classes, config.k)
    };
    if undersized.len() > config.max_suppressed {
        return Ok(None);
    }
    let suppressed = undersized.len();

    // feasible: materialise the anonymized frame (only now)
    let mut anonymized = frame.clone();
    for (qi, (col, _)) in config.qids.iter().enumerate() {
        if levels[qi] == 0 {
            continue; // level 0 leaves the raw column untouched
        }
        let lc = active[qi];
        let data = anonymized.column_mut(*col);
        for ri in 0..n {
            data.set(ri, lc.values[lc.ids[ri] as usize].clone());
        }
    }
    for (col, _) in &config.qids {
        let data = anonymized.column_mut(*col);
        for &ri in &undersized {
            data.set(ri, Value::Str(SUPPRESSED.to_string()));
        }
    }
    Ok(Some(KAnonResult { frame: anonymized, levels: levels.to_vec(), suppressed }))
}

/// Rows belonging to classes smaller than `k`.
fn collect_undersized<K>(classes: &HashMap<K, Vec<usize>>, k: usize) -> Vec<usize> {
    classes
        .values()
        .filter(|rows| rows.len() < k)
        .flat_map(|rows| rows.iter().copied())
        .collect()
}

/// Mondrian multidimensional k-anonymity over numeric QIDs.
///
/// Categorical QID values are handled by suppression-to-set recoding:
/// a partition's categorical column is recoded to the sorted set of its
/// distinct values (or `*` if more than 5 distinct values remain).
pub fn mondrian(frame: &Frame, qid_columns: &[usize], k: usize) -> AnonResult<KAnonResult> {
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
    let mut anonymized = frame.clone();
    let indices: Vec<usize> = (0..frame.len()).collect();
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    split_partition(frame, qid_columns, k, indices, &mut partitions)?;
    for part in &partitions {
        recode_partition(&mut anonymized, qid_columns, part);
    }
    Ok(KAnonResult { frame: anonymized, levels: Vec::new(), suppressed: 0 })
}

fn split_partition(
    frame: &Frame,
    qids: &[usize],
    k: usize,
    indices: Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) -> AnonResult<()> {
    if indices.len() < 2 * k {
        out.push(indices);
        return Ok(());
    }
    // choose the numeric QID with the widest normalised range
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
        return Ok(());
    };
    // median split (strict less / greater-equal)
    let col = frame.column(split_col);
    let values = sorted_values(col, &indices, split_col)?;
    let median = values[values.len() / 2];
    let (left, right): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&ri| col.as_f64(ri).expect("numeric") < median);
    if left.len() < k || right.len() < k {
        out.push(indices);
        return Ok(());
    }
    split_partition(frame, qids, k, left, out)?;
    split_partition(frame, qids, k, right, out)
}

/// The numeric values of `indices` in a (checked numeric) column,
/// sorted for a median split — a NaN among them is a typed error.
pub(crate) fn sorted_values(
    col: &ColumnData,
    indices: &[usize],
    column: usize,
) -> AnonResult<Vec<f64>> {
    let mut values: Vec<f64> =
        indices.iter().map(|&ri| col.as_f64(ri).expect("checked numeric")).collect();
    if values.iter().any(|v| v.is_nan()) {
        return Err(AnonError::NotANumber { column });
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN was rejected"));
    Ok(values)
}

/// Recode one partition's QID columns to range/set labels — shared with
/// the l-diversity variant in [`crate::ldiv`].
pub(crate) fn recode_partition_public(frame: &mut Frame, qids: &[usize], indices: &[usize]) {
    recode_partition(frame, qids, indices)
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

    fn age_zip_config(k: usize, max_suppressed: usize) -> GeneralizeConfig {
        GeneralizeConfig {
            qids: vec![
                (0, Hierarchy::numeric(&[10.0, 50.0])),
                (1, Hierarchy::numeric(&[10.0, 100.0])),
            ],
            k,
            max_suppressed,
        }
    }

    #[test]
    fn generalization_reaches_k2() {
        let r = generalize_to_k(&people(), &age_zip_config(2, 0)).unwrap();
        assert_eq!(r.suppressed, 0);
        let k = achieved_k(&r.frame, &[0, 1]).unwrap().unwrap();
        assert!(k >= 2, "achieved k = {k}");
        // sensitive column untouched
        assert_eq!(r.frame.value(0, 2), Value::Str("flu".into()));
    }

    #[test]
    fn generalization_is_minimal_for_k1() {
        // k=1 holds trivially at level 0
        let r = generalize_to_k(&people(), &age_zip_config(1, 0)).unwrap();
        assert_eq!(r.levels, vec![0, 0]);
        assert_eq!(r.frame, people());
    }

    #[test]
    fn suppression_budget_helps() {
        // k=3: classes of 2 need either more generalization or suppression
        let no_budget = generalize_to_k(&people(), &age_zip_config(3, 0)).unwrap();
        let with_budget = generalize_to_k(&people(), &age_zip_config(3, 6)).unwrap();
        // with a generous budget, a *lower* generalization level suffices
        let total_no: usize = no_budget.levels.iter().sum();
        let total_with: usize = with_budget.levels.iter().sum();
        assert!(total_with <= total_no);
    }

    #[test]
    fn infeasible_when_k_exceeds_rows() {
        let err = generalize_to_k(&people(), &age_zip_config(7, 0)).unwrap_err();
        assert!(matches!(err, AnonError::Infeasible(_)));
    }

    #[test]
    fn k_zero_is_bad_parameter() {
        assert!(matches!(
            generalize_to_k(&people(), &age_zip_config(0, 0)),
            Err(AnonError::BadParameter(_))
        ));
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
            let achieved = achieved_k(&r.frame, &[0, 1]).unwrap().unwrap();
            assert!(achieved >= k, "k={k} achieved={achieved}");
            assert_eq!(r.frame.len(), people().len());
        }
    }

    #[test]
    fn mondrian_preserves_sensitive_values() {
        let r = mondrian(&people(), &[0, 1], 2).unwrap();
        let conditions: Vec<Value> = r.frame.column_values(2).collect();
        let original: Vec<Value> = people().column_values(2).collect();
        assert_eq!(conditions, original);
    }

    #[test]
    fn mondrian_recodes_to_ranges() {
        let r = mondrian(&people(), &[0], 3).unwrap();
        // ages split at median 36: [25,34] and [36,57]
        let first = r.frame.value(0, 0).to_string();
        assert!(first.starts_with('['), "expected interval, got {first}");
    }

    #[test]
    fn mondrian_with_k_equal_rows_gives_one_class() {
        let r = mondrian(&people(), &[0, 1], 6).unwrap();
        let k = achieved_k(&r.frame, &[0, 1]).unwrap().unwrap();
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
        assert_eq!(r.frame.value(0, 0), Value::Str("{lab,office}".into()));
    }

    #[test]
    fn bad_column_is_error() {
        assert!(matches!(mondrian(&people(), &[9], 2), Err(AnonError::BadColumn(9))));
    }

    #[test]
    fn level_vectors_enumeration() {
        let vs = level_vectors(&[2, 1], 2);
        assert!(vs.contains(&vec![2, 0]));
        assert!(vs.contains(&vec![1, 1]));
        assert!(!vs.contains(&vec![0, 2])); // exceeds max[1]
        assert_eq!(level_vectors(&[1, 1], 0), vec![vec![0, 0]]);
    }
}
