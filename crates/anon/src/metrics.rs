//! Information-loss and privacy metrics.
//!
//! * **Direct Distance (DD)** — defined in paper §3.2: the number of
//!   attribute values that differ between the original relation `R` and
//!   its anonymized counterpart `R'`.
//! * **Kullback–Leibler divergence** — the paper's information-loss
//!   estimate \[KL51\], computed between the value distributions of a
//!   column (or column combination) before and after anonymization.
//! * **Achieved k** — the smallest equivalence class of an anonymized
//!   table.

use std::collections::HashMap;

use paradise_engine::{Frame, GroupKey};

use crate::error::{AnonError, AnonResult};
use crate::qid::classes;

/// Direct Distance between two equally-shaped relations:
/// `DD(R,R') = Σᵢ Σⱼ distance(i,j)` with `distance = 0` iff the values
/// are equal (paper §3.2).
pub fn direct_distance(original: &Frame, anonymized: &Frame) -> AnonResult<usize> {
    check_shape(original, anonymized)?;
    let dd = (0..original.schema.len())
        .map(|c| original.column(c).count_diffs(anonymized.column(c)))
        .sum();
    Ok(dd)
}

/// Normalised Direct Distance: `DD / (n·m)` — the paper's "ratio of
/// different values in R' to the total number of values in R", i.e. the
/// fraction of cells changed. 0 = identical, 1 = everything changed.
pub fn direct_distance_ratio(original: &Frame, anonymized: &Frame) -> AnonResult<f64> {
    let dd = direct_distance(original, anonymized)?;
    let cells = original.cell_count();
    if cells == 0 {
        return Ok(0.0);
    }
    Ok(dd as f64 / cells as f64)
}

fn check_shape(a: &Frame, b: &Frame) -> AnonResult<()> {
    if a.len() != b.len() || a.schema.len() != b.schema.len() {
        return Err(AnonError::ShapeMismatch {
            original: (a.len(), a.schema.len()),
            anonymized: (b.len(), b.schema.len()),
        });
    }
    Ok(())
}

/// Histogram of the (combined) values of `columns` in `frame`: one key
/// built per class, from the class's first row.
fn histogram(frame: &Frame, columns: &[usize]) -> AnonResult<HashMap<Vec<GroupKey>, usize>> {
    let classes = classes(frame, columns)?;
    let mut hist = HashMap::with_capacity(classes.groups());
    for (row, &class) in classes.ids().iter().enumerate() {
        // classes are numbered by first appearance
        if class as usize == hist.len() {
            let key = columns.iter().map(|&c| frame.column(c).group_key_at(row)).collect();
            hist.insert(key, classes.counts()[class as usize] as usize);
        }
    }
    Ok(hist)
}

/// Kullback–Leibler divergence `D(P‖Q)` between the distribution of the
/// selected columns in `original` (P) and `anonymized` (Q), in nats.
///
/// Laplace (add-one-half) smoothing over the union support keeps the
/// divergence finite when the anonymized data lost values entirely.
pub fn kl_divergence(
    original: &Frame,
    anonymized: &Frame,
    columns: &[usize],
) -> AnonResult<f64> {
    if columns.is_empty() {
        return Err(AnonError::BadParameter("KL divergence needs at least one column".into()));
    }
    let p_hist = histogram(original, columns)?;
    let q_hist = histogram(anonymized, columns)?;
    if original.is_empty() {
        // no information to lose
        return Ok(0.0);
    }
    if anonymized.is_empty() {
        // total loss: smoothing alone cannot express "nothing survived"
        // (a uniform P would smooth to a uniform Q); report the
        // self-information scale of the lost relation instead
        return Ok((1.0 + original.len() as f64).ln());
    }

    // union support
    let mut support: Vec<&Vec<GroupKey>> = p_hist.keys().collect();
    for k in q_hist.keys() {
        if !p_hist.contains_key(k) {
            support.push(k);
        }
    }
    let s = support.len() as f64;
    let smooth = 0.5;
    let p_total = original.len() as f64 + smooth * s;
    let q_total = anonymized.len() as f64 + smooth * s;

    let mut kl = 0.0;
    for key in support {
        let p = (p_hist.get(key).copied().unwrap_or(0) as f64 + smooth) / p_total;
        let q = (q_hist.get(key).copied().unwrap_or(0) as f64 + smooth) / q_total;
        kl += p * (p / q).ln();
    }
    Ok(kl.max(0.0))
}

/// Smallest equivalence-class size — the *achieved* k of an anonymized
/// table (`None` for an empty table).
pub fn achieved_k(frame: &Frame, qid_columns: &[usize]) -> AnonResult<Option<usize>> {
    Ok(classes(frame, qid_columns)?.counts().iter().min().map(|&k| k as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::{DataType, Schema, Value};

    fn frame(rows: Vec<Vec<Value>>) -> Frame {
        let width = rows.first().map(Vec::len).unwrap_or(0);
        let pairs: Vec<(String, DataType)> =
            (0..width).map(|i| (format!("c{i}"), DataType::Float)).collect();
        let pairs_ref: Vec<(&str, DataType)> =
            pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Frame::new(Schema::from_pairs(&pairs_ref), rows).unwrap()
    }

    fn f1() -> Frame {
        frame(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(3), Value::Int(30)],
        ])
    }

    #[test]
    fn dd_of_identical_is_zero() {
        assert_eq!(direct_distance(&f1(), &f1()).unwrap(), 0);
        assert_eq!(direct_distance_ratio(&f1(), &f1()).unwrap(), 0.0);
    }

    #[test]
    fn dd_counts_changed_cells() {
        let mut m = f1();
        m.set_value(0, 0, Value::Int(9));
        m.set_value(2, 1, Value::Null);
        assert_eq!(direct_distance(&f1(), &m).unwrap(), 2);
        let ratio = direct_distance_ratio(&f1(), &m).unwrap();
        assert!((ratio - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn dd_is_bounded_by_cells() {
        let m = frame(vec![
            vec![Value::Str("*".into()), Value::Str("*".into())],
            vec![Value::Str("*".into()), Value::Str("*".into())],
            vec![Value::Str("*".into()), Value::Str("*".into())],
        ]);
        assert_eq!(direct_distance(&f1(), &m).unwrap(), 6);
        assert_eq!(direct_distance_ratio(&f1(), &m).unwrap(), 1.0);
    }

    #[test]
    fn dd_shape_mismatch_errors() {
        let small = frame(vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(matches!(
            direct_distance(&f1(), &small),
            Err(AnonError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn kl_zero_for_identical() {
        let kl = kl_divergence(&f1(), &f1(), &[0]).unwrap();
        assert!(kl.abs() < 1e-12);
    }

    #[test]
    fn kl_grows_with_distortion() {
        // mildly distorted: one value moved
        let mut mild = f1();
        mild.set_value(0, 0, Value::Int(2));
        // heavily distorted: everything suppressed to one value
        let heavy = frame(vec![
            vec![Value::Int(7), Value::Int(10)],
            vec![Value::Int(7), Value::Int(20)],
            vec![Value::Int(7), Value::Int(30)],
        ]);
        let kl_mild = kl_divergence(&f1(), &mild, &[0]).unwrap();
        let kl_heavy = kl_divergence(&f1(), &heavy, &[0]).unwrap();
        assert!(kl_mild > 0.0);
        assert!(kl_heavy > kl_mild, "{kl_heavy} should exceed {kl_mild}");
    }

    #[test]
    fn kl_of_empty_anonymized_side_is_large() {
        let empty = Frame::empty(f1().schema.clone());
        let kl = kl_divergence(&f1(), &empty, &[0]).unwrap();
        assert!(kl > 0.5, "total loss must score high, got {kl}");
        // and an empty original scores zero
        assert_eq!(kl_divergence(&empty, &f1(), &[0]).unwrap(), 0.0);
    }

    #[test]
    fn kl_handles_disjoint_supports() {
        let shifted = frame(vec![
            vec![Value::Int(100), Value::Int(10)],
            vec![Value::Int(200), Value::Int(20)],
            vec![Value::Int(300), Value::Int(30)],
        ]);
        let kl = kl_divergence(&f1(), &shifted, &[0]).unwrap();
        assert!(kl.is_finite() && kl > 0.0);
    }

    #[test]
    fn kl_joint_columns() {
        let kl = kl_divergence(&f1(), &f1(), &[0, 1]).unwrap();
        assert!(kl.abs() < 1e-12);
        assert!(kl_divergence(&f1(), &f1(), &[]).is_err());
        assert!(kl_divergence(&f1(), &f1(), &[9]).is_err());
    }

    #[test]
    fn achieved_k_is_the_smallest_class() {
        let t = frame(vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(2), Value::Int(0)],
            vec![Value::Int(2), Value::Int(0)],
        ]);
        assert_eq!(achieved_k(&t, &[0]).unwrap(), Some(2));
        let empty = Frame::empty(Schema::from_pairs(&[("c0", DataType::Float)]));
        assert_eq!(achieved_k(&empty, &[0]).unwrap(), None);
    }
}
