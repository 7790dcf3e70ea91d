//! t-closeness (Li, Li, Venkatasubramanian) — the third member of the
//! k-anonymity family of "similar concepts" (paper §3.2): every
//! equivalence class's sensitive-value distribution must stay within
//! distance `t` of the table-wide distribution, closing the skewness
//! and similarity attacks l-diversity leaves open.
//!
//! Distance is the Earth Mover's Distance: for *numeric* sensitive
//! attributes the ordered-domain EMD (prefix-sum formulation over the
//! sorted value domain, normalised to \[0, 1\]); for *categorical*
//! attributes the variational distance (half L1).

use std::collections::HashMap;

use paradise_engine::{Frame, GroupKey, Value};

use crate::error::{AnonError, AnonResult};

/// The t-closeness of an anonymized table: the maximum, over all
/// equivalence classes (grouped by the QID columns), of the EMD between
/// the class's sensitive distribution and the global one.
/// `None` for an empty table. Lower is better; a table satisfies
/// t-closeness when the returned value ≤ t.
pub fn t_closeness(
    frame: &Frame,
    qid_columns: &[usize],
    sensitive: usize,
) -> AnonResult<Option<f64>> {
    for &c in qid_columns.iter().chain(std::iter::once(&sensitive)) {
        if c >= frame.schema.len() {
            return Err(AnonError::BadColumn(c));
        }
    }
    if frame.is_empty() {
        return Ok(None);
    }

    let sens = frame.column(sensitive);
    let numeric = sens.all_numeric_or_null();

    // global distribution; an ordered domain has no place for NaN
    let global: Vec<Value> = sens.iter_values().collect();
    if numeric && global.iter().any(|v| v.as_f64().is_some_and(f64::is_nan)) {
        return Err(AnonError::NotANumber { column: sensitive });
    }

    // classes
    let cols: Vec<_> = qid_columns.iter().map(|&c| frame.column(c)).collect();
    let mut classes: HashMap<Vec<GroupKey>, Vec<Value>> = HashMap::new();
    for i in 0..frame.len() {
        let key: Vec<GroupKey> = cols.iter().map(|c| c.group_key_at(i)).collect();
        classes.entry(key).or_default().push(sens.value(i));
    }

    let mut worst: f64 = 0.0;
    for class in classes.values() {
        let d = if numeric {
            ordered_emd(class, &global)
        } else {
            variational_distance(class, &global)
        };
        worst = worst.max(d);
    }
    Ok(Some(worst))
}

/// EMD over an ordered numeric domain, computed with the prefix-sum
/// formulation on the union of observed values, normalised by the number
/// of distinct values minus one (so the result lies in \[0, 1\]).
fn ordered_emd(class: &[Value], global: &[Value]) -> f64 {
    let mut domain: Vec<f64> = global
        .iter()
        .chain(class.iter())
        .filter_map(|v| v.as_f64())
        .collect();
    domain.sort_by(|a, b| a.partial_cmp(b).expect("NaN was rejected"));
    domain.dedup();
    if domain.len() <= 1 {
        return 0.0;
    }

    let hist = |values: &[Value]| -> Vec<f64> {
        let total = values.iter().filter(|v| v.as_f64().is_some()).count() as f64;
        if total == 0.0 {
            return vec![0.0; domain.len()];
        }
        let mut h = vec![0.0; domain.len()];
        for v in values {
            if let Some(x) = v.as_f64() {
                let idx = domain
                    .binary_search_by(|d| d.partial_cmp(&x).expect("NaN was rejected"))
                    .expect("value is in the union domain");
                h[idx] += 1.0 / total;
            }
        }
        h
    };
    let p = hist(class);
    let q = hist(global);
    // EMD over ordered bins = Σ |prefix-sum differences| / (m - 1)
    let mut carry = 0.0;
    let mut emd = 0.0;
    for i in 0..domain.len() {
        carry += p[i] - q[i];
        emd += carry.abs();
    }
    emd / (domain.len() as f64 - 1.0)
}

/// Half the L1 distance between the two categorical distributions.
fn variational_distance(class: &[Value], global: &[Value]) -> f64 {
    let hist = |values: &[Value]| -> HashMap<GroupKey, f64> {
        let total = values.len() as f64;
        let mut h: HashMap<GroupKey, f64> = HashMap::new();
        for v in values {
            *h.entry(v.group_key()).or_insert(0.0) += 1.0 / total;
        }
        h
    };
    let p = hist(class);
    let q = hist(global);
    let mut keys: Vec<&GroupKey> = p.keys().collect();
    for k in q.keys() {
        if !p.contains_key(k) {
            keys.push(k);
        }
    }
    let mut l1 = 0.0;
    for k in keys {
        l1 += (p.get(k).copied().unwrap_or(0.0) - q.get(k).copied().unwrap_or(0.0)).abs();
    }
    l1 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::{DataType, Schema};

    fn table(qid: &[i64], sensitive: &[&str]) -> Frame {
        let schema = Schema::from_pairs(&[
            ("q", DataType::Integer),
            ("s", DataType::Text),
        ]);
        let rows = qid
            .iter()
            .zip(sensitive)
            .map(|(q, s)| vec![Value::Int(*q), Value::Str(s.to_string())])
            .collect();
        Frame::new(schema, rows).unwrap()
    }

    #[test]
    fn single_class_is_perfectly_close() {
        // one equivalence class = the global distribution itself
        let f = table(&[1, 1, 1, 1], &["a", "a", "b", "c"]);
        let t = t_closeness(&f, &[0], 1).unwrap().unwrap();
        assert!(t.abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn skewed_class_scores_high() {
        // global: half a, half b; class q=1 all a, class q=2 all b
        let f = table(&[1, 1, 2, 2], &["a", "a", "b", "b"]);
        let t = t_closeness(&f, &[0], 1).unwrap().unwrap();
        assert!((t - 0.5).abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn numeric_emd_orders_matter() {
        let schema = Schema::from_pairs(&[
            ("q", DataType::Integer),
            ("salary", DataType::Integer),
        ]);
        // global salaries 10,20,30,40; class A = {10,20} (adjacent),
        // class B = {10,40} (spread)
        let near = Frame::new(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(2), Value::Int(30)],
                vec![Value::Int(2), Value::Int(40)],
            ],
        )
        .unwrap();
        let spread = Frame::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(40)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(2), Value::Int(30)],
            ],
        )
        .unwrap();
        let t_near = t_closeness(&near, &[0], 1).unwrap().unwrap();
        let t_spread = t_closeness(&spread, &[0], 1).unwrap().unwrap();
        // the class holding extreme-but-representative values is CLOSER
        // to the global distribution than the adjacent-low class
        assert!(t_spread < t_near, "spread {t_spread} vs near {t_near}");
    }

    #[test]
    fn nan_in_an_ordered_sensitive_column_is_a_typed_error() {
        let schema = Schema::from_pairs(&[("q", DataType::Integer), ("s", DataType::Float)]);
        let rows = [1.0, f64::NAN, 3.0]
            .iter()
            .enumerate()
            .map(|(i, &s)| vec![Value::Int(i as i64 % 2), Value::Float(s)])
            .collect();
        let frame = Frame::new(schema, rows).unwrap();
        assert_eq!(t_closeness(&frame, &[0], 1).unwrap_err(), AnonError::NotANumber { column: 1 });
    }

    #[test]
    fn empty_and_errors() {
        let f = Frame::empty(Schema::from_pairs(&[
            ("q", DataType::Integer),
            ("s", DataType::Text),
        ]));
        assert_eq!(t_closeness(&f, &[0], 1).unwrap(), None);
        let g = table(&[1], &["a"]);
        assert!(matches!(t_closeness(&g, &[9], 1), Err(AnonError::BadColumn(9))));
        assert!(matches!(t_closeness(&g, &[0], 9), Err(AnonError::BadColumn(9))));
    }

    #[test]
    fn identical_numeric_values_are_close() {
        let schema = Schema::from_pairs(&[
            ("q", DataType::Integer),
            ("v", DataType::Integer),
        ]);
        let f = Frame::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(2), Value::Int(5)],
            ],
        )
        .unwrap();
        assert_eq!(t_closeness(&f, &[0], 1).unwrap().unwrap(), 0.0);
    }

    #[test]
    fn mondrian_classes_improve_with_k() {
        // larger k → larger classes → distributions closer to global
        use crate::kanon::mondrian;
        let schema = Schema::from_pairs(&[
            ("x", DataType::Integer),
            ("s", DataType::Integer),
        ]);
        let rows: Vec<Vec<Value>> = (0..64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 8)])
            .collect();
        let f = Frame::new(schema, rows).unwrap();
        let mut last = f64::INFINITY;
        for k in [2usize, 8, 32] {
            let anon = mondrian(&f, &[0], k).unwrap();
            let t = t_closeness(&anon.frame, &[0], 1).unwrap().unwrap();
            assert!(t <= last + 1e-9, "t grew with k: {last} → {t}");
            last = t;
        }
    }
}
