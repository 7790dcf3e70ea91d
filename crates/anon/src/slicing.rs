//! Data slicing \[LLZM12\]: column-wise anonymization.
//!
//! Slicing partitions the attributes into column groups and the tuples
//! into buckets; within every bucket the value tuples of each column
//! group are randomly permuted, breaking the linkage *between* groups
//! while preserving each group's joint distribution exactly.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use paradise_engine::Frame;

use crate::error::{AnonError, AnonResult};

/// Configuration for [`slice()`].
#[derive(Debug, Clone)]
pub struct SlicingConfig {
    /// Column groups: every column index must appear in exactly one group.
    pub column_groups: Vec<Vec<usize>>,
    /// Tuples per bucket (the last bucket may be larger to absorb the
    /// remainder).
    pub bucket_size: usize,
    /// RNG seed — slicing is randomised; a fixed seed makes runs
    /// reproducible.
    pub seed: u64,
}

/// Result of a slicing run.
#[derive(Debug, Clone)]
pub struct SlicingResult {
    /// The sliced table (same schema and row count).
    pub frame: Frame,
    /// Number of buckets formed.
    pub buckets: usize,
}

/// Slice `frame` per `config`.
pub fn slice(frame: &Frame, config: &SlicingConfig) -> AnonResult<SlicingResult> {
    if config.bucket_size == 0 {
        return Err(AnonError::BadParameter("bucket_size must be ≥ 1".into()));
    }
    if config.column_groups.is_empty() {
        return Err(AnonError::BadParameter("at least one column group required".into()));
    }
    // each column in exactly one group
    let mut seen = vec![false; frame.schema.len()];
    for group in &config.column_groups {
        if group.is_empty() {
            return Err(AnonError::BadParameter("empty column group".into()));
        }
        for &c in group {
            if c >= frame.schema.len() {
                return Err(AnonError::BadColumn(c));
            }
            if seen[c] {
                return Err(AnonError::BadParameter(format!(
                    "column {c} appears in more than one group"
                )));
            }
            seen[c] = true;
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(AnonError::BadParameter(format!(
            "column {missing} is not covered by any group"
        )));
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = frame.clone();
    let n = frame.len();
    if n == 0 {
        return Ok(SlicingResult { frame: out, buckets: 0 });
    }

    // bucket boundaries: full buckets, remainder joins the last one
    let mut boundaries: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    while start + 2 * config.bucket_size <= n {
        boundaries.push((start, start + config.bucket_size));
        start += config.bucket_size;
    }
    boundaries.push((start, n));

    for &(lo, hi) in &boundaries {
        // permute each column group independently within the bucket
        for group in &config.column_groups {
            let mut perm: Vec<usize> = (lo..hi).collect();
            perm.shuffle(&mut rng);
            // gather each column's bucket slice permuted, then scatter —
            // column at a time, the group's columns share one permutation
            for &c in group {
                let src = frame.column(c);
                let values: Vec<paradise_engine::Value> =
                    perm.iter().map(|&s| src.value(s)).collect();
                let dst = out.column_mut(c);
                for (offset, v) in values.into_iter().enumerate() {
                    dst.set(lo + offset, v);
                }
            }
        }
    }
    Ok(SlicingResult { frame: out, buckets: boundaries.len() })
}

/// Group columns by pairwise association so correlated attributes stay
/// together (the paper's slicing step 1, simplified): numeric columns are
/// scored by |Pearson correlation|, and greedily merged above `threshold`.
/// Non-numeric columns each form their own group.
pub fn correlation_groups(frame: &Frame, threshold: f64) -> Vec<Vec<usize>> {
    let m = frame.schema.len();
    let numeric: Vec<bool> = (0..m).map(|c| frame.column(c).all_numeric_or_null()).collect();

    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut assigned = vec![false; m];
    for a in 0..m {
        if assigned[a] {
            continue;
        }
        let mut group = vec![a];
        assigned[a] = true;
        if numeric[a] {
            for b in (a + 1)..m {
                if !assigned[b] && numeric[b] {
                    let corr = pearson(frame, a, b).unwrap_or(0.0);
                    if corr.abs() >= threshold {
                        group.push(b);
                        assigned[b] = true;
                    }
                }
            }
        }
        groups.push(group);
    }
    groups
}

/// Pearson correlation of two numeric columns, `None` when undefined.
fn pearson(frame: &Frame, a: usize, b: usize) -> Option<f64> {
    let ca = frame.column(a);
    let cb = frame.column(b);
    let pairs: Vec<(f64, f64)> = (0..frame.len())
        .filter_map(|i| Some((ca.as_f64(i)?, cb.as_f64(i)?)))
        .collect();
    let n = pairs.len() as f64;
    if pairs.len() < 2 {
        return None;
    }
    let sx: f64 = pairs.iter().map(|(x, _)| x).sum();
    let sy: f64 = pairs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pairs.iter().map(|(x, _)| x * x).sum();
    let syy: f64 = pairs.iter().map(|(_, y)| y * y).sum();
    let sxy: f64 = pairs.iter().map(|(x, y)| x * y).sum();
    let cov = sxy - sx * sy / n;
    let vx = sxx - sx * sx / n;
    let vy = syy - sy * sy / n;
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::{DataType, Schema, Value};
    use std::collections::HashSet;

    fn table() -> Frame {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Integer),
            ("y", DataType::Integer),
            ("who", DataType::Text),
        ]);
        let rows = (0..8)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i * 2), // perfectly correlated with x
                    Value::Str(format!("p{i}")),
                ]
            })
            .collect();
        Frame::new(schema, rows).unwrap()
    }

    fn config(groups: Vec<Vec<usize>>, bucket: usize) -> SlicingConfig {
        SlicingConfig { column_groups: groups, bucket_size: bucket, seed: 42 }
    }

    #[test]
    fn preserves_per_group_multisets_per_bucket() {
        let f = table();
        let r = slice(&f, &config(vec![vec![0, 1], vec![2]], 4)).unwrap();
        assert_eq!(r.buckets, 2);
        // within each bucket, the set of (x, y) pairs is unchanged
        for bucket in 0..2 {
            let lo = bucket * 4;
            let orig: HashSet<String> =
                (lo..lo + 4).map(|i| format!("{}|{}", f.value(i, 0), f.value(i, 1))).collect();
            let sliced: HashSet<String> = (lo..lo + 4)
                .map(|i| format!("{}|{}", r.frame.value(i, 0), r.frame.value(i, 1)))
                .collect();
            assert_eq!(orig, sliced);
        }
    }

    #[test]
    fn grouped_columns_stay_linked() {
        let f = table();
        let r = slice(&f, &config(vec![vec![0, 1], vec![2]], 8)).unwrap();
        // x and y moved together: y == 2x must still hold row-wise
        for row in r.frame.iter_rows() {
            assert_eq!(row[1].as_f64().unwrap(), row[0].as_f64().unwrap() * 2.0);
        }
    }

    #[test]
    fn cross_group_linkage_broken() {
        let f = table();
        let r = slice(&f, &config(vec![vec![0, 1], vec![2]], 8)).unwrap();
        // with 8! permutations at seed 42 it is (overwhelmingly) not identity;
        // check at least one (x, who) pairing changed
        let changed = f
            .iter_rows()
            .zip(r.frame.iter_rows())
            .any(|(a, b)| a[0] == b[0] && a[2] != b[2] || a[0] != b[0]);
        assert!(changed);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let f = table();
        let r1 = slice(&f, &config(vec![vec![0], vec![1], vec![2]], 4)).unwrap();
        let r2 = slice(&f, &config(vec![vec![0], vec![1], vec![2]], 4)).unwrap();
        assert_eq!(r1.frame, r2.frame);
    }

    #[test]
    fn remainder_joins_last_bucket() {
        let f = table(); // 8 rows
        let r = slice(&f, &config(vec![vec![0], vec![1], vec![2]], 3)).unwrap();
        // buckets: [0,3), [3,8) — the remainder of 2 joined the last
        assert_eq!(r.buckets, 2);
    }

    #[test]
    fn validation_errors() {
        let f = table();
        assert!(matches!(
            slice(&f, &config(vec![vec![0, 1]], 4)),
            Err(AnonError::BadParameter(_)) // column 2 uncovered
        ));
        assert!(matches!(
            slice(&f, &config(vec![vec![0, 1], vec![1], vec![2]], 4)),
            Err(AnonError::BadParameter(_)) // duplicate column
        ));
        assert!(matches!(
            slice(&f, &config(vec![vec![0, 1], vec![9]], 4)),
            Err(AnonError::BadColumn(9))
        ));
        assert!(matches!(
            slice(&f, &config(vec![vec![0, 1, 2]], 0)),
            Err(AnonError::BadParameter(_))
        ));
    }

    #[test]
    fn empty_frame_is_fine() {
        let f = Frame::empty(Schema::from_pairs(&[("x", DataType::Integer)]));
        let r = slice(&f, &config(vec![vec![0]], 4)).unwrap();
        assert_eq!(r.buckets, 0);
        assert!(r.frame.is_empty());
    }

    #[test]
    fn correlation_grouping_joins_correlated_columns() {
        let f = table();
        let groups = correlation_groups(&f, 0.9);
        // x and y are perfectly correlated → same group; who is alone
        assert!(groups.contains(&vec![0, 1]));
        assert!(groups.contains(&vec![2]));
    }

    #[test]
    fn pearson_sane() {
        let f = table();
        let c = pearson(&f, 0, 1).unwrap();
        assert!((c - 1.0).abs() < 1e-9);
        assert!(pearson(&f, 0, 2).is_none()); // non-numeric column
    }
}
