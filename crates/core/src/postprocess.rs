//! The postprocessor (paper §3.2): anonymize the preliminary result,
//! choosing column-wise (slicing) or tuple-wise (k-anonymity)
//! anonymization based on quasi-identifier analysis.
//!
//! It releases and does not grade: the paper's information-loss
//! metrics evaluate an anonymization, they are not part of what leaves
//! the apartment. A caller that wants them computes
//! [`direct_distance_ratio`](paradise_anon::direct_distance_ratio) and
//! [`kl_divergence`](paradise_anon::kl_divergence) on the input frame
//! and [`PostprocessOutcome::frame`].

use paradise_anon::{detect_qids, mondrian, slice, QidConfig, SlicingConfig};
use paradise_engine::Frame;

use crate::error::CoreResult;

/// Anonymization strategy selection.
#[derive(Debug, Clone, PartialEq)]
pub enum AnonStrategy {
    /// Decide automatically from QID analysis (paper §3.2 / §5).
    /// Direct identifiers the analysis finds (near-unique columns, such
    /// as a per-user release's `uid`) are kept out of the QID set and
    /// released unchanged, not removed or generalised: only a policy
    /// that projects them away keeps them from the requester.
    Auto {
        /// k for the tuple-wise branch.
        k: usize,
        /// Bucket size for the column-wise branch.
        bucket_size: usize,
    },
    /// Force tuple-wise k-anonymity (Mondrian) on detected QIDs.
    KAnonymity {
        /// Required class size.
        k: usize,
    },
    /// k-anonymity **and** distinct l-diversity on a sensitive column.
    LDiversity {
        /// Required class size.
        k: usize,
        /// Required distinct sensitive values per class.
        l: usize,
        /// Index of the sensitive column (excluded from the QIDs).
        sensitive: usize,
    },
    /// Force column-wise slicing with correlation-derived groups.
    Slicing {
        /// Tuples per bucket.
        bucket_size: usize,
    },
    /// No anonymization (aggregation-only protection).
    None,
}

impl Default for AnonStrategy {
    fn default() -> Self {
        AnonStrategy::Auto { k: 3, bucket_size: 4 }
    }
}

/// What the postprocessor did.
#[derive(Debug, Clone, PartialEq)]
pub enum AnonDecision {
    /// Tuple-wise k-anonymity on these columns.
    TupleWise {
        /// QID columns generalized.
        qid_columns: Vec<usize>,
        /// k used.
        k: usize,
    },
    /// Column-wise slicing with these groups.
    ColumnWise {
        /// Column groups permuted independently.
        groups: Vec<Vec<usize>>,
        /// Buckets formed.
        buckets: usize,
    },
    /// Nothing to do (no QIDs found / strategy None / table too small).
    Passthrough {
        /// Why.
        reason: String,
    },
}

/// Postprocessing result: the anonymized frame and what was done.
#[derive(Debug, Clone)]
pub struct PostprocessOutcome {
    /// The anonymized result `d'` sent to the requester.
    pub frame: Frame,
    /// What was done.
    pub decision: AnonDecision,
}

/// Run the postprocessor.
pub fn postprocess(frame: Frame, strategy: &AnonStrategy) -> CoreResult<PostprocessOutcome> {
    match strategy {
        AnonStrategy::None => Ok(passthrough(frame, "anonymization disabled")),
        AnonStrategy::KAnonymity { k } => tuple_wise(frame, *k),
        AnonStrategy::LDiversity { k, l, sensitive } => {
            let qids: Vec<usize> = (0..frame.schema.len())
                .filter(|&c| {
                    c != *sensitive
                        && frame.column(c).all_numeric_or_null()
                })
                .collect();
            if qids.is_empty() {
                return Ok(passthrough(frame, "no numeric QID columns for l-diversity"));
            }
            let anonymized = paradise_anon::mondrian_l_diverse(&frame, &qids, *sensitive, *k, *l)?;
            Ok(PostprocessOutcome {
                frame: anonymized,
                decision: AnonDecision::TupleWise { qid_columns: qids, k: *k },
            })
        }
        AnonStrategy::Slicing { bucket_size } => column_wise(frame, *bucket_size),
        AnonStrategy::Auto { k, bucket_size } => {
            if frame.len() < *k {
                return Ok(passthrough(frame, format!("result smaller than k = {k}")));
            }
            // paper §3.2: detect quasi-identifiers, then decide column-
            // vs. tuple-wise. Tuple-wise when a compact numeric QID set
            // exists (generalization hurts little); column-wise when the
            // table is wide and linkage is the threat.
            let report = detect_qids(&frame, &QidConfig::default())?;
            match &report.quasi_identifier {
                Some(qids) if qids.len() <= 3 => {
                    let numeric = qids.iter().all(|&c| {
                        frame.column(c).all_numeric_or_null()
                    });
                    if numeric {
                        tuple_wise_on(frame, qids.clone(), *k)
                    } else {
                        column_wise(frame, *bucket_size)
                    }
                }
                Some(_) => column_wise(frame, *bucket_size),
                None => Ok(passthrough(frame, "no quasi-identifier detected")),
            }
        }
    }
}

fn passthrough(frame: Frame, reason: impl Into<String>) -> PostprocessOutcome {
    PostprocessOutcome { frame, decision: AnonDecision::Passthrough { reason: reason.into() } }
}

fn tuple_wise(frame: Frame, k: usize) -> CoreResult<PostprocessOutcome> {
    let report = detect_qids(&frame, &QidConfig::default())?;
    let qids = match report.quasi_identifier {
        Some(q) => q,
        None => {
            // fall back to all numeric columns
            (0..frame.schema.len())
                .filter(|&c| frame.column(c).all_numeric_or_null())
                .collect()
        }
    };
    if qids.is_empty() {
        return Ok(passthrough(frame, "no columns suitable for k-anonymity"));
    }
    tuple_wise_on(frame, qids, k)
}

fn tuple_wise_on(frame: Frame, qids: Vec<usize>, k: usize) -> CoreResult<PostprocessOutcome> {
    let anonymized = mondrian(&frame, &qids, k)?;
    Ok(PostprocessOutcome {
        frame: anonymized,
        decision: AnonDecision::TupleWise { qid_columns: qids, k },
    })
}

fn column_wise(frame: Frame, bucket_size: usize) -> CoreResult<PostprocessOutcome> {
    if frame.schema.len() < 2 || frame.len() < 2 {
        return Ok(passthrough(frame, "too small for slicing"));
    }
    let groups = paradise_anon::correlation_groups(&frame, 0.8);
    let config = SlicingConfig { column_groups: groups.clone(), bucket_size, seed: 0xC0FFEE };
    let result = slice(&frame, &config)?;
    Ok(PostprocessOutcome {
        frame: result.frame,
        decision: AnonDecision::ColumnWise { groups, buckets: result.buckets },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_anon::{direct_distance_ratio, kl_divergence};
    use paradise_engine::{DataType, Schema, Value};

    /// The paper's §3.2 metrics of `out` against its input `original`:
    /// the Direct-Distance ratio and the KL divergence over all columns.
    fn quality(original: &Frame, out: &PostprocessOutcome) -> (f64, f64) {
        let all: Vec<usize> = (0..original.schema.len()).collect();
        (
            direct_distance_ratio(original, &out.frame).unwrap(),
            kl_divergence(original, &out.frame, &all).unwrap(),
        )
    }

    fn position_frame(n: usize) -> Frame {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("who", DataType::Text),
        ]);
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::Float(i as f64),
                    Value::Float((i * 7 % 13) as f64),
                    Value::Str(format!("p{}", i % 3)),
                ]
            })
            .collect();
        Frame::new(schema, rows).unwrap()
    }

    #[test]
    fn a_nan_quasi_identifier_is_a_typed_error() {
        // x is a direct identifier (unique), y the quasi-identifier
        let mut rows = position_frame(20).to_rows();
        rows[5][1] = Value::Float(f64::NAN);
        let frame = Frame::new(position_frame(0).schema, rows).unwrap();
        let err = postprocess(frame, &AnonStrategy::KAnonymity { k: 3 }).unwrap_err();
        assert_eq!(
            err,
            crate::error::CoreError::Anon(paradise_anon::AnonError::NotANumber { column: 1 })
        );
    }

    #[test]
    fn a_nan_quasi_identifier_is_a_typed_error_without_a_split() {
        // 5 rows < 2k: Mondrian never splits, so no split sorts column 1
        let mut rows = position_frame(5).to_rows();
        rows[2][1] = Value::Float(f64::NAN);
        let frame = Frame::new(position_frame(0).schema, rows).unwrap();
        let err = postprocess(frame, &AnonStrategy::KAnonymity { k: 3 }).unwrap_err();
        assert_eq!(
            err,
            crate::error::CoreError::Anon(paradise_anon::AnonError::NotANumber { column: 1 })
        );
    }

    #[test]
    fn strategy_none_passes_through() {
        let f = position_frame(10);
        let out = postprocess(f.clone(), &AnonStrategy::None).unwrap();
        assert_eq!(out.frame, f);
        let (dd_ratio, kl) = quality(&f, &out);
        assert_eq!(dd_ratio, 0.0);
        assert!(kl.abs() < 1e-9);
        assert!(matches!(out.decision, AnonDecision::Passthrough { .. }));
    }

    #[test]
    fn ldiversity_strategy_guarantees_both_bounds() {
        use paradise_anon::{achieved_k, distinct_l};
        // who (text, column 2) is the sensitive attribute
        let f = position_frame(24);
        let out = postprocess(
            f,
            &AnonStrategy::LDiversity { k: 3, l: 2, sensitive: 2 },
        )
        .unwrap();
        let AnonDecision::TupleWise { qid_columns, .. } = &out.decision else {
            panic!("expected tuple-wise, got {:?}", out.decision);
        };
        assert!(!qid_columns.contains(&2), "sensitive column must not be a QID");
        assert!(achieved_k(&out.frame, qid_columns).unwrap().unwrap() >= 3);
        assert!(distinct_l(&out.frame, qid_columns, 2).unwrap().unwrap() >= 2);
    }

    #[test]
    fn kanonymity_generalizes_and_costs_information() {
        let f = position_frame(12);
        let out = postprocess(f.clone(), &AnonStrategy::KAnonymity { k: 3 }).unwrap();
        assert!(matches!(out.decision, AnonDecision::TupleWise { k: 3, .. }));
        let (dd_ratio, kl) = quality(&f, &out);
        assert!(dd_ratio > 0.0, "generalization must change cells");
        assert!(kl > 0.0);
    }

    #[test]
    fn slicing_preserves_cell_multisets() {
        let f = position_frame(12);
        let out = postprocess(f.clone(), &AnonStrategy::Slicing { bucket_size: 4 }).unwrap();
        assert!(matches!(out.decision, AnonDecision::ColumnWise { .. }));
        assert_eq!(out.frame.len(), f.len());
        // per-column value multisets preserved overall
        for c in 0..f.schema.len() {
            let mut orig: Vec<String> = f.column_values(c).map(|v| v.to_string()).collect();
            let mut sliced: Vec<String> =
                out.frame.column_values(c).map(|v| v.to_string()).collect();
            orig.sort();
            sliced.sort();
            assert_eq!(orig, sliced);
        }
    }

    #[test]
    fn auto_small_result_passes_through() {
        let f = position_frame(2);
        let out = postprocess(f, &AnonStrategy::default()).unwrap();
        assert!(matches!(out.decision, AnonDecision::Passthrough { .. }));
    }

    #[test]
    fn auto_chooses_something_for_identifying_data() {
        let f = position_frame(20); // x is unique → identifying
        let out = postprocess(f, &AnonStrategy::default()).unwrap();
        // x is a direct identifier (unique), remaining (y, who) may or
        // may not form a QID; any decision is fine but must be sound:
        match out.decision {
            AnonDecision::TupleWise { k, .. } => assert!(k >= 2),
            AnonDecision::ColumnWise { ref groups, .. } => assert!(!groups.is_empty()),
            AnonDecision::Passthrough { .. } => {}
        }
    }

    #[test]
    fn homogeneous_data_needs_nothing() {
        let schema = Schema::from_pairs(&[("v", DataType::Integer)]);
        let rows = vec![vec![Value::Int(1)]; 10];
        let f = Frame::new(schema, rows).unwrap();
        let out = postprocess(f.clone(), &AnonStrategy::default()).unwrap();
        assert!(matches!(out.decision, AnonDecision::Passthrough { .. }));
        assert_eq!(quality(&f, &out).0, 0.0);
    }
}
