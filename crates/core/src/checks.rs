//! The preprocessor's information-gain check (paper §3.1): a
//! Kullback–Leibler-based estimate ("it is tested if the information
//! system could gain enough information to produce satisfactory
//! results"). The §3.1 node-capacity check is `Node::admit`.

use paradise_anon::kl_divergence;
use paradise_engine::{Catalog, Executor, Frame};
use paradise_sql::ast::Query;

use crate::error::{CoreError, CoreResult};

/// Result of the information-gain check.
#[derive(Debug, Clone, PartialEq)]
pub struct InformationGainReport {
    /// Mean KL divergence over the common output columns.
    pub divergence: f64,
    /// Columns (by name) that were compared.
    pub compared_columns: Vec<String>,
    /// Rows produced by the original / rewritten query.
    pub rows: (usize, usize),
}

/// Estimate how much information the rewritten query loses with respect
/// to the original, by executing both against sample data and computing
/// the KL divergence of each shared output column's value distribution
/// (paper §3.1, citing \[HS10\]).
///
/// Fails with [`CoreError::InsufficientInformation`] when the mean
/// divergence exceeds `threshold`.
pub fn information_gain_check(
    catalog: &Catalog,
    original: &Query,
    rewritten: &Query,
    threshold: f64,
) -> CoreResult<InformationGainReport> {
    let executor = Executor::new(catalog);
    let base = executor.execute(original)?;
    let reduced = executor.execute(rewritten)?;
    let report = compare_frames(&base, &reduced)?;
    if report.divergence > threshold {
        return Err(CoreError::InsufficientInformation {
            divergence: report.divergence,
            threshold,
        });
    }
    Ok(report)
}

/// Compare two result frames column-by-name; the divergence is averaged
/// over the shared columns (0.0 when nothing is shared — the check then
/// cannot say anything, which callers may treat as suspicious).
pub fn compare_frames(base: &Frame, reduced: &Frame) -> CoreResult<InformationGainReport> {
    let mut compared = Vec::new();
    let mut total = 0.0;
    for (bi, bcol) in base.schema.columns().iter().enumerate() {
        let Some(ri) = reduced
            .schema
            .columns()
            .iter()
            .position(|rc| rc.name.eq_ignore_ascii_case(&bcol.name))
        else {
            continue;
        };
        // single-column comparison via per-frame projections
        let base_col = project(base, bi);
        let reduced_col = project(reduced, ri);
        let kl = kl_divergence(&base_col, &reduced_col, &[0])?;
        total += kl;
        compared.push(bcol.name.clone());
    }
    let divergence = if compared.is_empty() { 0.0 } else { total / compared.len() as f64 };
    Ok(InformationGainReport {
        divergence,
        compared_columns: compared,
        rows: (base.len(), reduced.len()),
    })
}

fn project(frame: &Frame, column: usize) -> Frame {
    let col = frame.schema.columns()[column].clone();
    let mut schema = paradise_engine::Schema::default();
    schema.push(col);
    // zero-copy: the projection shares the column's buffer
    Frame::from_arc_columns(schema, vec![frame.column_arc(column)])
        .expect("single column matches single-column schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::{DataType, Schema, Value};
    use paradise_sql::parse_query;

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("z", DataType::Float),
        ]);
        let rows = (0..100)
            .map(|i| vec![Value::Float((i % 10) as f64), Value::Float((i % 4) as f64)])
            .collect();
        let mut c = Catalog::new();
        c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
        c
    }

    #[test]
    fn identical_queries_have_zero_divergence() {
        let c = catalog();
        let q = parse_query("SELECT x FROM d").unwrap();
        let report = information_gain_check(&c, &q, &q, 0.01).unwrap();
        assert!(report.divergence.abs() < 1e-9);
        assert_eq!(report.compared_columns, vec!["x"]);
    }

    #[test]
    fn mild_filtering_passes_a_loose_threshold() {
        let c = catalog();
        let original = parse_query("SELECT x FROM d").unwrap();
        let rewritten = parse_query("SELECT x FROM d WHERE z < 3").unwrap();
        let report = information_gain_check(&c, &original, &rewritten, 0.5).unwrap();
        assert!(report.divergence > 0.0);
        assert!(report.rows.1 < report.rows.0);
    }

    #[test]
    fn harsh_filtering_fails_a_tight_threshold() {
        let c = catalog();
        let original = parse_query("SELECT x FROM d").unwrap();
        let rewritten = parse_query("SELECT x FROM d WHERE z < 1 AND x > 7").unwrap();
        let err = information_gain_check(&c, &original, &rewritten, 0.05).unwrap_err();
        assert!(matches!(err, CoreError::InsufficientInformation { .. }));
    }

    #[test]
    fn disjoint_columns_compare_nothing() {
        let base = Frame::new(
            Schema::from_pairs(&[("a", DataType::Integer)]),
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        let reduced = Frame::new(
            Schema::from_pairs(&[("b", DataType::Integer)]),
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        let report = compare_frames(&base, &reduced).unwrap();
        assert_eq!(report.divergence, 0.0);
        assert!(report.compared_columns.is_empty());
    }
}
