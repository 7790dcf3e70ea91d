//! The non-SQL remainder `Qδ` (paper §4.2).
//!
//! The paper's running example wraps the SQL query in R code:
//! `filterByClass(sqldf(…), action="walk", do.plot=F)` — a machine
//! learning stage that cannot be pushed down. We model remainders as
//! opaque transformations over the returned frame, with
//! [`filter_by_class`] reproducing the example's behaviour: classify each
//! row's movement from the regression output and keep those matching the
//! requested action class.

use paradise_engine::{DataType, Frame, Value};

/// An opaque cloud-side stage applied to the shipped result `d'`.
pub struct Remainder {
    /// Display name (e.g. `filterByClass(d', action='walk')`).
    pub name: String,
    /// The transformation.
    func: Box<dyn Fn(Frame) -> Frame + Send + Sync>,
}

impl std::fmt::Debug for Remainder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Remainder").field("name", &self.name).finish()
    }
}

impl Remainder {
    /// Wrap an arbitrary transformation.
    pub fn new(
        name: impl Into<String>,
        func: impl Fn(Frame) -> Frame + Send + Sync + 'static,
    ) -> Self {
        Remainder { name: name.into(), func: Box::new(func) }
    }

    /// Apply to a frame.
    pub fn apply(&self, frame: Frame) -> Frame {
        (self.func)(frame)
    }
}

/// The activity classes of the paper's scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionClass {
    /// Person is walking (gait makes the regression output vary).
    Walk,
    /// Person is standing (regression output steady).
    Stand,
}

impl ActionClass {
    /// Label as used in the R call (`action='walk'`).
    pub fn label(&self) -> &'static str {
        match self {
            ActionClass::Walk => "walk",
            ActionClass::Stand => "stand",
        }
    }
}

/// Reproduce `filterByClass(d', action=…)`: classify each row of the
/// regression result by the magnitude of its first (numeric) column's
/// deviation from the column mean — walking gaits produce varying
/// regression intercepts, standing produces steady ones — and keep the
/// rows of the requested class, appending an `action` column.
pub fn filter_by_class(action: ActionClass) -> Remainder {
    Remainder::new(
        format!("filterByClass(d', action='{}', do.plot=F)", action.label()),
        move |frame: Frame| {
            let n = frame.len();
            let Some(col) = (0..frame.schema.len())
                .find(|&c| (0..n).any(|i| frame.column(c).as_f64(i).is_some()))
            else {
                return frame;
            };
            // column-at-a-time: one pass over the numeric buffer
            let data = frame.column(col);
            let values: Vec<Option<f64>> = (0..n).map(|i| data.as_f64(i)).collect();
            let present: Vec<f64> = values.iter().filter_map(|v| *v).collect();
            if present.is_empty() {
                return frame;
            }
            let mean = present.iter().sum::<f64>() / present.len() as f64;
            let var = present.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / present.len() as f64;
            let sd = var.sqrt();
            // a row is "walking" when its value deviates from the mean by
            // more than half a standard deviation
            let threshold = 0.5 * sd;
            let mask: Vec<bool> = values
                .iter()
                .map(|v| {
                    let class = match v {
                        Some(x) if (x - mean).abs() > threshold => ActionClass::Walk,
                        _ => ActionClass::Stand,
                    };
                    class == action
                })
                .collect();
            let mut out = frame.filter_rows(&mask);
            // every kept row belongs to the requested class
            let labels = paradise_engine::ColumnData::from_values(vec![
                Value::Str(action.label().to_string());
                out.len()
            ]);
            out.push_column(paradise_engine::Column::new("action", DataType::Text), labels)
                .expect("label column matches row count");
            out
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::Schema;

    /// The schema of the regression output of the paper's window query
    /// (single intercept column).
    fn regression_output_schema() -> Schema {
        Schema::from_pairs(&[("regr_intercept", DataType::Float)])
    }

    fn regression_frame(values: &[f64]) -> Frame {
        Frame::new(
            regression_output_schema(),
            values.iter().map(|v| vec![Value::Float(*v)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn filter_by_class_splits_walkers_and_standers() {
        // steady cluster at 1.0 with two outliers (the "walkers")
        let f = regression_frame(&[1.0, 1.0, 1.0, 1.0, 5.0, -3.0]);
        let walk = filter_by_class(ActionClass::Walk).apply(f.clone());
        let stand = filter_by_class(ActionClass::Stand).apply(f.clone());
        assert_eq!(walk.len() + stand.len(), f.len());
        assert_eq!(walk.len(), 2);
        // the appended action column labels correctly
        assert!(walk.iter_rows().all(|r| r.last() == Some(&Value::Str("walk".into()))));
        assert!(stand.iter_rows().all(|r| r.last() == Some(&Value::Str("stand".into()))));
    }

    #[test]
    fn filter_by_class_on_empty_frame() {
        let f = Frame::empty(regression_output_schema());
        let out = filter_by_class(ActionClass::Walk).apply(f);
        assert!(out.is_empty());
    }

    #[test]
    fn filter_by_class_handles_nulls() {
        let mut f = regression_frame(&[1.0, 1.0, 4.0]);
        f.push_row(vec![Value::Null]).unwrap();
        let out = filter_by_class(ActionClass::Stand).apply(f);
        // nulls classify as standing
        assert!(out.column_values(0).any(|v| v.is_null()));
    }

    #[test]
    fn remainder_name_matches_paper_call() {
        let r = filter_by_class(ActionClass::Walk);
        assert_eq!(r.name, "filterByClass(d', action='walk', do.plot=F)");
    }
}
