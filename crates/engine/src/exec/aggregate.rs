//! Aggregate function accumulators, including the SQL:2011 linear
//! regression aggregates used by the paper's running example.

use std::collections::HashSet;

use crate::error::{EngineError, EngineResult};
use crate::value::{GroupKey, Value};

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AggKind {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Stddev,
    VarSamp,
    RegrIntercept,
    RegrSlope,
    RegrR2,
    RegrCount,
}

impl AggKind {
    /// Resolve a function name to an aggregate kind.
    pub fn from_name(name: &str) -> Option<AggKind> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggKind::Count),
            "SUM" => Some(AggKind::Sum),
            "AVG" => Some(AggKind::Avg),
            "MIN" => Some(AggKind::Min),
            "MAX" => Some(AggKind::Max),
            "STDDEV" => Some(AggKind::Stddev),
            "VAR_SAMP" => Some(AggKind::VarSamp),
            "REGR_INTERCEPT" => Some(AggKind::RegrIntercept),
            "REGR_SLOPE" => Some(AggKind::RegrSlope),
            "REGR_R2" => Some(AggKind::RegrR2),
            "REGR_COUNT" => Some(AggKind::RegrCount),
            _ => None,
        }
    }

    /// Number of arguments the aggregate takes (`COUNT(*)` counts as 1 —
    /// the wildcard argument).
    pub fn arity(&self) -> usize {
        match self {
            AggKind::RegrIntercept | AggKind::RegrSlope | AggKind::RegrR2 | AggKind::RegrCount => 2,
            _ => 1,
        }
    }

    /// Is this one of the two-argument regression aggregates?
    pub fn is_regression(&self) -> bool {
        self.arity() == 2
    }
}

/// Incremental accumulator for one aggregate call over one group/window.
#[derive(Debug, Clone)]
pub struct Accumulator {
    kind: AggKind,
    distinct: bool,
    seen: HashSet<Vec<GroupKey>>,
    /// COUNT of processed (non-null) inputs.
    n: u64,
    /// Σx (single-argument aggregates), Σy for regression.
    sum: f64,
    /// Σx² (single-argument), Σy² for regression.
    sum_sq: f64,
    /// Regression: Σx, Σx², Σxy (x is the *second* argument per SQL).
    rx_sum: f64,
    rx_sum_sq: f64,
    rxy_sum: f64,
    /// MIN/MAX carrier.
    extremum: Option<Value>,
    /// Whether all non-null inputs were integers (drives SUM typing).
    all_int: bool,
}

impl Accumulator {
    /// Fresh accumulator.
    pub fn new(kind: AggKind, distinct: bool) -> Self {
        Accumulator {
            kind,
            distinct,
            seen: HashSet::new(),
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            rx_sum: 0.0,
            rx_sum_sq: 0.0,
            rxy_sum: 0.0,
            extremum: None,
            all_int: true,
        }
    }

    /// Feed one row's argument values. For `COUNT(*)` pass a single
    /// non-null placeholder (e.g. `Value::Int(1)`).
    pub fn update(&mut self, args: &[Value]) -> EngineResult<()> {
        if args.len() != self.kind.arity() {
            return Err(EngineError::WrongArity {
                function: format!("{:?}", self.kind),
                expected: self.kind.arity().to_string(),
                got: args.len(),
            });
        }
        // SQL semantics: rows where any aggregate input is NULL are skipped
        // (COUNT(*) callers never pass NULL).
        if args.iter().any(Value::is_null) {
            return Ok(());
        }
        if self.distinct {
            let key: Vec<GroupKey> = args.iter().map(Value::group_key).collect();
            if !self.seen.insert(key) {
                return Ok(());
            }
        }
        match self.kind {
            AggKind::Count => {
                self.n += 1;
            }
            AggKind::Sum | AggKind::Avg | AggKind::Stddev | AggKind::VarSamp => {
                let x = args[0].as_f64().ok_or_else(|| {
                    EngineError::TypeMismatch(format!(
                        "aggregate over non-numeric value {}",
                        args[0]
                    ))
                })?;
                if !matches!(args[0], Value::Int(_)) {
                    self.all_int = false;
                }
                self.n += 1;
                self.sum += x;
                self.sum_sq += x * x;
            }
            AggKind::Min => {
                let better = match &self.extremum {
                    None => true,
                    Some(cur) => args[0].total_cmp(cur).is_lt(),
                };
                if better {
                    self.extremum = Some(args[0].clone());
                }
                self.n += 1;
            }
            AggKind::Max => {
                let better = match &self.extremum {
                    None => true,
                    Some(cur) => args[0].total_cmp(cur).is_gt(),
                };
                if better {
                    self.extremum = Some(args[0].clone());
                }
                self.n += 1;
            }
            AggKind::RegrIntercept | AggKind::RegrSlope | AggKind::RegrR2 | AggKind::RegrCount => {
                // SQL: regr_*(y, x) — dependent first, independent second.
                let y = args[0].as_f64().ok_or_else(|| {
                    EngineError::TypeMismatch("regression over non-numeric y".into())
                })?;
                let x = args[1].as_f64().ok_or_else(|| {
                    EngineError::TypeMismatch("regression over non-numeric x".into())
                })?;
                self.n += 1;
                self.sum += y;
                self.sum_sq += y * y;
                self.rx_sum += x;
                self.rx_sum_sq += x * x;
                self.rxy_sum += x * y;
            }
        }
        Ok(())
    }

    /// Reset to the freshly-constructed state, keeping the allocated
    /// DISTINCT set. Lets one accumulator be reused across thousands of
    /// groups/partitions without re-initialising per group.
    pub(crate) fn reset(&mut self) {
        self.seen.clear();
        self.n = 0;
        self.sum = 0.0;
        self.sum_sq = 0.0;
        self.rx_sum = 0.0;
        self.rx_sum_sq = 0.0;
        self.rxy_sum = 0.0;
        self.extremum = None;
        self.all_int = true;
    }

    /// Fast path of [`Accumulator::update`] for the single-argument
    /// numeric kinds (SUM/AVG/STDDEV/VAR_SAMP) when the caller already
    /// holds a non-null numeric (skip NULLs before calling). Bypasses
    /// the `Value` round-trip of the generic path; the sums are updated
    /// in the same order, so results are bit-identical.
    pub(crate) fn update_num_fast(&mut self, x: f64, from_int: bool) {
        debug_assert!(matches!(
            self.kind,
            AggKind::Sum | AggKind::Avg | AggKind::Stddev | AggKind::VarSamp
        ));
        if !from_int {
            self.all_int = false;
        }
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
    }

    /// Fast path of [`Accumulator::update`] for the two-argument
    /// regression kinds over non-null numeric pairs (`regr_*(y, x)`).
    pub(crate) fn update_pair_fast(&mut self, y: f64, x: f64) {
        debug_assert!(self.kind.is_regression());
        self.n += 1;
        self.sum += y;
        self.sum_sq += y * y;
        self.rx_sum += x;
        self.rx_sum_sq += x * x;
        self.rxy_sum += x * y;
    }

    /// Fast path for COUNT over `by` non-null inputs.
    pub(crate) fn bump_count(&mut self, by: u64) {
        debug_assert!(matches!(self.kind, AggKind::Count));
        self.n += by;
    }

    /// Final value of the aggregate.
    pub fn finish(&self) -> Value {
        let n = self.n as f64;
        match self.kind {
            AggKind::Count => Value::Int(self.n as i64),
            AggKind::Sum => {
                if self.n == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggKind::Avg => {
                if self.n == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / n)
                }
            }
            AggKind::Min | AggKind::Max => self.extremum.clone().unwrap_or(Value::Null),
            AggKind::VarSamp | AggKind::Stddev => {
                if self.n < 2 {
                    return Value::Null;
                }
                let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
                let var = var.max(0.0); // clamp tiny negative fp noise
                match self.kind {
                    AggKind::VarSamp => Value::Float(var),
                    _ => Value::Float(var.sqrt()),
                }
            }
            AggKind::RegrCount => Value::Int(self.n as i64),
            AggKind::RegrSlope | AggKind::RegrIntercept | AggKind::RegrR2 => {
                if self.n == 0 {
                    return Value::Null;
                }
                let sxx = self.rx_sum_sq - self.rx_sum * self.rx_sum / n;
                let sxy = self.rxy_sum - self.rx_sum * self.sum / n;
                let syy = self.sum_sq - self.sum * self.sum / n;
                match self.kind {
                    AggKind::RegrSlope => {
                        if sxx == 0.0 {
                            Value::Null
                        } else {
                            Value::Float(sxy / sxx)
                        }
                    }
                    AggKind::RegrIntercept => {
                        if sxx == 0.0 {
                            Value::Null
                        } else {
                            let slope = sxy / sxx;
                            Value::Float((self.sum - slope * self.rx_sum) / n)
                        }
                    }
                    AggKind::RegrR2 => {
                        if sxx == 0.0 {
                            Value::Null
                        } else if syy == 0.0 {
                            Value::Float(1.0)
                        } else {
                            Value::Float((sxy * sxy) / (sxx * syy))
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: AggKind, distinct: bool, rows: &[Vec<Value>]) -> Value {
        let mut acc = Accumulator::new(kind, distinct);
        for r in rows {
            acc.update(r).unwrap();
        }
        acc.finish()
    }

    fn ints(vals: &[i64]) -> Vec<Vec<Value>> {
        vals.iter().map(|v| vec![Value::Int(*v)]).collect()
    }

    #[test]
    fn count_ignores_nulls() {
        let rows = vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(2)]];
        assert_eq!(run(AggKind::Count, false, &rows), Value::Int(2));
    }

    #[test]
    fn count_distinct() {
        let rows = ints(&[1, 1, 2, 2, 3]);
        assert_eq!(run(AggKind::Count, true, &rows), Value::Int(3));
    }

    #[test]
    fn sum_typing() {
        assert_eq!(run(AggKind::Sum, false, &ints(&[1, 2, 3])), Value::Int(6));
        let rows = vec![vec![Value::Int(1)], vec![Value::Float(0.5)]];
        assert_eq!(run(AggKind::Sum, false, &rows), Value::Float(1.5));
        assert_eq!(run(AggKind::Sum, false, &[]), Value::Null);
    }

    #[test]
    fn avg_is_float() {
        assert_eq!(run(AggKind::Avg, false, &ints(&[1, 2])), Value::Float(1.5));
        assert_eq!(run(AggKind::Avg, false, &[]), Value::Null);
    }

    #[test]
    fn min_max() {
        assert_eq!(run(AggKind::Min, false, &ints(&[3, 1, 2])), Value::Int(1));
        assert_eq!(run(AggKind::Max, false, &ints(&[3, 1, 2])), Value::Int(3));
        assert_eq!(run(AggKind::Min, false, &[]), Value::Null);
        let strs = vec![vec![Value::Str("b".into())], vec![Value::Str("a".into())]];
        assert_eq!(run(AggKind::Min, false, &strs), Value::Str("a".into()));
    }

    #[test]
    fn stddev_and_variance() {
        // variance of 1..=5 (sample) = 2.5
        let v = run(AggKind::VarSamp, false, &ints(&[1, 2, 3, 4, 5]));
        let Value::Float(var) = v else { panic!() };
        assert!((var - 2.5).abs() < 1e-9);
        let s = run(AggKind::Stddev, false, &ints(&[1, 2, 3, 4, 5]));
        let Value::Float(sd) = s else { panic!() };
        assert!((sd - 2.5f64.sqrt()).abs() < 1e-9);
        assert_eq!(run(AggKind::Stddev, false, &ints(&[7])), Value::Null);
    }

    fn xy_pairs(pairs: &[(f64, f64)]) -> Vec<Vec<Value>> {
        // regr_*(y, x)
        pairs.iter().map(|(y, x)| vec![Value::Float(*y), Value::Float(*x)]).collect()
    }

    #[test]
    fn regression_on_perfect_line() {
        // y = 2x + 1
        let rows = xy_pairs(&[(3.0, 1.0), (5.0, 2.0), (7.0, 3.0), (9.0, 4.0)]);
        let Value::Float(slope) = run(AggKind::RegrSlope, false, &rows) else { panic!() };
        assert!((slope - 2.0).abs() < 1e-9);
        let Value::Float(icpt) = run(AggKind::RegrIntercept, false, &rows) else { panic!() };
        assert!((icpt - 1.0).abs() < 1e-9);
        let Value::Float(r2) = run(AggKind::RegrR2, false, &rows) else { panic!() };
        assert!((r2 - 1.0).abs() < 1e-9);
        assert_eq!(run(AggKind::RegrCount, false, &rows), Value::Int(4));
    }

    #[test]
    fn regression_skips_null_pairs() {
        let mut rows = xy_pairs(&[(3.0, 1.0), (5.0, 2.0)]);
        rows.push(vec![Value::Null, Value::Float(9.0)]);
        assert_eq!(run(AggKind::RegrCount, false, &rows), Value::Int(2));
    }

    #[test]
    fn regression_degenerate_x_is_null() {
        let rows = xy_pairs(&[(1.0, 2.0), (3.0, 2.0)]);
        assert_eq!(run(AggKind::RegrSlope, false, &rows), Value::Null);
        assert_eq!(run(AggKind::RegrIntercept, false, &rows), Value::Null);
    }

    #[test]
    fn regression_flat_y_r2_is_one() {
        let rows = xy_pairs(&[(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)]);
        assert_eq!(run(AggKind::RegrR2, false, &rows), Value::Float(1.0));
    }

    #[test]
    fn from_name_resolution() {
        assert_eq!(AggKind::from_name("avg"), Some(AggKind::Avg));
        assert_eq!(AggKind::from_name("REGR_INTERCEPT"), Some(AggKind::RegrIntercept));
        assert_eq!(AggKind::from_name("abs"), None);
    }

    #[test]
    fn sum_distinct() {
        assert_eq!(run(AggKind::Sum, true, &ints(&[2, 2, 3])), Value::Int(5));
    }

    #[test]
    fn aggregate_over_text_errors() {
        let mut acc = Accumulator::new(AggKind::Sum, false);
        assert!(acc.update(&[Value::Str("x".into())]).is_err());
    }
}
