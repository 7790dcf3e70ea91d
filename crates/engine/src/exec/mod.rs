//! The query executor.
//!
//! Pipeline per `SELECT` block (SQL logical order):
//! `FROM` → `WHERE` → `GROUP BY`+aggregates → `HAVING` → window functions
//! → projection → `DISTINCT` → `ORDER BY` → `LIMIT`/`OFFSET` → `UNION`.
//!
//! ## One executor
//!
//! There is exactly one way to run a query: [`Executor::compile`] binds
//! it against the catalog's schemas into a physical plan (see
//! [`crate::plan`]: ordinals pre-resolved, expressions lowered to flat
//! instruction programs, strategies pre-selected) and
//! [`Executor::run_plan`] executes that plan. [`Executor::execute`] is
//! the two in sequence; continuous queries compile once and re-run the
//! plan every tick. This module holds the executor handle and the
//! plan-independent kernels (joins, `DISTINCT`, sorting, output type
//! finalisation); the reference the equivalence suites compare against
//! is a naive row-at-a-time oracle that lives with the tests
//! (`crates/engine/tests/oracle/`), not in the library.
//!
//! ## Static vs. data-dependent errors
//!
//! An error that is a property of (query, schema) — unknown table,
//! column or window function, wrong aggregate arity, `UNION` branches
//! of different widths, `SELECT *` with aggregation, in a subquery or
//! a join's `ON` too — surfaces from `compile`, whatever the data. An
//! error that depends on the values (`WHERE 'abc'`, `ABS('nope')`, an
//! unknown scalar function) surfaces when a row is actually evaluated,
//! so it never fires over an empty input.
//!
//! ## Lenient GROUP BY
//!
//! The paper's rewritten query projects `t` while grouping by `x, y`
//! (§4.2): non-grouped, non-aggregated columns take their value from
//! the first row of each group.

pub mod aggregate;
pub mod window;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use paradise_sql::analysis::is_aggregate_function;
use paradise_sql::ast::{Expr, FunctionCall, JoinKind, Query, SortOrder};
use paradise_sql::visit::transform_expr;

use crate::catalog::Catalog;
use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::frame::Frame;
use crate::plan::ExprProgram;
use crate::schema::{Column, Schema};
use crate::value::{GroupKey, Value};

/// Safety valve for joins: maximum produced rows before aborting.
const MAX_JOIN_ROWS: usize = 10_000_000;

/// Row pairs a nested-loop join evaluates its `ON` program over at once.
const JOIN_BLOCK_PAIRS: usize = 4096;

/// Query executor bound to a catalog, plus optionally one input frame
/// bound by name for the executor's lifetime.
pub struct Executor<'a> {
    pub(crate) catalog: &'a Catalog,
    input: Option<(&'a str, &'a Frame)>,
}

impl<'a> Executor<'a> {
    /// Executor over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Executor { catalog, input: None }
    }

    /// Executor over `catalog` plus `frame` bound as table `name` — a
    /// `Scan` of `name` reads `frame` (shadowing a catalog table of the
    /// same name). This is how a fragment pipeline hands one stage's
    /// output to the next by value: nothing is installed anywhere, and
    /// the binding ends with the executor.
    pub fn with_input(catalog: &'a Catalog, name: &'a str, frame: &'a Frame) -> Self {
        Executor { catalog, input: Some((name, frame)) }
    }

    /// Resolve a table as this executor sees it: the bound input
    /// first, then the catalog.
    pub fn table(&self, name: &str) -> EngineResult<&'a Frame> {
        match self.input {
            Some((bound, frame)) if bound.eq_ignore_ascii_case(name) => Ok(frame),
            _ => self.catalog.get(name),
        }
    }

    /// Fingerprint of the schemas of `tables` as this executor resolves
    /// them (see [`crate::plan::schema_fingerprint`]).
    pub(crate) fn fingerprint(&self, tables: &[String]) -> u64 {
        crate::plan::fingerprint_with(tables, |t| self.table(t).ok())
    }

    /// Execute a query to a materialised [`Frame`]: compile it to a
    /// physical plan, then run the plan. A statically invalid query
    /// fails in the compile step, before any data is read.
    pub fn execute(&self, query: &Query) -> EngineResult<Frame> {
        self.run_plan(&self.compile(query)?)
    }

    /// Join two materialised frames. `on` is the compiled `ON` program
    /// over the joined schema (`None` pairs every row); `equi` carries
    /// the pre-selected hash-join candidate (left, right) key columns.
    /// The hash path is taken only when the actual buffers are
    /// [`hash_joinable`]; otherwise a nested loop evaluates `on` a block
    /// of row pairs at a time. Both emit rows in the same order: left
    /// order, then right order per left row.
    pub(crate) fn join_frames(
        &self,
        left: Frame,
        right: Frame,
        kind: JoinKind,
        on: Option<&ExprProgram>,
        equi: Option<(usize, usize)>,
    ) -> EngineResult<Frame> {
        let schema = left.schema.join(&right.schema);
        let pad_left = matches!(kind, JoinKind::Left | JoinKind::Full);
        let mut out = JoinRows::new(right.len());
        match equi.filter(|&(li, ri)| hash_joinable(left.column(li), right.column(ri))) {
            Some((li, ri)) => {
                let rk = right.column(ri);
                let mut index: HashMap<GroupKey, Vec<usize>> = HashMap::new();
                for j in 0..right.len() {
                    // SQL equality: NULL keys never match
                    if !rk.is_null(j) {
                        index.entry(rk.group_key_at(j)).or_default().push(j);
                    }
                }
                let lk = left.column(li);
                for i in 0..left.len() {
                    let hits = index.get(&lk.group_key_at(i)).into_iter().flatten();
                    out.left_row(i, hits.copied(), pad_left)?;
                }
            }
            None => {
                let n_right = right.len();
                let step = (JOIN_BLOCK_PAIRS / n_right.max(1)).max(1);
                for start in (0..left.len()).step_by(step) {
                    let rows = start..(start + step).min(left.len());
                    let mask = match on {
                        Some(p) if n_right > 0 => {
                            let mut block = JoinRows::new(0);
                            for i in rows.clone() {
                                block.pairs.extend((0..n_right).map(|j| (Some(i), Some(j))));
                            }
                            let pairs = block.frame(schema.clone(), &left, &right)?;
                            Some(p.eval_mask(&pairs, self)?)
                        }
                        _ => None,
                    };
                    for (k, i) in rows.enumerate() {
                        let hit = |j: &usize| mask.as_ref().is_none_or(|m| m[k * n_right + j]);
                        out.left_row(i, (0..n_right).filter(hit), pad_left)?;
                    }
                }
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for j in 0..right.len() {
                if !out.right_matched[j] {
                    out.pairs.push((None, Some(j)));
                }
            }
        }
        out.frame(schema, &left, &right)
    }
}

/// A join's output rows as (left, right) row index pairs; `None` is
/// the NULL-padded side of an outer row.
struct JoinRows {
    pairs: Vec<(Option<usize>, Option<usize>)>,
    right_matched: Vec<bool>,
}

impl JoinRows {
    fn new(right_rows: usize) -> JoinRows {
        JoinRows { pairs: Vec::new(), right_matched: vec![false; right_rows] }
    }

    /// Left row `i` joined with each right row of `hits`, or NULL-padded
    /// when none matched and `pad` (`LEFT`/`FULL`).
    fn left_row(
        &mut self,
        i: usize,
        hits: impl Iterator<Item = usize>,
        pad: bool,
    ) -> EngineResult<()> {
        let before = self.pairs.len();
        for j in hits {
            self.right_matched[j] = true;
            self.pairs.push((Some(i), Some(j)));
            if self.pairs.len() > MAX_JOIN_ROWS {
                let message = format!("join exceeded {MAX_JOIN_ROWS} rows");
                return Err(EngineError::Unsupported(message));
            }
        }
        if pad && self.pairs.len() == before {
            self.pairs.push((Some(i), None));
        }
        Ok(())
    }

    /// The rows as a frame of `schema` (left columns ++ right columns),
    /// each buffer typed after its schema column.
    fn frame(&self, schema: Schema, left: &Frame, right: &Frame) -> EngineResult<Frame> {
        if schema.is_empty() {
            return Ok(Frame::without_columns(self.pairs.len()));
        }
        let mut columns = Vec::with_capacity(schema.len());
        for (side, frame) in [left, right].into_iter().enumerate() {
            for (c, column) in frame.schema.columns().iter().enumerate() {
                let col = frame.column(c);
                let mut out = ColumnData::with_capacity(column.data_type, self.pairs.len());
                for &(l, r) in &self.pairs {
                    out.push([l, r][side].map_or(Value::Null, |i| col.value(i)));
                }
                columns.push(out);
            }
        }
        Frame::from_columns(schema, columns)
    }
}

/// Recognise `left_col = right_col` ON conditions: returns the column
/// indices in the (left, right) schemas, trying both orientations.
pub(crate) fn equi_join_columns(
    on: &Expr,
    left: &Schema,
    right: &Schema,
) -> Option<(usize, usize)> {
    let Expr::Binary { left: l, op: paradise_sql::ast::BinaryOp::Eq, right: r } = on else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) else {
        return None;
    };
    let resolve = |schema: &Schema, c: &paradise_sql::ast::ColumnRef| {
        schema.try_resolve(c.qualifier.as_deref(), &c.name)
    };
    if let (Some(li), Some(ri)) = (resolve(left, a), resolve(right, b)) {
        // the name must not also resolve on the other side, otherwise the
        // combined-schema resolution the nested loop uses could differ
        if resolve(right, a).is_none() && resolve(left, b).is_none() {
            return Some((li, ri));
        }
    }
    if let (Some(li), Some(ri)) = (resolve(left, b), resolve(right, a)) {
        if resolve(right, b).is_none() && resolve(left, a).is_none() {
            return Some((li, ri));
        }
    }
    None
}

/// The hash path is taken only when `GroupKey` equality provably
/// coincides with the nested loop's `sql_eq`: both sides must be the
/// *same* typed buffer. Int×Float pairs fall back (f64 comparison and
/// integer key folding disagree beyond 2^53), as do float keys
/// containing NaN (`sql_eq` treats NaN as equal to everything, group
/// keys compare by bits) and `Mixed` columns.
pub(crate) fn hash_joinable(a: &ColumnData, b: &ColumnData) -> bool {
    if a.int_slice().is_some() && b.int_slice().is_some() {
        return true;
    }
    if a.bool_slice().is_some() && b.bool_slice().is_some() {
        return true;
    }
    if a.str_slice().is_some() && b.str_slice().is_some() {
        return true;
    }
    if let (Some(x), Some(y)) = (a.float_slice(), b.float_slice()) {
        let no_nan =
            |s: &[Option<f64>]| s.iter().all(|v| !v.is_some_and(|x| x.is_nan()));
        return no_nan(x) && no_nan(y);
    }
    false
}

/// Collect non-windowed aggregate calls (deduplicated structurally).
pub(crate) fn collect_aggregate_calls(expr: &Expr, out: &mut Vec<FunctionCall>) {
    match expr {
        // aggregates cannot nest; no recursion into their args
        Expr::Function(f)
            if f.over.is_none() && is_aggregate_function(&f.name) && !out.contains(f) =>
        {
            out.push(f.clone());
        }
        Expr::Function(f) if f.over.is_none() && is_aggregate_function(&f.name) => {}
        Expr::Function(f) => {
            for a in &f.args {
                collect_aggregate_calls(a, out);
            }
        }
        Expr::Unary { expr, .. } => collect_aggregate_calls(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggregate_calls(left, out);
            collect_aggregate_calls(right, out);
        }
        Expr::Case { operand, branches, else_result } => {
            if let Some(op) = operand {
                collect_aggregate_calls(op, out);
            }
            for b in branches {
                collect_aggregate_calls(&b.when, out);
                collect_aggregate_calls(&b.then, out);
            }
            if let Some(e) = else_result {
                collect_aggregate_calls(e, out);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggregate_calls(expr, out);
            collect_aggregate_calls(low, out);
            collect_aggregate_calls(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregate_calls(expr, out);
            for e in list {
                collect_aggregate_calls(e, out);
            }
        }
        Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => collect_aggregate_calls(expr, out),
        _ => {}
    }
}

/// Replace aggregate calls by references to their synthetic columns.
pub(crate) fn replace_aggregate_calls(expr: Expr, calls: &[FunctionCall], names: &[String]) -> Expr {
    transform_expr(expr, &mut |e| match &e {
        Expr::Function(f) if f.over.is_none() && is_aggregate_function(&f.name) => calls
            .iter()
            .position(|c| c == f)
            .map(|i| Expr::Column(paradise_sql::ast::ColumnRef::bare(names[i].clone()))),
        _ => None,
    })
}

/// Infer better output types from the materialised columns (projection
/// plans default non-column expressions to FLOAT). O(1) per typed
/// column: the buffer knows its runtime type.
pub(crate) fn finalise_types(frame: &mut Frame) {
    let mut schema = Schema::default();
    for (i, c) in frame.schema.columns().iter().enumerate() {
        let dt = frame.column(i).data_type().unwrap_or(c.data_type);
        schema.push(Column { name: c.name.clone(), source: c.source.clone(), data_type: dt });
    }
    frame.schema = schema;
}

/// Indices of the first occurrence of every distinct row, in order.
pub(crate) fn distinct_indices(frame: &Frame) -> Vec<usize> {
    let mut seen: HashSet<Vec<GroupKey>> = HashSet::with_capacity(frame.len());
    let width = frame.schema.len();
    let mut kept = Vec::with_capacity(frame.len());
    for i in 0..frame.len() {
        let key: Vec<GroupKey> =
            (0..width).map(|c| frame.column(c).group_key_at(i)).collect();
        if seen.insert(key) {
            kept.push(i);
        }
    }
    kept
}

/// `UNION` deduplication: keep the first occurrence of every row.
pub(crate) fn dedupe_frame(frame: &Frame) -> Frame {
    let kept = distinct_indices(frame);
    if kept.len() == frame.len() {
        frame.clone()
    } else {
        frame.select_rows(&kept)
    }
}

/// Stable permutation of `0..n` ordering rows by the key columns.
/// Single typed key columns sort over the dense buffer directly.
pub(crate) fn sort_permutation(
    key_cols: &[Arc<ColumnData>],
    orders: &[SortOrder],
    n: usize,
) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    if let [col] = key_cols {
        let desc = orders[0] == SortOrder::Desc;
        let directed = |ord: std::cmp::Ordering| if desc { ord.reverse() } else { ord };
        if let Some(ints) = col.int_slice() {
            // Option<i64>'s ordering puts NULL first, like total_cmp
            perm.sort_by(|&a, &b| directed(ints[a].cmp(&ints[b])));
            return perm;
        }
        if let Some(floats) = col.float_slice() {
            perm.sort_by(|&a, &b| {
                directed(match (floats[a], floats[b]) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(x), Some(y)) => {
                        x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
                    }
                })
            });
            return perm;
        }
    }
    perm.sort_by(|&a, &b| {
        for (col, order) in key_cols.iter().zip(orders) {
            let ord = col.cmp_at(a, col, b);
            let ord = if *order == SortOrder::Desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    perm
}
