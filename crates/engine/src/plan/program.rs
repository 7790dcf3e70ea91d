//! Compiled expression programs: flat postorder instruction buffers
//! that replace per-tick AST walks.
//!
//! [`ExprProgram::compile`] binds an expression **once**: column
//! references to ordinals of the input schema, (uncorrelated) scalar
//! and `EXISTS` subqueries to sub-plans over the executor's catalog.
//! [`ExprProgram::eval`] runs each sub-plan once, then a small stack
//! machine over [`Batch`] values on the dense kernels of
//! [`crate::eval`] (numeric comparison / arithmetic, three-valued
//! logic). It is the engine's only column-at-a-time expression
//! evaluator, join predicates included. Two rules tie it to the
//! row-level reference [`eval_expr`], which the proptest suite pins
//! down: the machine evaluates sub-expressions eagerly, so where the
//! row interpreter would have short-circuited past an erroring
//! sub-expression (`AND`/`OR`, `CASE` branches, `IN` list tails, a
//! failing subquery) any error makes it re-run row by row — the only
//! run-time AST walk, which replays the sub-plan results — reproducing
//! the reference result (or *which* error); and nothing is evaluated
//! over an empty frame, so a data-dependent error never surfaces over
//! zero rows.

use std::sync::Arc;

use paradise_sql::ast::{BinaryOp, Expr, Query, UnaryOp};

use super::{compile_query, exec_node, PNode};
use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::eval::{
    and3, eval_binary_batch, eval_expr, eval_scalar_function_upper, eval_unary, ge3, le3,
    literal_value, or3, scalar_subquery_value, to_bool3, Batch, EvalContext,
};
use crate::exec::Executor;
use crate::frame::Frame;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// One stack-machine instruction; operands are pushed left-to-right in
/// postorder, so every instruction pops its arguments off the top.
#[derive(Debug, Clone)]
enum Instr {
    /// Push a constant.
    Const(Value),
    /// Push column `ordinal` of the input frame (zero-copy).
    Col(usize),
    /// Pop one, apply a unary operator.
    Unary(UnaryOp),
    /// Pop two, apply a (non-logic) binary operator via the dense batch
    /// kernels.
    Binary(BinaryOp),
    /// Pop two, three-valued AND/OR (eager, like the batch evaluator).
    Logic { and: bool },
    /// Pop `argc` arguments, call a scalar function. The name is
    /// ASCII-uppercased at compile time so per-row dispatch never
    /// re-folds (or re-allocates) it.
    Call { name: String, argc: usize },
    /// Pop one, IS [NOT] NULL.
    IsNull { negated: bool },
    /// Pop one, CAST to `target`.
    Cast { target: DataType },
    /// Pop high, low, operand — BETWEEN.
    Between { negated: bool },
    /// Pop `len` list items, then the probe — IN (…).
    InList { negated: bool, len: usize },
    /// Pop else (if any), then `branches` (when, then) pairs, then the
    /// operand (if any) — CASE, evaluated eagerly per row.
    Case { operand: bool, branches: usize, has_else: bool },
    /// Push the row-invariant value of bound subquery `index`: its
    /// scalar result, or whether `EXISTS` found a row.
    SubqueryConst(usize),
}

/// A bound `(SELECT …)` or `EXISTS (SELECT …)`: its sub-plan, and the
/// AST the error fallback meets again.
#[derive(Debug, Clone)]
struct Subquery {
    plan: PNode,
    exists: bool,
    query: Query,
}

/// A compiled expression: pre-resolved ordinals, bound subqueries and
/// an instruction buffer, with the original AST retained only for the
/// error fall-back path.
#[derive(Debug, Clone)]
pub struct ExprProgram {
    instrs: Vec<Instr>,
    subqueries: Vec<Subquery>,
    fallback: Expr,
}

impl ExprProgram {
    /// Compile `expr` against `schema`, binding its subqueries against
    /// `exec`'s catalog. Fails on unresolvable columns or tables (in
    /// subqueries too), a scalar subquery of more than one column, and
    /// constructs no scalar position accepts (bare `*`, window calls,
    /// unknown cast targets) — static errors of the query.
    pub fn compile(expr: &Expr, schema: &Schema, exec: &Executor<'_>) -> EngineResult<ExprProgram> {
        let mut program =
            ExprProgram { instrs: Vec::new(), subqueries: Vec::new(), fallback: expr.clone() };
        program.push_expr(expr, schema, exec)?;
        Ok(program)
    }

    /// The AST the program was compiled from. Aggregation uses it to
    /// recognise calls whose argument expressions are identical and
    /// evaluate them once per batch.
    pub(crate) fn source(&self) -> &Expr {
        &self.fallback
    }

    /// Column ordinals the program reads.
    pub(crate) fn column_ordinals(&self) -> impl Iterator<Item = usize> + '_ {
        self.instrs.iter().filter_map(|i| match i {
            Instr::Col(c) => Some(*c),
            _ => None,
        })
    }

    /// Rewrite every column ordinal through `map` (used when the input
    /// frame is narrowed to the referenced columns). The caller must
    /// ensure the fallback expression still resolves by name against
    /// the narrowed schema.
    pub(crate) fn remap_columns(&mut self, map: &dyn Fn(usize) -> usize) {
        for i in &mut self.instrs {
            if let Instr::Col(c) = i {
                *c = map(*c);
            }
        }
    }

    fn push_expr(&mut self, expr: &Expr, schema: &Schema, exec: &Executor<'_>) -> EngineResult<()> {
        match expr {
            Expr::Literal(lit) => self.instrs.push(Instr::Const(literal_value(lit))),
            Expr::Column(c) => {
                let idx = schema.resolve(c.qualifier.as_deref(), &c.name)?;
                self.instrs.push(Instr::Col(idx));
            }
            Expr::Wildcard => {
                return Err(EngineError::Unsupported("'*' is only valid inside COUNT(*)".into()))
            }
            Expr::Unary { op, expr } => {
                self.push_expr(expr, schema, exec)?;
                self.instrs.push(Instr::Unary(*op));
            }
            Expr::Binary { left, op, right } => {
                self.push_expr(left, schema, exec)?;
                self.push_expr(right, schema, exec)?;
                match op {
                    BinaryOp::And => self.instrs.push(Instr::Logic { and: true }),
                    BinaryOp::Or => self.instrs.push(Instr::Logic { and: false }),
                    other => self.instrs.push(Instr::Binary(*other)),
                }
            }
            Expr::Function(call) => {
                if call.over.is_some() {
                    return Err(EngineError::Unsupported(
                        "window function outside the executor's window stage".into(),
                    ));
                }
                for a in &call.args {
                    self.push_expr(a, schema, exec)?;
                }
                self.instrs.push(Instr::Call {
                    name: call.name.to_ascii_uppercase(),
                    argc: call.args.len(),
                });
            }
            Expr::Case { operand, branches, else_result } => {
                if let Some(op) = operand {
                    self.push_expr(op, schema, exec)?;
                }
                for b in branches {
                    self.push_expr(&b.when, schema, exec)?;
                    self.push_expr(&b.then, schema, exec)?;
                }
                if let Some(e) = else_result {
                    self.push_expr(e, schema, exec)?;
                }
                self.instrs.push(Instr::Case {
                    operand: operand.is_some(),
                    branches: branches.len(),
                    has_else: else_result.is_some(),
                });
            }
            Expr::Between { expr, low, high, negated } => {
                self.push_expr(expr, schema, exec)?;
                self.push_expr(low, schema, exec)?;
                self.push_expr(high, schema, exec)?;
                self.instrs.push(Instr::Between { negated: *negated });
            }
            Expr::InList { expr, list, negated } => {
                self.push_expr(expr, schema, exec)?;
                for item in list {
                    self.push_expr(item, schema, exec)?;
                }
                self.instrs.push(Instr::InList { negated: *negated, len: list.len() });
            }
            Expr::IsNull { expr, negated } => {
                self.push_expr(expr, schema, exec)?;
                self.instrs.push(Instr::IsNull { negated: *negated });
            }
            Expr::Cast { expr, type_name } => {
                let target = DataType::parse(type_name).ok_or_else(|| {
                    EngineError::Unsupported(format!("unknown cast target {type_name:?}"))
                })?;
                self.push_expr(expr, schema, exec)?;
                self.instrs.push(Instr::Cast { target });
            }
            Expr::Subquery(query) | Expr::Exists(query) => {
                let exists = matches!(expr, Expr::Exists(_));
                let (plan, out) = compile_query(exec, query)?;
                if !exists && out.len() != 1 {
                    return Err(EngineError::Unsupported(
                        "scalar subquery must return exactly one column".into(),
                    ));
                }
                self.instrs.push(Instr::SubqueryConst(self.subqueries.len()));
                self.subqueries.push(Subquery { plan, exists, query: (**query).clone() });
            }
        }
        Ok(())
    }

    /// Evaluate over every row of `frame`, column-at-a-time, running
    /// the bound subqueries on `exec` once. Nothing is evaluated over an
    /// empty frame, and any stack-machine error falls back to the row
    /// interpreter so the reference error (or result) surfaces; the
    /// fallback resolves names against `schema` (the frame's own, or
    /// the plan's qualified view of it).
    pub fn eval(&self, frame: &Frame, schema: &Schema, exec: &Executor<'_>) -> EngineResult<Batch> {
        if frame.is_empty() {
            return Ok(Batch::Col(Arc::new(ColumnData::empty(DataType::Float))));
        }
        let results: Vec<EngineResult<Frame>> =
            self.subqueries.iter().map(|s| exec_node(exec, &s.plan)).collect();
        match self.run(frame, &results) {
            Ok(batch) => Ok(batch),
            Err(_) => {
                // the row interpreter evaluates a subquery where the
                // reference would: it replays this evaluation's result
                let replay = |query: &Query| {
                    let at = self.subqueries.iter().position(|s| s.query == *query);
                    results[at.expect("the fallback's subqueries are the program's")].clone()
                };
                let ctx = EvalContext { schema, subquery: Some(&replay) };
                let mut out = ColumnData::with_capacity(DataType::Float, frame.len());
                for i in 0..frame.len() {
                    let row = frame.row(i);
                    out.push(eval_expr(&self.fallback, &row, &ctx)?);
                }
                Ok(Batch::Col(Arc::new(out)))
            }
        }
    }

    /// Evaluate as a filter predicate: one `bool` per row, NULL counts
    /// as false (the `WHERE`/`HAVING`/`ON` semantics).
    pub fn eval_mask(
        &self,
        frame: &Frame,
        schema: &Schema,
        exec: &Executor<'_>,
    ) -> EngineResult<Vec<bool>> {
        let n = frame.len();
        match self.eval(frame, schema, exec)? {
            Batch::Const(v) => {
                let keep = to_bool3(&v)?.unwrap_or(false);
                Ok(vec![keep; n])
            }
            Batch::Col(c) => {
                if let Some(bools) = c.bool_slice() {
                    return Ok(bools.iter().map(|b| b.unwrap_or(false)).collect());
                }
                let mut mask = Vec::with_capacity(n);
                for i in 0..n {
                    mask.push(to_bool3(&c.value(i))?.unwrap_or(false));
                }
                Ok(mask)
            }
        }
    }

    fn run(&self, frame: &Frame, subqueries: &[EngineResult<Frame>]) -> EngineResult<Batch> {
        let n = frame.len();
        let mut stack: Vec<Batch> = Vec::with_capacity(8);
        for instr in &self.instrs {
            match instr {
                Instr::Const(v) => stack.push(Batch::Const(v.clone())),
                Instr::Col(idx) => stack.push(Batch::Col(frame.column_arc(*idx))),
                Instr::Unary(op) => {
                    let v = stack.pop().expect("program stack");
                    stack.push(match v {
                        Batch::Const(v) => Batch::Const(eval_unary(*op, v)?),
                        Batch::Col(c) => {
                            let hint = c.data_type().unwrap_or(DataType::Float);
                            let mut out = ColumnData::with_capacity(hint, n);
                            for i in 0..n {
                                out.push(eval_unary(*op, c.value(i))?);
                            }
                            Batch::Col(Arc::new(out))
                        }
                    });
                }
                Instr::Binary(op) => {
                    let r = stack.pop().expect("program stack");
                    let l = stack.pop().expect("program stack");
                    stack.push(eval_binary_batch(l, *op, r, n)?);
                }
                Instr::Logic { and } => {
                    let r = stack.pop().expect("program stack");
                    let l = stack.pop().expect("program stack");
                    if let (Batch::Const(a), Batch::Const(b)) = (&l, &r) {
                        let out = if *and {
                            and3(to_bool3(a)?, to_bool3(b)?)
                        } else {
                            or3(to_bool3(a)?, to_bool3(b)?)
                        };
                        stack.push(Batch::Const(out.map(Value::Bool).unwrap_or(Value::Null)));
                        continue;
                    }
                    let mut out = ColumnData::with_capacity(DataType::Boolean, n);
                    for i in 0..n {
                        let a = to_bool3(&l.value(i))?;
                        let b = to_bool3(&r.value(i))?;
                        let v = if *and { and3(a, b) } else { or3(a, b) };
                        out.push(v.map(Value::Bool).unwrap_or(Value::Null));
                    }
                    stack.push(Batch::Col(Arc::new(out)));
                }
                Instr::Call { name, argc } => {
                    let args = split_off(&mut stack, *argc);
                    if args.iter().all(|a| matches!(a, Batch::Const(_))) {
                        let vals: Vec<Value> = args.iter().map(|a| a.value(0)).collect();
                        stack.push(Batch::Const(eval_scalar_function_upper(name, &vals)?));
                        continue;
                    }
                    // Dense path for `CLAMP(col, lo, hi)` — the shape
                    // the DP rewrite lowers every clamped aggregate
                    // argument to, so on noisy handles it runs once per
                    // ingested (and retracted) row.
                    if name == "CLAMP" && args.len() == 3 {
                        if let Some(col) = clamp_dense(&args, n) {
                            stack.push(Batch::Col(Arc::new(col)));
                            continue;
                        }
                    }
                    let mut out = ColumnData::with_capacity(DataType::Float, n);
                    let mut vals: Vec<Value> = Vec::with_capacity(args.len());
                    for i in 0..n {
                        vals.clear();
                        vals.extend(args.iter().map(|a| a.value(i)));
                        out.push(eval_scalar_function_upper(name, &vals)?);
                    }
                    stack.push(Batch::Col(Arc::new(out)));
                }
                Instr::IsNull { negated } => {
                    let v = stack.pop().expect("program stack");
                    stack.push(match v {
                        Batch::Const(v) => Batch::Const(Value::Bool(v.is_null() != *negated)),
                        Batch::Col(c) => {
                            let mut out = ColumnData::with_capacity(DataType::Boolean, n);
                            for i in 0..n {
                                out.push(Value::Bool(c.is_null(i) != *negated));
                            }
                            Batch::Col(Arc::new(out))
                        }
                    });
                }
                Instr::Cast { target } => {
                    let v = stack.pop().expect("program stack");
                    stack.push(match v {
                        Batch::Const(v) => Batch::Const(v.cast(*target)?),
                        Batch::Col(c) => {
                            let mut out = ColumnData::with_capacity(*target, n);
                            for i in 0..n {
                                out.push(c.value(i).cast(*target)?);
                            }
                            Batch::Col(Arc::new(out))
                        }
                    });
                }
                Instr::Between { negated } => {
                    let hi = stack.pop().expect("program stack");
                    let lo = stack.pop().expect("program stack");
                    let v = stack.pop().expect("program stack");
                    let mut out = ColumnData::with_capacity(DataType::Boolean, n);
                    for i in 0..n {
                        let x = v.value(i);
                        let ge = ge3(&x, &lo.value(i));
                        let le = le3(&x, &hi.value(i));
                        out.push(match and3(ge, le) {
                            Some(b) => Value::Bool(b != *negated),
                            None => Value::Null,
                        });
                    }
                    stack.push(Batch::Col(Arc::new(out)));
                }
                Instr::InList { negated, len } => {
                    let items = split_off(&mut stack, *len);
                    let v = stack.pop().expect("program stack");
                    let mut out = ColumnData::with_capacity(DataType::Boolean, n);
                    for i in 0..n {
                        let x = v.value(i);
                        let mut saw_null = false;
                        let mut hit = false;
                        for item in &items {
                            match x.sql_eq(&item.value(i)) {
                                Some(true) => {
                                    hit = true;
                                    break;
                                }
                                Some(false) => {}
                                None => saw_null = true,
                            }
                        }
                        out.push(if hit {
                            Value::Bool(!*negated)
                        } else if saw_null {
                            Value::Null
                        } else {
                            Value::Bool(*negated)
                        });
                    }
                    stack.push(Batch::Col(Arc::new(out)));
                }
                Instr::Case { operand, branches, has_else } => {
                    let else_b = if *has_else { stack.pop() } else { None };
                    let pairs = split_off(&mut stack, branches * 2);
                    let op_b = if *operand { stack.pop() } else { None };
                    // pairs is [when0, then0, when1, then1, …]
                    let mut whens = Vec::with_capacity(*branches);
                    let mut thens = Vec::with_capacity(*branches);
                    for pair in pairs.chunks(2) {
                        whens.push(pair[0].clone());
                        thens.push(pair[1].clone());
                    }
                    let mut out = ColumnData::with_capacity(DataType::Float, n);
                    for i in 0..n {
                        let mut chosen: Option<Value> = None;
                        match &op_b {
                            Some(op) => {
                                let ov = op.value(i);
                                for (w, t) in whens.iter().zip(&thens) {
                                    if ov.sql_eq(&w.value(i)) == Some(true) {
                                        chosen = Some(t.value(i));
                                        break;
                                    }
                                }
                            }
                            None => {
                                for (w, t) in whens.iter().zip(&thens) {
                                    if to_bool3(&w.value(i))?.unwrap_or(false) {
                                        chosen = Some(t.value(i));
                                        break;
                                    }
                                }
                            }
                        }
                        let v = chosen.unwrap_or_else(|| {
                            else_b.as_ref().map(|e| e.value(i)).unwrap_or(Value::Null)
                        });
                        out.push(v);
                    }
                    stack.push(Batch::Col(Arc::new(out)));
                }
                Instr::SubqueryConst(at) => {
                    let result = subqueries[*at].as_ref().map_err(Clone::clone)?;
                    stack.push(Batch::Const(if self.subqueries[*at].exists {
                        Value::Bool(!result.is_empty())
                    } else {
                        scalar_subquery_value(result)?
                    }));
                }
            }
        }
        Ok(stack.pop().expect("program leaves one result"))
    }
}

/// Pop the top `count` batches, preserving their push order.
fn split_off(stack: &mut Vec<Batch>, count: usize) -> Vec<Batch> {
    stack.split_off(stack.len() - count)
}

/// Column-dense `CLAMP(col, lo, hi)`. Mirrors the scalar function's
/// semantics exactly — NULL in → NULL out, a violated bound wins (lo
/// first when the bounds cross), in-range values keep their original
/// type — without building a per-row `Value` argument vector. Returns
/// `None` (generic per-row path) for non-numeric columns or non-const
/// bounds.
fn clamp_dense(args: &[Batch], n: usize) -> Option<ColumnData> {
    let (lo, hi) = match (&args[1], &args[2]) {
        (Batch::Const(lo), Batch::Const(hi)) => (lo.as_f64()?, hi.as_f64()?),
        _ => return None,
    };
    let Batch::Col(c) = &args[0] else { return None };
    let mut out = ColumnData::with_capacity(DataType::Float, n);
    if let Some(xs) = c.float_slice() {
        for x in xs {
            out.push(match x {
                None => Value::Null,
                Some(x) if *x < lo => Value::Float(lo),
                Some(x) if *x > hi => Value::Float(hi),
                Some(x) => Value::Float(*x),
            });
        }
    } else if let Some(xs) = c.int_slice() {
        for v in xs {
            out.push(match v {
                None => Value::Null,
                Some(v) if (*v as f64) < lo => Value::Float(lo),
                Some(v) if (*v as f64) > hi => Value::Float(hi),
                Some(v) => Value::Int(*v),
            });
        }
    } else {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use paradise_sql::parse_expr;

    fn frame() -> Frame {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("t", DataType::Integer),
            ("name", DataType::Text),
            ("flag", DataType::Boolean),
        ]);
        Frame::new(
            schema,
            vec![
                vec![Value::Float(1.5), Value::Int(1), Value::Str("ada".into()), Value::Bool(true)],
                vec![Value::Float(2.0), Value::Int(2), Value::Null, Value::Bool(false)],
                vec![Value::Null, Value::Int(3), Value::Str("bob".into()), Value::Null],
            ],
        )
        .unwrap()
    }

    /// The program over the whole frame equals the row interpreter
    /// applied to every row.
    fn check(src: &str) {
        let e = parse_expr(src).unwrap();
        let f = frame();
        let ctx = EvalContext::new(&f.schema);
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&e, &f.schema, &exec).unwrap();
        let compiled = program.eval(&f, &f.schema, &exec).unwrap();
        for i in 0..f.len() {
            let reference = eval_expr(&e, &f.row(i), &ctx).unwrap();
            assert_eq!(compiled.value(i), reference, "row {i} of {src}");
        }
    }

    #[test]
    fn programs_match_the_row_interpreter() {
        for src in [
            "x + 1",
            "x > 1.6 AND t < 3",
            "NOT flag OR x IS NULL",
            "t IN (1, 3, 5)",
            "x BETWEEN 1 AND 2",
            "CASE WHEN x > 1.9 THEN 'hi' ELSE 'lo' END",
            "CASE t WHEN 1 THEN 'one' WHEN 2 THEN 'two' END",
            "COALESCE(name, 'missing')",
            "UPPER(name)",
            "CLAMP(x, 1.6, 1.9)",
            "CLAMP(t, 1.5, 2.5)",
            "CLAMP(x, t, 3)",
            "CAST(t AS FLOAT) * 2",
            "-x",
            "name LIKE 'a%'",
            "1 + 2 * 3",
        ] {
            check(src);
        }
    }

    #[test]
    fn unknown_column_fails_at_compile_time() {
        let e = parse_expr("missing > 1").unwrap();
        let f = frame();
        let catalog = Catalog::new();
        assert!(matches!(
            ExprProgram::compile(&e, &f.schema, &Executor::new(&catalog)),
            Err(EngineError::UnknownColumn(_))
        ));
    }

    #[test]
    fn error_fallback_reproduces_row_semantics() {
        // `name > 5` is a type error wherever it is evaluated; the row
        // interpreter short-circuits past it (`t < 0` is false on every
        // row), the eager stack machine does not
        let src = "t < 0 AND name > 5";
        let f = frame();
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&parse_expr(src).unwrap(), &f.schema, &exec).unwrap();
        assert!(program.run(&f, &[]).is_err());
        check(src);
    }

    #[test]
    fn mask_counts_null_as_false() {
        let e = parse_expr("x > 1.6").unwrap();
        let f = frame();
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&e, &f.schema, &exec).unwrap();
        assert_eq!(program.eval_mask(&f, &f.schema, &exec).unwrap(), vec![false, true, false]);
    }

    #[test]
    fn empty_frames_evaluate_nothing() {
        // a type error must not surface over zero rows
        let e = parse_expr("name + 1").unwrap();
        let f = Frame::empty(frame().schema.clone());
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&e, &f.schema, &exec).unwrap();
        assert!(program.eval(&f, &f.schema, &exec).is_ok());
    }
}
