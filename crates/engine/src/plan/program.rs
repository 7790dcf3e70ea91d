//! Compiled expression programs: flat postorder instruction buffers
//! that replace per-tick AST walks.
//!
//! [`ExprProgram::compile`] binds an expression **once**: column
//! references to ordinals of the input schema, scalar function calls
//! to the dispatch table of [`crate::eval`] (an unknown name or a wrong
//! arity is a compile error), and (uncorrelated) scalar and `EXISTS`
//! subqueries to sub-plans over the executor's catalog.
//! [`ExprProgram::eval`] runs each sub-plan once, then a small stack
//! machine over [`Batch`] values on the dense kernels of
//! [`crate::eval`] (numeric comparison / arithmetic, `CLAMP`). It is
//! the engine's only expression evaluator, join predicates included,
//! and it never walks the AST. It is exact on its own against the
//! row-level reference interpreter of [`crate::eval`], which the
//! proptest suite pins down: an instruction whose kernel fails, or whose
//! operands failed on some rows, runs row by row the way the reference
//! does — `AND`/`OR`, `CASE` and `IN` read an operand only where the
//! reference evaluates it — and records each failing row's error in a
//! per-row record allocated on the first one. A program fails with the
//! error of its lowest failing row, and nothing is evaluated over an
//! empty frame, so a data-dependent error never surfaces over zero
//! rows.

use std::sync::Arc;

use paradise_sql::ast::{BinaryOp, Expr, UnaryOp};

use super::{compile_query, exec_node, PNode};
use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::eval::{
    and3, eval_binary, eval_binary_batch, eval_scalar_function_upper, eval_unary, ge3, le3,
    literal_value, or3, scalar_subquery_value, to_bool3, Batch,
};
use crate::exec::Executor;
use crate::frame::Frame;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// One stack-machine instruction; operands are pushed left-to-right in
/// postorder, so every instruction pops its arguments off the top.
#[derive(Debug, Clone, PartialEq)]
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
    /// Pop two, three-valued AND/OR.
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
    /// operand (if any) — CASE.
    Case { operand: bool, branches: usize, has_else: bool },
    /// Push the row-invariant value of bound subquery `index`: its
    /// scalar result, or whether `EXISTS` found a row.
    SubqueryConst(usize),
}

impl Instr {
    /// How many operands the instruction pops.
    fn arity(&self) -> usize {
        match self {
            Instr::Const(_) | Instr::Col(_) | Instr::SubqueryConst(_) => 0,
            Instr::Unary(_) | Instr::IsNull { .. } | Instr::Cast { .. } => 1,
            Instr::Binary(_) | Instr::Logic { .. } => 2,
            Instr::Between { .. } => 3,
            Instr::Call { argc, .. } => *argc,
            Instr::InList { len, .. } => len + 1,
            Instr::Case { operand, branches, has_else } => {
                usize::from(*operand) + 2 * branches + usize::from(*has_else)
            }
        }
    }
}

/// A bound `(SELECT …)` or `EXISTS (SELECT …)`: its sub-plan.
#[derive(Debug, Clone)]
struct Subquery {
    plan: PNode,
    exists: bool,
}

/// A compiled expression: pre-resolved ordinals, bound subqueries and
/// an instruction buffer.
#[derive(Debug, Clone)]
pub struct ExprProgram {
    instrs: Vec<Instr>,
    subqueries: Vec<Subquery>,
}

/// One stack value: the batch, and the error of every row where it
/// failed — `None` until the first, so an error-free batch allocates
/// nothing. A failed row's value is NULL.
struct Slot {
    batch: Batch,
    errs: Option<Vec<Option<EngineError>>>,
}

impl Slot {
    /// Row `i`: its value, or the error it failed with.
    fn at(&self, i: usize) -> EngineResult<Value> {
        match self.errs.as_ref().and_then(|e| e[i].clone()) {
            Some(e) => Err(e),
            None => Ok(self.batch.value(i)),
        }
    }
}

impl ExprProgram {
    /// Compile `expr` against `schema`, binding its subqueries against
    /// `exec`'s catalog. Fails on unresolvable columns or tables (in
    /// subqueries too), unknown scalar functions and wrong arities, a
    /// scalar subquery of more than one column, and constructs no
    /// scalar position accepts (bare `*`, window calls, unknown cast
    /// targets) — static errors of the query.
    pub fn compile(expr: &Expr, schema: &Schema, exec: &Executor<'_>) -> EngineResult<ExprProgram> {
        let mut program = ExprProgram { instrs: Vec::new(), subqueries: Vec::new() };
        program.push_expr(expr, schema, exec)?;
        Ok(program)
    }

    /// Whether `other` computes the same values: the same instructions
    /// and no subquery. Aggregation uses it to evaluate identical
    /// aggregate arguments once per batch.
    pub(crate) fn same_as(&self, other: &ExprProgram) -> bool {
        let same = |a: &Instr, b: &Instr| match (a, b) {
            // `Value` equality is numeric (1 = 1.0); a constant's type counts too
            (Instr::Const(x), Instr::Const(y)) => x.data_type() == y.data_type() && x == y,
            _ => a == b,
        };
        self.subqueries.is_empty()
            && other.subqueries.is_empty()
            && self.instrs.len() == other.instrs.len()
            && self.instrs.iter().zip(&other.instrs).all(|(a, b)| same(a, b))
    }

    /// The ordinal of the column the program is, when it is exactly one
    /// column.
    pub(crate) fn column(&self) -> Option<usize> {
        match self.instrs[..] {
            [Instr::Col(c)] => Some(c),
            _ => None,
        }
    }

    /// Column ordinals the program reads.
    pub(crate) fn column_ordinals(&self) -> impl Iterator<Item = usize> + '_ {
        self.instrs.iter().filter_map(|i| match i {
            Instr::Col(c) => Some(*c),
            _ => None,
        })
    }

    /// Rewrite every column ordinal through `map` (used when the input
    /// frame is narrowed to the referenced columns).
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
                let (name, argc) = (call.name.to_ascii_uppercase(), call.args.len());
                // bind name and arity against the one dispatch table:
                // over NULL arguments every known function answers NULL
                if let Err(e @ (EngineError::UnknownFunction(_) | EngineError::WrongArity { .. })) =
                    eval_scalar_function_upper(&name, &vec![Value::Null; argc])
                {
                    return Err(e);
                }
                for a in &call.args {
                    self.push_expr(a, schema, exec)?;
                }
                self.instrs.push(Instr::Call { name, argc });
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
                self.subqueries.push(Subquery { plan, exists });
            }
        }
        Ok(())
    }

    /// Evaluate over every row of `frame`, column-at-a-time, running
    /// the bound subqueries on `exec` once. Nothing is evaluated over an
    /// empty frame; otherwise the result is the reference's, or the
    /// error of the lowest failing row.
    pub fn eval(&self, frame: &Frame, exec: &Executor<'_>) -> EngineResult<Batch> {
        let Slot { batch, errs } = self.run(frame, exec);
        match errs.into_iter().flatten().flatten().next() {
            Some(e) => Err(e),
            None => Ok(batch),
        }
    }

    /// Evaluate as a filter predicate: one `bool` per row, NULL counts
    /// as false (the `WHERE`/`HAVING`/`ON` semantics). A row fails with
    /// its evaluation error or, failing that, a non-boolean value; the
    /// lowest failing row's error is the predicate's.
    pub fn eval_mask(&self, frame: &Frame, exec: &Executor<'_>) -> EngineResult<Vec<bool>> {
        let n = frame.len();
        let slot = self.run(frame, exec);
        if slot.errs.is_none() {
            match &slot.batch {
                Batch::Const(v) => return Ok(vec![to_bool3(v)?.unwrap_or(false); n]),
                Batch::Col(c) => {
                    if let Some(bools) = c.bool_slice() {
                        return Ok(bools.iter().map(|b| b.unwrap_or(false)).collect());
                    }
                }
            }
        }
        (0..n).map(|i| Ok(to_bool3(&slot.at(i)?)?.unwrap_or(false))).collect()
    }

    /// The stack machine, after running the bound subqueries once (over
    /// an empty frame, nothing runs). An instruction over error-free
    /// operands tries its batch form — a constant, a dense kernel — and
    /// otherwise (or when that fails) runs row by row, exactly. Returns
    /// the top of the stack with its per-row errors.
    fn run(&self, frame: &Frame, exec: &Executor<'_>) -> Slot {
        let n = frame.len();
        if n == 0 {
            let batch = Batch::Col(Arc::new(ColumnData::empty(DataType::Float)));
            return Slot { batch, errs: None };
        }
        let subqueries: Vec<EngineResult<Frame>> =
            self.subqueries.iter().map(|s| exec_node(exec, &s.plan)).collect();
        let mut stack: Vec<Slot> = Vec::with_capacity(8);
        for instr in &self.instrs {
            let base = stack.len() - instr.arity();
            let args = &stack[base..];
            let clean = args.iter().all(|a| a.errs.is_none());
            let consts = args.iter().all(|a| matches!(a.batch, Batch::Const(_)));
            let batch = match instr {
                Instr::Const(v) => Some(Batch::Const(v.clone())),
                Instr::Col(idx) => Some(Batch::Col(frame.column_arc(*idx))),
                _ if !clean => None,
                Instr::Binary(op) => {
                    let (l, r) = (args[0].batch.clone(), args[1].batch.clone());
                    eval_binary_batch(l, *op, r, n).ok()
                }
                Instr::Between { .. } | Instr::InList { .. } | Instr::Case { .. } => None,
                _ if consts => {
                    let v = self.row(instr, &|k| Ok(args[k].batch.value(0)), &subqueries);
                    v.ok().map(Batch::Const)
                }
                Instr::Call { name, .. } => call_dense(name, args, n),
                _ => None,
            };
            let slot = match batch {
                Some(batch) => Slot { batch, errs: None },
                None => self.per_row(instr, args, n, &subqueries),
            };
            stack.truncate(base);
            stack.push(slot);
        }
        stack.pop().expect("program leaves one result")
    }

    /// Run `instr` row by row: a row's value, or the error it fails with.
    fn per_row(
        &self,
        instr: &Instr,
        args: &[Slot],
        n: usize,
        subqueries: &[EngineResult<Frame>],
    ) -> Slot {
        let hint = match (instr, args.first().map(|a| &a.batch)) {
            (Instr::Unary(_), Some(Batch::Col(c))) => c.data_type().unwrap_or(DataType::Float),
            (Instr::Cast { target }, _) => *target,
            (Instr::Logic { .. } | Instr::IsNull { .. }, _)
            | (Instr::Between { .. } | Instr::InList { .. }, _) => DataType::Boolean,
            _ => DataType::Float,
        };
        let mut out = ColumnData::with_capacity(hint, n);
        let mut errs: Option<Vec<Option<EngineError>>> = None;
        for i in 0..n {
            match self.row(instr, &|k| args[k].at(i), subqueries) {
                Ok(v) => out.push(v),
                Err(e) => {
                    out.push(Value::Null);
                    errs.get_or_insert_with(|| vec![None; n])[i] = Some(e);
                }
            }
        }
        Slot { batch: Batch::Col(Arc::new(out)), errs }
    }

    /// `instr` at one row, the way the reference evaluates it: `arg(k)`
    /// is operand `k` there (its value, or the error it failed with),
    /// asked for only where the reference evaluates that operand.
    fn row(
        &self,
        instr: &Instr,
        arg: &dyn Fn(usize) -> EngineResult<Value>,
        subqueries: &[EngineResult<Frame>],
    ) -> EngineResult<Value> {
        Ok(match instr {
            Instr::Const(_) | Instr::Col(_) => unreachable!("operands never fail"),
            Instr::Unary(op) => eval_unary(*op, arg(0)?)?,
            Instr::Binary(op) => eval_binary(arg(0)?, *op, arg(1)?)?,
            Instr::Logic { and } => {
                // a decisive left side skips the right one
                let a = to_bool3(&arg(0)?)?;
                if a == Some(!and) {
                    return Ok(Value::Bool(!and));
                }
                let b = to_bool3(&arg(1)?)?;
                let v = if *and { and3(a, b) } else { or3(a, b) };
                v.map(Value::Bool).unwrap_or(Value::Null)
            }
            Instr::Call { name, argc } => {
                let vals = (0..*argc).map(arg).collect::<EngineResult<Vec<_>>>()?;
                eval_scalar_function_upper(name, &vals)?
            }
            Instr::IsNull { negated } => Value::Bool(arg(0)?.is_null() != *negated),
            Instr::Cast { target } => arg(0)?.cast(*target)?,
            Instr::Between { negated } => {
                let (x, lo, hi) = (arg(0)?, arg(1)?, arg(2)?);
                match and3(ge3(&x, &lo), le3(&x, &hi)) {
                    Some(b) => Value::Bool(b != *negated),
                    None => Value::Null,
                }
            }
            Instr::InList { negated, len } => {
                // the first hit ends the scan of the list
                let x = arg(0)?;
                let mut saw_null = false;
                for k in 1..=*len {
                    match x.sql_eq(&arg(k)?) {
                        Some(true) => return Ok(Value::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Instr::Case { operand, branches, has_else } => {
                // operands: [operand], when0, then0, when1, then1, …, [else];
                // only the taken branch's THEN is evaluated
                let first = usize::from(*operand);
                let probe = if *operand { Some(arg(0)?) } else { None };
                for b in 0..*branches {
                    let when = arg(first + 2 * b)?;
                    let hit = match &probe {
                        Some(p) => p.sql_eq(&when) == Some(true),
                        None => to_bool3(&when)?.unwrap_or(false),
                    };
                    if hit {
                        return arg(first + 2 * b + 1);
                    }
                }
                if *has_else {
                    arg(first + 2 * branches)?
                } else {
                    Value::Null
                }
            }
            Instr::SubqueryConst(at) => {
                let result = subqueries[*at].as_ref().map_err(Clone::clone)?;
                if self.subqueries[*at].exists {
                    Value::Bool(!result.is_empty())
                } else {
                    scalar_subquery_value(result)?
                }
            }
        })
    }
}

/// A scalar call over error-free operands, column-at-a-time: dense
/// `CLAMP(col, lo, hi)` — the shape the DP rewrite lowers every clamped
/// aggregate argument to, so on noisy handles it runs once per ingested
/// (and retracted) row — else a per-row loop that reuses its argument
/// buffer. `None` when a row fails.
fn call_dense(name: &str, args: &[Slot], n: usize) -> Option<Batch> {
    if name == "CLAMP" && args.len() == 3 {
        if let Some(col) = clamp_dense(args, n) {
            return Some(Batch::Col(Arc::new(col)));
        }
    }
    let mut out = ColumnData::with_capacity(DataType::Float, n);
    let mut vals: Vec<Value> = Vec::with_capacity(args.len());
    for i in 0..n {
        vals.clear();
        vals.extend(args.iter().map(|a| a.batch.value(i)));
        out.push(eval_scalar_function_upper(name, &vals).ok()?);
    }
    Some(Batch::Col(Arc::new(out)))
}

/// Column-dense `CLAMP(col, lo, hi)`. Mirrors the scalar function's
/// semantics exactly — NULL in → NULL out, a violated bound wins (lo
/// first when the bounds cross), in-range values keep their original
/// type — without building a per-row `Value` argument vector. Returns
/// `None` (generic per-row path) for non-numeric columns or non-const
/// bounds.
fn clamp_dense(args: &[Slot], n: usize) -> Option<ColumnData> {
    let (lo, hi) = match (&args[1].batch, &args[2].batch) {
        (Batch::Const(lo), Batch::Const(hi)) => (lo.as_f64()?, hi.as_f64()?),
        _ => return None,
    };
    let Batch::Col(c) = &args[0].batch else { return None };
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
    use crate::eval::{eval_expr, eval_predicate, EvalContext};
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
    /// applied to every row, or fails with the error of the lowest row
    /// the interpreter fails on — as a value and as a predicate.
    fn check(src: &str) {
        let e = parse_expr(src).unwrap();
        let f = frame();
        let ctx = EvalContext::new(&f.schema);
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&e, &f.schema, &exec).unwrap();
        let reference: EngineResult<Vec<Value>> =
            (0..f.len()).map(|i| eval_expr(&e, &f.row(i), &ctx)).collect();
        match (program.eval(&f, &exec), reference) {
            (Ok(compiled), Ok(rows)) => {
                for (i, expected) in rows.into_iter().enumerate() {
                    assert_eq!(compiled.value(i), expected, "row {i} of {src}");
                }
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{src}"),
            other => panic!("program and interpreter disagree for {src}: {other:?}"),
        }
        let reference: EngineResult<Vec<bool>> =
            (0..f.len()).map(|i| eval_predicate(&e, &f.row(i), &ctx)).collect();
        match (program.eval_mask(&f, &exec), reference) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "mask of {src}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "mask of {src}"),
            other => panic!("mask and interpreter disagree for {src}: {other:?}"),
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
            // operands the reference never evaluates must not fail a row
            "CASE WHEN t > 5 THEN name + 1 ELSE x END",
            "CASE t WHEN 2 THEN -name ELSE t END",
            "t IN (1, 2, 3, name + 1)",
            "t > 0 OR name > 5",
            // row 2 reaches `name > 5` (x is NULL there)
            "x > 0 OR name > 5",
            // row 2 fails in `-name`, row 0 in the later `t + name`: row 0's error wins
            "CASE WHEN t = 3 THEN -name WHEN t = 1 THEN t + name END",
            // as a predicate, row 0's non-boolean 5 fails before row 2's `name + 1`
            "CASE WHEN t = 1 THEN 5 ELSE name + 1 END",
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
        // row), and so does the bare stack machine
        let src = "t < 0 AND name > 5";
        let f = frame();
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&parse_expr(src).unwrap(), &f.schema, &exec).unwrap();
        assert!(program.run(&f, &exec).errs.is_none());
        check(src);
    }

    #[test]
    fn mask_counts_null_as_false() {
        let e = parse_expr("x > 1.6").unwrap();
        let f = frame();
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&e, &f.schema, &exec).unwrap();
        assert_eq!(program.eval_mask(&f, &exec).unwrap(), vec![false, true, false]);
    }

    #[test]
    fn empty_frames_evaluate_nothing() {
        // a type error must not surface over zero rows
        let e = parse_expr("name + 1").unwrap();
        let f = Frame::empty(frame().schema.clone());
        let catalog = Catalog::new();
        let exec = Executor::new(&catalog);
        let program = ExprProgram::compile(&e, &f.schema, &exec).unwrap();
        assert!(program.eval(&f, &exec).is_ok());
    }
}
