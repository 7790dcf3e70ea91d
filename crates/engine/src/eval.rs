//! Expression evaluation with SQL three-valued logic: the row-level
//! interpreter [`eval_expr`] — the reference semantics that the test
//! oracle runs and the proptests compare compiled programs against; no
//! library code calls it — plus the scalar function dispatch table, the
//! [`Batch`] values and the dense binary kernels that
//! [`ExprProgram`](crate::plan::ExprProgram), the one evaluator the
//! engine runs, is built on.

use std::sync::Arc;

use paradise_sql::ast::{BinaryOp, CaseBranch, Expr, Literal, UnaryOp};

use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::frame::{Frame, Row};
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Callback that yields the result of a scalar subquery / `EXISTS` probe:
/// the test oracle runs the subquery; a context without one fails on it.
pub type SubqueryFn<'a> = &'a dyn Fn(&paradise_sql::ast::Query) -> EngineResult<Frame>;

/// Everything an expression needs to evaluate against one row.
pub struct EvalContext<'a> {
    /// Input schema for column resolution.
    pub schema: &'a Schema,
    /// Optional subquery results.
    pub subquery: Option<SubqueryFn<'a>>,
}

impl<'a> EvalContext<'a> {
    /// Context without subquery support.
    pub fn new(schema: &'a Schema) -> Self {
        EvalContext { schema, subquery: None }
    }
}

/// Evaluate `expr` against `row`.
pub fn eval_expr(expr: &Expr, row: &Row, ctx: &EvalContext<'_>) -> EngineResult<Value> {
    match expr {
        Expr::Literal(lit) => Ok(literal_value(lit)),
        Expr::Column(c) => {
            let idx = ctx.schema.resolve(c.qualifier.as_deref(), &c.name)?;
            Ok(row[idx].clone())
        }
        Expr::Wildcard => Err(EngineError::Unsupported(
            "'*' is only valid inside COUNT(*)".into(),
        )),
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, row, ctx)?;
            eval_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            // Short-circuit three-valued AND/OR.
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    let l = eval_expr(left, row, ctx)?;
                    let l3 = to_bool3(&l)?;
                    match (op, l3) {
                        (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
                        (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                        _ => {}
                    }
                    let r = eval_expr(right, row, ctx)?;
                    let r3 = to_bool3(&r)?;
                    let out = match op {
                        BinaryOp::And => and3(l3, r3),
                        _ => or3(l3, r3),
                    };
                    Ok(out.map(Value::Bool).unwrap_or(Value::Null))
                }
                _ => {
                    let l = eval_expr(left, row, ctx)?;
                    let r = eval_expr(right, row, ctx)?;
                    eval_binary(l, *op, r)
                }
            }
        }
        Expr::Function(call) => {
            if call.over.is_some() {
                return Err(EngineError::Unsupported(
                    "window function outside the executor's window stage".into(),
                ));
            }
            let args = call
                .args
                .iter()
                .map(|a| eval_expr(a, row, ctx))
                .collect::<EngineResult<Vec<_>>>()?;
            eval_scalar_function(&call.name, &args)
        }
        Expr::Case { operand, branches, else_result } => {
            eval_case(operand.as_deref(), branches, else_result.as_deref(), row, ctx)
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval_expr(expr, row, ctx)?;
            let lo = eval_expr(low, row, ctx)?;
            let hi = eval_expr(high, row, ctx)?;
            let ge = ge3(&v, &lo);
            let le = le3(&v, &hi);
            let within = and3(ge, le);
            Ok(match within {
                Some(b) => Value::Bool(b != *negated),
                None => Value::Null,
            })
        }
        Expr::InList { expr, list, negated } => {
            let v = eval_expr(expr, row, ctx)?;
            let mut saw_null = false;
            for item in list {
                let candidate = eval_expr(item, row, ctx)?;
                match v.sql_eq(&candidate) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, row, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Cast { expr, type_name } => {
            let v = eval_expr(expr, row, ctx)?;
            let target = DataType::parse(type_name).ok_or_else(|| {
                EngineError::Unsupported(format!("unknown cast target {type_name:?}"))
            })?;
            v.cast(target)
        }
        Expr::Subquery(q) => {
            let exec = ctx.subquery.ok_or_else(|| {
                EngineError::Unsupported("scalar subquery in this context".into())
            })?;
            scalar_subquery_value(&exec(q)?)
        }
        Expr::Exists(q) => {
            let exec = ctx.subquery.ok_or_else(|| {
                EngineError::Unsupported("EXISTS subquery in this context".into())
            })?;
            let frame = exec(q)?;
            Ok(Value::Bool(!frame.is_empty()))
        }
    }
}

/// The value of a scalar subquery that returned `frame`: NULL when it
/// has no row, an error when it has more than one row or column.
pub(crate) fn scalar_subquery_value(frame: &Frame) -> EngineResult<Value> {
    if frame.schema.len() != 1 {
        return Err(EngineError::Unsupported(
            "scalar subquery must return exactly one column".into(),
        ));
    }
    match frame.len() {
        0 => Ok(Value::Null),
        1 => Ok(frame.value(0, 0)),
        _ => Err(EngineError::Unsupported("scalar subquery returned more than one row".into())),
    }
}

/// Evaluate a predicate for filtering: NULL counts as false.
pub fn eval_predicate(expr: &Expr, row: &Row, ctx: &EvalContext<'_>) -> EngineResult<bool> {
    let v = eval_expr(expr, row, ctx)?;
    Ok(to_bool3(&v)?.unwrap_or(false))
}

/// Convert a literal AST node to a runtime value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Bool(*b),
        Literal::Integer(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::String(s) => Value::Str(s.clone()),
    }
}

pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> EngineResult<Value> {
    match op {
        UnaryOp::Not => Ok(match to_bool3(&v)? {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        }),
        UnaryOp::Minus => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(x) => Ok(Value::Int(-x)),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(EngineError::TypeMismatch(format!("cannot negate {other}"))),
        },
        UnaryOp::Plus => match v {
            Value::Null | Value::Int(_) | Value::Float(_) => Ok(v),
            other => Err(EngineError::TypeMismatch(format!("cannot apply unary + to {other}"))),
        },
    }
}

pub(crate) fn eval_binary(l: Value, op: BinaryOp, r: Value) -> EngineResult<Value> {
    match op {
        BinaryOp::And | BinaryOp::Or => unreachable!("handled with short-circuit"),
        BinaryOp::Eq | BinaryOp::NotEq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt
        | BinaryOp::GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.sql_cmp(&r).ok_or_else(|| {
                EngineError::TypeMismatch(format!("cannot compare {l} with {r}"))
            })?;
            let b = match op {
                BinaryOp::Eq => ord.is_eq(),
                BinaryOp::NotEq => ord.is_ne(),
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::LtEq => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::GtEq => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Divide
        | BinaryOp::Modulo => eval_arithmetic(l, op, r),
        BinaryOp::Like => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (&l, &r) {
                (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(like_match(s, p))),
                _ => Err(EngineError::TypeMismatch("LIKE requires text operands".into())),
            }
        }
        BinaryOp::Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Str(format!("{l}{r}")))
        }
    }
}

fn eval_arithmetic(l: Value, op: BinaryOp, r: Value) -> EngineResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // integer op integer stays integer (except division by zero handling)
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        return match op {
            BinaryOp::Plus => Ok(Value::Int(a.wrapping_add(b))),
            BinaryOp::Minus => Ok(Value::Int(a.wrapping_sub(b))),
            BinaryOp::Multiply => Ok(Value::Int(a.wrapping_mul(b))),
            BinaryOp::Divide => {
                if b == 0 {
                    Ok(Value::Null) // SQL engines differ; NULL keeps queries total
                } else {
                    Ok(Value::Int(a.wrapping_div(b)))
                }
            }
            BinaryOp::Modulo => {
                if b == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(a.wrapping_rem(b)))
                }
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(EngineError::TypeMismatch(format!(
                "arithmetic on non-numeric values {l} and {r}"
            )))
        }
    };
    let out = match op {
        BinaryOp::Plus => a + b,
        BinaryOp::Minus => a - b,
        BinaryOp::Multiply => a * b,
        BinaryOp::Divide => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        BinaryOp::Modulo => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a % b
        }
        _ => unreachable!(),
    };
    Ok(Value::Float(out))
}

fn eval_case(
    operand: Option<&Expr>,
    branches: &[CaseBranch],
    else_result: Option<&Expr>,
    row: &Row,
    ctx: &EvalContext<'_>,
) -> EngineResult<Value> {
    match operand {
        Some(op_expr) => {
            let operand_value = eval_expr(op_expr, row, ctx)?;
            for b in branches {
                let when = eval_expr(&b.when, row, ctx)?;
                if operand_value.sql_eq(&when) == Some(true) {
                    return eval_expr(&b.then, row, ctx);
                }
            }
        }
        None => {
            for b in branches {
                if eval_predicate(&b.when, row, ctx)? {
                    return eval_expr(&b.then, row, ctx);
                }
            }
        }
    }
    match else_result {
        Some(e) => eval_expr(e, row, ctx),
        None => Ok(Value::Null),
    }
}

pub(crate) fn eval_scalar_function(name: &str, args: &[Value]) -> EngineResult<Value> {
    eval_scalar_function_upper(&name.to_ascii_uppercase(), args)
}

/// Like [`eval_scalar_function`], but `upper` must already be
/// ASCII-uppercased: the compiled expression programs fold the name
/// once at compile time so per-row calls skip the allocation.
pub(crate) fn eval_scalar_function_upper(upper: &str, args: &[Value]) -> EngineResult<Value> {
    let arity = |expected: &str, ok: bool| -> EngineResult<()> {
        if ok {
            Ok(())
        } else {
            Err(EngineError::WrongArity {
                function: upper.to_string(),
                expected: expected.to_string(),
                got: args.len(),
            })
        }
    };
    let num1 = |f: &dyn Fn(f64) -> f64| -> EngineResult<Value> {
        if args[0].is_null() {
            return Ok(Value::Null);
        }
        let x = args[0].as_f64().ok_or_else(|| {
            EngineError::TypeMismatch(format!("{upper} requires a numeric argument"))
        })?;
        Ok(Value::Float(f(x)))
    };
    match upper {
        "ABS" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Int(v.abs())),
                Value::Float(v) => Ok(Value::Float(v.abs())),
                other => Err(EngineError::TypeMismatch(format!("ABS of {other}"))),
            }
        }
        "ROUND" => {
            arity("1 or 2", args.len() == 1 || args.len() == 2)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let x = args[0]
                .as_f64()
                .ok_or_else(|| EngineError::TypeMismatch("ROUND of non-number".into()))?;
            let digits = if args.len() == 2 {
                match &args[1] {
                    Value::Int(d) => *d,
                    Value::Null => return Ok(Value::Null),
                    _ => return Err(EngineError::TypeMismatch("ROUND digits".into())),
                }
            } else {
                0
            };
            let factor = 10f64.powi(digits as i32);
            Ok(Value::Float((x * factor).round() / factor))
        }
        "FLOOR" => {
            arity("1", args.len() == 1)?;
            num1(&f64::floor)
        }
        "CEIL" | "CEILING" => {
            arity("1", args.len() == 1)?;
            num1(&f64::ceil)
        }
        "SQRT" => {
            arity("1", args.len() == 1)?;
            num1(&f64::sqrt)
        }
        "LN" => {
            arity("1", args.len() == 1)?;
            num1(&f64::ln)
        }
        "EXP" => {
            arity("1", args.len() == 1)?;
            num1(&f64::exp)
        }
        "POWER" | "POW" => {
            arity("2", args.len() == 2)?;
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            match (args[0].as_f64(), args[1].as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(a.powf(b))),
                _ => Err(EngineError::TypeMismatch("POWER of non-numbers".into())),
            }
        }
        "LOWER" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
                other => Err(EngineError::TypeMismatch(format!("LOWER of {other}"))),
            }
        }
        "UPPER" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
                other => Err(EngineError::TypeMismatch(format!("UPPER of {other}"))),
            }
        }
        "LENGTH" => {
            arity("1", args.len() == 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(EngineError::TypeMismatch(format!("LENGTH of {other}"))),
            }
        }
        "COALESCE" => {
            arity("1+", !args.is_empty())?;
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        "NULLIF" => {
            arity("2", args.len() == 2)?;
            if args[0].sql_eq(&args[1]) == Some(true) {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        "CLAMP" => {
            arity("3", args.len() == 3)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let num = |i: usize| {
                args[i].as_f64().ok_or_else(|| {
                    EngineError::TypeMismatch(format!("CLAMP of {}", args[i]))
                })
            };
            let (x, lo, hi) = (num(0)?, num(1)?, num(2)?);
            // Out-of-range values take the violated bound (lo wins when
            // the bounds cross); in-range values keep their original
            // type, so integer streams stay exactly summable.
            if x < lo {
                Ok(Value::Float(lo))
            } else if x > hi {
                Ok(Value::Float(hi))
            } else {
                Ok(args[0].clone())
            }
        }
        _ => Err(EngineError::UnknownFunction(upper.to_string())),
    }
}

/// SQL `LIKE` with `%` (any run) and `_` (any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => {
                (0..=s.len()).any(|skip| rec(&s[skip..], rest))
            }
            Some(('_', rest)) => !s.is_empty() && rec(&s[1..], rest),
            Some((c, rest)) => s.first() == Some(c) && rec(&s[1..], rest),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

// batch (column-at-a-time) evaluation ----------------------------------------

/// Result of evaluating an expression over every row of a frame: either
/// one value per row, or a single row-invariant constant (literals,
/// uncorrelated subqueries) that is never materialised `n` times.
#[derive(Debug, Clone)]
pub enum Batch {
    /// The same value for every row.
    Const(Value),
    /// One value per row, shared zero-copy when the expression is a
    /// plain column reference.
    Col(Arc<ColumnData>),
}

impl Batch {
    /// Materialise the value at row `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Batch::Const(v) => v.clone(),
            Batch::Col(c) => c.value(i),
        }
    }

    /// Is the value at row `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Batch::Const(v) => v.is_null(),
            Batch::Col(c) => c.is_null(i),
        }
    }

    /// Turn into a column of `n` cells (broadcasting constants).
    pub fn into_column(self, n: usize) -> ColumnData {
        match self {
            Batch::Const(v) => {
                let hint = v.data_type().unwrap_or(DataType::Float);
                let mut col = ColumnData::with_capacity(hint, n);
                for _ in 0..n {
                    col.push(v.clone());
                }
                col
            }
            Batch::Col(c) => Arc::try_unwrap(c).unwrap_or_else(|shared| (*shared).clone()),
        }
    }

    /// Shared column handle, broadcasting constants.
    pub fn into_column_arc(self, n: usize) -> Arc<ColumnData> {
        match self {
            Batch::Col(c) => c,
            other => Arc::new(other.into_column(n)),
        }
    }
}

/// One side of a numeric binary kernel.
enum NumSide<'a> {
    IntCol(&'a [Option<i64>]),
    FloatCol(&'a [Option<f64>]),
    ConstInt(i64),
    ConstFloat(f64),
    ConstNull,
}

fn classify_numeric(batch: &Batch) -> Option<NumSide<'_>> {
    match batch {
        Batch::Const(Value::Int(v)) => Some(NumSide::ConstInt(*v)),
        Batch::Const(Value::Float(v)) => Some(NumSide::ConstFloat(*v)),
        Batch::Const(Value::Null) => Some(NumSide::ConstNull),
        Batch::Const(_) => None,
        Batch::Col(c) => {
            if let Some(ints) = c.int_slice() {
                Some(NumSide::IntCol(ints))
            } else {
                c.float_slice().map(NumSide::FloatCol)
            }
        }
    }
}

impl NumSide<'_> {
    fn int_at(&self, i: usize) -> Option<Option<i64>> {
        match self {
            NumSide::IntCol(v) => Some(v[i]),
            NumSide::ConstInt(x) => Some(Some(*x)),
            NumSide::ConstNull => Some(None),
            _ => None,
        }
    }

    fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            NumSide::IntCol(v) => v[i].map(|x| x as f64),
            NumSide::FloatCol(v) => v[i],
            NumSide::ConstInt(x) => Some(*x as f64),
            NumSide::ConstFloat(x) => Some(*x),
            NumSide::ConstNull => None,
        }
    }

    fn both_int(&self) -> bool {
        matches!(self, NumSide::IntCol(_) | NumSide::ConstInt(_) | NumSide::ConstNull)
    }
}

/// Batched comparison / arithmetic / string ops, with dense numeric
/// kernels for the common cases and a per-element fallback that reuses
/// the scalar [`eval_binary`] semantics.
pub(crate) fn eval_binary_batch(l: Batch, op: BinaryOp, r: Batch, n: usize) -> EngineResult<Batch> {
    // the AND/OR forms never reach here (handled by the caller)
    if let (Batch::Const(a), Batch::Const(b)) = (&l, &r) {
        return Ok(Batch::Const(eval_binary(a.clone(), op, b.clone())?));
    }

    let is_cmp = matches!(
        op,
        BinaryOp::Eq | BinaryOp::NotEq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt
            | BinaryOp::GtEq
    );
    let is_arith = matches!(
        op,
        BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Divide
            | BinaryOp::Modulo
    );

    if is_cmp || is_arith {
        if let (Some(ls), Some(rs)) = (classify_numeric(&l), classify_numeric(&r)) {
            // exact integer kernel (preserves wrapping arithmetic and
            // exact comparison beyond 2^53)
            if ls.both_int() && rs.both_int() {
                let out_type = if is_cmp { DataType::Boolean } else { DataType::Integer };
                let mut out = ColumnData::with_capacity(out_type, n);
                for i in 0..n {
                    let (a, b) = (ls.int_at(i).unwrap(), rs.int_at(i).unwrap());
                    out.push(match (a, b) {
                        (Some(a), Some(b)) => int_binary(a, op, b),
                        _ => Value::Null,
                    });
                }
                return Ok(Batch::Col(Arc::new(out)));
            }
            // float kernel
            let out_type = if is_cmp { DataType::Boolean } else { DataType::Float };
            let mut out = ColumnData::with_capacity(out_type, n);
            for i in 0..n {
                out.push(match (ls.f64_at(i), rs.f64_at(i)) {
                    (Some(a), Some(b)) => float_binary(a, op, b),
                    _ => Value::Null,
                });
            }
            return Ok(Batch::Col(Arc::new(out)));
        }
    }

    // generic per-element fallback (strings, booleans, LIKE, ||, mixed)
    let mut out = ColumnData::with_capacity(
        if is_cmp { DataType::Boolean } else { DataType::Float },
        n,
    );
    for i in 0..n {
        out.push(eval_binary(l.value(i), op, r.value(i))?);
    }
    Ok(Batch::Col(Arc::new(out)))
}

fn int_binary(a: i64, op: BinaryOp, b: i64) -> Value {
    match op {
        BinaryOp::Eq => Value::Bool(a == b),
        BinaryOp::NotEq => Value::Bool(a != b),
        BinaryOp::Lt => Value::Bool(a < b),
        BinaryOp::LtEq => Value::Bool(a <= b),
        BinaryOp::Gt => Value::Bool(a > b),
        BinaryOp::GtEq => Value::Bool(a >= b),
        BinaryOp::Plus => Value::Int(a.wrapping_add(b)),
        BinaryOp::Minus => Value::Int(a.wrapping_sub(b)),
        BinaryOp::Multiply => Value::Int(a.wrapping_mul(b)),
        BinaryOp::Divide => {
            if b == 0 {
                Value::Null
            } else {
                Value::Int(a.wrapping_div(b))
            }
        }
        BinaryOp::Modulo => {
            if b == 0 {
                Value::Null
            } else {
                Value::Int(a.wrapping_rem(b))
            }
        }
        _ => unreachable!("kernel only handles comparison/arithmetic"),
    }
}

fn float_binary(a: f64, op: BinaryOp, b: f64) -> Value {
    use std::cmp::Ordering;
    let ord = || a.partial_cmp(&b).unwrap_or(Ordering::Equal);
    match op {
        BinaryOp::Eq => Value::Bool(ord() == Ordering::Equal),
        BinaryOp::NotEq => Value::Bool(ord() != Ordering::Equal),
        BinaryOp::Lt => Value::Bool(ord() == Ordering::Less),
        BinaryOp::LtEq => Value::Bool(ord() != Ordering::Greater),
        BinaryOp::Gt => Value::Bool(ord() == Ordering::Greater),
        BinaryOp::GtEq => Value::Bool(ord() != Ordering::Less),
        BinaryOp::Plus => Value::Float(a + b),
        BinaryOp::Minus => Value::Float(a - b),
        BinaryOp::Multiply => Value::Float(a * b),
        BinaryOp::Divide => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinaryOp::Modulo => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a % b)
            }
        }
        _ => unreachable!("kernel only handles comparison/arithmetic"),
    }
}

// three-valued logic helpers -------------------------------------------------

pub(crate) fn to_bool3(v: &Value) -> EngineResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(EngineError::TypeMismatch(format!("expected boolean, got {other}"))),
    }
}

pub(crate) fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

pub(crate) fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

pub(crate) fn ge3(a: &Value, b: &Value) -> Option<bool> {
    a.sql_cmp(b).map(|o| o.is_ge())
}

pub(crate) fn le3(a: &Value, b: &Value) -> Option<bool> {
    a.sql_cmp(b).map(|o| o.is_le())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_sql::parse_expr;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("z", DataType::Float),
            ("name", DataType::Text),
            ("flag", DataType::Boolean),
        ])
    }

    fn row() -> Row {
        vec![
            Value::Float(3.0),
            Value::Float(2.0),
            Value::Float(1.5),
            Value::Str("walker".into()),
            Value::Bool(true),
        ]
    }

    fn eval(src: &str) -> EngineResult<Value> {
        let e = parse_expr(src).unwrap();
        let s = schema();
        let ctx = EvalContext::new(&s);
        eval_expr(&e, &row(), &ctx)
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval("x > y").unwrap(), Value::Bool(true));
        assert_eq!(eval("z < 2").unwrap(), Value::Bool(true));
        assert_eq!(eval("z >= 2").unwrap(), Value::Bool(false));
        assert_eq!(eval("name = 'walker'").unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(eval("x + y").unwrap(), Value::Float(5.0));
        assert_eq!(eval("1 + 2").unwrap(), Value::Int(3));
        assert_eq!(eval("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval("7.0 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval("7 % 4").unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(eval("1 / 0").unwrap(), Value::Null);
        assert_eq!(eval("x / 0.0").unwrap(), Value::Null);
        assert_eq!(eval("1 % 0").unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval("NULL AND flag").unwrap(), Value::Null);
        assert_eq!(eval("NULL AND FALSE").unwrap(), Value::Bool(false));
        assert_eq!(eval("NULL OR TRUE").unwrap(), Value::Bool(true));
        assert_eq!(eval("NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval("z < NULL").unwrap(), Value::Null);
    }

    #[test]
    fn predicate_null_is_false() {
        let e = parse_expr("z < NULL").unwrap();
        let s = schema();
        let ctx = EvalContext::new(&s);
        assert!(!eval_predicate(&e, &row(), &ctx).unwrap());
    }

    #[test]
    fn between_and_in() {
        assert_eq!(eval("z BETWEEN 1 AND 2").unwrap(), Value::Bool(true));
        assert_eq!(eval("z NOT BETWEEN 1 AND 2").unwrap(), Value::Bool(false));
        assert_eq!(eval("x IN (1, 3, 5)").unwrap(), Value::Bool(true));
        assert_eq!(eval("x NOT IN (1, 3, 5)").unwrap(), Value::Bool(false));
        assert_eq!(eval("y IN (1, NULL)").unwrap(), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        assert_eq!(eval("name IS NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval("name IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn case_forms() {
        assert_eq!(
            eval("CASE WHEN z < 2 THEN 'low' ELSE 'high' END").unwrap(),
            Value::Str("low".into())
        );
        assert_eq!(
            eval("CASE name WHEN 'walker' THEN 1 ELSE 0 END").unwrap(),
            Value::Int(1)
        );
        assert_eq!(eval("CASE WHEN FALSE THEN 1 END").unwrap(), Value::Null);
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval("ABS(-3)").unwrap(), Value::Int(3));
        assert_eq!(eval("ROUND(2.567, 2)").unwrap(), Value::Float(2.57));
        assert_eq!(eval("FLOOR(2.9)").unwrap(), Value::Float(2.0));
        assert_eq!(eval("UPPER(name)").unwrap(), Value::Str("WALKER".into()));
        assert_eq!(eval("LENGTH(name)").unwrap(), Value::Int(6));
        assert_eq!(eval("COALESCE(NULL, NULL, 5)").unwrap(), Value::Int(5));
        assert_eq!(eval("NULLIF(2, 2)").unwrap(), Value::Null);
        assert_eq!(eval("NULLIF(3, 2)").unwrap(), Value::Int(3));
        assert_eq!(eval("POWER(2, 10)").unwrap(), Value::Float(1024.0));
        // CLAMP: violated bounds come back as the (float) bound,
        // in-range values keep their original type, NULLs propagate.
        assert_eq!(eval("CLAMP(7, 0, 5.5)").unwrap(), Value::Float(5.5));
        assert_eq!(eval("CLAMP(-1, 0, 5.5)").unwrap(), Value::Float(0.0));
        assert_eq!(eval("CLAMP(3, 0, 5.5)").unwrap(), Value::Int(3));
        assert_eq!(eval("CLAMP(NULL, 0, 1)").unwrap(), Value::Null);
    }

    #[test]
    fn unknown_function_errors() {
        assert!(matches!(eval("noSuchFn(1)"), Err(EngineError::UnknownFunction(_))));
    }

    #[test]
    fn wrong_arity_errors() {
        assert!(matches!(eval("ABS(1, 2)"), Err(EngineError::WrongArity { .. })));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("walker", "walk%"));
        assert!(like_match("walker", "%lk%"));
        assert!(like_match("walker", "w_lker"));
        assert!(!like_match("walker", "walk"));
        assert!(like_match("", "%"));
        assert!(!like_match("a", "_%_"));
        assert!(like_match("ab", "_%_"));
        assert_eq!(eval("name LIKE 'walk%'").unwrap(), Value::Bool(true));
    }

    #[test]
    fn concat() {
        assert_eq!(eval("name || '!'").unwrap(), Value::Str("walker!".into()));
        assert_eq!(eval("name || NULL").unwrap(), Value::Null);
    }

    #[test]
    fn cast_in_expression() {
        assert_eq!(eval("CAST(z AS INTEGER)").unwrap(), Value::Int(1));
        assert_eq!(eval("CAST('7' AS FLOAT)").unwrap(), Value::Float(7.0));
        assert!(eval("CAST(name AS INTEGER)").is_err());
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval("-x").unwrap(), Value::Float(-3.0));
        assert_eq!(eval("NOT flag").unwrap(), Value::Bool(false));
        assert!(eval("-name").is_err());
    }

    #[test]
    fn unknown_column_errors() {
        assert!(matches!(eval("missing > 1"), Err(EngineError::UnknownColumn(_))));
    }

    #[test]
    fn subquery_without_executor_errors() {
        assert!(eval("x > (SELECT 1)").is_err());
    }

    #[test]
    fn comparing_incompatible_types_errors() {
        assert!(eval("name > 5").is_err());
    }
}
