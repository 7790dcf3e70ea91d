//! Physical plans: compile a [`Query`] + catalog schemas **once** into
//! a reusable operator DAG, then execute it on every stream tick
//! without touching the AST again.
//!
//! Compilation binds every expression a plan runs: each name becomes a
//! column ordinal, each expression — filters, projections, aggregate
//! arguments, window keys, join predicates — a flat postorder
//! instruction buffer ([`program::ExprProgram`]), and each scalar or
//! `EXISTS` subquery a sub-plan inside the program that uses it. It
//! also pre-selects strategies (hash vs. nested-loop join candidates,
//! projected-vs-input `ORDER BY` key sources, the window/aggregate
//! kinds). Execution runs columnar kernels over the typed buffers —
//! plus partition-parallel grouped aggregation, window computation and
//! filter/select gathers over the vendored [`minipool`] scoped thread
//! pool (sized by the `PARADISE_THREADS` knob; serial when 1) — and
//! never resolves a name or re-enters `compile`.
//!
//! Compilation is **total** over the supported SQL subset: every query
//! either yields a plan or a typed [`EngineError`] — there is no
//! interpreter behind the planner. Whatever is wrong with a query as a
//! property of (query, schema) is reported here, before execution and
//! whatever the data, subqueries and join predicates included. The
//! equivalence suites pin `compiled == naive row oracle` over the whole
//! corpus (the oracle lives in `crates/engine/tests/oracle/`).
//!
//! A [`PlanCache`] maps `(query AST, schema fingerprint)` to compiled
//! plans with hit/miss/invalidation counters; the continuous-query
//! runtime keeps one, consulted when a stage has no plan yet.

mod incremental;
mod program;
pub(crate) mod sharded;

pub use incremental::{DeltaInput, IncrementalPlan, IncrementalRun, IncrementalState};
pub use program::ExprProgram;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use minipool::ThreadPool;
use paradise_sql::analysis::{base_relations, is_aggregate_function};
use paradise_sql::ast::{
    Expr, FunctionCall, JoinKind, Literal, Query, SelectItem, SortOrder, TableRef,
};
use paradise_sql::visit::walk_exprs;

use crate::catalog::Catalog;
use crate::column::{ColumnData, DenseIds};
use crate::error::{EngineError, EngineResult};
use crate::eval::Batch;
use crate::exec::aggregate::{Accumulator, AggKind};
use crate::exec::{
    self, collect_aggregate_calls, dedupe_frame, distinct_indices, equi_join_columns,
    finalise_types, replace_aggregate_calls, window, Executor,
};
use crate::frame::Frame;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// Minimum row count before an operator fans work out to the pool;
/// below this the scope round-trip costs more than it saves.
const PARALLEL_MIN_ROWS: usize = 4096;

// ---------------------------------------------------------------------
// hashing: FxHash for group keys, FNV for AST / schema fingerprints
// ---------------------------------------------------------------------

/// The Firefox hash: a fast non-cryptographic hasher for the engine's
/// internal hash maps (grouping, plan-cache keys). Not DoS-hardened —
/// never use it for attacker-controlled keys that must not collide.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    /// The state folded, multiplied and folded again. A multiply
    /// carries a bit only upward, so the raw state's low bits depend on
    /// the key's low bits alone: keys that differ only in high bits —
    /// the float bit patterns of `2.0`, `2.5`, `3.0`, …, whose low
    /// mantissa bits are all zero — would share one hash-map bucket (a
    /// quadratic `GROUP BY`) and one `% shards` shard. The folds bring
    /// every key bit down to the low bits.
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// FNV-1a accumulator exposed as a `fmt::Write` sink, so ASTs and
/// schemas hash through their `Display` impls without allocating.
struct FnvWriter(u64);

impl FnvWriter {
    fn new() -> Self {
        FnvWriter(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Structural key of a query: an FNV-1a hash of its canonical SQL
/// rendering, computed without materialising the string. Callers that
/// must rule out collisions compare the stored AST on a key hit.
pub fn ast_key(query: &Query) -> u64 {
    let mut h = FnvWriter::new();
    let _ = write!(h, "{query}");
    h.0
}

/// Hash one schema: column names, qualifiers and declared types, in
/// order. Ordinal resolution inside compiled plans depends exactly on
/// this, so equal fingerprints imply compiled ordinals stay valid.
pub fn schema_hash(schema: &Schema) -> u64 {
    let mut h = FnvWriter::new();
    for c in schema.columns() {
        h.write_bytes(c.name.as_bytes());
        h.write_bytes(&[0xfe]);
        if let Some(s) = &c.source {
            h.write_bytes(s.as_bytes());
        }
        h.write_bytes(&[0xff]);
        h.write_bytes(c.data_type.name().as_bytes());
    }
    h.0
}

/// Fingerprint the schemas of `tables` as found in `catalog` (missing
/// tables hash as absent). A compiled plan is valid for execution as
/// long as this fingerprint matches the one captured at compile time.
pub fn schema_fingerprint(catalog: &Catalog, tables: &[String]) -> u64 {
    fingerprint_with(tables, |t| catalog.get(t).ok())
}

pub(crate) fn fingerprint_with<'f>(
    tables: &[String],
    lookup: impl Fn(&str) -> Option<&'f Frame>,
) -> u64 {
    let mut h = FnvWriter::new();
    for t in tables {
        h.write_bytes(t.as_bytes());
        match lookup(t) {
            Some(frame) => h.write_u64_mix(schema_hash(&frame.schema)),
            None => h.write_bytes(b"<absent>"),
        }
    }
    h.0
}

impl FnvWriter {
    fn write_u64_mix(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// plan data model
// ---------------------------------------------------------------------

/// A query compiled against a catalog's schemas: the reusable artifact
/// of the compile-once / run-many contract.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    root: PNode,
    tables: Vec<String>,
    fingerprint: u64,
}

impl CompiledPlan {
    /// The schema fingerprint this plan was compiled against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Base tables the plan reads (inputs of the fingerprint).
    pub fn tables(&self) -> &[String] {
        &self.tables
    }
}

/// One operator of the physical DAG.
#[derive(Debug, Clone)]
enum PNode {
    /// `SELECT` without `FROM`: one empty row.
    Unit,
    /// Base-table scan; shares the catalog buffers zero-copy.
    Scan {
        table: String,
        source: String,
    },
    /// Derived table (`FROM (SELECT …) [AS alias]`).
    Derived {
        input: Box<PNode>,
        alias: Option<String>,
    },
    /// Two-sided join: the `ON` program over the joined schema (`None`
    /// for `CROSS`) and the pre-selected equi-key candidate.
    Join {
        left: Box<PNode>,
        right: Box<PNode>,
        kind: JoinKind,
        on: Option<ExprProgram>,
        equi: Option<(usize, usize)>,
    },
    /// One `SELECT` block: filter + (plain | aggregation) body.
    Block(Box<BlockPlan>),
    /// `UNION [ALL]` chain: `head`, then each `(all, branch)` appended
    /// in order, de-duplicating after every non-`ALL` step. Branch
    /// widths are checked at compile time; the result keeps the head's
    /// (run-time finalised) schema.
    Union {
        head: Box<PNode>,
        rest: Vec<(bool, PNode)>,
    },
}

#[derive(Debug, Clone)]
struct BlockPlan {
    input: PNode,
    filter: Option<ExprProgram>,
    body: Body,
}

#[derive(Debug, Clone)]
enum Body {
    Plain(Box<PlainBody>),
    Agg(Box<AggBody>),
}

/// Where an output column's declared-type hint comes from (refined by
/// `finalise_types` against the actual buffers).
#[derive(Debug, Clone, Copy)]
enum DTypeSrc {
    Input(usize),
    Fixed(DataType),
}

#[derive(Debug, Clone)]
enum ProjStep {
    /// Splice these input ordinals (wildcards; zero-copy).
    Splice(Vec<usize>),
    /// Evaluate a compiled expression program.
    Prog(ExprProgram),
}

#[derive(Debug, Clone)]
enum OrderKeySrc {
    /// A projected output column (pure alias / positional reference).
    OutCol(usize),
    /// A program over the block input (plain) or extended (agg) schema.
    Prog(ExprProgram),
}

#[derive(Debug, Clone)]
struct PlainBody {
    windows: Vec<WindowPlan>,
    items: Vec<ProjStep>,
    out_cols: Vec<(String, DTypeSrc)>,
    order: Vec<(OrderKeySrc, SortOrder)>,
    distinct: bool,
    limit: Option<u64>,
    offset: Option<u64>,
}

impl PlainBody {
    /// The output schema with its declared (pre-finalisation) types,
    /// over an `input` of the shape the block's work frame has.
    fn declared_schema(&self, input: &Schema) -> Schema {
        let mut schema = Schema::default();
        for (name, dsrc) in &self.out_cols {
            let dt = match dsrc {
                DTypeSrc::Input(i) => input.columns()[*i].data_type,
                DTypeSrc::Fixed(dt) => *dt,
            };
            schema.push(Column::new(name.clone(), dt));
        }
        schema
    }
}

#[derive(Debug, Clone)]
struct AggBody {
    group: Vec<ExprProgram>,
    calls: Vec<AggCallPlan>,
    agg_names: Vec<String>,
    /// Input ordinals the post-grouping stages actually read (the
    /// representative rows are gathered for these columns only); the
    /// `items`/`having`/`order` programs are remapped accordingly.
    rep_cols: Vec<usize>,
    having: Option<ExprProgram>,
    items: Vec<AggItemStep>,
    out_names: Vec<String>,
    order: Vec<(OrderKeySrc, SortOrder)>,
    distinct: bool,
    limit: Option<u64>,
    offset: Option<u64>,
}

#[derive(Debug, Clone)]
enum AggItemStep {
    /// A plain column of the extended (representative ++ `__aggN`) row.
    Col(usize),
    /// A compound expression over the extended schema.
    Prog(ExprProgram),
}

#[derive(Debug, Clone)]
struct AggCallPlan {
    kind: AggKind,
    distinct: bool,
    args: Vec<ArgStep>,
}

#[derive(Debug, Clone)]
enum ArgStep {
    /// `COUNT(*)`: a constant non-null placeholder.
    Star,
    /// A compiled argument expression.
    Prog(ExprProgram),
}

/// Batch-evaluate every aggregate call's argument programs over one
/// frame, running identical argument expressions only once (sharing a
/// `Batch` is an `Arc` clone). Duplicate arguments are the common case
/// under the DP rewrite, where clamp lowering gives `SUM(CLAMP(z, …))`
/// and `AVG(CLAMP(z, …))` the same per-row clamp pass.
fn eval_call_args(
    calls: &[AggCallPlan],
    frame: &Frame,
    exec: &Executor<'_>,
) -> EngineResult<Vec<Vec<Batch>>> {
    let mut shared: Vec<(&ExprProgram, Batch)> = Vec::new();
    calls
        .iter()
        .map(|call| {
            call.args
                .iter()
                .map(|a| {
                    let p = match a {
                        ArgStep::Star => return Ok(Batch::Const(Value::Int(1))),
                        ArgStep::Prog(p) => p,
                    };
                    if let Some((_, b)) = shared.iter().find(|(q, _)| q.same_as(p)) {
                        return Ok(b.clone());
                    }
                    let b = p.eval(frame, exec)?;
                    shared.push((p, b.clone()));
                    Ok(b)
                })
                .collect()
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum WinFunc {
    RowNumber,
    Rank,
    DenseRank,
    Agg(AggKind),
}

#[derive(Debug, Clone)]
struct WindowPlan {
    func: WinFunc,
    distinct: bool,
    partition: Vec<ExprProgram>,
    order: Vec<(ExprProgram, SortOrder)>,
    args: Vec<ArgStep>,
}

// ---------------------------------------------------------------------
// compilation
// ---------------------------------------------------------------------

impl<'a> Executor<'a> {
    /// Compile `query` against the executor's catalog. Total over the
    /// supported SQL subset: a query that cannot run — unknown table,
    /// column or window function, wrong aggregate arity, `UNION`
    /// branches of different widths, `SELECT *` with aggregation — is
    /// a typed error here, whatever the data.
    pub fn compile(&self, query: &Query) -> EngineResult<CompiledPlan> {
        let (root, _schema) = compile_query(self, query)?;
        let tables = plan_tables(query);
        let fingerprint = self.fingerprint(&tables);
        Ok(CompiledPlan { root, tables, fingerprint })
    }

    /// Execute a previously compiled plan. Fails with
    /// [`EngineError::StalePlan`] when the catalog schemas no longer
    /// match the plan's fingerprint (a [`PlanCache`] recompiles instead
    /// of ever hitting this).
    pub fn run_plan(&self, plan: &CompiledPlan) -> EngineResult<Frame> {
        if self.fingerprint(&plan.tables) != plan.fingerprint {
            return Err(EngineError::StalePlan);
        }
        exec_node(self, &plan.root)
    }
}

/// The scalar and `EXISTS` subqueries in `query`'s expressions, at any
/// depth.
fn expr_subqueries(query: &Query) -> Vec<&Query> {
    let mut out = Vec::new();
    walk_exprs(query, &mut |e| {
        if let Expr::Subquery(q) | Expr::Exists(q) = e {
            out.push(&**q);
        }
    });
    out
}

/// The tables a plan of `query` reads (the inputs of its fingerprint):
/// its base relations and those of the subqueries bound into it.
fn plan_tables(query: &Query) -> Vec<String> {
    let mut tables = base_relations(query);
    for t in expr_subqueries(query).into_iter().flat_map(base_relations) {
        if !tables.contains(&t) {
            tables.push(t);
        }
    }
    tables
}

/// A compiled (sub)plan with its statically derived output schema
/// (names and declared types; what enclosing blocks resolve against).
type Compiled = (PNode, Schema);

fn compile_query(exec: &Executor<'_>, query: &Query) -> EngineResult<Compiled> {
    let (head, schema) = compile_block(exec, query)?;
    if query.unions.is_empty() {
        return Ok((head, schema));
    }
    let mut rest = Vec::with_capacity(query.unions.len());
    for (all, branch) in &query.unions {
        let (node, branch_schema) = compile_block(exec, branch)?;
        if branch_schema.len() != schema.len() {
            return Err(EngineError::Unsupported(format!(
                "UNION branches have different widths ({} vs {})",
                schema.len(),
                branch_schema.len()
            )));
        }
        rest.push((*all, node));
    }
    Ok((PNode::Union { head: Box::new(head), rest }, schema))
}

fn compile_block(exec: &Executor<'_>, query: &Query) -> EngineResult<Compiled> {
    let (input, input_schema) = match &query.from {
        Some(t) => compile_table(exec, t)?,
        None => (PNode::Unit, Schema::default()),
    };
    let filter = match &query.where_clause {
        Some(p) => Some(ExprProgram::compile(p, &input_schema, exec)?),
        None => None,
    };
    if query.is_aggregating(&is_aggregate_function) {
        compile_agg(exec, query, input, &input_schema, filter)
    } else {
        compile_plain(exec, query, input, &input_schema, filter)
    }
}

/// The output-column naming rule.
fn item_name(expr: &Expr, alias: &Option<String>) -> String {
    match alias {
        Some(a) => a.clone(),
        None => match expr {
            Expr::Column(c) => c.name.clone(),
            other => format!("{other}").to_lowercase(),
        },
    }
}

fn compile_table(exec: &Executor<'_>, table: &TableRef) -> EngineResult<Compiled> {
    match table {
        TableRef::Table { name, alias } => {
            let frame = exec.table(name)?;
            let source = alias.as_deref().unwrap_or(name).to_string();
            let schema = frame.schema.with_source(&source);
            Ok((PNode::Scan { table: name.clone(), source }, schema))
        }
        TableRef::Subquery { query, alias } => {
            let (node, schema) = compile_query(exec, query)?;
            let schema = match alias {
                Some(a) => schema.with_source(a),
                None => schema,
            };
            Ok((PNode::Derived { input: Box::new(node), alias: alias.clone() }, schema))
        }
        TableRef::Join { left, right, kind, on } => {
            let (l, ls) = compile_table(exec, left)?;
            let (r, rs) = compile_table(exec, right)?;
            let schema = ls.join(&rs);
            // `CROSS` pairs every row: its (parser-impossible) ON is moot
            let on = on.as_ref().filter(|_| !matches!(kind, JoinKind::Cross));
            // pre-select the join strategy: recognise the single-equality
            // ON shape once; the typed-buffer check still runs at
            // execution time (buffers are dynamically typed)
            let equi = on.and_then(|p| equi_join_columns(p, &ls, &rs));
            let on = on.map(|p| ExprProgram::compile(p, &schema, exec)).transpose()?;
            Ok((PNode::Join { left: Box::new(l), right: Box::new(r), kind: *kind, on, equi }, schema))
        }
    }
}

/// Compile the `ORDER BY` keys of a block. A bare name that resolves in
/// the projected output but not in the block's input (a pure alias) and
/// a positional `ORDER BY 1` read the output column; everything else is
/// a program over `in_schema` (the window- or aggregate-extended input).
fn compile_order(
    exec: &Executor<'_>,
    query: &Query,
    rewrite: &dyn Fn(&Expr) -> Expr,
    out_schema: &Schema,
    in_schema: &Schema,
) -> EngineResult<Vec<(OrderKeySrc, SortOrder)>> {
    let mut order = Vec::with_capacity(query.order_by.len());
    for o in &query.order_by {
        let e = rewrite(&o.expr);
        let out_col = match &e {
            Expr::Column(c) if c.qualifier.is_none() => out_schema
                .try_resolve(None, &c.name)
                .filter(|_| in_schema.try_resolve(None, &c.name).is_none()),
            Expr::Literal(Literal::Integer(i)) => i
                .checked_sub(1)
                .and_then(|idx| usize::try_from(idx).ok())
                .filter(|idx| *idx < out_schema.len()),
            _ => None,
        };
        let src = match out_col {
            Some(i) => OrderKeySrc::OutCol(i),
            None => OrderKeySrc::Prog(ExprProgram::compile(&e, in_schema, exec)?),
        };
        order.push((src, o.order));
    }
    Ok(order)
}

fn compile_plain(
    exec: &Executor<'_>,
    query: &Query,
    input: PNode,
    input_schema: &Schema,
    filter: Option<ExprProgram>,
) -> EngineResult<Compiled> {
    // windows: collected from the items, then from ORDER BY
    let mut calls: Vec<FunctionCall> = Vec::new();
    for item in &query.items {
        if let SelectItem::Expr { expr, .. } = item {
            window::collect_window_calls(expr, &mut calls);
        }
    }
    for o in &query.order_by {
        window::collect_window_calls(&o.expr, &mut calls);
    }
    let mut work_schema = input_schema.clone();
    let mut windows = Vec::with_capacity(calls.len());
    let mut rewrite_map: Vec<(FunctionCall, String)> = Vec::with_capacity(calls.len());
    for (i, call) in calls.iter().enumerate() {
        windows.push(compile_window(exec, call, input_schema)?);
        let name = format!("__win{i}");
        work_schema.push(Column::new(name.clone(), DataType::Float));
        rewrite_map.push((call.clone(), name));
    }
    let rewrite = |expr: &Expr| -> Expr {
        if rewrite_map.is_empty() {
            return expr.clone();
        }
        window::replace_window_calls(expr.clone(), &rewrite_map)
    };

    // projection: wildcards splice input ordinals (zero-copy at run
    // time), expressions compile to programs over the work schema
    let mut items = Vec::with_capacity(query.items.len());
    let mut out_cols = Vec::with_capacity(query.items.len());
    for item in &query.items {
        let indices: Vec<usize> = match item {
            SelectItem::Wildcard => (0..work_schema.len()).collect(),
            SelectItem::QualifiedWildcard(q) => {
                let of_source = |c: &Column| {
                    c.source.as_deref().is_some_and(|s| s.eq_ignore_ascii_case(q))
                };
                let hits: Vec<usize> = (0..work_schema.len())
                    .filter(|&i| of_source(&work_schema.columns()[i]))
                    .collect();
                if hits.is_empty() {
                    return Err(EngineError::UnknownTable(q.clone()));
                }
                hits
            }
            SelectItem::Expr { expr, alias } => {
                let e = rewrite(expr);
                let dsrc = match &e {
                    Expr::Column(c) => {
                        DTypeSrc::Input(work_schema.resolve(c.qualifier.as_deref(), &c.name)?)
                    }
                    // refined by finalise_types at run time
                    _ => DTypeSrc::Fixed(DataType::Float),
                };
                out_cols.push((item_name(expr, alias), dsrc));
                items.push(ProjStep::Prog(ExprProgram::compile(&e, &work_schema, exec)?));
                continue;
            }
        };
        for &i in &indices {
            out_cols.push((work_schema.columns()[i].name.clone(), DTypeSrc::Input(i)));
        }
        items.push(ProjStep::Splice(indices));
    }

    let mut body = PlainBody {
        windows,
        items,
        out_cols,
        order: Vec::new(),
        distinct: query.distinct,
        limit: query.limit,
        offset: query.offset,
    };
    let out_schema = body.declared_schema(&work_schema);
    body.order = compile_order(exec, query, &rewrite, &out_schema, &work_schema)?;
    let node = PNode::Block(Box::new(BlockPlan { input, filter, body: Body::Plain(Box::new(body)) }));
    Ok((node, out_schema))
}

fn compile_window(
    exec: &Executor<'_>,
    call: &FunctionCall,
    input_schema: &Schema,
) -> EngineResult<WindowPlan> {
    let upper = call.name.to_ascii_uppercase();
    let func = match upper.as_str() {
        "ROW_NUMBER" => WinFunc::RowNumber,
        "RANK" => WinFunc::Rank,
        "DENSE_RANK" => WinFunc::DenseRank,
        _ => WinFunc::Agg(AggKind::from_name(&call.name).ok_or_else(|| {
            EngineError::UnknownFunction(format!("{} OVER", call.name))
        })?),
    };
    let over = call.over.as_ref().expect("window call has OVER");
    let partition = over
        .partition_by
        .iter()
        .map(|p| ExprProgram::compile(p, input_schema, exec))
        .collect::<EngineResult<_>>()?;
    let order = over
        .order_by
        .iter()
        .map(|o| Ok((ExprProgram::compile(&o.expr, input_schema, exec)?, o.order)))
        .collect::<EngineResult<_>>()?;
    let ranking = matches!(func, WinFunc::RowNumber | WinFunc::Rank | WinFunc::DenseRank);
    let args = if ranking {
        Vec::new()
    } else {
        call.args
            .iter()
            .map(|a| match a {
                Expr::Wildcard => Ok(ArgStep::Star),
                other => Ok(ArgStep::Prog(ExprProgram::compile(other, input_schema, exec)?)),
            })
            .collect::<EngineResult<_>>()?
    };
    Ok(WindowPlan { func, distinct: call.distinct, partition, order, args })
}

fn compile_agg(
    exec: &Executor<'_>,
    query: &Query,
    input: PNode,
    input_schema: &Schema,
    filter: Option<ExprProgram>,
) -> EngineResult<Compiled> {
    if query.has_wildcard() {
        return Err(EngineError::Unsupported("SELECT * with GROUP BY/aggregates".into()));
    }
    let group: Vec<ExprProgram> = query
        .group_by
        .iter()
        .map(|g| ExprProgram::compile(g, input_schema, exec))
        .collect::<EngineResult<_>>()?;

    let mut agg_calls: Vec<FunctionCall> = Vec::new();
    for item in &query.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggregate_calls(expr, &mut agg_calls);
        }
    }
    if let Some(h) = &query.having {
        collect_aggregate_calls(h, &mut agg_calls);
    }
    for o in &query.order_by {
        collect_aggregate_calls(&o.expr, &mut agg_calls);
    }

    let mut calls = Vec::with_capacity(agg_calls.len());
    for call in &agg_calls {
        let kind = AggKind::from_name(&call.name)
            .ok_or_else(|| EngineError::UnknownFunction(call.name.clone()))?;
        if call.args.len() != kind.arity() {
            return Err(EngineError::WrongArity {
                function: call.name.clone(),
                expected: kind.arity().to_string(),
                got: call.args.len(),
            });
        }
        let args = call
            .args
            .iter()
            .map(|a| match a {
                Expr::Wildcard => Ok(ArgStep::Star),
                other => Ok(ArgStep::Prog(ExprProgram::compile(other, input_schema, exec)?)),
            })
            .collect::<EngineResult<_>>()?;
        calls.push(AggCallPlan { kind, distinct: call.distinct, args });
    }

    let agg_names: Vec<String> = (0..agg_calls.len()).map(|i| format!("__agg{i}")).collect();
    let mut ext_schema = input_schema.clone();
    for name in &agg_names {
        ext_schema.push(Column::new(name.clone(), DataType::Float));
    }
    let rewrite =
        |expr: &Expr| -> Expr { replace_aggregate_calls(expr.clone(), &agg_calls, &agg_names) };

    let mut having = query
        .having
        .as_ref()
        .map(|h| ExprProgram::compile(&rewrite(h), &ext_schema, exec))
        .transpose()?;

    let mut out_names = Vec::with_capacity(query.items.len());
    let mut items = Vec::with_capacity(query.items.len());
    for item in &query.items {
        let SelectItem::Expr { expr, alias } = item else { unreachable!("wildcards excluded") };
        out_names.push(item_name(expr, alias));
        let e = rewrite(expr);
        let step = match &e {
            Expr::Column(c) => match ext_schema.try_resolve(c.qualifier.as_deref(), &c.name) {
                Some(idx) => AggItemStep::Col(idx),
                None => AggItemStep::Prog(ExprProgram::compile(&e, &ext_schema, exec)?),
            },
            _ => AggItemStep::Prog(ExprProgram::compile(&e, &ext_schema, exec)?),
        };
        items.push(step);
    }

    let mut out_schema = Schema::default();
    for name in &out_names {
        out_schema.push(Column::new(name.clone(), DataType::Float));
    }

    let mut order = compile_order(exec, query, &rewrite, &out_schema, &ext_schema)?;

    // Representative-column pruning: the post-grouping stages only need
    // the input columns that items/HAVING/ORDER actually read, so the
    // per-group representative rows gather just those (a big win for
    // high-cardinality GROUP BY over wide inputs). Programs are
    // remapped to the compact layout.
    let mut used: Vec<bool> = vec![false; input_schema.len()];
    let mut mark = |idx: usize| {
        if idx < used.len() {
            used[idx] = true;
        }
    };
    for step in &items {
        match step {
            AggItemStep::Col(i) => mark(*i),
            AggItemStep::Prog(p) => p.column_ordinals().for_each(&mut mark),
        }
    }
    if let Some(h) = &having {
        h.column_ordinals().for_each(&mut mark);
    }
    for (src, _) in &order {
        if let OrderKeySrc::Prog(p) = src {
            p.column_ordinals().for_each(&mut mark);
        }
    }
    let rep_cols: Vec<usize> = used
        .iter()
        .enumerate()
        .filter_map(|(i, &u)| u.then_some(i))
        .collect();
    // full ext ordinal -> compact ext ordinal
    let mut compact = vec![usize::MAX; input_schema.len() + agg_names.len()];
    for (ci, &full) in rep_cols.iter().enumerate() {
        compact[full] = ci;
    }
    for (ai, slot) in compact.iter_mut().skip(input_schema.len()).enumerate() {
        *slot = rep_cols.len() + ai;
    }
    let remap = |idx: usize| compact[idx];
    for step in &mut items {
        match step {
            AggItemStep::Col(i) => *i = remap(*i),
            AggItemStep::Prog(p) => p.remap_columns(&remap),
        }
    }
    if let Some(h) = &mut having {
        h.remap_columns(&remap);
    }
    for (src, _) in &mut order {
        if let OrderKeySrc::Prog(p) = src {
            p.remap_columns(&remap);
        }
    }

    let node = PNode::Block(Box::new(BlockPlan {
        input,
        filter,
        body: Body::Agg(Box::new(AggBody {
            group,
            calls,
            agg_names,
            rep_cols,
            having,
            items,
            out_names,
            order,
            distinct: query.distinct,
            limit: query.limit,
            offset: query.offset,
        })),
    }));
    Ok((node, out_schema))
}

// ---------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------

fn exec_node(exec: &Executor<'_>, node: &PNode) -> EngineResult<Frame> {
    match node {
        PNode::Unit => Frame::new(Schema::default(), vec![vec![]]),
        PNode::Scan { table, source } => {
            let frame = exec.table(table)?;
            let columns = (0..frame.schema.len()).map(|c| frame.column_arc(c)).collect();
            Frame::from_arc_columns(frame.schema.with_source(source), columns)
        }
        PNode::Derived { input, alias } => {
            let frame = exec_node(exec, input)?;
            match alias {
                Some(a) => {
                    let schema = frame.schema.with_source(a);
                    let columns =
                        (0..frame.schema.len()).map(|c| frame.column_arc(c)).collect();
                    Frame::from_arc_columns(schema, columns)
                }
                None => Ok(frame),
            }
        }
        PNode::Join { left, right, kind, on, equi } => {
            let l = exec_node(exec, left)?;
            let r = exec_node(exec, right)?;
            exec.join_frames(l, r, *kind, on.as_ref(), *equi)
        }
        PNode::Block(block) => exec_block(exec, block),
        PNode::Union { head, rest } => {
            let mut result = exec_node(exec, head)?;
            for (all, branch) in rest {
                result.append(exec_node(exec, branch)?)?;
                if !all {
                    result = dedupe_frame(&result);
                }
            }
            Ok(result)
        }
    }
}

fn exec_block(exec: &Executor<'_>, block: &BlockPlan) -> EngineResult<Frame> {
    let input = exec_node(exec, &block.input)?;
    let filtered = match &block.filter {
        Some(p) => {
            let mask = p.eval_mask(&input, exec)?;
            filter_rows_parallel(&input, &mask, ThreadPool::global())
        }
        None => input,
    };
    match &block.body {
        Body::Plain(body) => exec_plain(exec, body, filtered),
        Body::Agg(body) => exec_agg(exec, body, filtered),
    }
}

fn exec_plain(exec: &Executor<'_>, body: &PlainBody, input: Frame) -> EngineResult<Frame> {
    // window columns, attached in plan order
    let mut work = input;
    for (i, w) in body.windows.iter().enumerate() {
        let col = compute_window_plan(w, &work, exec)?;
        work.push_column(Column::new(format!("__win{i}"), DataType::Float), col)?;
    }

    let n = work.len();

    let mut out_arcs: Vec<Arc<ColumnData>> = Vec::with_capacity(body.out_cols.len());
    for step in &body.items {
        match step {
            ProjStep::Splice(indices) => {
                for &i in indices {
                    out_arcs.push(work.column_arc(i));
                }
            }
            ProjStep::Prog(p) => out_arcs.push(p.eval(&work, exec)?.into_column_arc(n)),
        }
    }
    let mut frame = Frame::from_arc_columns(body.declared_schema(&work.schema), out_arcs)?;
    finalise_types(&mut frame);

    let mut key_cols: Vec<Arc<ColumnData>> = Vec::with_capacity(body.order.len());
    for (src, _) in &body.order {
        key_cols.push(match src {
            OrderKeySrc::OutCol(i) => frame.column_arc(*i),
            OrderKeySrc::Prog(p) => p.eval(&work, exec)?.into_column_arc(n),
        });
    }
    sort_distinct_tail(frame, key_cols, &body.order, body.distinct, body.limit, body.offset)
}

/// Shared DISTINCT → ORDER BY → LIMIT/OFFSET tail of both block bodies
/// (DISTINCT applies before ORDER BY; LIMIT/OFFSET slice the sort
/// permutation so only surviving rows are gathered).
fn sort_distinct_tail(
    mut frame: Frame,
    mut key_cols: Vec<Arc<ColumnData>>,
    order: &[(OrderKeySrc, SortOrder)],
    distinct: bool,
    limit: Option<u64>,
    offset: Option<u64>,
) -> EngineResult<Frame> {
    if distinct {
        let kept = distinct_indices(&frame);
        if kept.len() < frame.len() {
            frame = select_rows_parallel(&frame, &kept, ThreadPool::global());
            key_cols = key_cols.iter().map(|c| Arc::new(c.gather(&kept))).collect();
        }
    }
    if !order.is_empty() {
        let orders: Vec<SortOrder> = order.iter().map(|(_, o)| *o).collect();
        let mut perm = exec::sort_permutation(&key_cols, &orders, frame.len());
        if let Some(off) = offset {
            let off = (off as usize).min(perm.len());
            perm.drain(..off);
        }
        if let Some(l) = limit {
            perm.truncate(l as usize);
        }
        frame = select_rows_parallel(&frame, &perm, ThreadPool::global());
    } else {
        if let Some(off) = offset {
            frame.skip_rows(off as usize);
        }
        if let Some(l) = limit {
            frame.truncate(l as usize);
        }
    }
    Ok(frame)
}

fn exec_agg(exec: &Executor<'_>, body: &AggBody, input: Frame) -> EngineResult<Frame> {
    let n = input.len();

    // 1. group rows (first-appearance order, CSR layout)
    let grouping = if body.group.is_empty() {
        Grouping::single(n)
    } else {
        let key_cols: Vec<Arc<ColumnData>> = body
            .group
            .iter()
            .map(|p| Ok(p.eval(&input, exec)?.into_column_arc(n)))
            .collect::<EngineResult<_>>()?;
        group_rows(&key_cols, n)
    };

    // 2. batch-evaluate the aggregate arguments once over the input
    // (with zero groups nothing consumes them; programs never evaluate
    // over empty frames, so data-dependent errors stay silent there)
    let arg_batches = eval_call_args(&body.calls, &input, exec)?;

    // 3. accumulate per group (group-parallel over the pool); one value
    // column per aggregate call
    let agg_cols = accumulate_groups(&body.calls, &arg_batches, &grouping, ThreadPool::global())?;

    // 4. extended frame: representative values of the *referenced*
    // input columns per group ++ the aggregate columns
    let ext_all = build_ext_frame(&input, &grouping, body, agg_cols)?;

    // 5.–7. HAVING, projection, ORDER BY/DISTINCT/LIMIT tail
    agg_finalize(exec, body, ext_all, None)
}

/// Steps 5–7 of grouped aggregation — HAVING over the extended frame,
/// projection, then the shared sort/distinct/limit tail. Shared by the
/// full-rescan path ([`exec_agg`]) and the incremental path, which
/// rebuilds only the extended frame from its accumulator state and
/// passes the HAVING `mask` (one bool per extended-frame row) it
/// maintains between ticks, re-evaluated only for the groups a fold
/// touched: `O(touched groups)` per tick instead of `O(all groups)`.
fn agg_finalize(
    exec: &Executor<'_>,
    body: &AggBody,
    ext_all: Frame,
    mask: Option<&[bool]>,
) -> EngineResult<Frame> {
    // 5. HAVING over the extended frame
    let ext = match (&body.having, mask) {
        // a maintained mask is the steady tick: all groups scanned,
        // a few kept, every tick. One pass over the mask and a gather
        // on the calling thread — fanning the columns out costs a pool
        // hand-off each and makes the tick's latency depend on which
        // thread wins them.
        (Some(_), Some(mask)) => {
            debug_assert_eq!(mask.len(), ext_all.len());
            ext_all.select_rows(&set_indices(mask))
        }
        (Some(h), None) => {
            let mask = h.eval_mask(&ext_all, exec)?;
            filter_rows_parallel(&ext_all, &mask, ThreadPool::global())
        }
        (None, _) => ext_all,
    };

    // 6. projection over the extended frame
    let g = ext.len();
    let mut out_arcs: Vec<Arc<ColumnData>> = Vec::with_capacity(body.items.len());
    for step in &body.items {
        match step {
            AggItemStep::Col(i) => out_arcs.push(ext.column_arc(*i)),
            AggItemStep::Prog(p) => out_arcs.push(p.eval(&ext, exec)?.into_column_arc(g)),
        }
    }
    let mut out_schema = Schema::default();
    for name in &body.out_names {
        out_schema.push(Column::new(name.clone(), DataType::Float));
    }
    let mut frame = Frame::from_arc_columns(out_schema, out_arcs)?;
    finalise_types(&mut frame);

    // 7. ORDER BY keys: aliases from the output, the rest over ext
    let mut key_cols: Vec<Arc<ColumnData>> = Vec::with_capacity(body.order.len());
    for (src, _) in &body.order {
        key_cols.push(match src {
            OrderKeySrc::OutCol(i) => frame.column_arc(*i),
            OrderKeySrc::Prog(p) => p.eval(&ext, exec)?.into_column_arc(g),
        });
    }
    sort_distinct_tail(frame, key_cols, &body.order, body.distinct, body.limit, body.offset)
}

/// The indices where `mask` is true, read eight entries at a time as
/// one word and skipping the zero words: O(mask / 8 + set entries).
fn set_indices(mask: &[bool]) -> Vec<usize> {
    let mut set = Vec::new();
    let words = mask.chunks_exact(8);
    let tail = words.remainder();
    for (w, chunk) in words.enumerate() {
        let bytes: [bool; 8] = chunk.try_into().expect("a chunk of eight");
        // one byte per entry, 0 or 1: each set entry is one bit
        let mut word = u64::from_le_bytes(bytes.map(u8::from));
        while word != 0 {
            set.push(w * 8 + word.trailing_zeros() as usize / 8);
            word &= word - 1;
        }
    }
    let base = mask.len() - tail.len();
    set.extend(tail.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| base + i));
    set
}

/// Representative (first) values of the referenced input columns per
/// group ++ one column per aggregate call. A single empty group (global
/// aggregation over zero rows) yields one all-NULL representative row.
fn build_ext_frame(
    input: &Frame,
    grouping: &Grouping,
    body: &AggBody,
    agg_cols: Vec<Vec<Value>>,
) -> EngineResult<Frame> {
    let mut frame = if grouping.is_global_empty() {
        let mut schema = Schema::default();
        let mut cols = Vec::with_capacity(body.rep_cols.len());
        for &i in &body.rep_cols {
            schema.push(input.schema.columns()[i].clone());
            cols.push(ColumnData::from_values(vec![Value::Null]));
        }
        if body.rep_cols.is_empty() {
            // zero-column frame must still carry one row
            Frame::from_rows(schema, vec![Vec::new()])
        } else {
            Frame::from_columns(schema, cols)?
        }
    } else {
        let mut schema = Schema::default();
        let mut cols = Vec::with_capacity(body.rep_cols.len());
        for &i in &body.rep_cols {
            schema.push(input.schema.columns()[i].clone());
            cols.push(Arc::new(input.column(i).gather(&grouping.firsts)));
        }
        if body.rep_cols.is_empty() {
            Frame::without_columns(grouping.len())
        } else {
            Frame::from_arc_columns(schema, cols)?
        }
    };
    for (values, name) in agg_cols.into_iter().zip(&body.agg_names) {
        let col = ColumnData::from_values(values);
        frame.push_column(Column::new(name.clone(), DataType::Float), col)?;
    }
    Ok(frame)
}

// ---------------------------------------------------------------------
// grouping + typed accumulation kernels
// ---------------------------------------------------------------------

/// Groups of `0..n` in first-appearance order, laid out CSR-style: one
/// shared `rows` buffer partitioned by `offsets` — no per-group `Vec`
/// allocation, which dominates high-cardinality `GROUP BY`/windows.
struct Grouping {
    /// Row indices, grouped contiguously; within a group in ascending
    /// (appearance) order.
    rows: Vec<usize>,
    /// `offsets[g]..offsets[g + 1]` slices `rows` for group `g`.
    offsets: Vec<usize>,
    /// First-appearance row of every group (empty for the synthetic
    /// empty global group).
    firsts: Vec<usize>,
}

impl Grouping {
    /// All rows in one group (`GROUP BY ()` / window without PARTITION
    /// BY); `n == 0` yields the empty global group.
    fn single(n: usize) -> Grouping {
        Grouping {
            rows: (0..n).collect(),
            offsets: vec![0, n],
            firsts: if n > 0 { vec![0] } else { Vec::new() },
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn group(&self, g: usize) -> &[usize] {
        &self.rows[self.offsets[g]..self.offsets[g + 1]]
    }

    /// Is this the synthetic zero-row global group?
    fn is_global_empty(&self) -> bool {
        self.len() == 1 && self.rows.is_empty()
    }

    /// Build from dense group ids (a counting sort): a group's first
    /// row is where its id first appears.
    fn from_ids(ids: &DenseIds) -> Grouping {
        let mut offsets = Vec::with_capacity(ids.groups() + 1);
        offsets.push(0);
        for (g, &count) in ids.counts().iter().enumerate() {
            offsets.push(offsets[g] + count as usize);
        }
        let mut cursor = offsets.clone();
        let mut rows = vec![0usize; ids.ids().len()];
        let mut firsts = Vec::with_capacity(ids.groups());
        for (ri, &g) in ids.ids().iter().enumerate() {
            if g as usize == firsts.len() {
                firsts.push(ri);
            }
            let c = &mut cursor[g as usize];
            rows[*c] = ri;
            *c += 1;
        }
        Grouping { rows, offsets, firsts }
    }
}

/// Partition `0..n` by the key columns, groups in first-appearance
/// order: each key column's dense ids ([`ColumnData::dense_ids`], typed
/// and Fx-hashed — hashing dominates the per-tick cost of `GROUP BY` at
/// scale), joined row-wise when there are several.
fn group_rows(key_cols: &[Arc<ColumnData>], n: usize) -> Grouping {
    let Some((first, rest)) = key_cols.split_first() else {
        return Grouping::single(n);
    };
    let ids = rest.iter().fold(first.dense_ids(), |joint, c| joint.joint(&c.dense_ids()));
    Grouping::from_ids(&ids)
}

/// Numeric view of one aggregate-argument batch, for the typed
/// accumulation loops (no per-cell `Value` materialisation).
enum NumView<'a> {
    I(&'a [Option<i64>]),
    F(&'a [Option<f64>]),
    ConstInt(i64),
    ConstFloat(f64),
    ConstNull,
}

fn num_view(batch: &Batch) -> Option<NumView<'_>> {
    match batch {
        Batch::Const(Value::Int(v)) => Some(NumView::ConstInt(*v)),
        Batch::Const(Value::Float(v)) => Some(NumView::ConstFloat(*v)),
        Batch::Const(Value::Null) => Some(NumView::ConstNull),
        Batch::Const(_) => None,
        Batch::Col(c) => {
            if let Some(ints) = c.int_slice() {
                Some(NumView::I(ints))
            } else {
                c.float_slice().map(NumView::F)
            }
        }
    }
}

impl NumView<'_> {
    /// `(value, came-from-integer)` at row `i`, `None` for NULL.
    fn get(&self, i: usize) -> Option<(f64, bool)> {
        match self {
            NumView::I(v) => v[i].map(|x| (x as f64, true)),
            NumView::F(v) => v[i].map(|x| (x, false)),
            NumView::ConstInt(x) => Some((*x as f64, true)),
            NumView::ConstFloat(x) => Some((*x, false)),
            NumView::ConstNull => None,
        }
    }
}

/// How one aggregate call's pre-batched arguments feed an
/// [`Accumulator`], with typed fast paths for the numeric kinds. The
/// generic arm is the reference per-row `Value` loop; the fast arms
/// update the same sums in the same order, so
/// results are identical either way. Shared by full-rescan grouped
/// aggregation, running windows and the incremental fold (which keeps
/// its accumulators alive across ticks).
enum ArgFold<'a> {
    /// SUM/AVG/STDDEV/VAR_SAMP over one numeric argument.
    Num(NumView<'a>),
    /// `regr_*(y, x)` over two numeric arguments.
    Pair { y: NumView<'a>, x: NumView<'a> },
    /// COUNT: null test only, no value materialisation.
    Count(&'a Batch),
    /// Everything else (DISTINCT, MIN/MAX, text, mixed buffers).
    Generic { args: &'a [Batch], buf: Vec<Value> },
}

impl<'a> ArgFold<'a> {
    fn new(kind: AggKind, distinct: bool, args: &'a [Batch]) -> ArgFold<'a> {
        if !distinct && args.len() == kind.arity() {
            match kind {
                AggKind::Sum | AggKind::Avg | AggKind::Stddev | AggKind::VarSamp => {
                    if let Some(view) = num_view(&args[0]) {
                        return ArgFold::Num(view);
                    }
                }
                AggKind::Count => return ArgFold::Count(&args[0]),
                AggKind::RegrIntercept
                | AggKind::RegrSlope
                | AggKind::RegrR2
                | AggKind::RegrCount => {
                    if let (Some(y), Some(x)) = (num_view(&args[0]), num_view(&args[1])) {
                        return ArgFold::Pair { y, x };
                    }
                }
                AggKind::Min | AggKind::Max => {}
            }
        }
        ArgFold::Generic { args, buf: Vec::with_capacity(args.len()) }
    }

    /// Fold row `ri`'s argument values into `acc`.
    fn update(&mut self, acc: &mut Accumulator, ri: usize) -> EngineResult<()> {
        match self {
            ArgFold::Num(view) => {
                if let Some((x, from_int)) = view.get(ri) {
                    acc.update_num_fast(x, from_int);
                }
                Ok(())
            }
            ArgFold::Pair { y, x } => {
                if let (Some((yv, _)), Some((xv, _))) = (y.get(ri), x.get(ri)) {
                    acc.update_pair_fast(yv, xv);
                }
                Ok(())
            }
            ArgFold::Count(arg) => {
                if !arg.is_null(ri) {
                    acc.bump_count(1);
                }
                Ok(())
            }
            ArgFold::Generic { args, buf } => {
                buf.clear();
                buf.extend(args.iter().map(|b| b.value(ri)));
                acc.update(buf)
            }
        }
    }
}

/// An [`ArgFold`] paired with an owned accumulator, reset per
/// group/partition: the unit of the rescan paths.
struct RowAcc<'a> {
    acc: Accumulator,
    fold: ArgFold<'a>,
}

impl<'a> RowAcc<'a> {
    fn new(kind: AggKind, distinct: bool, args: &'a [Batch]) -> RowAcc<'a> {
        RowAcc { acc: Accumulator::new(kind, distinct), fold: ArgFold::new(kind, distinct, args) }
    }

    /// Reset for the next group/partition (keeps allocations).
    fn reset(&mut self) {
        self.acc.reset();
    }

    fn update(&mut self, ri: usize) -> EngineResult<()> {
        self.fold.update(&mut self.acc, ri)
    }

    fn finish(&self) -> Value {
        self.acc.finish()
    }
}

/// All aggregate calls over a contiguous range of groups; accumulators
/// are constructed once and reset per group. Returns one value column
/// per call (covering the range), in group-major evaluation order so
/// errors surface in the same order however the range is chunked.
fn accumulate_range(
    calls: &[AggCallPlan],
    arg_batches: &[Vec<Batch>],
    grouping: &Grouping,
    range: std::ops::Range<usize>,
) -> EngineResult<Vec<Vec<Value>>> {
    let mut accs: Vec<RowAcc<'_>> = calls
        .iter()
        .zip(arg_batches)
        .map(|(c, args)| RowAcc::new(c.kind, c.distinct, args))
        .collect();
    let mut out: Vec<Vec<Value>> =
        calls.iter().map(|_| Vec::with_capacity(range.len())).collect();
    for g in range {
        let rows = grouping.group(g);
        for (acc, col) in accs.iter_mut().zip(out.iter_mut()) {
            acc.reset();
            for &ri in rows {
                acc.update(ri)?;
            }
            col.push(acc.finish());
        }
    }
    Ok(out)
}

/// All aggregate calls over all groups; group-parallel over the pool
/// when the work is large enough. Results stay in group order, errors
/// surface in group order — parallelism is invisible in the output.
fn accumulate_groups(
    calls: &[AggCallPlan],
    arg_batches: &[Vec<Batch>],
    grouping: &Grouping,
    pool: &ThreadPool,
) -> EngineResult<Vec<Vec<Value>>> {
    let ng = grouping.len();
    if pool.workers() == 0 || ng < 2 || grouping.rows.len() < PARALLEL_MIN_ROWS {
        return accumulate_range(calls, arg_batches, grouping, 0..ng);
    }
    let ranges = pool.chunk_ranges(ng, 1);
    let mut parts: Vec<EngineResult<Vec<Vec<Value>>>> = Vec::with_capacity(ranges.len());
    parts.resize_with(ranges.len(), || Ok(Vec::new()));
    pool.scope(|s| {
        for (range, slot) in ranges.iter().zip(parts.iter_mut()) {
            let range = range.clone();
            s.spawn(move || {
                *slot = accumulate_range(calls, arg_batches, grouping, range);
            });
        }
    });
    let mut out: Vec<Vec<Value>> = calls.iter().map(|_| Vec::with_capacity(ng)).collect();
    for part in parts {
        for (col, chunk_col) in out.iter_mut().zip(part?) {
            col.extend(chunk_col);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// windows
// ---------------------------------------------------------------------

/// Typed view of one window sort-key column.
enum KeyView<'a> {
    I(&'a [Option<i64>]),
    F(&'a [Option<f64>]),
    Gen(&'a ColumnData),
}

impl KeyView<'_> {
    fn cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self {
            // Option ordering puts NULL first, like the generic total order
            KeyView::I(v) => v[a].cmp(&v[b]),
            KeyView::F(v) => match (v[a], v[b]) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
            },
            KeyView::Gen(c) => c.cmp_at(a, c, b),
        }
    }
}

fn key_views(cols: &[Arc<ColumnData>]) -> Vec<KeyView<'_>> {
    cols.iter()
        .map(|c| {
            if let Some(ints) = c.int_slice() {
                KeyView::I(ints)
            } else if let Some(floats) = c.float_slice() {
                KeyView::F(floats)
            } else {
                KeyView::Gen(c)
            }
        })
        .collect()
}

fn cmp_keys(views: &[KeyView<'_>], orders: &[SortOrder], a: usize, b: usize) -> std::cmp::Ordering {
    for (view, order) in views.iter().zip(orders) {
        let ord = view.cmp(a, b);
        let ord = if *order == SortOrder::Desc { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn peers_eq(views: &[KeyView<'_>], a: usize, b: usize) -> bool {
    views.iter().all(|v| v.cmp(a, b).is_eq())
}

/// Compute one window call: one output value per input row, in input
/// row order. Partitions are CSR-grouped, per-chunk scratch buffers and
/// accumulators are reused, and chunks run partition-parallel over the
/// pool (each chunk owns a contiguous slice of the CSR-ordered output).
fn compute_window_plan(
    plan: &WindowPlan,
    frame: &Frame,
    exec: &Executor<'_>,
) -> EngineResult<ColumnData> {
    let n = frame.len();
    let part_cols: Vec<Arc<ColumnData>> = plan
        .partition
        .iter()
        .map(|p| Ok(p.eval(frame, exec)?.into_column_arc(n)))
        .collect::<EngineResult<_>>()?;
    let grouping = if plan.partition.is_empty() {
        Grouping::single(n)
    } else {
        group_rows(&part_cols, n)
    };

    let key_cols: Vec<Arc<ColumnData>> = plan
        .order
        .iter()
        .map(|(p, _)| Ok(p.eval(frame, exec)?.into_column_arc(n)))
        .collect::<EngineResult<_>>()?;
    let orders: Vec<SortOrder> = plan.order.iter().map(|(_, o)| *o).collect();
    let args: Vec<Batch> = plan
        .args
        .iter()
        .map(|a| match a {
            ArgStep::Star => Ok(Batch::Const(Value::Int(1))),
            ArgStep::Prog(p) => p.eval(frame, exec),
        })
        .collect::<EngineResult<_>>()?;
    let views = key_views(&key_cols);

    // values in CSR order: chunk `c` covering groups `gs..ge` owns
    // `csr_vals[offsets[gs]..offsets[ge]]`
    let mut csr_vals: Vec<Value> = vec![Value::Null; n];
    let ng = grouping.len();
    let pool = ThreadPool::global();
    let run_range = |range: std::ops::Range<usize>, slice: &mut [Value]| -> EngineResult<()> {
        let base = grouping.offsets[range.start];
        let mut scratch: Vec<usize> = Vec::new();
        let mut acc = match plan.func {
            WinFunc::Agg(kind) => Some(RowAcc::new(kind, plan.distinct, &args)),
            _ => None,
        };
        for g in range {
            let rows = grouping.group(g);
            let lo = grouping.offsets[g] - base;
            window_partition(
                plan.func,
                &views,
                &orders,
                rows,
                &mut slice[lo..lo + rows.len()],
                &mut scratch,
                acc.as_mut(),
            )?;
        }
        Ok(())
    };

    if pool.workers() > 0 && ng >= 2 && n >= PARALLEL_MIN_ROWS {
        let ranges = pool.chunk_ranges(ng, 1);
        let mut slots: Vec<EngineResult<()>> = Vec::with_capacity(ranges.len());
        slots.resize_with(ranges.len(), || Ok(()));
        pool.scope(|s| {
            let mut rest: &mut [Value] = &mut csr_vals;
            for (range, slot) in ranges.iter().zip(slots.iter_mut()) {
                let len = grouping.offsets[range.end] - grouping.offsets[range.start];
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                let range = range.clone();
                let run_range = &run_range;
                s.spawn(move || *slot = run_range(range, head));
            }
        });
        slots.into_iter().collect::<EngineResult<Vec<()>>>()?;
    } else {
        run_range(0..ng, &mut csr_vals)?;
    }

    // scatter back to input row order
    let mut out = vec![Value::Null; n];
    for (k, v) in csr_vals.into_iter().enumerate() {
        out[grouping.rows[k]] = v;
    }
    Ok(ColumnData::from_values(out))
}

/// One partition's window values, written into `out` aligned to the
/// partition's row positions. `scratch` and `acc` are reused across
/// partitions of a chunk.
#[allow(clippy::too_many_arguments)]
fn window_partition(
    func: WinFunc,
    views: &[KeyView<'_>],
    orders: &[SortOrder],
    indices: &[usize],
    out: &mut [Value],
    scratch: &mut Vec<usize>,
    acc: Option<&mut RowAcc<'_>>,
) -> EngineResult<()> {
    scratch.clear();
    scratch.extend(0..indices.len());
    let ordered = scratch;
    if !orders.is_empty() {
        ordered.sort_by(|&a, &b| cmp_keys(views, orders, indices[a], indices[b]));
    }

    match func {
        WinFunc::RowNumber | WinFunc::Rank | WinFunc::DenseRank => {
            let mut rank = 0u64;
            let mut dense = 0u64;
            for (i, &pos) in ordered.iter().enumerate() {
                let new_peer_group = i == 0
                    || orders.is_empty()
                    || !peers_eq(views, indices[ordered[i - 1]], indices[pos]);
                if new_peer_group {
                    rank = (i + 1) as u64;
                    dense += 1;
                }
                let v = match func {
                    WinFunc::RowNumber => (i + 1) as i64,
                    WinFunc::Rank => rank as i64,
                    _ => dense as i64,
                };
                out[pos] = Value::Int(v);
            }
        }
        WinFunc::Agg(_) => {
            let acc = acc.expect("aggregate window has an accumulator");
            acc.reset();
            if orders.is_empty() {
                // whole-partition value
                for &pos in ordered.iter() {
                    acc.update(indices[pos])?;
                }
                let v = acc.finish();
                for &pos in ordered.iter() {
                    out[pos] = v.clone();
                }
            } else {
                // running aggregate with peer groups
                let mut i = 0;
                while i < ordered.len() {
                    let mut j = i + 1;
                    while j < ordered.len()
                        && peers_eq(views, indices[ordered[i]], indices[ordered[j]])
                    {
                        j += 1;
                    }
                    for &pos in &ordered[i..j] {
                        acc.update(indices[pos])?;
                    }
                    let v = acc.finish();
                    for &pos in &ordered[i..j] {
                        out[pos] = v.clone();
                    }
                    i = j;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// parallel gathers
// ---------------------------------------------------------------------

/// `Frame::filter_rows`, gathering the surviving cells column-parallel
/// when the frame has at least `min_rows` rows and the mask drops one.
fn filter_rows_parallel_with(
    frame: &Frame,
    mask: &[bool],
    pool: &ThreadPool,
    min_rows: usize,
) -> Frame {
    let cols = frame.schema.len();
    if pool.workers() == 0 || cols < 2 || frame.len() < min_rows || mask.iter().all(|&m| m) {
        return frame.filter_rows(mask);
    }
    let mut outs: Vec<Option<ColumnData>> = Vec::with_capacity(cols);
    outs.resize_with(cols, || None);
    pool.scope(|s| {
        for (ci, slot) in outs.iter_mut().enumerate() {
            let col = frame.column(ci);
            s.spawn(move || *slot = Some(col.filter(mask)));
        }
    });
    let columns: Vec<Arc<ColumnData>> =
        outs.into_iter().map(|c| Arc::new(c.expect("column filtered"))).collect();
    Frame::from_arc_columns(frame.schema.clone(), columns).expect("filter preserves shape")
}

fn filter_rows_parallel(frame: &Frame, mask: &[bool], pool: &ThreadPool) -> Frame {
    filter_rows_parallel_with(frame, mask, pool, PARALLEL_MIN_ROWS)
}

/// `Frame::select_rows`, column-parallel when at least `min_rows` rows.
fn select_rows_parallel_with(
    frame: &Frame,
    indices: &[usize],
    pool: &ThreadPool,
    min_rows: usize,
) -> Frame {
    let cols = frame.schema.len();
    if pool.workers() == 0 || cols < 2 || indices.len() < min_rows {
        return frame.select_rows(indices);
    }
    let mut outs: Vec<Option<ColumnData>> = Vec::with_capacity(cols);
    outs.resize_with(cols, || None);
    pool.scope(|s| {
        for (ci, slot) in outs.iter_mut().enumerate() {
            let col = frame.column(ci);
            s.spawn(move || *slot = Some(col.gather(indices)));
        }
    });
    let columns: Vec<Arc<ColumnData>> =
        outs.into_iter().map(|c| Arc::new(c.expect("column gathered"))).collect();
    Frame::from_arc_columns(frame.schema.clone(), columns).expect("gather preserves shape")
}

fn select_rows_parallel(frame: &Frame, indices: &[usize], pool: &ThreadPool) -> Frame {
    select_rows_parallel_with(frame, indices, pool, PARALLEL_MIN_ROWS)
}

// ---------------------------------------------------------------------
// plan cache
// ---------------------------------------------------------------------

/// Upper bound on cached plans before an epoch-style reset (a stream of
/// distinct ad-hoc queries must not grow memory forever).
const PLAN_CACHE_CAPACITY: usize = 1024;

/// Hit/miss/invalidation counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled from scratch.
    pub misses: u64,
    /// Misses caused by a schema-fingerprint change (also counted in
    /// `misses`).
    pub invalidations: u64,
}

/// Both plan flavours of one query, compiled against one set of input
/// schemas: the full-rescan plan and, when the shape is incrementally
/// maintainable, its delta-aware twin.
#[derive(Debug, Clone)]
pub struct PlanSet {
    /// The compiled full-rescan plan.
    pub plan: Arc<CompiledPlan>,
    /// The delta-aware plan, `None` when the shape is not incrementally
    /// maintainable.
    pub incremental: Option<Arc<IncrementalPlan>>,
}

impl PlanSet {
    /// Are the schemas `exec` resolves still the ones the plans were
    /// compiled against?
    pub fn is_current(&self, exec: &Executor<'_>) -> bool {
        exec.fingerprint(self.plan.tables()) == self.plan.fingerprint()
    }
}

impl<'a> Executor<'a> {
    /// Compile both plan flavours of `query` (see [`PlanSet`]).
    pub fn compile_set(&self, query: &Query) -> EngineResult<PlanSet> {
        let plan = Arc::new(self.compile(query)?);
        let incremental = self.compile_incremental(query).ok().flatten().map(Arc::new);
        Ok(PlanSet { plan, incremental })
    }
}

/// Cache of compiled plans keyed by `(query AST, input schemas)`.
///
/// Keys hash via [`ast_key`] (no allocation); a hit verifies the stored
/// AST by structural equality, so hash collisions can never serve a
/// wrong plan, and the schema fingerprint, so a plan is only served for
/// the schemas it was compiled against. A fingerprint mismatch counts
/// as an invalidation and evicts the entry. Only plans are cached: a
/// query that fails to compile leaves no entry behind.
///
/// [`PlanCache::lookup`] and [`PlanCache::insert`] are separate so a
/// cache shared behind a lock need not hold it across a compile.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: HashMap<u64, Vec<(Query, PlanSet)>>,
    len: usize,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Hit/miss/invalidation counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cached plans of `query` for the schemas `exec` resolves,
    /// counted as a hit; `None` is a miss, and the caller compiles and
    /// [`PlanCache::insert`]s.
    pub fn lookup(&mut self, exec: &Executor<'_>, query: &Query) -> Option<PlanSet> {
        let list = self.entries.get_mut(&ast_key(query));
        if let Some(list) = list {
            if let Some(at) = list.iter().position(|(q, _)| q == query) {
                if list[at].1.is_current(exec) {
                    self.stats.hits += 1;
                    return Some(list[at].1.clone());
                }
                // schemas changed under the plan: evict it
                list.swap_remove(at);
                self.len -= 1;
                self.stats.invalidations += 1;
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Cache `plans` for `query` (compiled against `exec`'s schemas) and
    /// return the set every caller shares from now on. When another
    /// caller inserted a still-current set for the same query between
    /// this caller's [`PlanCache::lookup`] miss and now, that set stays
    /// and is returned, and the lost race counts as a hit, not a miss;
    /// a stale entry is replaced.
    pub fn insert(&mut self, exec: &Executor<'_>, query: &Query, plans: PlanSet) -> PlanSet {
        let key = ast_key(query);
        if let Some((_, slot)) =
            self.entries.get_mut(&key).and_then(|l| l.iter_mut().find(|(q, _)| q == query))
        {
            if slot.is_current(exec) {
                self.stats.misses = self.stats.misses.saturating_sub(1);
                self.stats.hits += 1;
                return slot.clone();
            }
            *slot = plans.clone();
            return plans;
        }
        if self.len >= PLAN_CACHE_CAPACITY {
            self.entries.clear();
            self.len = 0;
        }
        self.entries.entry(key).or_default().push((query.clone(), plans.clone()));
        self.len += 1;
        plans
    }

    /// Look up (or compile and cache) the plan for `query` against
    /// `exec`'s schemas; a query that does not compile is the compile
    /// error.
    pub fn get_or_compile(
        &mut self,
        exec: &Executor<'_>,
        query: &Query,
    ) -> EngineResult<Arc<CompiledPlan>> {
        if let Some(plans) = self.lookup(exec, query) {
            return Ok(plans.plan);
        }
        let plans = exec.compile_set(query)?;
        Ok(self.insert(exec, query, plans).plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::GroupKey;
    use paradise_sql::parse_query;

    #[test]
    fn set_indices_reads_the_mask_word_by_word() {
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 200] {
            for stride in [1, 2, 3, 8, 13, 1000] {
                let mask: Vec<bool> = (0..len).map(|i| i % stride == stride - 1).collect();
                let want: Vec<usize> = (0..len).filter(|&i| mask[i]).collect();
                assert_eq!(set_indices(&mask), want, "len {len}, stride {stride}");
            }
        }
    }

    #[test]
    fn fx_hashes_spread_keys_that_differ_only_in_high_bits() {
        use std::hash::Hash;
        // 0.5, 1.0, 1.5, …: float bit patterns equal below bit 40
        let low_bits: std::collections::HashSet<u64> = (1..=4096)
            .map(|i| {
                let mut h = FxHasher::default();
                Some((i as f64 * 0.5).to_bits()).hash(&mut h);
                h.finish() & 0xfff
            })
            .collect();
        assert!(low_bits.len() > 2048, "{} distinct low-bit patterns", low_bits.len());
    }

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("z", DataType::Float),
            ("t", DataType::Integer),
        ]);
        let rows = (0..200)
            .map(|i| {
                vec![
                    Value::Float((i % 9) as f64),
                    Value::Float((i % 4) as f64),
                    Value::Float((i % 3) as f64 * 0.9),
                    Value::Int(i),
                ]
            })
            .collect();
        let mut c = Catalog::new();
        c.register("stream", Frame::new(schema, rows).unwrap()).unwrap();
        c
    }

    #[test]
    fn stale_plan_is_rejected() {
        let c = catalog();
        let q = parse_query("SELECT x FROM stream").unwrap();
        let plan = Executor::new(&c).compile(&q).unwrap();

        let mut c2 = Catalog::new();
        let schema = Schema::from_pairs(&[("renamed", DataType::Float)]);
        c2.register("stream", Frame::new(schema, vec![vec![Value::Float(1.0)]]).unwrap())
            .unwrap();
        let exec2 = Executor::new(&c2);
        assert!(matches!(exec2.run_plan(&plan), Err(EngineError::StalePlan)));
    }

    #[test]
    fn plan_cache_hits_and_invalidates() {
        let c = catalog();
        let q = parse_query("SELECT x FROM stream WHERE z < 2").unwrap();
        let mut cache = PlanCache::new();
        {
            let exec = Executor::new(&c);
            assert!(cache.get_or_compile(&exec, &q).is_ok());
            assert!(cache.get_or_compile(&exec, &q).is_ok());
        }
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.len(), 1);

        // same query over a different schema: invalidation + recompile
        let mut c2 = Catalog::new();
        let schema = Schema::from_pairs(&[("z", DataType::Float), ("x", DataType::Integer)]);
        c2.register("stream", Frame::new(schema, vec![vec![Value::Float(0.5), Value::Int(3)]]).unwrap())
            .unwrap();
        let exec2 = Executor::new(&c2);
        let plan = cache.get_or_compile(&exec2, &q).expect("recompiled");
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(exec2.run_plan(&plan).unwrap().to_rows(), vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn a_bound_input_is_seen_by_one_executor_only() {
        let c = catalog();
        let d1 = Frame::new(
            Schema::from_pairs(&[("x", DataType::Integer)]),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .unwrap();
        let q = parse_query("SELECT x FROM d1 WHERE x > 1").unwrap();
        let bound = Executor::with_input(&c, "D1", &d1);
        assert_eq!(bound.execute(&q).unwrap().to_rows(), vec![vec![Value::Int(2)]]);
        // the binding shadows a catalog table of the same name …
        let shadow = Executor::with_input(&c, "stream", &d1);
        let all = parse_query("SELECT x FROM stream").unwrap();
        assert_eq!(shadow.execute(&all).unwrap().len(), 2);
        // … and never reaches the catalog
        assert!(!c.contains("d1"));
        let err = Executor::new(&c).compile(&q).unwrap_err();
        assert_eq!(err, EngineError::UnknownTable("d1".into()));
    }

    #[test]
    fn lookup_and_insert_key_plans_by_input_schemas() {
        let c = catalog();
        let q = parse_query("SELECT x FROM d1 WHERE x > 1").unwrap();
        let ints = Frame::new(Schema::from_pairs(&[("x", DataType::Integer)]), vec![]).unwrap();
        let floats = Frame::new(Schema::from_pairs(&[("x", DataType::Float)]), vec![]).unwrap();
        let mut cache = PlanCache::new();

        let exec = Executor::with_input(&c, "d1", &ints);
        assert!(cache.lookup(&exec, &q).is_none());
        cache.insert(&exec, &q, exec.compile_set(&q).unwrap());
        let hit = cache.lookup(&exec, &q).expect("cached");
        assert!(hit.incremental.is_some(), "a filter keeps its delta-aware twin");
        assert!(hit.is_current(&exec));

        // the same query over an input of another schema is a different
        // plan: the stale entry is evicted, not served
        let other = Executor::with_input(&c, "d1", &floats);
        assert!(!hit.is_current(&other));
        assert!(cache.lookup(&other, &q).is_none());
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 2, invalidations: 1 });
        assert!(cache.is_empty());
    }

    #[test]
    fn a_lost_insert_race_keeps_the_first_plans() {
        let c = catalog();
        let exec = Executor::new(&c);
        let q = parse_query("SELECT x FROM stream WHERE x > 1").unwrap();
        let mut cache = PlanCache::new();
        // two callers miss before either inserts, then both compile
        assert!(cache.lookup(&exec, &q).is_none());
        assert!(cache.lookup(&exec, &q).is_none());
        let a = exec.compile_set(&q).unwrap();
        let b = exec.compile_set(&q).unwrap();
        assert!(Arc::ptr_eq(&cache.insert(&exec, &q, a.clone()).plan, &a.plan));
        // the second insert adopts the first set instead of replacing it
        assert!(Arc::ptr_eq(&cache.insert(&exec, &q, b).plan, &a.plan));
        let kept = cache.lookup(&exec, &q).expect("cached");
        assert!(Arc::ptr_eq(&kept.plan, &a.plan));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), PlanCacheStats { hits: 2, misses: 1, invalidations: 0 });
    }

    #[test]
    fn failed_compiles_are_errors_and_never_cached() {
        let c = catalog();
        let mut cache = PlanCache::new();
        let exec = Executor::new(&c);
        // a query over a missing table is its typed error on every
        // lookup: a miss each time, no entry left behind
        let missing = parse_query("SELECT q FROM nowhere").unwrap();
        for _ in 0..2 {
            let err = cache.get_or_compile(&exec, &missing).unwrap_err();
            assert_eq!(err, EngineError::UnknownTable("nowhere".into()));
        }
        assert_eq!(cache.stats(), PlanCacheStats { hits: 0, misses: 2, invalidations: 0 });
        assert!(cache.is_empty());

        // a cached plan whose query stops compiling after a schema
        // change is dropped, not served and not kept
        let q = parse_query("SELECT x FROM stream UNION SELECT y FROM stream").unwrap();
        assert!(cache.get_or_compile(&exec, &q).is_ok());
        assert_eq!(cache.len(), 1);
        let mut c2 = Catalog::new();
        let schema = Schema::from_pairs(&[("x", DataType::Float)]);
        c2.register("stream", Frame::new(schema, vec![]).unwrap()).unwrap();
        let err = cache.get_or_compile(&Executor::new(&c2), &q).unwrap_err();
        assert_eq!(err, EngineError::UnknownColumn("y".into()));
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn ast_key_distinguishes_queries() {
        let a = parse_query("SELECT x FROM stream").unwrap();
        let b = parse_query("SELECT y FROM stream").unwrap();
        assert_ne!(ast_key(&a), ast_key(&b));
        assert_eq!(ast_key(&a), ast_key(&parse_query("SELECT  x  FROM  stream").unwrap()));
    }

    #[test]
    fn fingerprint_tracks_schema_changes() {
        let c = catalog();
        let tables = vec!["stream".to_string()];
        let fp1 = schema_fingerprint(&c, &tables);
        let mut c2 = Catalog::new();
        c2.register(
            "stream",
            Frame::new(Schema::from_pairs(&[("x", DataType::Integer)]), vec![]).unwrap(),
        )
        .unwrap();
        assert_ne!(fp1, schema_fingerprint(&c2, &tables));
        assert_ne!(fp1, schema_fingerprint(&Catalog::new(), &tables));
    }

    #[test]
    fn parallel_operators_match_serial() {
        // explicit pool: the global one is serial on single-core machines
        let pool = ThreadPool::new(3);
        let c = catalog();
        let frame = c.get("stream").unwrap();
        let mask: Vec<bool> = (0..frame.len()).map(|i| i % 3 != 0).collect();
        let par = filter_rows_parallel_with(frame, &mask, &pool, 0);
        assert_eq!(par.to_rows(), frame.filter_rows(&mask).to_rows());

        let indices: Vec<usize> = (0..frame.len()).rev().collect();
        let sel = select_rows_parallel_with(frame, &indices, &pool, 0);
        assert_eq!(sel.to_rows(), frame.select_rows(&indices).to_rows());

        // grouped accumulation: two calls over many groups, parallel
        // chunking vs the serial range
        let zs = frame.column_arc(2);
        let calls = vec![
            AggCallPlan { kind: AggKind::Avg, distinct: false, args: vec![ArgStep::Star] },
            AggCallPlan { kind: AggKind::Sum, distinct: false, args: vec![ArgStep::Star] },
        ];
        let args = vec![vec![Batch::Col(Arc::clone(&zs))], vec![Batch::Col(zs)]];
        let grouping = group_rows(&[frame.column_arc(0)], frame.len());
        let serial = accumulate_range(&calls, &args, &grouping, 0..grouping.len()).unwrap();
        // `accumulate_groups` takes the parallel path only past the row
        // threshold; replicate the grouping until it crosses it so the
        // production splitter runs with real workers
        let mut big_rows = Vec::new();
        let mut big_offsets = vec![0usize];
        let mut big_firsts = Vec::new();
        while big_rows.len() < PARALLEL_MIN_ROWS {
            for g in 0..grouping.len() {
                big_firsts.push(grouping.group(g)[0]);
                big_rows.extend_from_slice(grouping.group(g));
                big_offsets.push(big_rows.len());
            }
        }
        let big = Grouping { rows: big_rows, offsets: big_offsets, firsts: big_firsts };
        let serial_big = accumulate_range(&calls, &args, &big, 0..big.len()).unwrap();
        let parallel_big = accumulate_groups(&calls, &args, &big, &pool).unwrap();
        assert_eq!(serial_big, parallel_big);
        // the replicated grouping repeats the original per-group values
        let reps = big.len() / grouping.len();
        for (big_col, col) in serial_big.iter().zip(&serial) {
            let expect: Vec<Value> =
                (0..reps).flat_map(|_| col.iter().cloned()).collect();
            assert_eq!(big_col, &expect);
        }
    }

    #[test]
    fn csr_grouping_matches_reference_partitioning() {
        let c = catalog();
        let frame = c.get("stream").unwrap();
        for col in 0..frame.schema.len() {
            let key = frame.column_arc(col);
            let grouping = group_rows(&[Arc::clone(&key)], frame.len());
            // reference: first-appearance order over group keys
            let mut order: Vec<GroupKey> = Vec::new();
            let mut expect: Vec<Vec<usize>> = Vec::new();
            for ri in 0..frame.len() {
                let k = key.group_key_at(ri);
                match order.iter().position(|x| *x == k) {
                    Some(g) => expect[g].push(ri),
                    None => {
                        order.push(k);
                        expect.push(vec![ri]);
                    }
                }
            }
            assert_eq!(grouping.len(), expect.len(), "column {col}");
            for (g, rows) in expect.iter().enumerate() {
                assert_eq!(grouping.group(g), rows.as_slice(), "column {col}, group {g}");
                assert_eq!(grouping.firsts[g], rows[0]);
            }
        }
    }

}
