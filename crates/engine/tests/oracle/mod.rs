//! The naive row-at-a-time reference executor: the one oracle every
//! equivalence suite compares the engine against. Written against the
//! engine's *public* API only (`Catalog`, `Frame`, the row interpreter
//! `eval_expr`, `Accumulator`), it shares no planner, kernel or helper
//! with the code it checks; every operator is the textbook loop. Being
//! row-driven it is lazy where the engine's `compile` is static: an
//! invalid query over an empty input can go unnoticed here.

use std::{cmp::Ordering, collections::HashSet};

use paradise_engine::eval::{eval_expr, eval_predicate, EvalContext as Ctx};
use paradise_engine::exec::aggregate::{Accumulator, AggKind};
use paradise_engine::{
    Catalog, Column, DataType, EngineError, EngineResult, Frame, GroupKey, Row, Schema, Value,
};
use paradise_sql::analysis::is_aggregate_function;
use paradise_sql::ast::{
    Expr, FunctionCall, JoinKind, Literal, Query, SelectItem, SortOrder, TableRef, WindowSpec,
};
use paradise_sql::visit::transform_expr;

/// Execute `query` against `catalog`, naively.
pub fn run(catalog: &Catalog, query: &Query) -> EngineResult<Frame> {
    let head = block(catalog, query)?;
    let schema = head.schema.clone();
    let mut rows = head.into_rows();
    for (all, branch) in &query.unions {
        let next = block(catalog, branch)?;
        let (a, b) = (schema.len(), next.schema.len());
        if a != b {
            let message = format!("UNION branches have different widths ({a} vs {b})");
            return Err(EngineError::Unsupported(message));
        }
        rows.extend(next.into_rows());
        if !all {
            dedupe(&mut rows, |r| r);
        }
    }
    Ok(Frame::from_rows(schema, rows))
}

/// Keep the first occurrence of every distinct row (as keyed by `key`).
fn dedupe(rows: &mut Vec<Row>, key: impl Fn(&Row) -> &[Value]) {
    let mut seen: HashSet<Vec<GroupKey>> = HashSet::new();
    rows.retain(|r| seen.insert(key(r).iter().map(Value::group_key).collect()));
}

fn order_cmp(a: &[Value], b: &[Value], orders: &[SortOrder]) -> Ordering {
    let directed = |((x, y), order): ((&Value, &Value), &SortOrder)| {
        if *order == SortOrder::Desc { y.total_cmp(x) } else { x.total_cmp(y) }
    };
    a.iter().zip(b).zip(orders).map(directed).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

/// Row indices partitioned by `by`: first-appearance order, members in row order.
fn partition(rows: &[Row], by: &[Expr], ctx: &Ctx<'_>) -> EngineResult<Vec<Vec<usize>>> {
    let mut parts: Vec<(Vec<GroupKey>, Vec<usize>)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let key_of = |e: &Expr| Ok(eval_expr(e, row, ctx)?.group_key());
        let key = by.iter().map(key_of).collect::<EngineResult<Vec<GroupKey>>>()?;
        match parts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => parts.push((key, vec![i])),
        }
    }
    Ok(parts.into_iter().map(|(_, members)| members).collect())
}

/// `FROM`: the input schema and rows of a table expression.
fn table(catalog: &Catalog, t: &TableRef) -> EngineResult<(Schema, Vec<Row>)> {
    match t {
        TableRef::Table { name, alias } => {
            let frame = catalog.get(name)?;
            Ok((frame.schema.with_source(alias.as_deref().unwrap_or(name)), frame.to_rows()))
        }
        TableRef::Subquery { query, alias } => {
            let frame = run(catalog, query)?;
            let schema = alias.as_ref().map_or(frame.schema.clone(), |a| frame.schema.with_source(a));
            Ok((schema, frame.into_rows()))
        }
        TableRef::Join { left, right, kind, on } => {
            let (ls, lrows) = table(catalog, left)?;
            let (rs, rrows) = table(catalog, right)?;
            let schema = ls.join(&rs);
            let sub = |q: &Query| run(catalog, q);
            let ctx = Ctx { schema: &schema, subquery: Some(&sub) };
            let concat = |a: &[Value], b: &[Value]| -> Row { a.iter().chain(b).cloned().collect() };
            let (lnull, rnull) = (vec![Value::Null; ls.len()], vec![Value::Null; rs.len()]);
            let mut out = Vec::new();
            let mut right_matched = vec![false; rrows.len()];
            for l in &lrows {
                let before = out.len();
                for (r, matched) in rrows.iter().zip(&mut right_matched) {
                    let row = concat(l, r);
                    if on.as_ref().map_or(Ok(true), |p| eval_predicate(p, &row, &ctx))? {
                        *matched = true;
                        out.push(row);
                    }
                }
                if out.len() == before && matches!(kind, JoinKind::Left | JoinKind::Full) {
                    out.push(concat(l, &rnull));
                }
            }
            if matches!(kind, JoinKind::Right | JoinKind::Full) {
                let unmatched = rrows.iter().zip(&right_matched).filter(|(_, m)| !**m);
                out.extend(unmatched.map(|(r, _)| concat(&lnull, r)));
            }
            Ok((schema, out))
        }
    }
}

/// Feed `row`'s arguments of `call` (`COUNT(*)` counts a 1) to `acc`.
fn feed(acc: &mut Accumulator, call: &FunctionCall, row: &Row, ctx: &Ctx<'_>) -> EngineResult<()> {
    let arg = |a: &Expr| if *a == Expr::Wildcard { Ok(Value::Int(1)) } else { eval_expr(a, row, ctx) };
    acc.update(&call.args.iter().map(arg).collect::<EngineResult<Vec<Value>>>()?)
}

/// `call`'s value for every row, as a window in the default SQL frame: with
/// an order a running value up to and including the row's peers, without it
/// the whole partition (a plain aggregate's window is its GROUP BY group).
fn call_values(call: &FunctionCall, over: &WindowSpec, rows: &[Row], ctx: &Ctx<'_>) -> EngineResult<Vec<Value>> {
    let name = call.name.to_ascii_uppercase();
    let ranking = matches!(name.as_str(), "ROW_NUMBER" | "RANK" | "DENSE_RANK");
    let kind = AggKind::from_name(&call.name);
    if !ranking && kind.is_none() {
        return Err(EngineError::UnknownFunction(format!("{} OVER", call.name)));
    }
    if let Some(kind) = kind.filter(|k| call.over.is_none() && call.args.len() != k.arity()) {
        let (function, expected) = (call.name.clone(), kind.arity().to_string());
        return Err(EngineError::WrongArity { function, expected, got: call.args.len() });
    }
    let orders: Vec<SortOrder> = over.order_by.iter().map(|o| o.order).collect();
    let sort_key = |r: &Row| over.order_by.iter().map(|o| eval_expr(&o.expr, r, ctx)).collect();
    let keys: Vec<Vec<Value>> = rows.iter().map(sort_key).collect::<EngineResult<_>>()?;
    let mut out = vec![Value::Null; rows.len()];
    for mut members in partition(rows, &over.partition_by, ctx)? {
        members.sort_by(|&a, &b| order_cmp(&keys[a], &keys[b], &orders)); // stable
        let mut acc = kind.map(|k| Accumulator::new(k, call.distinct));
        let (mut start, mut dense) = (0, 0i64);
        while start < members.len() {
            // the peer group [start, end): equal sort keys — without an
            // order the whole partition, for a ranking only the row itself
            let peer = |m: usize| match orders.is_empty() {
                true => !ranking,
                false => order_cmp(&keys[members[start]], &keys[m], &orders).is_eq(),
            };
            let end = (start + 1..members.len()).find(|&j| !peer(members[j])).unwrap_or(members.len());
            if let Some(acc) = &mut acc {
                members[start..end].iter().try_for_each(|&m| feed(acc, call, &rows[m], ctx))?;
            }
            dense += 1;
            for (pos, &m) in members[start..end].iter().enumerate() {
                out[m] = match (name.as_str(), &acc) {
                    ("ROW_NUMBER", _) => Value::Int((start + pos + 1) as i64),
                    ("RANK", _) => Value::Int(start as i64 + 1),
                    ("DENSE_RANK", _) => Value::Int(dense),
                    (_, acc) => acc.as_ref().expect("an aggregate window").finish(),
                };
            }
            start = end;
        }
    }
    Ok(out)
}

/// Where a projected cell comes from: an input column (a wildcard's) or an expression.
#[derive(Clone)]
enum Source {
    Input(usize),
    Expr(Expr),
}

/// One `SELECT` block.
fn block(catalog: &Catalog, q: &Query) -> EngineResult<Frame> {
    let no_from = || Ok((Schema::default(), vec![Row::new()])); // one empty row
    let (schema, mut rows) = q.from.as_ref().map_or_else(no_from, |t| table(catalog, t))?;
    let sub = |s: &Query| run(catalog, s);
    let ctx = Ctx { schema: &schema, subquery: Some(&sub) };
    if let Some(p) = &q.where_clause {
        let keep: EngineResult<Vec<bool>> = rows.iter().map(|r| eval_predicate(p, r, &ctx)).collect();
        let mut keep = keep?.into_iter();
        rows.retain(|_| keep.next().expect("one verdict per row"));
    }
    let aggregating = q.is_aggregating(&is_aggregate_function);
    if aggregating && q.has_wildcard() {
        return Err(EngineError::Unsupported("SELECT * with GROUP BY/aggregates".into()));
    }
    // `eval_expr` cannot evaluate aggregate calls (of an aggregating
    // block) or window calls (of any other): each is computed on its own
    // and read back as a cell `#callN` appended to the row
    let mut calls: Vec<FunctionCall> = Vec::new();
    let mut bind = |e: &Expr| transform_expr(e.clone(), &mut |node| {
        let Expr::Function(f) = &node else { return None };
        let is_agg = f.over.is_none() && is_aggregate_function(&f.name);
        if !(if aggregating { is_agg } else { f.over.is_some() }) {
            return None;
        }
        let known = calls.iter().position(|c| c == f);
        let i = known.unwrap_or_else(|| {
            calls.push(f.clone());
            calls.len() - 1
        });
        Some(Expr::col(format!("#call{i}")))
    });
    // output columns: name, declared type (what an all-NULL or empty
    // column keeps; otherwise the first non-NULL value decides), source
    let mut outputs: Vec<(Column, Source)> = Vec::new();
    for item in &q.items {
        if let SelectItem::Expr { expr, alias } = item {
            let name = alias.clone().unwrap_or_else(|| match expr {
                Expr::Column(c) => c.name.clone(),
                other => other.to_string().to_lowercase(),
            });
            let declared = match expr {
                Expr::Column(c) if !aggregating => {
                    schema.columns()[schema.resolve(c.qualifier.as_deref(), &c.name)?].data_type
                }
                _ => DataType::Float,
            };
            outputs.push((Column::new(name, declared), Source::Expr(bind(expr))));
            continue;
        }
        let before = outputs.len();
        for (i, c) in schema.columns().iter().enumerate() {
            let wanted = match item {
                SelectItem::QualifiedWildcard(t) => c.source.as_deref().is_some_and(|s| s.eq_ignore_ascii_case(t)),
                _ => true,
            };
            if wanted {
                outputs.push((Column::new(c.name.clone(), c.data_type), Source::Input(i)));
            }
        }
        if let (SelectItem::QualifiedWildcard(t), true) = (item, outputs.len() == before) {
            return Err(EngineError::UnknownTable(t.clone()));
        }
    }
    let (columns, mut sources): (Vec<Column>, Vec<Source>) = outputs.into_iter().unzip();
    let width = columns.len();
    let out_schema = Schema::new(columns);
    // ORDER BY keys ride along as hidden trailing cells: a pure alias or
    // a position repeats that output, anything else reads the input row
    for o in &q.order_by {
        let out_col = match &o.expr {
            Expr::Column(c) if c.qualifier.is_none() => out_schema
                .try_resolve(None, &c.name)
                .filter(|_| schema.try_resolve(None, &c.name).is_none()),
            Expr::Literal(Literal::Integer(i)) if (1..=width as i64).contains(i) => Some(*i as usize - 1),
            _ => None,
        };
        sources.push(out_col.map_or_else(|| Source::Expr(bind(&o.expr)), |i| sources[i].clone()));
    }
    let having = q.having.as_ref().map(&mut bind);
    // candidate rows: every input row extended by its call values; an
    // aggregating block keeps each group's first (lenient GROUP BY)
    let mut candidates = rows.clone();
    let group = WindowSpec { partition_by: q.group_by.clone(), order_by: Vec::new() };
    for call in &calls {
        let values = call_values(call, call.over.as_ref().unwrap_or(&group), &rows, &ctx)?;
        candidates.iter_mut().zip(values).for_each(|(row, v)| row.push(v));
    }
    if aggregating {
        let groups = partition(&rows, &q.group_by, &ctx)?;
        candidates = groups.iter().map(|members| candidates[members[0]].clone()).collect();
        if q.group_by.is_empty() && rows.is_empty() {
            // a global aggregate over zero rows still has its group
            let kind = |c: &FunctionCall| AggKind::from_name(&c.name).expect("bound as an aggregate");
            let empty = calls.iter().map(|c| Accumulator::new(kind(c), c.distinct).finish());
            candidates.push(vec![Value::Null; schema.len()].into_iter().chain(empty).collect());
        }
    }
    let mut ext_schema = schema.clone();
    (0..calls.len()).for_each(|i| ext_schema.push(Column::new(format!("#call{i}"), DataType::Float)));
    let ext_ctx = Ctx { schema: &ext_schema, subquery: Some(&sub) };
    // HAVING and projection, one candidate at a time
    let mut projected: Vec<Row> = Vec::with_capacity(candidates.len());
    for row in &candidates {
        let cell = |source: &Source| match source {
            Source::Input(i) => Ok(row[*i].clone()),
            Source::Expr(e) => eval_expr(e, row, &ext_ctx),
        };
        if having.as_ref().map_or(Ok(true), |h| eval_predicate(h, row, &ext_ctx))? {
            projected.push(sources.iter().map(cell).collect::<EngineResult<Row>>()?);
        }
    }

    let typed = out_schema.columns().iter().enumerate().map(|(i, c)| {
        let seen = projected.iter().find_map(|r| r[i].data_type());
        Column::new(c.name.clone(), seen.unwrap_or(c.data_type))
    });
    let typed = Schema::new(typed.collect());
    if q.distinct {
        dedupe(&mut projected, |r| &r[..width]);
    }
    let orders: Vec<SortOrder> = q.order_by.iter().map(|o| o.order).collect();
    projected.sort_by(|a, b| order_cmp(&a[width..], &b[width..], &orders)); // stable
    projected.iter_mut().for_each(|r| r.truncate(width));
    let page = projected.into_iter().skip(q.offset.unwrap_or(0) as usize);
    Ok(Frame::from_rows(typed, page.take(q.limit.map_or(usize::MAX, |l| l as usize)).collect()))
}
