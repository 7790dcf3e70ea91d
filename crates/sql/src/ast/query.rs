//! Query-level AST nodes: `SELECT` blocks, table references, joins.

use crate::ast::expr::Expr;

/// One item of the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// Bare `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output name.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Expression item without alias.
    pub fn expr(expr: Expr) -> Self {
        SelectItem::Expr { expr, alias: None }
    }

    /// Expression item with alias.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        SelectItem::Expr { expr, alias: Some(alias.into()) }
    }

    /// The output column name this item produces, if statically known:
    /// the alias if present, else the column name for plain column refs.
    pub fn output_name(&self) -> Option<&str> {
        match self {
            SelectItem::Expr { alias: Some(a), .. } => Some(a),
            SelectItem::Expr { expr: Expr::Column(c), .. } => Some(&c.name),
            _ => None,
        }
    }
}

/// Join flavours of the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

impl JoinKind {
    /// SQL spelling (`INNER JOIN`, …).
    pub fn as_str(&self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::Left => "LEFT JOIN",
            JoinKind::Right => "RIGHT JOIN",
            JoinKind::Full => "FULL JOIN",
            JoinKind::Cross => "CROSS JOIN",
        }
    }
}

/// A table expression in `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named base relation (or stream), optionally aliased.
    Table {
        /// Relation name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A parenthesised subquery, optionally aliased.
    Subquery {
        /// Inner query.
        query: Box<Query>,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A join of two table expressions.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join flavour.
        kind: JoinKind,
        /// `ON` predicate; `None` for `CROSS JOIN` or `USING` joins that
        /// were desugared by the parser into an equality predicate.
        on: Option<Expr>,
    },
}

impl TableRef {
    /// Plain named table.
    pub fn table(name: impl Into<String>) -> Self {
        TableRef::Table { name: name.into(), alias: None }
    }

    /// Named table with alias.
    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef::Table { name: name.into(), alias: Some(alias.into()) }
    }

    /// Derived table from a subquery.
    pub fn subquery(query: Query) -> Self {
        TableRef::Subquery { query: Box::new(query), alias: None }
    }

    /// The visible name of this table expression (alias, else base name).
    pub fn visible_name(&self) -> Option<&str> {
        match self {
            TableRef::Table { alias: Some(a), .. } => Some(a),
            TableRef::Table { name, .. } => Some(name),
            TableRef::Subquery { alias: Some(a), .. } => Some(a),
            _ => None,
        }
    }

    /// All base relation names referenced anywhere under this node.
    pub fn base_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_base_tables(&mut out);
        out
    }

    fn collect_base_tables<'t>(&'t self, out: &mut Vec<&'t str>) {
        match self {
            TableRef::Table { name, .. } => out.push(name),
            TableRef::Subquery { query, .. } => {
                if let Some(from) = &query.from {
                    from.collect_base_tables(out);
                }
            }
            TableRef::Join { left, right, .. } => {
                left.collect_base_tables(out);
                right.collect_base_tables(out);
            }
        }
    }
}

/// Sort direction of an `ORDER BY` item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortOrder {
    /// Ascending (the default).
    #[default]
    Asc,
    /// Descending.
    Desc,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort key expression.
    pub expr: Expr,
    /// Direction.
    pub order: SortOrder,
}

impl OrderByItem {
    /// Ascending sort on `expr`.
    pub fn asc(expr: Expr) -> Self {
        OrderByItem { expr, order: SortOrder::Asc }
    }

    /// Descending sort on `expr`.
    pub fn desc(expr: Expr) -> Self {
        OrderByItem { expr, order: SortOrder::Desc }
    }
}

/// A single `SELECT` block (the only statement kind of the subset, plus
/// `UNION [ALL]` chaining).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list. Never empty for a parsed query.
    pub items: Vec<SelectItem>,
    /// `FROM` clause; `None` allows constant queries (`SELECT 1`).
    pub from: Option<TableRef>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
    /// `OFFSET` row count.
    pub offset: Option<u64>,
    /// `UNION [ALL]` continuation: `(all, query)` pairs applied in order.
    pub unions: Vec<(bool, Query)>,
}

impl Query {
    /// A `SELECT *` skeleton over the given table.
    pub fn select_star(table: impl Into<String>) -> Self {
        Query {
            items: vec![SelectItem::Wildcard],
            from: Some(TableRef::table(table)),
            ..Query::default()
        }
    }

    /// Does the projection contain a bare or qualified wildcard?
    pub fn has_wildcard(&self) -> bool {
        self.items
            .iter()
            .any(|i| matches!(i, SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)))
    }

    /// Is any aggregation present (GROUP BY, HAVING, or aggregate calls in
    /// the projection)?
    pub fn is_aggregating(&self, is_aggregate_fn: &dyn Fn(&str) -> bool) -> bool {
        if !self.group_by.is_empty() || self.having.is_some() {
            return true;
        }
        self.items.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr_has_aggregate(expr, is_aggregate_fn),
            _ => false,
        })
    }

    /// Depth of `FROM`-nesting: 1 for a flat query, +1 per derived table
    /// level. Constant queries have depth 0.
    pub fn nesting_depth(&self) -> usize {
        fn table_depth(t: &TableRef) -> usize {
            match t {
                TableRef::Table { .. } => 1,
                TableRef::Subquery { query, .. } => 1 + query.nesting_depth(),
                TableRef::Join { left, right, .. } => table_depth(left).max(table_depth(right)),
            }
        }
        self.from.as_ref().map(table_depth).unwrap_or(0)
    }

    /// The innermost query block reachable by descending through single
    /// derived tables. Returns `self` when `FROM` is a base table or join.
    pub fn innermost(&self) -> &Query {
        match &self.from {
            Some(TableRef::Subquery { query, .. }) => query.innermost(),
            _ => self,
        }
    }

    /// Mutable variant of [`Query::innermost`].
    pub fn innermost_mut(&mut self) -> &mut Query {
        // The shape test borrows immutably first: matching on
        // `&mut self.from` directly would keep `self` borrowed in the
        // arm that returns it.
        if !matches!(self.from, Some(TableRef::Subquery { .. })) {
            return self;
        }
        match &mut self.from {
            Some(TableRef::Subquery { query, .. }) => query.innermost_mut(),
            _ => unreachable!("shape checked above"),
        }
    }
}

/// Does `expr` contain a non-windowed aggregate call?
pub fn expr_has_aggregate(expr: &Expr, is_aggregate_fn: &dyn Fn(&str) -> bool) -> bool {
    match expr {
        Expr::Function(f) => {
            (f.over.is_none() && is_aggregate_fn(&f.name))
                || f.args.iter().any(|a| expr_has_aggregate(a, is_aggregate_fn))
        }
        Expr::Unary { expr, .. } => expr_has_aggregate(expr, is_aggregate_fn),
        Expr::Binary { left, right, .. } => {
            expr_has_aggregate(left, is_aggregate_fn) || expr_has_aggregate(right, is_aggregate_fn)
        }
        Expr::Case { operand, branches, else_result } => {
            operand.as_deref().map(|e| expr_has_aggregate(e, is_aggregate_fn)).unwrap_or(false)
                || branches.iter().any(|b| {
                    expr_has_aggregate(&b.when, is_aggregate_fn)
                        || expr_has_aggregate(&b.then, is_aggregate_fn)
                })
                || else_result
                    .as_deref()
                    .map(|e| expr_has_aggregate(e, is_aggregate_fn))
                    .unwrap_or(false)
        }
        Expr::Between { expr, low, high, .. } => {
            expr_has_aggregate(expr, is_aggregate_fn)
                || expr_has_aggregate(low, is_aggregate_fn)
                || expr_has_aggregate(high, is_aggregate_fn)
        }
        Expr::InList { expr, list, .. } => {
            expr_has_aggregate(expr, is_aggregate_fn)
                || list.iter().any(|e| expr_has_aggregate(e, is_aggregate_fn))
        }
        Expr::IsNull { expr, .. } => expr_has_aggregate(expr, is_aggregate_fn),
        Expr::Cast { expr, .. } => expr_has_aggregate(expr, is_aggregate_fn),
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => false,
        Expr::Subquery(_) | Expr::Exists(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::expr::FunctionCall;

    fn is_agg(name: &str) -> bool {
        matches!(name.to_ascii_uppercase().as_str(), "AVG" | "SUM" | "COUNT" | "MIN" | "MAX")
    }

    #[test]
    fn select_star_shape() {
        let q = Query::select_star("stream");
        assert!(q.has_wildcard());
        assert_eq!(q.from.as_ref().unwrap().visible_name(), Some("stream"));
        assert_eq!(q.nesting_depth(), 1);
    }

    #[test]
    fn nesting_depth_counts_derived_tables() {
        let inner = Query::select_star("d1");
        let mid = Query {
            items: vec![SelectItem::Wildcard],
            from: Some(TableRef::subquery(inner)),
            ..Query::default()
        };
        let outer = Query {
            items: vec![SelectItem::Wildcard],
            from: Some(TableRef::subquery(mid)),
            ..Query::default()
        };
        assert_eq!(outer.nesting_depth(), 3);
    }

    #[test]
    fn innermost_descends() {
        let inner = Query::select_star("d1");
        let outer = Query {
            items: vec![SelectItem::expr(Expr::col("x"))],
            from: Some(TableRef::subquery(inner)),
            ..Query::default()
        };
        assert_eq!(outer.innermost().from.as_ref().unwrap().visible_name(), Some("d1"));
    }

    #[test]
    fn innermost_mut_matches_innermost() {
        let inner = Query::select_star("d1");
        let mut outer = Query {
            items: vec![SelectItem::expr(Expr::col("x"))],
            from: Some(TableRef::subquery(inner)),
            ..Query::default()
        };
        outer.innermost_mut().limit = Some(7);
        assert_eq!(outer.innermost().limit, Some(7));
    }

    #[test]
    fn aggregation_detection_via_group_by() {
        let mut q = Query::select_star("d");
        assert!(!q.is_aggregating(&is_agg));
        q.group_by.push(Expr::col("x"));
        assert!(q.is_aggregating(&is_agg));
    }

    #[test]
    fn aggregation_detection_via_projection() {
        let q = Query {
            items: vec![SelectItem::expr(Expr::Function(FunctionCall::new(
                "AVG",
                vec![Expr::col("z")],
            )))],
            from: Some(TableRef::table("d")),
            ..Query::default()
        };
        assert!(q.is_aggregating(&is_agg));
    }

    #[test]
    fn windowed_aggregate_is_not_plain_aggregation() {
        let mut f = FunctionCall::new("AVG", vec![Expr::col("z")]);
        f.over = Some(crate::ast::expr::WindowSpec::default());
        let q = Query {
            items: vec![SelectItem::expr(Expr::Function(f))],
            from: Some(TableRef::table("d")),
            ..Query::default()
        };
        assert!(!q.is_aggregating(&is_agg));
    }

    #[test]
    fn base_tables_through_joins_and_subqueries() {
        let join = TableRef::Join {
            left: Box::new(TableRef::table("ubisense")),
            right: Box::new(TableRef::subquery(Query::select_star("sensfloor"))),
            kind: JoinKind::Inner,
            on: None,
        };
        assert_eq!(join.base_tables(), vec!["ubisense", "sensfloor"]);
    }

    #[test]
    fn output_name_prefers_alias() {
        let item = SelectItem::aliased(Expr::col("z"), "zAVG");
        assert_eq!(item.output_name(), Some("zAVG"));
        let plain = SelectItem::expr(Expr::col("x"));
        assert_eq!(plain.output_name(), Some("x"));
        assert_eq!(SelectItem::Wildcard.output_name(), None);
    }
}
