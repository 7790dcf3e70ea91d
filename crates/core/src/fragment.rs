//! Vertical fragmentation of queries (paper §4).
//!
//! A (rewritten) query `Q` is fragmented into subqueries `Q1 … Qj` plus a
//! remainder `Qδ`, such that maximal parts execute as close to the data
//! source as possible:
//!
//! * the **sensor** receives `SELECT * FROM stream [WHERE attr⊙const]` —
//!   it cannot project and only compares attributes against constants;
//! * an **appliance** receives the projection and the attribute↔attribute
//!   part of the `WHERE` clause;
//! * a second appliance (media center) receives the grouping/aggregation
//!   part;
//! * the **PC / local server** receives window functions and everything
//!   SQL-92;
//! * the **cloud** receives whatever remains (UDFs, and the non-SQL ML
//!   remainder handled by [`crate::remainder`]).

use paradise_nodes::{Capability, Level, Node, ProcessingChain, Stage};
use paradise_sql::analysis::{
    block_features, expr_attributes, split_conjuncts_by_shape, SqlFeature,
};
use paradise_sql::ast::{
    ColumnRef, Expr, Query, SelectItem, TableRef,
};

use crate::error::{CoreError, CoreResult};

/// One fragment of the vertical fragmentation, bottom-up.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// The fragment query (flat: reads exactly one input table).
    pub query: Query,
    /// Minimal level (by default capability profiles) able to run it.
    pub min_level: Level,
    /// Name of the input relation the fragment reads.
    pub input_table: String,
    /// Name under which its result is published for the next fragment.
    pub publish_as: String,
}

/// The full fragmentation plan `Q → Q1 … Qj, Qδ`.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentPlan {
    /// Fragments bottom-up (`Q1` first).
    pub fragments: Vec<Fragment>,
    /// Features that force work to stay at the top (UDF usage etc.),
    /// rendered for reporting; empty when everything is SQL-able.
    pub remainder_reasons: Vec<String>,
}

impl FragmentPlan {
    /// The name of the final result relation (the paper's `d'`).
    pub fn result_table(&self) -> &str {
        self.fragments.last().map(|f| f.publish_as.as_str()).unwrap_or("dprime")
    }

    /// Render the plan for display: one line per fragment.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for f in &self.fragments {
            out.push_str(&format!(
                "{:>12} [{}]: {}\n",
                f.publish_as,
                f.min_level.paper_name(),
                f.query
            ));
        }
        out
    }
}

/// How fragments map onto chain nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentPolicy {
    /// Every fragment on its own node, strictly ascending (the paper's
    /// Figure 3 picture: sensor → appliance → media center → server).
    #[default]
    Spread,
    /// Reuse the lowest capable node; multiple fragments may stack on
    /// one node.
    Stack,
}

/// Fragment a (already policy-rewritten) query.
///
/// The query must be a chain of nested `SELECT` blocks (the shape the
/// paper's use case has). Joins inside a block are kept within that
/// block's fragment.
pub fn fragment_query(query: &Query) -> CoreResult<FragmentPlan> {
    if !query.unions.is_empty() {
        return Err(CoreError::UnsupportedQuery(
            "UNION queries are executed unfragmented at the PC level".into(),
        ));
    }
    // Collect the block chain outermost → innermost.
    let mut blocks: Vec<&Query> = vec![query];
    let mut current = query;
    while let Some(TableRef::Subquery { query: inner, .. }) = &current.from {
        blocks.push(inner);
        current = inner;
    }
    let innermost = *blocks.last().expect("at least one block");
    let base_table = match &innermost.from {
        Some(TableRef::Table { name, .. }) => name.clone(),
        Some(TableRef::Join { .. }) => {
            // join at the source: the whole innermost block is one
            // appliance-level fragment; no sensor split
            String::new()
        }
        None => String::new(),
        Some(TableRef::Subquery { .. }) => unreachable!("descended past subqueries"),
    };

    let mut fragments: Vec<Fragment> = Vec::new();
    let mut remainder_reasons: Vec<String> = Vec::new();
    let mut table_counter = 0usize;
    let mut next_table = |counter: &mut usize| -> String {
        *counter += 1;
        format!("d{counter}")
    };

    // ----- innermost block: sensor / projection / aggregation split -----
    if !base_table.is_empty() {
        split_innermost(
            innermost,
            &base_table,
            &mut fragments,
            &mut table_counter,
            &mut next_table,
        )?;
    } else {
        // constant query or join-rooted block: single fragment
        let publish = next_table(&mut table_counter);
        let mut q = innermost.clone();
        q.unions.clear();
        fragments.push(make_fragment(q, innermost_input_name(innermost), publish));
    }

    // ----- outer blocks, inside-out -----
    for block in blocks.iter().rev().skip(1) {
        let input = fragments.last().expect("inner fragments exist").publish_as.clone();
        let publish = next_table(&mut table_counter);
        let mut q = (*block).clone();
        q.from = Some(TableRef::Table { name: input.clone(), alias: None });
        let features = block_features(&q);
        if features.contains(SqlFeature::UserDefinedFunctions) {
            remainder_reasons.push(format!(
                "block `{q}` calls user-defined functions — cloud remainder"
            ));
        }
        fragments.push(make_fragment(q, input, publish));
    }

    // rename the last fragment's output to the paper's d'
    if let Some(last) = fragments.last_mut() {
        last.publish_as = "dprime".to_string();
    }
    Ok(FragmentPlan { fragments, remainder_reasons })
}

fn innermost_input_name(block: &Query) -> String {
    match &block.from {
        Some(t) => t.base_tables().first().map(|s| s.to_string()).unwrap_or_default(),
        None => String::new(),
    }
}

/// Split the innermost block into up to three fragments:
/// sensor scan+const-filter, projection+attr-filter, aggregation.
fn split_innermost(
    block: &Query,
    base_table: &str,
    fragments: &mut Vec<Fragment>,
    counter: &mut usize,
    next_table: &mut dyn FnMut(&mut usize) -> String,
) -> CoreResult<()> {
    let split = split_conjuncts_by_shape(block.where_clause.as_ref());

    // 1. sensor fragment: SELECT * FROM base [WHERE const-conjuncts]
    let sensor_publish = next_table(counter);
    let sensor_query = Query {
        items: vec![SelectItem::Wildcard],
        from: Some(TableRef::Table { name: base_table.to_string(), alias: None }),
        where_clause: Expr::conjoin(split.attr_const.clone()),
        ..Query::default()
    };
    fragments.push(make_fragment(sensor_query, base_table.to_string(), sensor_publish.clone()));

    let aggregating = !block.group_by.is_empty() || block.having.is_some();

    // 2. projection fragment: needed attributes + attr-attr/complex filters
    let mut middle_filters = split.attr_attr.clone();
    middle_filters.extend(split.complex.clone());
    let needed = needed_attributes(block);
    let has_projection = !block.has_wildcard() && !needed.is_empty();
    let needs_middle = has_projection || !middle_filters.is_empty();

    let mut upstream = sensor_publish;
    if needs_middle {
        let publish = next_table(counter);
        let items: Vec<SelectItem> = if has_projection {
            needed
                .iter()
                .map(|a| SelectItem::expr(Expr::Column(ColumnRef::bare(a.clone()))))
                .collect()
        } else {
            vec![SelectItem::Wildcard]
        };
        let mut q = Query {
            items,
            from: Some(TableRef::Table { name: upstream.clone(), alias: None }),
            where_clause: Expr::conjoin(middle_filters),
            ..Query::default()
        };
        if !aggregating {
            // this is the block's final shape: restore its real items
            q.items = block.items.clone();
            q.distinct = block.distinct;
            q.order_by = block.order_by.clone();
            q.limit = block.limit;
            q.offset = block.offset;
        }
        fragments.push(make_fragment(q, upstream, publish.clone()));
        upstream = publish;
    }

    // 3. aggregation fragment
    if aggregating {
        let publish = next_table(counter);
        let q = Query {
            distinct: block.distinct,
            items: block.items.clone(),
            from: Some(TableRef::Table { name: upstream.clone(), alias: None }),
            where_clause: None,
            group_by: block.group_by.clone(),
            having: block.having.clone(),
            order_by: block.order_by.clone(),
            limit: block.limit,
            offset: block.offset,
            unions: Vec::new(),
        };
        fragments.push(make_fragment(q, upstream, publish));
    } else if !needs_middle {
        // sensor output IS the block result apart from projection the
        // sensor cannot do; when the block projects nothing specific
        // (SELECT *), the sensor fragment suffices.
        if block.distinct || !block.order_by.is_empty() || block.limit.is_some() {
            let publish = next_table(counter);
            let q = Query {
                distinct: block.distinct,
                items: vec![SelectItem::Wildcard],
                from: Some(TableRef::Table { name: upstream.clone(), alias: None }),
                order_by: block.order_by.clone(),
                limit: block.limit,
                offset: block.offset,
                ..Query::default()
            };
            fragments.push(make_fragment(q, upstream, publish));
        }
    }
    Ok(())
}

/// Attributes the block needs from below: everything referenced in its
/// items, grouping keys, HAVING and ORDER BY — in first-appearance order.
fn needed_attributes(block: &Query) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let push_all = |expr: &Expr, out: &mut Vec<String>| {
        for a in expr_attributes(expr) {
            if !out.iter().any(|x| x.eq_ignore_ascii_case(&a)) {
                out.push(a);
            }
        }
    };
    // preserve projection order first (x, y, z, t in the paper)
    for item in &block.items {
        if let SelectItem::Expr { expr, .. } = item {
            push_all(expr, &mut out);
        }
    }
    for g in &block.group_by {
        push_all(g, &mut out);
    }
    if let Some(h) = &block.having {
        push_all(h, &mut out);
    }
    for o in &block.order_by {
        push_all(&o.expr, &mut out);
    }
    out
}

fn make_fragment(query: Query, input_table: String, publish_as: String) -> Fragment {
    let min_level = minimal_level(&query);
    Fragment { query, min_level, input_table, publish_as }
}

/// The lowest level whose default capability can run this fragment.
pub fn minimal_level(query: &Query) -> Level {
    let features = block_features(query);
    for level in Level::BOTTOM_UP {
        if Capability::for_level(*level).supports(&features) {
            return *level;
        }
    }
    Level::Cloud
}

/// Map a plan onto a concrete chain, producing executable stages.
pub fn assign_to_chain(
    plan: &FragmentPlan,
    chain: &ProcessingChain,
    policy: AssignmentPolicy,
) -> CoreResult<Vec<Stage>> {
    let nodes = chain.nodes();
    let mut stages = Vec::with_capacity(plan.fragments.len());
    let mut cursor = 0usize;
    for (i, fragment) in plan.fragments.iter().enumerate() {
        let start = cursor;
        let found = nodes[start..]
            .iter()
            .position(|n| n.can_execute(&fragment.query))
            .map(|offset| start + offset);
        let Some(index) = found else {
            let missing = nodes
                .last()
                .map(|n: &Node| n.capability.missing(&block_features(&fragment.query)))
                .unwrap_or_default();
            return Err(CoreError::Node(paradise_nodes::NodeError::CapabilityViolation {
                node: nodes.last().map(|n| n.name.clone()).unwrap_or_default(),
                missing,
            }));
        };
        stages.push(Stage {
            node: nodes[index].name.clone(),
            fragment: fragment.query.clone(),
            publish_as: fragment.publish_as.clone(),
        });
        cursor = match policy {
            AssignmentPolicy::Spread => {
                // next fragment on a strictly later node when possible;
                // stay on the last node if we ran out
                if i + 1 < plan.fragments.len() && index + 1 < nodes.len() {
                    index + 1
                } else {
                    index
                }
            }
            AssignmentPolicy::Stack => index,
        };
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_sql::parse_query;

    /// The paper's rewritten query (§4.2) — input to fragmentation.
    const PAPER_REWRITTEN: &str =
        "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
         FROM (SELECT x, y, AVG(z) AS zAVG, t FROM dsource \
         WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 100)";

    #[test]
    fn reproduces_the_papers_four_fragments() {
        let q = parse_query(PAPER_REWRITTEN).unwrap();
        let plan = fragment_query(&q).unwrap();
        assert_eq!(plan.fragments.len(), 4, "{}", plan.describe());

        let sqls: Vec<String> =
            plan.fragments.iter().map(|f| f.query.to_string()).collect();
        assert_eq!(sqls[0], "SELECT * FROM dsource WHERE z < 2");
        assert_eq!(sqls[1], "SELECT x, y, z, t FROM d1 WHERE x > y");
        assert_eq!(
            sqls[2],
            "SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y HAVING SUM(z) > 100"
        );
        assert_eq!(
            sqls[3],
            "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) FROM d3"
        );

        let levels: Vec<Level> = plan.fragments.iter().map(|f| f.min_level).collect();
        assert_eq!(
            levels,
            vec![Level::Sensor, Level::Appliance, Level::Appliance, Level::Pc]
        );
        assert_eq!(plan.result_table(), "dprime");
        assert!(plan.remainder_reasons.is_empty());
    }

    #[test]
    fn assigns_to_apartment_chain_spread() {
        let q = parse_query(PAPER_REWRITTEN).unwrap();
        let plan = fragment_query(&q).unwrap();
        let chain = ProcessingChain::apartment();
        let stages = assign_to_chain(&plan, &chain, AssignmentPolicy::Spread).unwrap();
        let nodes: Vec<&str> = stages.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(
            nodes,
            vec!["motion-sensor", "appliance", "media-center", "local-server"]
        );
    }

    #[test]
    fn assigns_to_apartment_chain_stack() {
        let q = parse_query(PAPER_REWRITTEN).unwrap();
        let plan = fragment_query(&q).unwrap();
        let chain = ProcessingChain::apartment();
        let stages = assign_to_chain(&plan, &chain, AssignmentPolicy::Stack).unwrap();
        let nodes: Vec<&str> = stages.iter().map(|s| s.node.as_str()).collect();
        // aggregation stacks on the first appliance
        assert_eq!(
            nodes,
            vec!["motion-sensor", "appliance", "appliance", "local-server"]
        );
    }

    #[test]
    fn pure_sensor_query_is_one_fragment() {
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        let plan = fragment_query(&q).unwrap();
        assert_eq!(plan.fragments.len(), 1);
        assert_eq!(plan.fragments[0].min_level, Level::Sensor);
        assert_eq!(plan.fragments[0].query.to_string(), "SELECT * FROM stream WHERE z < 2");
        assert_eq!(plan.result_table(), "dprime");
    }

    #[test]
    fn projection_only_query_gets_sensor_plus_appliance() {
        let q = parse_query("SELECT x, t FROM stream WHERE z < 2 AND x > y").unwrap();
        let plan = fragment_query(&q).unwrap();
        assert_eq!(plan.fragments.len(), 2, "{}", plan.describe());
        assert_eq!(plan.fragments[0].query.to_string(), "SELECT * FROM stream WHERE z < 2");
        assert_eq!(plan.fragments[1].query.to_string(), "SELECT x, t FROM d1 WHERE x > y");
        assert_eq!(plan.fragments[1].min_level, Level::Appliance);
    }

    #[test]
    fn aggregation_without_attr_filters() {
        let q = parse_query("SELECT x, AVG(z) AS za FROM stream GROUP BY x").unwrap();
        let plan = fragment_query(&q).unwrap();
        // sensor scan, projection of needed columns, aggregation
        assert_eq!(plan.fragments.len(), 3, "{}", plan.describe());
        assert_eq!(plan.fragments[0].query.to_string(), "SELECT * FROM stream");
        assert_eq!(plan.fragments[1].query.to_string(), "SELECT x, z FROM d1");
        assert_eq!(
            plan.fragments[2].query.to_string(),
            "SELECT x, AVG(z) AS za FROM d2 GROUP BY x"
        );
    }

    #[test]
    fn order_limit_stay_with_final_block_fragment() {
        let q = parse_query("SELECT x, t FROM stream WHERE z < 1 ORDER BY t DESC LIMIT 5")
            .unwrap();
        let plan = fragment_query(&q).unwrap();
        let last = plan.fragments.last().unwrap();
        assert!(last.query.to_string().contains("ORDER BY t DESC LIMIT 5"));
        // sensor fragment must NOT carry the limit
        assert!(!plan.fragments[0].query.to_string().contains("LIMIT"));
    }

    #[test]
    fn wildcard_with_attr_filter() {
        let q = parse_query("SELECT * FROM stream WHERE x > y AND z < 2").unwrap();
        let plan = fragment_query(&q).unwrap();
        assert_eq!(plan.fragments.len(), 2);
        assert_eq!(plan.fragments[0].query.to_string(), "SELECT * FROM stream WHERE z < 2");
        assert_eq!(plan.fragments[1].query.to_string(), "SELECT * FROM d1 WHERE x > y");
    }

    #[test]
    fn udf_block_is_flagged_for_remainder() {
        let q = parse_query(
            "SELECT filterByClass(zAVG) FROM (SELECT x, AVG(z) AS zAVG FROM s GROUP BY x)",
        )
        .unwrap();
        let plan = fragment_query(&q).unwrap();
        assert!(!plan.remainder_reasons.is_empty());
        assert_eq!(plan.fragments.last().unwrap().min_level, Level::Cloud);
    }

    #[test]
    fn union_is_unsupported_for_fragmentation() {
        let q = parse_query("SELECT x FROM a UNION SELECT x FROM b").unwrap();
        assert!(matches!(
            fragment_query(&q),
            Err(CoreError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn deep_nesting_produces_one_fragment_per_outer_block() {
        let q = parse_query(
            "SELECT zAVG FROM (SELECT zAVG FROM \
             (SELECT x, AVG(z) AS zAVG FROM s GROUP BY x))",
        )
        .unwrap();
        let plan = fragment_query(&q).unwrap();
        // inner: sensor + projection + aggregation; then 2 outer blocks
        assert_eq!(plan.fragments.len(), 5, "{}", plan.describe());
        assert_eq!(plan.fragments[3].query.to_string(), "SELECT zAVG FROM d3");
        assert_eq!(plan.fragments[4].query.to_string(), "SELECT zAVG FROM d4");
    }

    #[test]
    fn minimal_level_matches_capabilities() {
        let sensor_q = parse_query("SELECT * FROM s WHERE z < 1").unwrap();
        assert_eq!(minimal_level(&sensor_q), Level::Sensor);
        let pc_q = parse_query("SELECT x FROM s UNION SELECT x FROM r").unwrap();
        assert_eq!(minimal_level(&pc_q), Level::Pc);
        let cloud_q = parse_query("SELECT myUdf(x) FROM s").unwrap();
        assert_eq!(minimal_level(&cloud_q), Level::Cloud);
    }

    #[test]
    fn join_rooted_innermost_is_single_fragment() {
        let q = parse_query(
            "SELECT u.x, s.pressure FROM ubisense u JOIN floor s ON u.t = s.t WHERE u.x > 1",
        )
        .unwrap();
        let plan = fragment_query(&q).unwrap();
        assert_eq!(plan.fragments.len(), 1);
        assert_eq!(plan.fragments[0].min_level, Level::Appliance);
    }
}
