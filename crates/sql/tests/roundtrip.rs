//! Render/parse idempotence over a corpus of paper-style queries.
//!
//! For every query `q`: `parse(display(parse(q))) == parse(q)` — i.e.
//! `display.rs` output is itself valid SQL that reparses to the same
//! AST. This pins the lexer → parser → renderer loop that every
//! rewriting stage in the pipeline depends on (a fragment is rendered,
//! shipped to a node, and reparsed there).

mod corpus;

use corpus::CORPUS;
use paradise_sql::{parse_expr, parse_query};

#[test]
fn corpus_queries_roundtrip_through_display() {
    for sql in CORPUS {
        let first = parse_query(sql).unwrap_or_else(|e| panic!("corpus query failed to parse: {sql}: {e}"));
        let rendered = first.to_string();
        let second = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("rendered SQL failed to reparse: {rendered}: {e}"));
        assert_eq!(second, first, "display round-trip changed the AST for: {sql}\nrendered: {rendered}");
    }
}

#[test]
fn rendering_is_idempotent() {
    // display(parse(display(parse(q)))) == display(parse(q)): the
    // renderer must be a fixed point after one normalization pass.
    for sql in CORPUS {
        let rendered = parse_query(sql).unwrap().to_string();
        let rerendered = parse_query(&rendered).unwrap().to_string();
        assert_eq!(rerendered, rendered, "rendering not idempotent for: {sql}");
    }
}

#[test]
fn corpus_exprs_roundtrip_through_display() {
    let exprs = [
        "x + 1 > y * 2",
        "NOT x > 1 AND y < 2 OR z = 3",
        "z BETWEEN 1 AND 2 AND t IN (1, 2)",
        "CASE WHEN z < 1 THEN 1 ELSE 0 END",
        "CAST(t AS FLOAT) / 2.5",
        "-x + (y - 1)",
        "name LIKE 'a%' AND y IS NOT NULL",
    ];
    for src in exprs {
        let first = parse_expr(src).unwrap_or_else(|e| panic!("expr failed to parse: {src}: {e}"));
        let rendered = first.to_string();
        let second = parse_expr(&rendered)
            .unwrap_or_else(|e| panic!("rendered expr failed to reparse: {rendered}: {e}"));
        assert_eq!(second, first, "expr round-trip changed the AST for: {src}");
    }
}
