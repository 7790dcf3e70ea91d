//! # paradise-sql
//!
//! SQL frontend for the PArADISE reproduction: a hand-rolled lexer,
//! recursive-descent parser, AST, SQL renderer and static analyses for the
//! SQL subset used by *Privacy Protection through Query Rewriting in Smart
//! Environments* (Grunert & Heuer, EDBT 2016).
//!
//! The subset covers everything the paper's running example and evaluation
//! need: nested `SELECT` blocks, joins, `WHERE`/`GROUP BY`/`HAVING`/
//! `ORDER BY`/`LIMIT`, window functions (`OVER (PARTITION BY … ORDER BY …)`),
//! the SQL:2011 regression aggregates (`regr_intercept`, …), `CASE`,
//! `BETWEEN`/`IN`/`IS NULL`, `UNION [ALL]`, and `SELECT *` stream scans.
//!
//! ```
//! use paradise_sql::parse_query;
//!
//! let q = parse_query("SELECT x, y, AVG(z) AS zAVG, t FROM d2 \
//!                      GROUP BY x, y HAVING SUM(z) > 100").unwrap();
//! assert_eq!(q.group_by.len(), 2);
//! // rendering round-trips
//! let again = parse_query(&q.to_string()).unwrap();
//! assert_eq!(q, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod display;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;
pub mod visit;

pub use ast::{
    BinaryOp, CaseBranch, ColumnRef, Expr, FunctionCall, JoinKind, Literal, OrderByItem, Query,
    SelectItem, SortOrder, TableRef, UnaryOp, WindowSpec,
};
pub use error::{Location, ParseError, ParseErrorKind, ParseResult};
pub use parser::{parse_expr, parse_query, MAX_NESTING};
