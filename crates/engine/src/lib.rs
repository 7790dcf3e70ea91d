//! # paradise-engine
//!
//! An in-memory relational execution engine for the PArADISE
//! reproduction. It binds a `paradise-sql` AST against the catalog's
//! schemas into a physical plan ([`Executor::compile`], total over the
//! supported subset: a plan or a typed [`EngineError`]) and runs that
//! plan ([`Executor::run_plan`]) — the one executor behind scans,
//! filters, joins, grouping/aggregation (including the SQL:2011
//! regression aggregates), window functions, sorting and set operations:
//! everything the paper's vertical hierarchy of query processors needs,
//! at every level from "cloud DBMS" down to "sensor firmware filter".
//! Continuous queries compile once ([`PlanCache`]) and re-run, or fold
//! deltas ([`IncrementalPlan`]).
//!
//! Frames are stored **column-major** ([`column::ColumnData`] buffers
//! behind copy-on-write [`std::sync::Arc`]s), so the operators run
//! column-at-a-time and frame clones are O(columns).
//!
//! ```
//! use paradise_engine::{Catalog, Executor, Frame, Schema, DataType, Value};
//! use paradise_sql::parse_query;
//!
//! let schema = Schema::from_pairs(&[("x", DataType::Integer)]);
//! let frame = Frame::new(schema, vec![vec![Value::Int(1)], vec![Value::Int(5)]]).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.register("d", frame).unwrap();
//!
//! let q = parse_query("SELECT x FROM d WHERE x > 2").unwrap();
//! let result = Executor::new(&catalog).execute(&q).unwrap();
//! assert_eq!(result.to_rows(), vec![vec![Value::Int(5)]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod column;
pub mod error;
pub mod eval;
pub mod exec;
pub mod frame;
pub mod noise;
pub mod plan;
pub mod schema;
pub mod value;

pub use catalog::{Catalog, Watermark};
pub use column::{ColumnData, DenseIds};
pub use error::{EngineError, EngineResult};
pub use exec::aggregate::AggKind;
pub use exec::Executor;
pub use frame::{Frame, Row};
pub use noise::{apply_laplace, NoiseKind, NoiseSpec};
pub use plan::{
    CompiledPlan, DeltaInput, ExprProgram, IncrementalPlan, IncrementalRun, IncrementalState,
    PlanCache, PlanCacheStats, PlanSet,
};
pub use schema::{Column, Schema};
pub use value::{DataType, GroupKey, Value};
