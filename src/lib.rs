//! # PArADISE — Privacy Protection through Query Rewriting in Smart Environments
//!
//! A from-scratch Rust reproduction of Grunert & Heuer's EDBT 2016
//! paper: a privacy-aware query processor that rewrites queries under
//! user privacy policies, fragments them vertically over a
//! sensor → appliance → PC → cloud hierarchy so that maximal parts run
//! as close to the data source as possible, and anonymizes whatever
//! leaves the apartment.
//!
//! This crate is a façade re-exporting the subsystem crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sql`] | lexer, parser, AST, SQL renderer, feature analyses |
//! | [`engine`] | in-memory relational executor (joins, aggregates, windows) |
//! | [`policy`] | PP4SE policy model, XML format, validation |
//! | [`anon`] | k-anonymity, slicing, QID detection, DD/KL metrics |
//! | [`nodes`] | capability levels E1–E4, processing chain, sensor simulators |
//! | [`core`] | preprocessor, vertical fragmenter, postprocessor, containment, the continuous-query [`Runtime`](crate::core::Runtime) — the one entry point; [`run_once`](crate::core::Runtime::run_once) is its one-shot session |
//! | [`server`] | multi-tenant TCP serving layer: admission control, bounded ingest queues, quarantine, [`Server`](crate::server::Server)/[`Client`](crate::server::Client) |
//!
//! ## Quickstart
//!
//! The paper's setting is *continuous* queries: an assistive module
//! registers its query once, sensor batches keep arriving, and every
//! tick re-evaluates all registered queries under the current privacy
//! policies — rewriting, fragmenting and compiling only when a policy
//! or schema actually changes.
//!
//! Ticks are **delta-aware** by default: stateless fragments process
//! only the rows ingested since the last tick (keeping their full
//! output cached), grouped aggregation folds the batch into live
//! per-group accumulators, and only shapes that genuinely need full
//! history (windows over history, joins) rescan — so steady-state
//! tick cost tracks the batch size, not the retained stream window.
//! Results are identical to re-executing every fragment over its full
//! input (pinned against the test-side reference in
//! `tests/support/reference.rs`); see the README's "Incremental
//! (delta-aware) tick execution" section for the shape table. For
//! many-user streams,
//! [`Runtime::with_partitioning`](crate::core::Runtime::with_partitioning)
//! shards each stream by a hash of a declared partition key and folds
//! tick work partition-parallel over the thread pool — same results,
//! per-tick cost split across shards (README "Sharding" section,
//! `examples/sharded_users.rs`).
//!
//! ```
//! use paradise::prelude::*;
//!
//! // 1. the user's privacy policy (paper Figure 4)
//! let policy = parse_policy(FIG4_POLICY_XML).unwrap();
//!
//! // 2. a runtime over the apartment chain, with simulated Ubisense
//! //    data at the motion sensor
//! let mut runtime = Runtime::new(ProcessingChain::apartment())
//!     .with_policy("ActionFilter", policy.modules[0].clone());
//! let mut sim = SmartRoomSim::new(42);
//! runtime.install_source("motion-sensor", "stream", sim.ubisense_positions(100)).unwrap();
//!
//! // 3. register the assistive system's query (paper §4.2) once —
//! //    it is rewritten under the policy and fragmented here
//! let query = parse_query(
//!     "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
//!      FROM (SELECT x, y, z, t FROM stream)").unwrap();
//! let handle = runtime.register("ActionFilter", &query).unwrap();
//!
//! // 4. the continuous loop: ingest a batch, tick all registered
//! //    queries (results come back in registration order)
//! runtime.ingest("motion-sensor", "stream", sim.ubisense_positions(10)).unwrap();
//! let outcomes = runtime.tick().unwrap();
//! assert_eq!(outcomes[0].0, handle);
//! assert_eq!(outcomes[0].1.planned.stages.len(), 4);
//!
//! // 5. steady state: ticks reuse every cached plan (100% hits) …
//! runtime.tick().unwrap();
//! assert_eq!(runtime.stats().engine.invalidations, 0);
//!
//! // … until a policy is swapped live, which re-plans exactly the
//! // affected module's handles, at the swap
//! let policy2 = parse_policy(FIG4_POLICY_XML).unwrap();
//! runtime.set_policy("ActionFilter", policy2.modules[0].clone());
//! let outcomes = runtime.tick().unwrap();
//! assert_eq!(outcomes[0].1.planned.stages.len(), 4);
//! assert!(runtime.stats().plan.invalidations > 0);
//! ```
//!
//! To survive crashes, attach a durability directory with
//! [`Runtime::durable`](crate::core::Runtime::durable): every ingest,
//! registration, policy swap and eviction is write-ahead logged,
//! periodic catalog snapshots bound replay time, and reopening the
//! same directory (with the same builder configuration) replays the
//! log back to exactly the pre-crash state — see the README's
//! "Durability" section and `examples/durable_runtime.rs`.
//!
//! For one-shot/ad-hoc runs,
//! [`Runtime::run_once`](crate::core::Runtime::run_once) is register →
//! tick → remove over the same path.
//!
//! To serve a runtime to multiple tenants over TCP — with per-module
//! admission control, bounded per-connection ingest queues (shed or
//! block on overload), idle reaping, and per-handle quarantine — wrap
//! it in a [`Server`](crate::server::Server): see the README's
//! "Serving" section and `examples/server_client.rs`.
//!
//! For noise-calibrated release instead of (or on top of) structural
//! rewriting, give a module policy a
//! [`DpConfig`](crate::policy::DpConfig): its COUNT/SUM/AVG results
//! gain clamped-and-noised differential-privacy variants, with a
//! per-module epsilon budget that is spent per tick, persists across
//! crash recovery, and quarantines the module's handles with a typed
//! `BudgetExhausted` error when it runs out — see the README's
//! "Differential privacy" section and `examples/dp_rewrite.rs`.

#![forbid(unsafe_code)]

pub use paradise_anon as anon;
pub use paradise_core as core;
pub use paradise_engine as engine;
pub use paradise_nodes as nodes;
pub use paradise_policy as policy;
pub use paradise_server as server;
pub use paradise_sql as sql;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use paradise_anon::{
        achieved_k, direct_distance, direct_distance_ratio, kl_divergence, mondrian, slice,
        SlicingConfig,
    };
    pub use paradise_core::{
        attack_answerable, fragment_query, postprocess, preprocess, AnonStrategy,
        AssignmentPolicy, ConjunctiveQuery, CoreError, DurabilityStats, FragmentPlan,
        HandleStats, Outcome, Planned, PreprocessOptions, ProcessingChain, QueryHandle,
        RewriteAction, Runtime, RuntimeOptions, RuntimeStats,
    };
    pub use paradise_core::remainder::{filter_by_class, ActionClass};
    pub use paradise_engine::{
        Catalog, ColumnData, CompiledPlan, DataType, EngineError, Executor, Frame, PlanCache,
        PlanCacheStats, Row, Schema, Value,
    };
    pub use paradise_nodes::{
        Capability, Level, Node, SmartRoomConfig, SmartRoomSim, Stage, TrafficLog,
    };
    pub use paradise_policy::{
        figure4_policy, parse_policy, policy_to_xml, validate_policy, AggregationSpec,
        AttributeRule, DpConfig, EpsilonLedger, ModulePolicy, Policy, PolicyVersion,
        FIG4_POLICY_XML,
    };
    pub use paradise_server::{
        AdmissionConfig, Client, ClientError, ErrorCode, IngestAck, OverloadPolicy, RetryClient,
        RetryConfig, RetryStats, Server, ServerConfig, ServerStats, TickReply,
    };
    pub use paradise_sql::{parse_expr, parse_query, Expr, Query};
}
