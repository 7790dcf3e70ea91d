//! # paradise-core
//!
//! The PArADISE privacy-aware query processor — the primary contribution
//! of *Privacy Protection through Query Rewriting in Smart Environments*
//! (Grunert & Heuer, EDBT 2016):
//!
//! * [`preprocess`](crate::preprocess::preprocess()) — policy-driven query
//!   rewriting (§3.1): projection masking, relation substitution,
//!   condition injection, aggregation enforcement;
//! * [`fragment_query`](crate::fragment::fragment_query()) — vertical
//!   fragmentation `Q → Q1 … Qj, Qδ` over the sensor/appliance/PC/cloud
//!   hierarchy (§4);
//! * [`postprocess`](crate::postprocess::postprocess()) — result
//!   anonymization with automatic column-wise vs. tuple-wise selection
//!   (§3.2); the paper's information-loss metrics grade it on request
//!   (`paradise_anon::{direct_distance_ratio, kl_divergence}`);
//! * [`containment`] — the conjunctive-query containment check the paper
//!   poses as its open problem (§4.1/§5);
//! * [`Runtime`] — the one entry point, a continuous-query runtime:
//!   register a query once, ingest stream batches, tick all registered
//!   queries (in parallel), swap policies live, re-planning exactly the
//!   affected handles at the swap; [`Runtime::run_once`] is the one-shot Figure 2
//!   session (register, tick, remove) over the same path. Every mutation
//!   is one [`Command`] through [`Runtime::apply`].
//!
//! ```
//! use paradise_core::{Runtime, ProcessingChain};
//! use paradise_nodes::SmartRoomSim;
//! use paradise_policy::figure4_policy;
//! use paradise_sql::parse_query;
//!
//! let mut runtime = Runtime::new(ProcessingChain::apartment())
//!     .with_policy("ActionFilter", figure4_policy().modules.remove(0));
//! let mut sim = SmartRoomSim::new(7);
//! runtime.install_source("motion-sensor", "stream", sim.ubisense_positions(50)).unwrap();
//!
//! let q = parse_query(
//!     "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
//!      FROM (SELECT x, y, z, t FROM stream)").unwrap();
//! let handle = runtime.register("ActionFilter", &q).unwrap();
//! runtime.ingest("motion-sensor", "stream", sim.ubisense_positions(10)).unwrap();
//! let outcomes = runtime.tick().unwrap();
//! assert_eq!(outcomes[0].0, handle);
//! assert_eq!(outcomes[0].1.planned.stages.len(), 4); // sensor, appliance, media center, server
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod containment;
pub mod containment_ext;
pub mod dp;
pub mod error;
pub mod fragment;
mod incremental;
pub mod pipeline;
pub mod postprocess;
pub mod preprocess;
pub mod remainder;
pub mod runtime;
pub mod storage;
pub mod stream_gate;

pub use checks::{compare_frames, information_gain_check, InformationGainReport};
pub use containment::{attack_answerable, Atom, ConjunctiveQuery, Term};
pub use containment_ext::{range_attack_answerable, Interval, RangeQuery};
pub use dp::{derive_plan as derive_dp_plan, derive_seed as derive_dp_seed, lower_clamps, DpPlan};
pub use error::{CoreError, CoreResult};
pub use fragment::{
    assign_to_chain, fragment_query, minimal_level, AssignmentPolicy, Fragment, FragmentPlan,
};
pub use postprocess::{postprocess, AnonDecision, AnonStrategy, PostprocessOutcome};
pub use preprocess::{preprocess, PreprocessOptions, PreprocessOutcome, RewriteAction};
pub use paradise_engine::PlanCacheStats;
pub use pipeline::{Outcome, Planned, RuntimeOptions};
pub use remainder::{filter_by_class, ActionClass, Remainder};
pub use runtime::{Applied, Command, HandleStats, QueryHandle, Runtime, RuntimeStats};
pub use storage::DurabilityStats;
pub use stream_gate::{GateDecision, StreamGate};

// Re-export the chain type users need to construct a runtime.
pub use paradise_nodes::ProcessingChain;
