//! # paradise-policy
//!
//! Privacy-policy subsystem of the PArADISE reproduction: the PP4SE
//! policy model of paper Figure 4 (P3P-derived, with the paper's stream
//! extensions), a minimal XML reader/writer for the policy format, a
//! validator, and the automatic policy generation/adaptation component
//! from Figure 2.
//!
//! ```
//! use paradise_policy::{parse_policy, FIG4_POLICY_XML};
//!
//! let policy = parse_policy(FIG4_POLICY_XML).unwrap();
//! let module = policy.module("ActionFilter").unwrap();
//! assert!(module.allows("x"));
//! assert!(module.attribute("z").unwrap().requires_aggregation());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod error;
pub mod generate;
pub mod model;
pub mod parse;
pub mod validate;
pub mod xml;

pub use budget::EpsilonLedger;
pub use error::{PolicyError, PolicyResult};
pub use generate::{
    adapt_to_schema, default_sensitivity, figure4_policy, merge_restrictive, GeneratorOptions,
    PolicyGenerator, Sensitivity,
};
pub use model::{
    AggregationSpec, AttributeRule, DpConfig, ModulePolicy, Policy, PolicyVersion, StreamSettings,
};
pub use parse::{parse_policy, policy_to_xml, FIG4_POLICY_XML};
pub use validate::{has_errors, validate_policy, Severity, ValidationIssue};
