//! # paradise-policy
//!
//! Privacy-policy subsystem of the PArADISE reproduction: the PP4SE
//! policy model of paper Figure 4 (P3P-derived, with the paper's stream
//! extensions), a minimal XML reader/writer for the policy format and
//! a validator. Figure 2's automatic generation of privacy settings is
//! demonstrated by `examples/smart_meeting_room.rs`.
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
pub mod model;
pub mod parse;
pub mod validate;
pub mod xml;

pub use budget::EpsilonLedger;
pub use error::{PolicyError, PolicyResult};
pub use model::{
    AggregationSpec, AttributeRule, DpConfig, ModulePolicy, Policy, PolicyVersion, StreamSettings,
};
pub use parse::{figure4_policy, parse_policy, policy_to_xml, FIG4_POLICY_XML};
pub use validate::{has_errors, validate_policy, Severity, ValidationIssue};
