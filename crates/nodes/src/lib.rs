//! # paradise-nodes
//!
//! The vertical node hierarchy of the PArADISE reproduction: capability
//! profiles for the four levels of paper Table 1 (cloud / PC / appliance
//! / sensor), processing nodes that enforce their capability boundary
//! when executing query fragments, a processing chain with traffic
//! accounting (for the Figure 3 data-reduction experiments), and seeded
//! simulators for every sensor of the MuSAMA Smart Appliance Lab.
//!
//! ```
//! use paradise_nodes::{ProcessingChain, SmartRoomSim};
//!
//! let mut chain = ProcessingChain::apartment();
//! let mut sim = SmartRoomSim::new(42);
//! chain.node_mut("motion-sensor").unwrap()
//!      .install_table("stream", sim.ubisense_positions(100));
//! assert_eq!(chain.nodes().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capability;
pub mod chain;
pub mod error;
pub mod node;
pub mod sensors;

pub use capability::{Capability, Level};
pub use chain::{ChainRun, Hop, ProcessingChain, Stage, StageReport, TrafficLog};
pub use error::{NodeError, NodeResult};
pub use node::{FragmentMeta, Node, NodeStats};
pub use sensors::{PersonState, SmartRoomConfig, SmartRoomSim};
