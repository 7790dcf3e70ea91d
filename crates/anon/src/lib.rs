//! # paradise-anon
//!
//! The anonymization subsystem of the PArADISE reproduction (paper §3.2
//! postprocessing): tuple-wise **k-anonymity** \[Sam01\] with generalization
//! hierarchies and Mondrian partitioning, column-wise **slicing**
//! \[LLZM12\], **quasi-identifier detection**, the information-loss metrics
//! the paper names (**Direct Distance**, **Kullback–Leibler divergence**)
//! plus the discernibility cost. Differential privacy is not here: the
//! runtime noises DP aggregates at the stage boundary
//! (`paradise_engine::apply_laplace`, planned by `paradise_core::dp`).
//!
//! ```
//! use paradise_anon::{mondrian, achieved_k};
//! use paradise_engine::{Frame, Schema, DataType, Value};
//!
//! let schema = Schema::from_pairs(&[("age", DataType::Integer)]);
//! let rows = (0..6).map(|i| vec![Value::Int(20 + i)]).collect();
//! let frame = Frame::new(schema, rows).unwrap();
//! let result = mondrian(&frame, &[0], 3).unwrap();
//! assert!(achieved_k(&result.frame, &[0]).unwrap().unwrap() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hierarchy;
pub mod kanon;
pub mod ldiv;
pub mod metrics;
pub mod qid;
pub mod tclose;
pub mod slicing;

pub use error::{AnonError, AnonResult};
pub use hierarchy::{Hierarchy, SUPPRESSED};
pub use kanon::{generalize_to_k, mondrian, GeneralizeConfig, KAnonResult};
pub use ldiv::{distinct_l, entropy_l, mondrian_l_diverse};
pub use tclose::t_closeness;
pub use metrics::{
    achieved_k, avg_class_size, direct_distance, direct_distance_ratio, discernibility,
    kl_divergence,
};
pub use qid::{combination_uniqueness, detect_qids, score_columns, ColumnScore, QidConfig, QidReport};
pub use slicing::{correlation_groups, pearson, slice, SlicingConfig, SlicingResult};
