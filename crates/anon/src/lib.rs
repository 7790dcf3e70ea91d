//! # paradise-anon
//!
//! The anonymization subsystem of the PArADISE reproduction (paper §3.2
//! postprocessing): tuple-wise **k-anonymity** \[Sam01\] by Mondrian
//! partitioning (with an **l-diverse** variant), column-wise **slicing**
//! \[LLZM12\], **quasi-identifier detection**, and the information-loss
//! metrics the paper names (**Direct Distance**, **Kullback–Leibler
//! divergence**). Differential privacy is not here: the
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
//! assert!(achieved_k(&result, &[0]).unwrap().unwrap() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod kanon;
pub mod ldiv;
pub mod metrics;
pub mod qid;
pub mod slicing;

pub use error::{AnonError, AnonResult};
pub use kanon::mondrian;
pub use ldiv::{distinct_l, mondrian_l_diverse};
pub use metrics::{achieved_k, direct_distance, direct_distance_ratio, kl_divergence};
pub use qid::{detect_qids, QidConfig, QidReport};
pub use slicing::{correlation_groups, slice, SlicingConfig, SlicingResult};
