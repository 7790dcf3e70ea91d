//! Anonymization errors.

use std::fmt;

/// Errors raised by anonymization algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum AnonError {
    /// The two frames compared by a metric differ in shape.
    ShapeMismatch {
        /// Rows × columns of the original.
        original: (usize, usize),
        /// Rows × columns of the anonymized version.
        anonymized: (usize, usize),
    },
    /// A referenced column index is out of range.
    BadColumn(usize),
    /// Parameters out of range (k = 0, ε ≤ 0, empty column group…).
    BadParameter(String),
    /// The requested guarantee cannot be met (e.g. fewer than k rows).
    Infeasible(String),
    /// A column that must be ordered (a Mondrian quasi-identifier)
    /// holds NaN, which has no order.
    NotANumber {
        /// The column's index.
        column: usize,
    },
}

impl fmt::Display for AnonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnonError::ShapeMismatch { original, anonymized } => write!(
                f,
                "shape mismatch: original is {}x{}, anonymized is {}x{}",
                original.0, original.1, anonymized.0, anonymized.1
            ),
            AnonError::BadColumn(i) => write!(f, "column index {i} out of range"),
            AnonError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
            AnonError::Infeasible(msg) => write!(f, "infeasible: {msg}"),
            AnonError::NotANumber { column } => {
                write!(f, "column {column} holds NaN, which cannot be ordered")
            }
        }
    }
}

impl std::error::Error for AnonError {}

/// Result alias.
pub type AnonResult<T> = Result<T, AnonError>;
