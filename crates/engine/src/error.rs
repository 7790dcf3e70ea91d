//! Error type for query execution.

use std::fmt;

/// Anything that can go wrong while executing a query against the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The FROM clause names a relation the catalog does not know.
    UnknownTable(String),
    /// A column reference could not be resolved against the input schema.
    UnknownColumn(String),
    /// A column reference matches more than one input column.
    AmbiguousColumn(String),
    /// A function name the engine does not implement.
    UnknownFunction(String),
    /// Function called with the wrong number of arguments.
    WrongArity {
        /// Function name.
        function: String,
        /// Expected argument count (rendered, may be a range).
        expected: String,
        /// What was supplied.
        got: usize,
    },
    /// An operation was applied to incompatible value types.
    TypeMismatch(String),
    /// The query uses a construct the engine does not support.
    Unsupported(String),
    /// A table with this name already exists in the catalog.
    DuplicateTable(String),
    /// Row arity does not match the schema it is inserted under.
    SchemaMismatch {
        /// Expected column count.
        expected: usize,
        /// Supplied value count.
        got: usize,
    },
    /// `CAST` failed for a value.
    BadCast {
        /// Rendered source value.
        value: String,
        /// Target type name.
        target: String,
    },
    /// A compiled plan was executed against a catalog whose schemas no
    /// longer match the ones it was compiled for (see [`crate::plan`]).
    StalePlan,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(name) => write!(f, "unknown table or stream {name:?}"),
            EngineError::UnknownColumn(name) => write!(f, "unknown column {name:?}"),
            EngineError::AmbiguousColumn(name) => write!(f, "ambiguous column reference {name:?}"),
            EngineError::UnknownFunction(name) => write!(f, "unknown function {name:?}"),
            EngineError::WrongArity { function, expected, got } => {
                write!(f, "{function} expects {expected} argument(s), got {got}")
            }
            EngineError::TypeMismatch(msg) => write!(f, "type mismatch: {msg}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            EngineError::DuplicateTable(name) => write!(f, "table {name:?} already exists"),
            EngineError::SchemaMismatch { expected, got } => {
                write!(f, "row has {got} values but the schema has {expected} columns")
            }
            EngineError::BadCast { value, target } => {
                write!(f, "cannot cast {value} to {target}")
            }
            EngineError::StalePlan => {
                write!(f, "compiled plan is stale: the catalog schemas changed since compilation")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(EngineError::UnknownTable("d9".into()).to_string().contains("d9"));
        let e = EngineError::WrongArity { function: "AVG".into(), expected: "1".into(), got: 2 };
        assert_eq!(e.to_string(), "AVG expects 1 argument(s), got 2");
    }
}
