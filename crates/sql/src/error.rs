//! Error types for lexing and parsing SQL.

use std::fmt;

/// Byte offset + human 1-based line/column of an error site in the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Byte offset into the source string.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters).
    pub column: u32,
}

impl Location {
    /// Location of the very first character.
    pub const START: Location = Location { offset: 0, line: 1, column: 1 };
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// An error produced while tokenizing or parsing a query string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Where it went wrong.
    pub location: Location,
}

/// The category of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A character that can never begin a token.
    UnexpectedChar(char),
    /// A string literal without a closing quote.
    UnterminatedString,
    /// A quoted identifier without a closing quote.
    UnterminatedIdentifier,
    /// A numeric literal that could not be interpreted.
    InvalidNumber(String),
    /// The parser met a token it did not expect.
    UnexpectedToken {
        /// Token actually found (rendered).
        found: String,
        /// What the parser was looking for.
        expected: String,
    },
    /// Input ended while the parser still expected something.
    UnexpectedEof {
        /// What the parser was looking for.
        expected: String,
    },
    /// Structurally valid but semantically rejected constructs
    /// (e.g. `LIMIT` with a negative count).
    Semantic(String),
    /// The input nests deeper than the parser's limit (the payload).
    TooDeep(usize),
}

impl ParseError {
    pub(crate) fn new(kind: ParseErrorKind, location: Location) -> Self {
        ParseError { kind, location }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::UnexpectedChar(c) => {
                write!(f, "unexpected character {c:?} at {}", self.location)
            }
            ParseErrorKind::UnterminatedString => {
                write!(f, "unterminated string literal starting at {}", self.location)
            }
            ParseErrorKind::UnterminatedIdentifier => {
                write!(f, "unterminated quoted identifier starting at {}", self.location)
            }
            ParseErrorKind::InvalidNumber(s) => {
                write!(f, "invalid numeric literal {s:?} at {}", self.location)
            }
            ParseErrorKind::UnexpectedToken { found, expected } => {
                write!(f, "expected {expected}, found {found} at {}", self.location)
            }
            ParseErrorKind::UnexpectedEof { expected } => {
                write!(f, "expected {expected}, found end of input at {}", self.location)
            }
            ParseErrorKind::Semantic(msg) => write!(f, "{msg} at {}", self.location),
            ParseErrorKind::TooDeep(limit) => {
                write!(f, "nesting deeper than {limit} levels at {}", self.location)
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Convenient result alias used throughout the crate.
pub type ParseResult<T> = Result<T, ParseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_displays_line_and_column() {
        let loc = Location { offset: 10, line: 2, column: 5 };
        assert_eq!(loc.to_string(), "line 2, column 5");
    }

    #[test]
    fn error_display_unexpected_token() {
        let err = ParseError::new(
            ParseErrorKind::UnexpectedToken { found: "','".into(), expected: "expression".into() },
            Location::START,
        );
        assert_eq!(err.to_string(), "expected expression, found ',' at line 1, column 1");
    }

    #[test]
    fn error_display_eof() {
        let err = ParseError::new(
            ParseErrorKind::UnexpectedEof { expected: "FROM".into() },
            Location { offset: 3, line: 1, column: 4 },
        );
        assert!(err.to_string().contains("end of input"));
    }
}
