//! Error type shared by all tensor-format constructors and converters.

use std::fmt;

/// Result alias used across `capstan-tensor`.
pub(crate) type Result<T> = std::result::Result<T, FormatError>;

/// Error returned when constructing or converting a tensor format fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// A coordinate lies outside the tensor's dimensions.
    IndexOutOfBounds {
        /// Axis on which the violation occurred (0 = row, 1 = column).
        axis: usize,
        /// The offending index.
        index: usize,
        /// The axis extent.
        extent: usize,
    },
    /// Compressed pointer arrays are malformed (not monotone, wrong length).
    MalformedPointers {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// Two containers that must agree in length do not.
    LengthMismatch {
        /// What was expected.
        expected: usize,
        /// What was found.
        found: usize,
    },
    /// Input text could not be parsed (Matrix Market loader).
    Parse {
        /// Line number (1-based) where parsing failed.
        line: usize,
        /// Description of the problem.
        detail: String,
    },
    /// The requested capacity exceeds what the format can encode.
    CapacityExceeded {
        /// Requested logical length.
        requested: usize,
        /// Maximum the format supports.
        max: usize,
    },
    /// A value is NaN or infinite — such values would silently poison
    /// duplicate summation and every downstream format conversion.
    NonFiniteValue {
        /// Row coordinate of the offending triplet.
        row: usize,
        /// Column coordinate of the offending triplet.
        col: usize,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::IndexOutOfBounds {
                axis,
                index,
                extent,
            } => {
                write!(
                    f,
                    "index {index} out of bounds on axis {axis} (extent {extent})"
                )
            }
            FormatError::MalformedPointers { detail } => {
                write!(f, "malformed compressed pointers: {detail}")
            }
            FormatError::LengthMismatch { expected, found } => {
                write!(f, "length mismatch: expected {expected}, found {found}")
            }
            FormatError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            FormatError::CapacityExceeded { requested, max } => {
                write!(
                    f,
                    "requested capacity {requested} exceeds format maximum {max}"
                )
            }
            FormatError::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for FormatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            FormatError::IndexOutOfBounds {
                axis: 0,
                index: 5,
                extent: 3,
            },
            FormatError::MalformedPointers {
                detail: "not monotone".into(),
            },
            FormatError::LengthMismatch {
                expected: 4,
                found: 2,
            },
            FormatError::Parse {
                line: 3,
                detail: "bad float".into(),
            },
            FormatError::CapacityExceeded {
                requested: 1 << 20,
                max: 262_144,
            },
            FormatError::NonFiniteValue { row: 1, col: 2 },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FormatError>();
    }
}
