//! The error type of weight (de)serialization.

use std::fmt;

/// Any error produced by this crate.
#[derive(Debug)]
pub enum TensorError {
    /// Weight (de)serialization failed.
    Io(std::io::Error),
    /// A serialized tensor file was malformed.
    Corrupt(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::Io(e) => write!(f, "io error: {e}"),
            TensorError::Corrupt(msg) => write!(f, "corrupt tensor file: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TensorError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TensorError {
    fn from(e: std::io::Error) -> Self {
        TensorError::Io(e)
    }
}
