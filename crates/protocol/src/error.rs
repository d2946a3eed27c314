//! Protocol error type.

use fe_core::codec::CodecError;
use fe_core::SketchError;
use std::error::Error;
use std::fmt;

/// Errors raised by the enrollment / identification / verification
/// protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The underlying sketch / fuzzy extractor failed.
    Sketch(SketchError),
    /// No enrolled record matches the presented sketch
    /// (the identification `⊥` outcome).
    NoMatch,
    /// More than one enrolled record matches the presented sketch — a
    /// reset requires exactly one (see
    /// [`AuthenticationServer::reset`](crate::AuthenticationServer::reset)).
    AmbiguousMatch,
    /// The user id is already enrolled.
    DuplicateUser(String),
    /// The presented *biometric* is already enrolled (under the carried
    /// user id): uniqueness-checked enrollment refused to create an
    /// unlinked duplicate (see
    /// [`AuthenticationServer::enroll_unique`](crate::AuthenticationServer::enroll_unique)).
    DuplicateBiometric(String),
    /// The claimed identity is not enrolled (verification mode).
    UnknownUser(String),
    /// The response referenced an expired or unknown challenge session
    /// (replay, or a session that was already consumed).
    UnknownSession,
    /// The signature in the response failed to verify.
    BadSignature,
    /// A message failed to deserialize.
    Malformed(&'static str),
    /// A durable artifact failed to decode (wrong format version,
    /// mismatched parameter fingerprint, corruption, …).
    Codec(CodecError),
    /// The enrollment store could not be read or written (I/O failures;
    /// carries the rendered `std::io::Error` so this type stays `Clone`).
    Storage(String),
    /// The request scheduler's admission queue is full: the request was
    /// shed instead of queued without bound. Clients should back off
    /// and retry — see [`crate::scheduler::ScheduledServer`].
    Overloaded,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Sketch(e) => write!(f, "sketch failure: {e}"),
            ProtocolError::NoMatch => write!(f, "no enrolled record matches the sketch"),
            ProtocolError::AmbiguousMatch => {
                write!(f, "more than one enrolled record matches the sketch")
            }
            ProtocolError::DuplicateUser(id) => write!(f, "user '{id}' already enrolled"),
            ProtocolError::DuplicateBiometric(id) => {
                write!(f, "biometric already enrolled as user '{id}'")
            }
            ProtocolError::UnknownUser(id) => write!(f, "user '{id}' is not enrolled"),
            ProtocolError::UnknownSession => write!(f, "unknown or expired challenge session"),
            ProtocolError::BadSignature => write!(f, "challenge response signature invalid"),
            ProtocolError::Malformed(what) => write!(f, "malformed message: {what}"),
            ProtocolError::Codec(e) => write!(f, "durable artifact failure: {e}"),
            ProtocolError::Storage(what) => write!(f, "enrollment store failure: {what}"),
            ProtocolError::Overloaded => {
                write!(f, "server overloaded: identification request shed")
            }
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtocolError::Sketch(e) => Some(e),
            ProtocolError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SketchError> for ProtocolError {
    fn from(e: SketchError) -> Self {
        ProtocolError::Sketch(e)
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ProtocolError::Sketch(SketchError::OutOfRange);
        assert!(e.to_string().contains("sketch failure"));
        assert!(e.source().is_some());
        assert!(ProtocolError::NoMatch.source().is_none());
        assert!(ProtocolError::DuplicateUser("bob".into())
            .to_string()
            .contains("bob"));
    }

    #[test]
    fn from_sketch_error() {
        let e: ProtocolError = SketchError::TagMismatch.into();
        assert_eq!(e, ProtocolError::Sketch(SketchError::TagMismatch));
    }
}
