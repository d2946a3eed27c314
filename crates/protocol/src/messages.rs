//! Wire messages exchanged between the biometric device and the
//! authentication server.

use fe_core::HelperData;

/// User identity string (`ID` in the paper).
pub type UserId = String;

/// Challenge session identifier (one per in-flight identification or
/// verification; consumed on completion → replay protection).
pub type SessionId = u64;

/// The helper data layout on the wire: the robust Chebyshev sketch plus
/// extractor seed.
pub type WireHelper = HelperData;

/// Enrollment message (`BioD → AS` in Fig. 1): identity, DSA public key
/// bytes, helper data. The biometric and private key never leave the
/// device.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrollmentRecord {
    /// The user's claimed identity.
    pub id: UserId,
    /// Serialized DSA verification key `pk`.
    pub public_key: Vec<u8>,
    /// Public helper data `P = (s, h, r)`.
    pub helper: WireHelper,
}

/// Challenge message (`AS → BioD` in Fig. 3): the matched record's helper
/// data and a fresh random challenge.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentChallenge {
    /// Session handle to correlate the response.
    pub session: SessionId,
    /// Helper data of the matched record.
    pub helper: WireHelper,
    /// The random challenge `c`.
    pub challenge: u64,
}

/// Response message (`BioD → AS` in Fig. 3): a signature over
/// `(c, a)` plus the device nonce `a`.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentResponse {
    /// Session handle echoed from the challenge.
    pub session: SessionId,
    /// Serialized DSA signature over the challenge message.
    pub signature: Vec<u8>,
    /// The device's random nonce `a`.
    pub nonce: u64,
}

/// Result of an identification or verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdentOutcome {
    /// The user was identified / verified as `ID`.
    Identified(UserId),
    /// The run failed (`⊥`).
    Rejected,
}

impl IdentOutcome {
    /// The identity on success, `None` on rejection.
    pub fn identity(&self) -> Option<&str> {
        match self {
            IdentOutcome::Identified(id) => Some(id),
            IdentOutcome::Rejected => None,
        }
    }

    /// `true` when the user was identified.
    pub fn is_identified(&self) -> bool {
        matches!(self, IdentOutcome::Identified(_))
    }
}

/// The canonical byte encoding of the signed challenge message `(c, a)`.
///
/// Both sides must agree on this framing; domain separation keeps the
/// signature bound to this protocol.
pub fn challenge_message(session: SessionId, challenge: u64, nonce: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * 3 + 16);
    out.extend_from_slice(b"fe-ident-chal-v1");
    out.extend_from_slice(&session.to_be_bytes());
    out.extend_from_slice(&challenge.to_be_bytes());
    out.extend_from_slice(&nonce.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let ok = IdentOutcome::Identified("u1".into());
        assert!(ok.is_identified());
        assert_eq!(ok.identity(), Some("u1"));
        let no = IdentOutcome::Rejected;
        assert!(!no.is_identified());
        assert_eq!(no.identity(), None);
    }

    #[test]
    fn challenge_message_is_injective_in_fields() {
        let base = challenge_message(1, 2, 3);
        assert_ne!(base, challenge_message(9, 2, 3));
        assert_ne!(base, challenge_message(1, 9, 3));
        assert_ne!(base, challenge_message(1, 2, 9));
        assert_eq!(base, challenge_message(1, 2, 3));
    }

    #[test]
    fn challenge_message_domain_separated() {
        assert!(challenge_message(0, 0, 0).starts_with(b"fe-ident-chal-v1"));
    }
}
