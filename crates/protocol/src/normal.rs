//! The "normal approach" baseline (Fig. 2): fuzzy-extractor
//! identification by exhaustive search.
//!
//! Without the sketch-matching trick, the server cannot tell which record
//! belongs to the presented user, so the device must attempt `Rep` with
//! every stored helper data until one succeeds, answering a per-record
//! challenge — `O(N)` heavy crypto per identification. This module
//! implements that protocol faithfully so Fig. 4 can be regenerated.
//!
//! The device's `Rec` pays the full n-coordinate pass per record, as the
//! paper's *measurements* (Python) did, rather than aborting at the
//! first out-of-threshold coordinate as its pseudocode does: that is
//! the cost profile Fig. 4 reproduces.

use crate::messages::{challenge_message, IdentOutcome};
use crate::params::SystemParams;
use crate::server::AuthenticationServer;
use crate::ProtocolError;
use fe_crypto::dsa::{DsaSignature, DsaVerifyingKey};
use fe_crypto::sig::SignatureScheme;
use rand::Rng;
use rand::RngCore;

/// Operation counters from one normal-approach identification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NormalStats {
    /// `Rep` executions attempted on the device.
    pub rep_attempts: usize,
    /// Signatures produced by the device.
    pub signatures: usize,
    /// Signature verifications performed by the server.
    pub verifications: usize,
}

/// The exhaustive-search identification protocol.
#[derive(Debug)]
pub struct NormalIdentification {
    params: SystemParams,
}

impl NormalIdentification {
    /// Creates the baseline protocol runner.
    pub fn new(params: SystemParams) -> Self {
        NormalIdentification { params }
    }

    /// Runs one full identification: the server hands the device every
    /// record's helper data with a per-record challenge (Fig. 2 sends
    /// `P_i, c_i` for `i = 1..n`); the device tries `Rep` on each until
    /// one reproduces a key whose signature the server accepts.
    ///
    /// Returns the outcome together with the operation counts that make
    /// the `O(N)` cost visible.
    ///
    /// # Errors
    /// Propagates server-side failures (never `NoMatch` — exhaustion is
    /// reported as `Rejected`).
    pub fn identify<R: RngCore + ?Sized, I: fe_core::SketchIndex>(
        &self,
        server: &AuthenticationServer<I>,
        bio: &[i64],
        rng: &mut R,
    ) -> Result<(IdentOutcome, NormalStats), ProtocolError> {
        let fe = self.params.fuzzy_extractor();
        let scheme = *self.params.sketch();
        let dsa = self.params.dsa();
        let mut stats = NormalStats::default();

        let mut challenge_err: Option<ProtocolError> = None;
        let identified = server.visit_records(|id, stored_key, helper| {
            // Device side: attempt Rep with this record's helper data.
            stats.rep_attempts += 1;
            let recovered = match scheme.recover_exhaustive(bio, &helper.sketch.inner) {
                Ok(r) => r,
                Err(_) => return None, // wrong record (or too noisy): next
            };
            // A tag that does not cover `w`, or a seed too short to
            // extract with: next.
            let Ok(key) = fe.reproduce_recovered(&recovered, helper) else {
                return None;
            };

            // Challenge-response for this record.
            let challenge: u64 = rng.gen();
            let nonce: u64 = rng.gen();
            let (sk, _vk) = dsa.keypair_from_seed(key.as_bytes());
            let msg = challenge_message(0, challenge, nonce);
            stats.signatures += 1;
            let signature = dsa.sign(&sk, &msg);
            // Server side: verify against the *stored* public key,
            // round-tripping the signature through its wire encoding.
            let sig_bytes = signature.to_bytes(self.params.dsa_params());
            let parsed = match DsaSignature::from_bytes(&sig_bytes, self.params.dsa_params()) {
                Some(p) => p,
                None => {
                    challenge_err = Some(ProtocolError::Malformed("signature length"));
                    return Some(IdentOutcome::Rejected);
                }
            };
            stats.verifications += 1;
            if dsa.verify(&DsaVerifyingKey::from_bytes(stored_key), &msg, &parsed) {
                Some(IdentOutcome::Identified(id.to_string()))
            } else {
                None
            }
        });
        if let Some(e) = challenge_err {
            return Err(e);
        }
        Ok((identified.unwrap_or(IdentOutcome::Rejected), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BiometricDevice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(users: usize) -> (AuthenticationServer, Vec<Vec<i64>>, StdRng) {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut server = AuthenticationServer::new(params.clone());
        let mut rng = StdRng::seed_from_u64(31_337 + users as u64);
        let mut bios = Vec::new();
        for u in 0..users {
            let bio = params.sketch().line().random_vector(32, &mut rng);
            server
                .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
                .unwrap();
            bios.push(bio);
        }
        (server, bios, rng)
    }

    #[test]
    fn identifies_each_user() {
        let (server, bios, mut rng) = setup(8);
        let normal = NormalIdentification::new(server.params().clone());
        for (u, bio) in bios.iter().enumerate() {
            let reading: Vec<i64> = bio.iter().map(|&x| x + 60).collect();
            let (outcome, stats) = normal.identify(&server, &reading, &mut rng).unwrap();
            assert_eq!(outcome.identity(), Some(format!("user-{u}").as_str()));
            // Found at position u+1 → exactly u+1 Rep attempts.
            assert_eq!(stats.rep_attempts, u + 1);
            assert_eq!(stats.signatures, 1);
        }
    }

    #[test]
    fn rep_attempts_grow_linearly() {
        // The last enrolled user pays N Rep attempts — the O(N) behaviour
        // behind Fig. 4's linear curve.
        let (server, bios, mut rng) = setup(12);
        let normal = NormalIdentification::new(server.params().clone());
        let reading: Vec<i64> = bios[11].iter().map(|&x| x - 30).collect();
        let (outcome, stats) = normal.identify(&server, &reading, &mut rng).unwrap();
        assert!(outcome.is_identified());
        assert_eq!(stats.rep_attempts, 12);
    }

    #[test]
    fn impostor_exhausts_and_rejects() {
        let (server, _bios, mut rng) = setup(6);
        let normal = NormalIdentification::new(server.params().clone());
        let stranger = server.params().sketch().line().random_vector(32, &mut rng);
        let (outcome, stats) = normal.identify(&server, &stranger, &mut rng).unwrap();
        assert_eq!(outcome, IdentOutcome::Rejected);
        assert_eq!(stats.rep_attempts, 6); // tried everyone
        assert_eq!(stats.signatures, 0);
    }

    /// A stored record whose extractor seed is too short to extract with
    /// is passed over like a wrong record, not a panic.
    #[test]
    fn a_record_with_a_short_seed_is_passed_over() {
        let params = SystemParams::insecure_test_defaults();
        let device = BiometricDevice::new(params.clone());
        let mut server = AuthenticationServer::new(params.clone());
        let mut rng = StdRng::seed_from_u64(31_338);
        let bio = params.sketch().line().random_vector(32, &mut rng);
        let mut record = device.enroll("short", &bio, &mut rng).unwrap();
        record.helper.seed.truncate(3);
        server.enroll(record).unwrap();
        let normal = NormalIdentification::new(params);
        let (outcome, stats) = normal.identify(&server, &bio, &mut rng).unwrap();
        assert_eq!(outcome, IdentOutcome::Rejected);
        assert_eq!((stats.rep_attempts, stats.signatures), (1, 0));
    }
}
