//! The trusted biometric device (`BioD`).

use crate::messages::{challenge_message, EnrollmentRecord, IdentChallenge, IdentResponse};
use crate::params::SystemParams;
use crate::ProtocolError;
use fe_core::SecureSketch;
use fe_crypto::sig::SignatureScheme;
use rand::Rng;
use rand::RngCore;

/// The biometric capture device. Holds only the public system
/// parameters; every secret it computes is used and dropped within a
/// single call, mirroring the paper's "erases `(ID, Bio, sk)`
/// immediately".
#[derive(Debug, Clone)]
pub struct BiometricDevice {
    params: SystemParams,
}

impl BiometricDevice {
    /// Creates a device from published system parameters.
    pub fn new(params: SystemParams) -> Self {
        BiometricDevice { params }
    }

    /// The system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Enrollment (Fig. 1): runs `Gen(Bio) → (R, P)`, derives the DSA key
    /// pair from `R`, and emits `(ID, pk, P)`. The secret key and
    /// biometric never leave this function.
    ///
    /// # Errors
    /// Propagates fuzzy-extractor failures.
    pub fn enroll<R: RngCore + ?Sized>(
        &self,
        id: &str,
        bio: &[i64],
        rng: &mut R,
    ) -> Result<EnrollmentRecord, ProtocolError> {
        let fe = self.params.fuzzy_extractor();
        let (key, helper) = fe.generate(bio, rng)?;
        let dsa = self.params.dsa();
        let (_sk, vk) = dsa.keypair_from_seed(key.as_bytes());
        Ok(EnrollmentRecord {
            id: id.to_string(),
            public_key: vk.to_bytes(self.params.dsa_params()),
            helper,
        })
        // key (and the transient sk) drop here — "erases (ID, Bio, sk)".
    }

    /// Identification step 1 (Fig. 3): computes a *fresh* sketch `s'` of
    /// the presented biometric. This is all the server needs to locate
    /// the record — no identity claim, no biometric.
    ///
    /// # Errors
    /// Propagates sketch failures.
    pub fn probe_sketch<R: RngCore + ?Sized>(
        &self,
        bio: &[i64],
        rng: &mut R,
    ) -> Result<Vec<i64>, ProtocolError> {
        Ok(self.params.sketch().sketch(bio, rng)?)
    }

    /// Identification step 2 (Fig. 3): given the server's challenge and
    /// helper data, recovers the signing key via `Rep` and signs
    /// `(c, a)` with a fresh nonce `a`.
    ///
    /// # Errors
    /// [`ProtocolError::Sketch`] when `Rep` fails (wrong helper data or a
    /// reading drifted beyond `t`).
    pub fn respond<R: RngCore + ?Sized>(
        &self,
        bio: &[i64],
        challenge: &IdentChallenge,
        rng: &mut R,
    ) -> Result<IdentResponse, ProtocolError> {
        let fe = self.params.fuzzy_extractor();
        let key = fe.reproduce(bio, &challenge.helper)?;
        let dsa = self.params.dsa();
        let (sk, _vk) = dsa.keypair_from_seed(key.as_bytes());
        let nonce: u64 = rng.gen();
        let msg = challenge_message(challenge.session, challenge.challenge, nonce);
        let signature = dsa.sign(&sk, &msg);
        Ok(IdentResponse {
            session: challenge.session,
            signature: signature.to_bytes(self.params.dsa_params()),
            nonce,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (BiometricDevice, StdRng) {
        (
            BiometricDevice::new(SystemParams::insecure_test_defaults()),
            StdRng::seed_from_u64(321),
        )
    }

    #[test]
    fn enrollment_produces_record() {
        let (device, mut rng) = setup();
        let bio = device.params().sketch().line().random_vector(32, &mut rng);
        let record = device.enroll("user-1", &bio, &mut rng).unwrap();
        assert_eq!(record.id, "user-1");
        assert!(!record.public_key.is_empty());
        assert_eq!(record.helper.sketch.inner.len(), 32);
    }

    #[test]
    fn same_bio_enrolls_with_fresh_randomness() {
        let (device, mut rng) = setup();
        let bio = device.params().sketch().line().random_vector(16, &mut rng);
        let r1 = device.enroll("u", &bio, &mut rng).unwrap();
        let r2 = device.enroll("u", &bio, &mut rng).unwrap();
        // Fresh extractor seed ⇒ different key ⇒ different public key.
        assert_ne!(r1.public_key, r2.public_key);
        assert_ne!(r1.helper.seed, r2.helper.seed);
    }

    #[test]
    fn probe_sketch_has_input_dimension() {
        let (device, mut rng) = setup();
        let bio = device.params().sketch().line().random_vector(20, &mut rng);
        let probe = device.probe_sketch(&bio, &mut rng).unwrap();
        assert_eq!(probe.len(), 20);
        let half = (device.params().sketch().line().interval_len() / 2) as i64;
        assert!(probe.iter().all(|&s| s.abs() <= half));
    }

    #[test]
    fn respond_fails_on_foreign_helper() {
        let (device, mut rng) = setup();
        let bio_a = device.params().sketch().line().random_vector(16, &mut rng);
        let bio_b = device.params().sketch().line().random_vector(16, &mut rng);
        let record = device.enroll("a", &bio_a, &mut rng).unwrap();
        let challenge = IdentChallenge {
            session: 1,
            helper: record.helper,
            challenge: 42,
        };
        assert!(device.respond(&bio_b, &challenge, &mut rng).is_err());
    }

    /// The helper arrives in the server's `CHALLENGE`: a coordinate of
    /// `i64::MIN`, whose `abs` overflows, is an error, not a panic.
    #[test]
    fn respond_refuses_an_i64_min_helper_coordinate() {
        let (device, mut rng) = setup();
        let bio = device.params().sketch().line().random_vector(16, &mut rng);
        let mut helper = device.enroll("a", &bio, &mut rng).unwrap().helper;
        helper.sketch.inner[3] = i64::MIN;
        let challenge = IdentChallenge {
            session: 1,
            helper,
            challenge: 42,
        };
        assert!(matches!(
            device.respond(&bio, &challenge, &mut rng),
            Err(ProtocolError::Sketch(fe_core::SketchError::BadParameters))
        ));
    }

    /// The extractor seed arrives in the `CHALLENGE` too: one shorter than
    /// the extractor's 32 bytes is an error, not a panic.
    #[test]
    fn respond_refuses_a_short_extractor_seed() {
        let (device, mut rng) = setup();
        let bio = device.params().sketch().line().random_vector(16, &mut rng);
        let mut helper = device.enroll("a", &bio, &mut rng).unwrap().helper;
        helper.seed.truncate(3);
        let challenge = IdentChallenge {
            session: 1,
            helper,
            challenge: 42,
        };
        assert!(matches!(
            device.respond(&bio, &challenge, &mut rng),
            Err(ProtocolError::Sketch(fe_core::SketchError::BadParameters))
        ));
    }
}
