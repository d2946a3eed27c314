//! End-to-end protocol orchestration with timing and operation counts —
//! the measurement harness behind the Fig. 4 and verification-cost
//! benches.

use crate::device::BiometricDevice;
use crate::messages::IdentOutcome;
use crate::normal::{NormalIdentification, NormalStats};
use crate::params::SystemParams;
use crate::server::AuthenticationServer;
use crate::ProtocolError;
use fe_core::EpochIndex;
use rand::RngCore;
use std::time::{Duration, Instant};

/// Timing and operation counts for one protocol execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentifyStats {
    /// Wall-clock time of the full round trip.
    pub elapsed: Duration,
    /// Device-side `Rep` executions.
    pub rep_attempts: usize,
    /// Signature operations (sign on device + verify on server).
    pub signature_ops: usize,
}

/// Drives complete protocol runs between one device and one
/// epoch-engine server.
#[derive(Debug)]
pub struct ProtocolRunner {
    device: BiometricDevice,
    server: AuthenticationServer<EpochIndex>,
}

impl ProtocolRunner {
    /// Creates a runner with a fresh epoch-engine server.
    pub fn new(params: SystemParams) -> Self {
        ProtocolRunner {
            device: BiometricDevice::new(params.clone()),
            server: AuthenticationServer::new(params),
        }
    }

    /// The device role.
    pub fn device(&self) -> &BiometricDevice {
        &self.device
    }

    /// The server role.
    pub fn server(&self) -> &AuthenticationServer<EpochIndex> {
        &self.server
    }

    /// Enrolls a user end to end (Fig. 1).
    ///
    /// # Errors
    /// Propagates device and server enrollment failures.
    pub fn enroll_user<R: RngCore + ?Sized>(
        &mut self,
        id: &str,
        bio: &[i64],
        rng: &mut R,
    ) -> Result<(), ProtocolError> {
        let record = self.device.enroll(id, bio, rng)?;
        self.server.enroll(record)
    }

    /// Runs the proposed identification protocol (Fig. 3), timed.
    ///
    /// # Errors
    /// [`ProtocolError::NoMatch`] when the sketch matches no record.
    pub fn identify<R: RngCore + ?Sized>(
        &mut self,
        bio: &[i64],
        rng: &mut R,
    ) -> Result<(IdentOutcome, IdentifyStats), ProtocolError> {
        let start = Instant::now();
        let probe = self.device.probe_sketch(bio, rng)?;
        let challenge = self.server.begin_identification(&probe, rng)?;
        let response = self.device.respond(bio, &challenge, rng)?;
        let outcome = self.server.finish_identification(&response)?;
        Ok((
            outcome,
            IdentifyStats {
                elapsed: start.elapsed(),
                rep_attempts: 1,
                signature_ops: 2, // one sign + one verify
            },
        ))
    }

    /// Runs the verification-mode protocol (claimed identity), timed.
    ///
    /// # Errors
    /// [`ProtocolError::UnknownUser`] for unenrolled claims; sketch
    /// errors when the reading is too noisy.
    pub fn verify<R: RngCore + ?Sized>(
        &mut self,
        claimed_id: &str,
        bio: &[i64],
        rng: &mut R,
    ) -> Result<(IdentOutcome, IdentifyStats), ProtocolError> {
        let start = Instant::now();
        let challenge = self.server.begin_verification(claimed_id, rng)?;
        let response = self.device.respond(bio, &challenge, rng)?;
        let outcome = self.server.finish_identification(&response)?;
        Ok((
            outcome,
            IdentifyStats {
                elapsed: start.elapsed(),
                rep_attempts: 1,
                signature_ops: 2,
            },
        ))
    }

    /// Runs the normal-approach baseline (Fig. 2), timed.
    ///
    /// # Errors
    /// Propagates protocol failures.
    pub fn identify_normal<R: RngCore + ?Sized>(
        &mut self,
        bio: &[i64],
        rng: &mut R,
    ) -> Result<(IdentOutcome, IdentifyStats, NormalStats), ProtocolError> {
        let normal = NormalIdentification::new(self.server.params().clone());
        let start = Instant::now();
        let (outcome, stats) = normal.identify(&self.server, bio, rng)?;
        Ok((
            outcome,
            IdentifyStats {
                elapsed: start.elapsed(),
                rep_attempts: stats.rep_attempts,
                signature_ops: stats.signatures + stats.verifications,
            },
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn runner_with_users(users: usize, dim: usize) -> (ProtocolRunner, Vec<Vec<i64>>, StdRng) {
        let params = SystemParams::insecure_test_defaults();
        let mut runner = ProtocolRunner::new(params.clone());
        let mut rng = StdRng::seed_from_u64(9_999);
        let mut bios = Vec::new();
        for u in 0..users {
            let bio = params.sketch().line().random_vector(dim, &mut rng);
            runner
                .enroll_user(&format!("user-{u}"), &bio, &mut rng)
                .unwrap();
            bios.push(bio);
        }
        (runner, bios, rng)
    }

    #[test]
    fn proposed_path_constant_ops() {
        let (mut runner, bios, mut rng) = runner_with_users(10, 32);
        for bio in &bios {
            let reading: Vec<i64> = bio
                .iter()
                .map(|&x| x + rng.gen_range(-90i64..=90))
                .collect();
            let (outcome, stats) = runner.identify(&reading, &mut rng).unwrap();
            assert!(outcome.is_identified());
            assert_eq!(stats.rep_attempts, 1);
            assert_eq!(stats.signature_ops, 2);
        }
    }

    #[test]
    fn normal_path_linear_ops() {
        let (mut runner, bios, mut rng) = runner_with_users(7, 32);
        let reading: Vec<i64> = bios[6].iter().map(|&x| x - 10).collect();
        let (outcome, stats, normal) = runner.identify_normal(&reading, &mut rng).unwrap();
        assert!(outcome.is_identified());
        assert_eq!(normal.rep_attempts, 7);
        assert!(stats.rep_attempts > 1);
    }

    #[test]
    fn verification_mode_works() {
        let (mut runner, bios, mut rng) = runner_with_users(4, 32);
        let reading: Vec<i64> = bios[2].iter().map(|&x| x + 15).collect();
        let (outcome, stats) = runner.verify("user-2", &reading, &mut rng).unwrap();
        assert_eq!(outcome.identity(), Some("user-2"));
        assert_eq!(stats.rep_attempts, 1);
    }

    #[test]
    fn proposed_and_normal_agree_on_identity() {
        let (mut runner, bios, mut rng) = runner_with_users(6, 24);
        for (u, bio) in bios.iter().enumerate() {
            let reading: Vec<i64> = bio.iter().map(|&x| x + 5).collect();
            let (o1, _) = runner.identify(&reading, &mut rng).unwrap();
            let (o2, _, _) = runner.identify_normal(&reading, &mut rng).unwrap();
            assert_eq!(o1, o2);
            assert_eq!(o1.identity(), Some(format!("user-{u}").as_str()));
        }
    }
}
