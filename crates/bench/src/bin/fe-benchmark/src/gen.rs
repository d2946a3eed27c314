//! Seeded inputs: the enrolled population and the probes sent at it.
//!
//! Everything random in a run — biometrics, sketches, noise, the
//! scheduler's challenge seed, device nonces — comes from [`stream`]s
//! of the one `--seed`; the server only ever receives generated inputs.

use fe_core::SecureSketch;
use fe_protocol::{BiometricDevice, EnrollmentRecord, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Biometric dimension of every workload.
pub const DIM: usize = 64;
/// Users enrolled through `BiometricDevice::enroll` with real keys;
/// only these can be logged in as.
pub const GENUINE_USERS: usize = 256;
/// Genuine readings move each coordinate by at most this much
/// (the acceptance threshold is 100).
pub const GENUINE_NOISE: i64 = 80;
/// Records are generated and enrolled this many at a time, so the
/// generator never holds the population.
pub const BLOCK: usize = 5_000;

/// Independent random streams of one run.
#[derive(Clone, Copy)]
pub enum Stream {
    Population = 1,
    /// Probes and readings; one lane per load thread.
    Probes = 2,
    /// `SchedulerConfig::rng_seed`.
    Scheduler = 3,
    /// Device nonces; one lane per load thread.
    Device = 4,
    /// Records enrolled during the measured phases.
    Churn = 5,
    /// Inputs of the layers timed on their own.
    Layers = 6,
    /// Challenges drawn by in-process `SharedServer` calls.
    Server = 7,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of lane `lane` of one stream, mixed so that nearby seeds,
/// streams and lanes share nothing.
pub fn stream_seed(seed: u64, stream: Stream, lane: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ stream as u64) ^ lane)
}

pub fn stream(seed: u64, stream: Stream, lane: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, stream, lane))
}

/// One user the benchmark can impersonate: the biometric stays with the
/// generator, the record is what the server was given.
pub struct Genuine {
    pub id: String,
    pub bio: Vec<i64>,
    pub record: EnrollmentRecord,
}

/// The part of the population the generator keeps after set-up.
pub struct Population {
    pub params: SystemParams,
    pub genuine: Vec<Genuine>,
    /// The record whose key bytes and extractor seed every synthesized
    /// record carries.
    pub donor: EnrollmentRecord,
    /// How many records were handed to `enroll`.
    pub records: usize,
}

impl Population {
    /// Synthesizes `n` records plus [`GENUINE_USERS`] real enrollments
    /// spaced evenly through the enrollment order, handing each to
    /// `enroll` in that order. Synthesized records carry real Chebyshev
    /// sketches and one donor's key bytes: no server path runs
    /// per-record asymmetric crypto before a login, so only users that
    /// log in need keys of their own.
    pub fn build(
        params: &SystemParams,
        n: usize,
        seed: u64,
        mut enroll: impl FnMut(EnrollmentRecord),
    ) -> Population {
        let mut rng = stream(seed, Stream::Population, 0);
        let device = BiometricDevice::new(params.clone());
        let scheme = *params.sketch();
        let donor_bio = scheme.line().random_vector(DIM, &mut rng);
        let donor = device
            .enroll("donor", &donor_bio, &mut rng)
            .expect("donor enrollment");

        // Genuine user g goes in after `stride * g + stride / 2`
        // synthesized records: hit depth is uniform over the population.
        let stride = (n / GENUINE_USERS).max(1);
        let mut genuine = Vec::with_capacity(GENUINE_USERS);
        let mut records = 0;
        let mut chunk: Vec<EnrollmentRecord> = Vec::with_capacity(BLOCK);
        let mut synthesized = 0;
        while synthesized < n || genuine.len() < GENUINE_USERS {
            chunk.clear();
            while chunk.len() < BLOCK && (synthesized < n || genuine.len() < GENUINE_USERS) {
                let due = stride * genuine.len() + stride / 2;
                if genuine.len() < GENUINE_USERS && synthesized >= due.min(n) {
                    let id = format!("genuine-{}", genuine.len());
                    let bio = scheme.line().random_vector(DIM, &mut rng);
                    let record = device
                        .enroll(&id, &bio, &mut rng)
                        .expect("genuine enrollment");
                    chunk.push(record.clone());
                    genuine.push(Genuine { id, bio, record });
                } else {
                    chunk.push(synth_record(
                        &scheme,
                        &donor,
                        format!("user-{synthesized}"),
                        &mut rng,
                    ));
                    synthesized += 1;
                }
            }
            records += chunk.len();
            for record in chunk.drain(..) {
                enroll(record);
            }
        }
        Population {
            params: params.clone(),
            genuine,
            donor,
            records,
        }
    }

    /// A fresh noisy reading of genuine user `g`.
    pub fn genuine_reading(&self, g: usize, rng: &mut StdRng) -> Vec<i64> {
        let line = self.params.sketch().line();
        self.genuine[g]
            .bio
            .iter()
            .map(|&x| line.wrap(x + rng.gen_range(-GENUINE_NOISE..=GENUINE_NOISE)))
            .collect()
    }

    /// The probe sketch of a fresh noisy reading of genuine user `g`.
    pub fn genuine_probe(&self, g: usize, rng: &mut StdRng) -> Vec<i64> {
        let reading = self.genuine_reading(g, rng);
        self.params
            .sketch()
            .sketch(&reading, rng)
            .expect("probe sketch")
    }

    /// One more record like the synthesized part of the population.
    pub fn synth_record(&self, id: String, rng: &mut StdRng) -> EnrollmentRecord {
        synth_record(self.params.sketch(), &self.donor, id, rng)
    }

    /// The probe sketch of a biometric nobody enrolled.
    pub fn impostor_probe(&self, rng: &mut StdRng) -> Vec<i64> {
        let scheme = self.params.sketch();
        let stranger = scheme.line().random_vector(DIM, rng);
        scheme.sketch(&stranger, rng).expect("probe sketch")
    }

    /// `count` probes, one in `genuine_every` of them genuine (0 = none),
    /// each with the index of the genuine user it must resolve to.
    pub fn probe_mix(&self, count: usize, genuine_every: usize, rng: &mut StdRng) -> Vec<Probe> {
        (0..count)
            .map(|i| {
                if genuine_every != 0 && i % genuine_every == genuine_every - 1 {
                    let g = rng.gen_range(0..self.genuine.len());
                    Probe {
                        sketch: self.genuine_probe(g, rng),
                        expect: Some(g),
                    }
                } else {
                    Probe {
                        sketch: self.impostor_probe(rng),
                        expect: None,
                    }
                }
            })
            .collect()
    }
}

/// One identification request and the answer that is correct for it.
#[derive(Clone)]
pub struct Probe {
    pub sketch: Vec<i64>,
    /// Index into [`Population::genuine`], or `None` for an impostor.
    pub expect: Option<usize>,
}

/// A record nobody will log in as: a real sketch of a fresh uniform
/// biometric under the donor's key bytes and extractor seed.
fn synth_record(
    scheme: &fe_core::ChebyshevSketch,
    donor: &EnrollmentRecord,
    id: String,
    rng: &mut StdRng,
) -> EnrollmentRecord {
    let bio = scheme.line().random_vector(DIM, rng);
    let mut helper = donor.helper.clone();
    helper.sketch.inner = scheme.sketch(&bio, rng).expect("synth sketch");
    rng.fill_bytes(&mut helper.sketch.tag);
    EnrollmentRecord {
        id,
        public_key: donor.public_key.clone(),
        helper,
    }
}
