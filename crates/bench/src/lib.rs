//! Shared harness code for the paper-reproduction benchmarks and the
//! `experiments` binary.
//!
//! The conventions:
//!
//! * every experiment gets a deterministic seed so runs are reproducible;
//! * populations are built with the paper's Table II parameters unless an
//!   experiment sweeps them;
//! * results can be dumped as CSV under `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod smoke;

use fe_protocol::{ProtocolRunner, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::PathBuf;

/// A ready-to-measure population: a protocol runner with `users` enrolled
/// and their enrolled biometrics (for generating genuine readings).
pub struct Population {
    /// The runner holding the enrolled server.
    pub runner: ProtocolRunner,
    /// Enrolled biometric templates, by user index.
    pub bios: Vec<Vec<i64>>,
    /// Deterministic RNG to continue drawing readings from.
    pub rng: StdRng,
    /// System parameters used.
    pub params: SystemParams,
}

impl Population {
    /// Builds a population of `users` enrolled users with `dim`-dimensional
    /// biometrics under the given parameters.
    pub fn build(params: SystemParams, users: usize, dim: usize, seed: u64) -> Population {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut runner = ProtocolRunner::new(params.clone());
        let mut bios = Vec::with_capacity(users);
        for u in 0..users {
            let bio = params.sketch().line().random_vector(dim, &mut rng);
            runner
                .enroll_user(&format!("user-{u}"), &bio, &mut rng)
                .expect("enrollment succeeds");
            bios.push(bio);
        }
        Population {
            runner,
            bios,
            rng,
            params,
        }
    }

    /// A genuine reading of user `u`: bounded-uniform noise within the
    /// acceptance threshold (the paper's performance-experiment model).
    pub fn genuine_reading(&mut self, u: usize) -> Vec<i64> {
        let t = self.params.sketch().threshold() as i64;
        let line = *self.params.sketch().line();
        self.bios[u]
            .iter()
            .map(|&x| line.wrap(x + self.rng.gen_range(-t..=t)))
            .collect()
    }

    /// An impostor reading: a fresh uniform vector.
    pub fn impostor_reading(&mut self) -> Vec<i64> {
        let dim = self.bios.first().map_or(0, |b| b.len());
        self.params
            .sketch()
            .line()
            .random_vector(dim, &mut self.rng)
    }
}

/// Where experiment CSVs are written (`target/experiments/`).
pub fn experiments_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // repo root
    dir.push("target");
    dir.push("experiments");
    dir
}

/// Writes a CSV file under `target/experiments/`, creating directories as
/// needed. Returns the full path.
///
/// # Panics
/// Panics on I/O errors — experiments should fail loudly.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    path
}

/// Times a closure, returning (result, seconds).
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times `iters ≥ 1` runs of a closure and returns the last result with
/// the **best** (minimum) duration in seconds — the noise-robust point
/// estimate smoke reports use on shared CI runners, where a single
/// sample can absorb a scheduler hiccup and flip a perf comparison.
pub fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(iters >= 1, "need at least one timing iteration");
    let (mut out, mut best) = time_it(&mut f);
    for _ in 1..iters {
        let (next, secs) = time_it(&mut f);
        out = next;
        best = best.min(secs);
    }
    (out, best)
}

/// Formats seconds as engineering-friendly milliseconds.
pub fn ms(seconds: f64) -> String {
    format!("{:8.3} ms", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_builds_and_identifies() {
        let params = SystemParams::insecure_test_defaults();
        let mut pop = Population::build(params, 3, 64, 42);
        let reading = pop.genuine_reading(2);
        let (outcome, _) = pop.runner.identify(&reading, &mut pop.rng).unwrap();
        assert_eq!(outcome.identity(), Some("user-2"));
    }

    #[test]
    fn impostor_reading_does_not_match() {
        let params = SystemParams::insecure_test_defaults();
        let mut pop = Population::build(params, 3, 64, 43);
        let reading = pop.impostor_reading();
        assert!(pop.runner.identify(&reading, &mut pop.rng).is_err());
    }

    #[test]
    fn csv_written() {
        let path = write_csv(
            "unit-test.csv",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        );
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn time_it_returns_value() {
        let (v, secs) = time_it(|| 7u32);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }
}
