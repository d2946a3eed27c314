//! `fe-benchmark`: the seeded benchmark every performance claim about
//! this repository is measured with. See `README.md` in the package
//! directory for the workloads, the metrics and how they interact.
//!
//! ```text
//! fe-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//! fe-benchmark --check [--seed <u64>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics of the
//! untraced run, or with `--trace 1` the per-layer metrics of the
//! traced pass; the line before it is `{"comparable": true|false}`.
//! The process exits non-zero when any answer was wrong.

mod churn_durable;
mod gen;
mod identify_wire;
mod layers;
mod load;
mod login_wire;
mod onion;
mod report;
mod scan_inproc;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// One run's settings.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Measured seconds of the whole run; each workload splits it
    /// between its phases.
    pub seconds: f64,
    pub trace: bool,
    /// How many times an untraced run of this workload sets the system
    /// up; `setup_s` is the median.
    pub full_setups: usize,
    /// `--check`: a twentieth of the population and 2 s phases, to prove
    /// the harness runs and the checks fire. Never used for numbers.
    pub check: bool,
}

/// Measured seconds of a run unless `--seconds` says otherwise; the
/// value `BENCHMARK.json` passes.
const DEFAULT_SECONDS: f64 = 16.0;
/// A `--check` run measures this long, which is two 2 s phases.
const CHECK_SECONDS: f64 = 4.0;
const CHECK_POPULATION_DIVISOR: usize = 20;

impl Ctx {
    /// The population actually enrolled for a nominal `n`.
    pub fn population(&self, n: usize) -> usize {
        if self.check {
            n / CHECK_POPULATION_DIVISOR
        } else {
            n
        }
    }

    /// How many times the system is set up (see `onion::set_up`); once
    /// when the run is traced or a `--check`.
    pub fn setups(&self) -> usize {
        if self.trace || self.check {
            1
        } else {
            self.full_setups
        }
    }

    /// `share` of the run's measured seconds.
    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Where the run may write: `fe-benchmark/` under the build
    /// directory, which the checkout's `.gitignore` names.
    pub fn out_dir(&self) -> PathBuf {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let dir = target.join("fe-benchmark");
        std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
        dir
    }
}

type Workload = fn(&Ctx) -> Report;

/// The workloads, by the names later issues cite, and how many times
/// an untraced run of each sets the system up before it measures the
/// last one built. A set-up of `scan_inproc` builds a million records,
/// so it gets fewer.
const WORKLOADS: [(&str, Workload, usize); 4] = [
    ("login_wire", login_wire::run, 5),
    ("identify_wire", identify_wire::run, 5),
    ("scan_inproc", scan_inproc::run, 3),
    ("churn_durable", churn_durable::run, 5),
];

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!(
        "usage: fe-benchmark --workload <{}> --seed <u64> [--seconds <n>] [--trace 0|1]\n\
         \x20      fe-benchmark --check [--seed <u64>]",
        names.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--check" => args.check = true,
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(name) = &args.workload else {
        if !args.check {
            usage();
        }
        // `--check` alone: every workload, each in a process of its own,
        // because resident memory is measured as growth and a heap that
        // an earlier workload freed into would hide it.
        let exe = std::env::current_exe().expect("the path of this executable");
        let mut all_correct = true;
        for (name, ..) in WORKLOADS {
            let status = std::process::Command::new(&exe)
                .args(["--check", "--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .status()
                .expect("run one workload's check");
            all_correct &= status.success();
        }
        std::process::exit(i32::from(!all_correct));
    };
    let found = WORKLOADS.iter().find(|w| w.0 == name);
    let (name, run, full_setups) = *found.unwrap_or_else(|| usage());
    let ctx = Ctx {
        workload: name,
        full_setups,
        seed: args.seed,
        seconds: if args.check {
            CHECK_SECONDS
        } else {
            args.seconds
        },
        trace: args.trace,
        check: args.check,
    };
    let report = run(&ctx);
    let correct = report.correct();
    report.print(&ctx);
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_plain_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let metrics = report::END_TO_END.iter().chain(&report::PER_LAYER);
        for name in WORKLOADS.iter().map(|w| w.0).chain(metrics.map(|m| m.0)) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "bad name {name:?}"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in report::END_TO_END
            .iter()
            .chain(&report::PER_LAYER)
            .map(|m| m.1)
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        assert!(report::PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; the registry is what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_names_the_registry() {
        let json = include_str!("../../../../../../BENCHMARK.json");
        let names = WORKLOADS.iter().map(|w| w.0.to_string());
        let metrics = report::END_TO_END
            .iter()
            .chain(&report::PER_LAYER)
            .map(|m| format!("{}\", \"unit\": \"{}", m.0, m.1));
        let mut count = 0;
        for needle in names.chain(metrics) {
            assert!(
                json.contains(&format!("{{\"name\": \"{needle}\"")),
                "BENCHMARK.json lacks {needle}"
            );
            count += 1;
        }
        assert_eq!(json.matches("{\"name\": ").count(), count);
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    /// A package outside the workspace does not inherit the root's
    /// profiles; the copy in this package's manifest must not drift.
    #[test]
    fn release_profile_is_the_roots() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|line| *line != "[profile.release]")
                .skip(1)
                .take_while(|line| !line.starts_with('['))
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .collect()
        }
        let own = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../../../../../Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, root);
    }
}
