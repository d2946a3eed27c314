//! The metric registry and what a run prints.

use crate::load::Phase;
use crate::{stats, Ctx};
use fe_core::{ChebyshevSketch, FilterConfig, SketchArena};
use std::collections::BTreeMap;

/// `(name, unit)`.
pub type Metric = (&'static str, &'static str);

/// The metrics the driver bounds. Every workload reports both. The
/// latencies and rates a user waits for are `loadgen.*` and `churn.*`
/// below, without a bound: none of them repeats within a tenth from run
/// to run on the host this was written on (see the README).
pub const END_TO_END: [Metric; 2] = [("setup_s", "s"), ("rss_bytes_per_record", "B")];

/// What single layers do, from the traced pass. A workload reports 0
/// for a layer that is not on its request path.
pub const PER_LAYER: [Metric; 79] = [
    // The benchmark itself: the workload's primary operation as its
    // load phases saw it (each workload's definition is in the README).
    ("loadgen.p50_us", "us"),
    ("loadgen.ops_per_s", "1/s"),
    ("loadgen.p99_us", "us"),
    ("loadgen.p99_q", "ratio"),
    ("loadgen.samples", "count"),
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.attempted", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.shed", "count"),
    ("loadgen.failed_frac", "ratio"),
    ("loadgen.comparable", "count"),
    ("loadgen.untraced_p50_us", "us"),
    ("loadgen.traced_p50_us", "us"),
    ("loadgen.trace_overhead_frac", "ratio"),
    ("loadgen.budget_sum_us", "us"),
    ("loadgen.traced_requests", "count"),
    // What only `churn_durable` has.
    ("churn.write_p50_us", "us"),
    ("churn.write_ops_per_s", "1/s"),
    ("churn.recover_s", "s"),
    ("churn.disk_bytes_per_record", "B"),
    ("bigint.modpow_us", "us"),
    ("crypto.dsa_sign_us", "us"),
    ("crypto.dsa_verify_us", "us"),
    ("crypto.keypair_from_seed_us", "us"),
    ("crypto.extract_us", "us"),
    ("core.sketch.sketch_us", "us"),
    ("core.sketch.gen_us", "us"),
    ("core.sketch.rep_us", "us"),
    ("core.index.find_first_miss_us", "us"),
    ("core.index.find_first_hit_us", "us"),
    ("core.index.batch32_us_per_probe", "us"),
    ("core.index.rows_per_us", "1/us"),
    ("core.index.insert_us", "us"),
    ("core.index.remove_us", "us"),
    ("core.index.maintain_us", "us"),
    ("core.index.heap_bytes_per_record", "B"),
    ("core.index.segments", "count"),
    ("core.index.staging_rows", "count"),
    ("core.codec.record_encode_us", "us"),
    ("core.codec.record_decode_us", "us"),
    ("core.codec.record_bytes", "B"),
    ("protocol.device.probe_us", "us"),
    ("protocol.device.respond_us", "us"),
    ("protocol.device.respond_self_us", "us"),
    ("protocol.device.enroll_us", "us"),
    ("protocol.server.begin_self_us", "us"),
    ("protocol.server.finish_self_us", "us"),
    ("protocol.server.enroll_self_us", "us"),
    ("protocol.server.batch32_self_us_per_probe", "us"),
    ("protocol.scheduler.lone_self_us", "us"),
    ("protocol.scheduler.batch_mean", "count"),
    ("protocol.scheduler.queue_depth_p50", "count"),
    ("protocol.scheduler.latency_p50_us", "us"),
    ("protocol.scheduler.size_flushes", "count"),
    ("protocol.scheduler.deadline_flushes", "count"),
    ("protocol.scheduler.shed", "count"),
    ("protocol.store.append_us", "us"),
    ("protocol.store.journal_bytes_per_event", "B"),
    ("protocol.store.checkpoint_s", "s"),
    ("protocol.store.load_s", "s"),
    ("protocol.wire.encode_us", "us"),
    ("protocol.wire.decode_us", "us"),
    ("protocol.wire.identify_bytes", "B"),
    ("protocol.wire.challenge_bytes", "B"),
    ("net.codec.request_us", "us"),
    ("net.codec.response_us", "us"),
    ("net.codec.request_bytes", "B"),
    ("net.codec.response_bytes", "B"),
    ("net.server.identify_self_us", "us"),
    ("net.server.finish_self_us", "us"),
    ("net.server.connect_us", "us"),
    ("net.server.requests", "count"),
    ("net.server.responses_err", "count"),
    ("net.server.shed", "count"),
    // Spans of the traced login that the table above does not name,
    // so that the budget can be added up from this list alone.
    ("loadgen.login_self_us", "us"),
    ("core.sketch.rep_self_us", "us"),
    // The other phase's median on the two-phase workloads.
    ("loadgen.sat_p50_us", "us"),
    ("loadgen.batch_p50_us", "us"),
];

/// What the numbers were measured on: hardware threads, CPU model, OS
/// release, and the scan kernel and plane that `FilterKernel::Auto`
/// resolved to on the paper's ring.
fn host() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown", str::trim);
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let scheme = ChebyshevSketch::paper_defaults();
    let mut arena = SketchArena::with_filter(
        scheme.threshold(),
        scheme.line().interval_len(),
        FilterConfig::default(),
    );
    arena.push(&[0; crate::gen::DIM]);
    format!(
        "threads={threads} cpu=\"{cpu}\" os={} scan_kernel={} plane={}x{}",
        release.trim(),
        arena.filter_kernel(),
        arena.plane_width(),
        arena.plane_dims()
    )
}

/// Everything one run of one workload found.
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    shed: u64,
    /// False when the load generator itself got in the way (an
    /// open-loop sender ran late) or the run is a `--check`.
    pub comparable: bool,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(ctx: &Ctx) -> Report {
        let mut report = Report {
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            shed: 0,
            comparable: !ctx.check,
            notes: Vec::new(),
        };
        if ctx.check {
            report.note("--check run: a twentieth of the population, 2 s phases; not comparable");
        }
        report
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.0 == name),
            "{name} is not a registered metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.values.insert(name, value);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Counts a phase's attempts and failures into the run's totals.
    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed();
        self.shed += phase.shed;
    }

    /// Counts checks made outside any load phase.
    pub fn count_checks(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The `loadgen.*` readings: the median and tail of the primary
    /// latency population, and for an open-loop phase how late its
    /// sender ran. A sender whose median lateness exceeds a tenth of
    /// the median latency it was measuring makes the run not comparable.
    pub fn loadgen(&mut self, primary: &Phase, open: Option<&Phase>) {
        self.set("loadgen.p50_us", primary.p50_us());
        let (q, value) = stats::tail(&primary.latency_us);
        self.set("loadgen.p99_us", value);
        self.set("loadgen.p99_q", q);
        self.set("loadgen.samples", primary.latency_us.len() as f64);
        if let Some(open) = open {
            let late_p50 = stats::percentile(&open.late_us, 0.5);
            self.set("loadgen.late_p50_us", late_p50);
            self.set("loadgen.late_p99_us", stats::tail(&open.late_us).1);
            if late_p50 > open.p50_us() / 10.0 {
                self.comparable = false;
                self.note(format!(
                    "open-loop sender ran late: late_p50 {late_p50:.1} us against a phase p50 of \
                     {:.1} us; not comparable",
                    open.p50_us()
                ));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints every metric found, by name with its unit, then the notes,
    /// then the `comparable` stamp and the one JSON line the driver reads.
    pub fn print(mut self, ctx: &Ctx) {
        self.set("loadgen.attempted", self.attempted as f64);
        self.set("loadgen.failed", self.failed as f64);
        self.set("loadgen.shed", self.shed as f64);
        self.set(
            "loadgen.failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        self.set("loadgen.comparable", f64::from(u8::from(self.comparable)));

        println!(
            "# fe-benchmark workload={} seed={} seconds={} trace={} comparable={}",
            ctx.workload,
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
            self.comparable
        );
        println!("# host: {}", host());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            if let Some(value) = self.values.get(name) {
                println!("{name:<44} {value:>16.4} {unit}");
            }
        }
        for note in &self.notes {
            println!("# {note}");
        }

        let reported: &[Metric] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = reported
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(value) => *value,
                    None if ctx.trace => 0.0,
                    None => panic!("{} did not measure {name}", ctx.workload),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        // The driver's line has exactly four keys, so the stamp goes on
        // a line of its own just before it, on every run.
        println!("{{\"comparable\": {}}}", self.comparable);
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
