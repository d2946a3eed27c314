//! Machine-readable smoke-bench reporting: `BENCH_SMOKE.json`.
//!
//! CI smoke-runs `storage_ablation` (`FE_BENCH_SMOKE=1`) on every pull
//! request, but its console output is write-only history — nobody
//! diffs it. [`record`] lets a bench put its headline numbers
//! into **`BENCH_SMOKE.json` at the repository root** (bench name →
//! metric map): it reads the report, replaces the one
//! section it was asked about and writes the file back, so every other
//! section stays byte for byte what is on disk — whichever subset of
//! benches ran, in whatever order. CI uploads the file as a workflow
//! artifact.
//!
//! Nothing reads a recorded value back: the host has two speeds, so a
//! time taken on another day says which speed that day had. What a
//! smoke run asserts are ratios between arms timed inside that run.
//!
//! Every section carries the run mode it was recorded under (`smoke`:
//! `1` = reduced CI sizes, `0` = full sweep) and the host's
//! `hw_threads`, so numbers from different modes or hosts are never
//! conflated.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// `true` when `FE_BENCH_SMOKE=1` (or any value) asks benches to run
/// their reduced, CI-sized sweeps.
pub fn smoke_mode() -> bool {
    std::env::var_os("FE_BENCH_SMOKE").is_some()
}

/// Where the report lives: `BENCH_SMOKE.json` at the repository root,
/// or under `FE_BENCH_SMOKE_OUT` when set (tests point this at a scratch
/// directory so unit runs never touch the real report).
fn report_path() -> PathBuf {
    let root = match std::env::var_os("FE_BENCH_SMOKE_OUT") {
        Some(out) => PathBuf::from(out),
        None => {
            let mut root = crate::experiments_dir();
            root.pop(); // target/experiments → target
            root.pop(); // target → repo root
            root
        }
    };
    root.join("BENCH_SMOKE.json")
}

/// Keys must stay valid JSON without escaping: keep them to
/// identifier-ish ASCII.
fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Formats a metric value: integers stay integral, everything else gets
/// three decimals; non-finite values (a degenerate measurement) are
/// recorded as `null`.
fn format_value(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Records one bench's headline metrics as its section of
/// `BENCH_SMOKE.json`, leaving every other section as it is on disk.
/// Returns the report's path.
///
/// # Panics
/// Panics on I/O errors — a perf record that silently fails to write
/// would defeat its purpose.
pub fn record(bench: &str, metrics: &[(&str, f64)]) -> PathBuf {
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = format!(
        "{{\n    \"smoke\": {},\n    \"hw_threads\": {hw_threads}",
        u8::from(smoke_mode())
    );
    for (key, value) in metrics {
        body.push_str(&format!(
            ",\n    \"{}\": {}",
            sanitize(key),
            format_value(*value)
        ));
    }
    body.push_str("\n  }");

    let path = report_path();
    // Sorted by bench name.
    let mut report: BTreeMap<String, String> =
        sections(&std::fs::read_to_string(&path).unwrap_or_default())
            .into_iter()
            .collect();
    report.insert(sanitize(bench), body);

    let entries: Vec<String> = report
        .iter()
        .map(|(name, body)| format!("  \"{name}\": {body}"))
        .collect();
    let out = format!("{{\n{}\n}}\n", entries.join(",\n"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the report's directory");
    }
    std::fs::write(&path, out).expect("write BENCH_SMOKE.json");
    path
}

/// The `(bench, body)` sections of a report, bodies verbatim (a body is
/// a flat `{ … }` map: the first `}` ends it).
fn sections(report: &str) -> Vec<(String, String)> {
    report
        .split("\n  \"")
        .skip(1)
        .filter_map(|piece| {
            let (name, rest) = piece.split_once("\": ")?;
            let body = &rest[..=rest.find('}')?];
            Some((name.to_string(), body.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `FE_BENCH_SMOKE_OUT` is process-wide: tests that point it at
    /// their scratch root take turns.
    static OUT_ENV: Mutex<()> = Mutex::new(());

    #[test]
    fn record_keeps_committed_sections_without_fragments() {
        let _turn = OUT_ENV.lock().unwrap_or_else(|p| p.into_inner());
        let scratch = std::env::temp_dir().join(format!("fe-smoke-keep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::env::set_var("FE_BENCH_SMOKE_OUT", &scratch);
        // A fresh checkout: a committed two-section report.
        let alpha = "{\n    \"smoke\": 1,\n    \"p50_us\": 42\n  }";
        let omega = "{\n    \"smoke\": 0,\n    \"rps\": 1234.568,\n    \"x\": null\n  }";
        let committed = format!("{{\n  \"alpha\": {alpha},\n  \"omega\": {omega}\n}}\n");
        std::fs::write(scratch.join("BENCH_SMOKE.json"), &committed).unwrap();

        let path = record("middle", &[("y", 7.0)]);
        let merged = std::fs::read_to_string(&path).unwrap();
        let found = sections(&merged);
        let names: Vec<&str> = found.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["alpha", "middle", "omega"], "{merged}");
        assert_eq!(found[0].1, alpha);
        assert_eq!(found[2].1, omega);
        // Re-recording a bench replaces its own section and nothing else.
        let path = record("alpha", &[("p50_us", 40.0)]);
        let merged = std::fs::read_to_string(&path).unwrap();
        assert!(merged.contains("\"p50_us\": 40"), "{merged}");
        assert!(!merged.contains("\"p50_us\": 42"), "{merged}");
        assert_eq!(sections(&merged)[2].1, omega);
        // `git checkout -- BENCH_SMOKE.json`, then another bench runs:
        // what is on disk wins over anything an earlier run recorded.
        std::fs::write(&path, &committed).unwrap();
        let path = record("middle", &[("y", 8.0)]);
        let merged = std::fs::read_to_string(&path).unwrap();
        assert_eq!(sections(&merged)[0].1, alpha, "{merged}");
        assert_eq!(sections(&merged)[2].1, omega);
        std::env::remove_var("FE_BENCH_SMOKE_OUT");
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn record_and_merge_roundtrip() {
        let _turn = OUT_ENV.lock().unwrap_or_else(|p| p.into_inner());
        // Redirect output to a scratch root: a unit-test run must never
        // rewrite the repository's real BENCH_SMOKE.json.
        let scratch = std::env::temp_dir().join(format!("fe-smoke-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::env::set_var("FE_BENCH_SMOKE_OUT", &scratch);
        let path = record(
            "unit-test-bench",
            &[("throughput_rps", 1234.5678), ("p50_us", 42.0)],
        );
        let merged = std::fs::read_to_string(&path).unwrap();
        assert!(merged.contains("\"unit-test-bench\""), "{merged}");
        assert!(merged.contains("\"throughput_rps\": 1234.568"), "{merged}");
        assert!(merged.contains("\"p50_us\": 42"), "{merged}");
        assert!(merged.contains("\"smoke\":"), "{merged}");
        // Well-formed enough for a JSON parser: balanced braces, no
        // trailing commas (spot-checks; the format is hand-rolled).
        assert_eq!(
            merged.matches('{').count(),
            merged.matches('}').count(),
            "{merged}"
        );
        assert!(!merged.contains(",\n}"), "{merged}");
        // A second bench merges alongside, idempotently.
        let path2 = record("unit-test-bench2", &[("x", f64::NAN)]);
        let merged2 = std::fs::read_to_string(&path2).unwrap();
        assert!(merged2.contains("\"unit-test-bench\""));
        assert!(merged2.contains("\"x\": null"));
        std::env::remove_var("FE_BENCH_SMOKE_OUT");
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
