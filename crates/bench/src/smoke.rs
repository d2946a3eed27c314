//! Machine-readable smoke-bench reporting: `BENCH_SMOKE.json`.
//!
//! CI smoke-runs the bench matrix (`FE_BENCH_SMOKE=1`) on every PR, but
//! criterion's console output is write-only history — nobody diffs it.
//! This module gives each bench a one-call way to record its headline
//! numbers as JSON so the perf trajectory is an artifact:
//!
//! * each bench calls [`record`] with `(metric, value)` pairs; the pairs
//!   are written to a per-bench fragment under
//!   `target/experiments/bench_smoke/`;
//! * after every write the fragments are merged into **`BENCH_SMOKE.json`
//!   at the repository root** (bench name → metric map), over the
//!   sections the file already holds, so it is complete no matter which
//!   subset of benches ran or in what order — on a fresh checkout, where
//!   the git-ignored fragment directory is empty, included;
//! * CI uploads the merged file as a workflow artifact.
//!
//! Values are recorded under whatever run mode was active; the `smoke`
//! key in every section says which (`1` = reduced CI sizes, `0` = full
//! sweep), so numbers from different modes are never conflated.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// `true` when `FE_BENCH_SMOKE=1` (or any value) asks benches to run
/// their reduced, CI-sized sweeps.
pub fn smoke_mode() -> bool {
    std::env::var_os("FE_BENCH_SMOKE").is_some()
}

/// Where the fragments and the merged report live: the repository by
/// default (`target/experiments/bench_smoke/` + `BENCH_SMOKE.json` at
/// the root), or under `FE_BENCH_SMOKE_OUT` when set (tests point this
/// at a scratch directory so unit runs never touch the real report).
fn report_root() -> (PathBuf, PathBuf) {
    if let Some(out) = std::env::var_os("FE_BENCH_SMOKE_OUT") {
        let root = PathBuf::from(out);
        (root.join("bench_smoke"), root.join("BENCH_SMOKE.json"))
    } else {
        let mut repo_root = crate::experiments_dir();
        repo_root.pop(); // target/experiments → target
        repo_root.pop(); // target → repo root
        (
            crate::experiments_dir().join("bench_smoke"),
            repo_root.join("BENCH_SMOKE.json"),
        )
    }
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

/// Records one bench's headline metrics and re-merges
/// `BENCH_SMOKE.json` at the repository root. Returns the merged file's
/// path.
///
/// # Panics
/// Panics on I/O errors — a perf record that silently fails to write
/// would defeat its purpose.
pub fn record(bench: &str, metrics: &[(&str, f64)]) -> PathBuf {
    let (dir, merged) = report_root();
    std::fs::create_dir_all(&dir).expect("create bench_smoke dir");

    let mut body = String::from("{\n");
    body.push_str(&format!(
        "    \"smoke\": {}",
        if smoke_mode() { 1 } else { 0 }
    ));
    for (key, value) in metrics {
        body.push_str(",\n");
        body.push_str(&format!(
            "    \"{}\": {}",
            sanitize(key),
            format_value(*value)
        ));
    }
    body.push_str("\n  }");
    std::fs::write(dir.join(format!("{}.json", sanitize(bench))), &body)
        .expect("write bench fragment");

    merge(&dir, merged)
}

/// Reads the previously recorded value of `bench.metric` from the
/// merged report — the committed `BENCH_SMOKE.json` at the repository
/// root, i.e. the fail-if-slower baseline for `FE_BENCH_GATE` checks.
///
/// Returns `None` when the file, section, or key is missing, when the
/// value is `null`, or when the section was recorded under a different
/// run mode than the current one (full-sweep and smoke numbers must
/// never be compared). Call this **before** [`record`] — recording
/// rewrites the report and clobbers the baseline.
pub fn baseline(bench: &str, metric: &str) -> Option<f64> {
    let (_, merged) = report_root();
    let text = std::fs::read_to_string(merged).ok()?;
    let header = format!("\"{}\": {{", sanitize(bench));
    let section = text.split(&header).nth(1)?;
    let section = &section[..section.find('}')?];
    let mode = section.split("\"smoke\": ").nth(1)?;
    let recorded_smoke = mode.trim_start().starts_with('1');
    if recorded_smoke != smoke_mode() {
        return None;
    }
    let value = section
        .split(&format!("\"{}\": ", sanitize(metric)))
        .nth(1)?;
    let end = value.find([',', '\n', '}']).unwrap_or(value.len());
    value[..end].trim().parse().ok()
}

/// The `(bench, body)` sections of a merged report, bodies verbatim
/// (a body is a flat `{ … }` map: the first `}` ends it).
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

/// Rebuilds the merged report: every fragment present, plus every
/// section of the existing report that no fragment replaces.
fn merge(dir: &PathBuf, path: PathBuf) -> PathBuf {
    let fragments = std::fs::read_dir(dir)
        .expect("read bench_smoke dir")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_stem()?.to_str()?.to_string();
            if path.extension()?.to_str()? != "json" {
                return None;
            }
            Some((name, std::fs::read_to_string(&path).ok()?))
        });
    // Sorted by bench name; a fragment replaces the section it names.
    let mut merged: BTreeMap<String, String> =
        sections(&std::fs::read_to_string(&path).unwrap_or_default())
            .into_iter()
            .collect();
    merged.extend(fragments);

    let mut out = String::from("{\n");
    for (i, (name, body)) in merged.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("  \"{name}\": {body}"));
    }
    out.push_str("\n}\n");
    std::fs::write(&path, out).expect("write BENCH_SMOKE.json");
    path
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
        // A fresh checkout: a committed two-section report, no fragments.
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
        // The baseline reader round-trips what record wrote (run modes
        // match: both sides of the round trip saw the same env).
        assert_eq!(baseline("unit-test-bench", "p50_us"), Some(42.0));
        assert_eq!(
            baseline("unit-test-bench", "throughput_rps"),
            Some(1234.568)
        );
        // Missing key, null value, missing bench: all `None`.
        assert_eq!(baseline("unit-test-bench", "nope"), None);
        assert_eq!(baseline("unit-test-bench2", "x"), None);
        assert_eq!(baseline("no-such-bench", "p50_us"), None);
        std::env::remove_var("FE_BENCH_SMOKE_OUT");
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
