//! Smoke-size self-test of the benchmark itself:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! * every workload runs and prints every metric `BENCHMARK.json`
//!   declares, in both modes;
//! * a perturbed reference output makes the run fail operations, and
//!   an error that ends a run early still prints its result line;
//! * a new seed changes the `server` trace and leaves `paper`'s tables
//!   as they were.

use lifepred_obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs the benchmark at smoke size; returns its stdout and the parsed
/// result line.
fn bench(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_lpbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .expect("run lpbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e:?} in {last}"));
    (stdout, result)
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = json::parse(&text).expect("parse BENCHMARK.json");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn failed(result: &Value) -> u64 {
    result
        .get("failed")
        .and_then(Value::as_u64)
        .expect("failed count")
}

/// The result line has exactly the four keys, and `metrics` holds
/// exactly the declared metrics with their units.
fn assert_prints_every_metric(workload: &str, trace: bool) {
    let (_, result) = bench(workload, 1, trace, &[]);
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {result:?}"
    );
    assert_eq!(failed(&result), 0, "{workload}");
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name}: no value"
            );
            (name.clone(), unit.to_owned())
        })
        .collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(printed, declared(section), "{workload} trace {trace}");
    if !trace {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
        }
    }
}

/// The `digest: <what> fnv64 <hex>` line a run prints.
fn digest(stdout: &str, what: &str) -> String {
    let prefix = format!("digest: {what} fnv64 ");
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .expect("digest line");
    line.split_whitespace().next().expect("digest").to_owned()
}

#[test]
fn server_sweep_native_print_every_metric() {
    for workload in ["server", "sweep", "native"] {
        assert_prints_every_metric(workload, false);
        assert_prints_every_metric(workload, true);
    }
}

#[test]
fn paper_prints_every_metric_and_fails_on_a_perturbed_reference() {
    assert_prints_every_metric("paper", true);
    let (plain, result) = bench("paper", 1, false, &[]);
    assert_eq!(failed(&result), 0);

    // The same tables against a reference with one character changed.
    let refs: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perturbed-ref");
    std::fs::create_dir_all(&refs).expect("mkdir");
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("ref");
    for entry in std::fs::read_dir(&src).expect("ref dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, refs.join(path.file_name().expect("name"))).expect("copy");
    }
    let tables = refs.join("tables.txt");
    let text = std::fs::read_to_string(&tables).expect("read");
    std::fs::write(&tables, text.replacen("CFRAC", "CFRAX", 1)).expect("write");
    let refs_arg = refs.to_str().expect("utf-8 path");
    let (perturbed, result) = bench("paper", 2, false, &["--ref-dir", refs_arg]);
    assert!(
        failed(&result) > 0,
        "a perturbed reference must fail ops: {result:?}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));

    // The seed does not change the paper's inputs.
    assert_eq!(
        digest(&plain, "paper_tables"),
        digest(&perturbed, "paper_tables")
    );
}

#[test]
fn seed_changes_the_server_trace() {
    let (one, _) = bench("server", 1, false, &[]);
    let (two, _) = bench("server", 2, false, &[]);
    let (again, _) = bench("server", 1, false, &[]);
    assert_ne!(digest(&one, "server_trace"), digest(&two, "server_trace"));
    assert_eq!(digest(&one, "server_trace"), digest(&again, "server_trace"));
}

#[test]
fn an_error_ends_the_run_with_a_failed_result_line() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-ref-dir");
    let missing = missing.to_str().expect("utf-8 path");
    let (stdout, result) = bench("native", 1, false, &["--ref-dir", missing]);
    assert!(failed(&result) > 0, "{result:?}");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(stdout.contains("failed: "), "{stdout}");
}
