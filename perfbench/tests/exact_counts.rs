//! The traced run's exact counts repeat bit for bit for a fixed seed.
//! Run from this directory with `cargo test --release`.

use std::process::Command;

use serde_json::Value;

/// The exact-count metrics of one short traced run, values as JSON text.
fn exact_counts(workload: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench-traced"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .output()
        .expect("the traced binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(line).expect("a JSON result");
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics in {line}");
    };
    metrics
        .iter()
        .filter(|(_, m)| m.get("exact") == Some(&Value::Bool(true)))
        .map(|(name, m)| {
            let value = serde_json::to_string(&m["value"]).expect("a value serializes");
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for workload in ["req_dense", "req_sparse", "pref_churn", "capture_firehose"] {
        let first = exact_counts(workload);
        assert!(first.len() > 20, "{workload}: {first:?}");
        assert_eq!(first, exact_counts(workload), "{workload}");
    }
}
