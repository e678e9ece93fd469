//! A short run of every workload, untraced and traced, against a freshly
//! built `ufilter` server: each must exit 0 with zero failures and report
//! exactly the metrics `BENCHMARK.json` names, each with its unit.
//!
//! Run from the repository root with
//! `cargo test --release --manifest-path ufbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("ufbench sits in the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("string value") + 1;
                let close = open + rest[open..].find('"').expect("closed string");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn server_bin() -> PathBuf {
    let target = root().join(".bench_build").join("selftest");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "--bin", "ufilter", "--manifest-path"])
        .arg(root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "server build failed");
    target.join("release").join("ufilter")
}

#[test]
fn every_workload_reports_its_declared_metrics_with_zero_failures() {
    let server = server_bin();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for workload in ["check-open", "fanout-batch", "churn"] {
            let out = Command::new(env!("CARGO_BIN_EXE_ufbench"))
                .arg("--server-bin")
                .arg(&server)
                .args(["--workload", workload, "--seed", "3", "--seconds", "2", "--trace", trace])
                .current_dir(root())
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, "), "{workload}: {last}");
            assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
            for (name, unit) in &want {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at =
                    last.find(&entry).unwrap_or_else(|| panic!("{workload}: no {name} in {last}"));
                let rest = &last[at + entry.len()..];
                assert!(rest.contains(&format!("\"unit\": \"{unit}\"")), "{workload}: {name} unit");
            }
            assert_eq!(last.matches("\"value\"").count(), want.len(), "{workload}: extra metrics");
        }
    }
}
