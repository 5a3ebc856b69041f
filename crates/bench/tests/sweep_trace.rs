//! End-to-end tests of `sweep --trace N`, the debug lens that renders the
//! first run's event log to stderr. It rides on the same telemetry hook as
//! `--trace-out` and `--bench-engine` (`observe_first_run`), so these pin
//! what the flag prints through the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("airdnd-trace-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("can create temp dir");
    dir
}

/// Runs `sweep --quick --trace <capacity> <names>` with a private `--out`
/// directory and returns its output after asserting exit 0.
fn trace(tag: &str, capacity: &str, names: &[&str]) -> Output {
    let out = temp_dir(tag);
    let output = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--quick", "--trace", capacity, "--out"])
        .arg(&out)
        .args(names)
        .output()
        .expect("sweep binary runs");
    let _ = std::fs::remove_dir_all(&out);
    assert!(
        output.status.success(),
        "sweep --trace failed: {}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// The category label of one rendered event line
/// (`[t=0.106172s] actor#1 mesh: node#1 joined` → `mesh:`).
fn category(line: &str) -> Option<&str> {
    if !line.starts_with("[t=") {
        return None;
    }
    line.split_whitespace().nth(2)
}

#[test]
fn trace_renders_the_first_g3_run_to_stderr() {
    let output = trace("g3", "4000", &["g3"]);
    assert!(output.stdout.is_empty(), "--trace writes nothing to stdout");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(
        stderr.starts_with("[g3] trace of run 0 (4000 entry cap):\n"),
        "stderr opens with the trace header:\n{}",
        &stderr[..stderr.len().min(200)]
    );
    let categories: Vec<&str> = stderr.lines().filter_map(category).collect();
    for wanted in ["wire:", "lifecycle:"] {
        assert!(
            categories.contains(&wanted),
            "g3's heavy-churn first run must render `{wanted}` events"
        );
    }
}

/// Market workloads trace through their telemetry hook; workloads with no
/// telemetry support say so instead of failing.
#[test]
fn trace_covers_market_workloads_and_names_unsupported_ones() {
    let output = trace("t6-f10", "20", &["t6", "f10"]);
    assert!(output.stdout.is_empty(), "--trace writes nothing to stdout");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(stderr.contains("[t6] trace of run 0 (20 entry cap):\n"));
    assert!(
        stderr.lines().filter_map(category).any(|c| c == "demand:"),
        "t6 renders its market demand stream"
    );
    assert!(stderr.contains("[f10] workload has no trace support\n"));
}
