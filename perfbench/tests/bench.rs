//! The benchmark's own tests: metric names and units, agreement with
//! `BENCHMARK.json`, digest determinism and the output check.

use airdnd_perfbench::check::{check_report, digest};
use airdnd_perfbench::metrics::{Metrics, END_TO_END, PER_LAYER};
use airdnd_perfbench::run::run_one;
use airdnd_perfbench::trace::Tracer;
use airdnd_perfbench::workload::{RunInput, Workload};
use airdnd_scenario::{ScenarioReport, TelemetryOptions};
use airdnd_sim::SimDuration;
use serde_json::{Number, Value};

/// `true` when `name` is 1–64 letters, digits, `_`, `.` or `-`, starting
/// with a letter or digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` when `unit` is 1–16 letters, digits, `_`, `/`, `%`, `.` or `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("{other:?} is not an object"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("{other:?} is not a string"),
    }
}

fn array(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("{other:?} is not an array"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Number(Number::PosInt(n)) => *n as f64,
        Value::Number(Number::NegInt(n)) => *n as f64,
        Value::Number(Number::Float(x)) => *x,
        other => panic!("{other:?} is not a number"),
    }
}

/// A short run of the workload's first two inputs: enough simulated time
/// for queries to complete, little enough for a debug build.
fn short_reports(workload: Workload, seed: u64, secs: u64) -> Vec<ScenarioReport> {
    workload
        .inputs(seed)
        .into_iter()
        .take(2)
        .map(|RunInput { world, mut cfg }| {
            cfg.duration = SimDuration::from_secs(secs);
            let outcome = run_one(
                workload,
                RunInput { world, cfg },
                TelemetryOptions::default(),
            );
            outcome.result.expect("short run passes the check").0
        })
        .collect()
}

#[test]
fn every_name_and_unit_is_valid_and_used_once() {
    let mut seen = std::collections::BTreeSet::new();
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(spec.name), "bad metric name {}", spec.name);
        assert!(
            valid_unit(spec.unit),
            "bad unit {} of {}",
            spec.unit,
            spec.name
        );
        assert!(seen.insert(spec.name), "{} listed twice", spec.name);
    }
    for workload in Workload::ALL {
        assert!(valid_name(workload.name()), "{}", workload.name());
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
    }
    assert!(!valid_name("-leading-dash"));
    assert!(!valid_name("space inside"));
    assert!(!valid_unit(""));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text_json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = Value::parse(&text_json).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = array(field(&bench, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = array(field(&bench, key));
        assert_eq!(listed.len(), specs.len(), "{key} count");
        for (entry, spec) in listed.iter().zip(specs) {
            assert_eq!(text(field(entry, "name")), spec.name, "{key} order");
            assert_eq!(text(field(entry, "unit")), spec.unit, "{}", spec.name);
            assert_eq!(
                text(field(entry, "better")),
                spec.better.label(),
                "{}",
                spec.name
            );
            if key == "end_to_end" {
                let bound = number(field(entry, "bound"));
                assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", spec.name);
            }
        }
    }
}

#[test]
fn every_metric_prints_with_its_unit() {
    for specs in [END_TO_END, PER_LAYER] {
        let mut metrics = Metrics::default();
        for (k, spec) in specs.iter().enumerate() {
            metrics.set(spec.name, k as f64 + 0.5);
        }
        let json = metrics.to_json(specs).expect("every metric recorded");
        for spec in specs {
            let entry = field(&json, spec.name);
            assert_eq!(text(field(entry, "unit")), spec.unit);
            number(field(entry, "value"));
        }
    }
    let mut missing = Metrics::default();
    missing.set("run_s", 1.0);
    assert!(
        missing.to_json(END_TO_END).is_err(),
        "unmeasured metrics fail"
    );
    let mut not_finite = Metrics::default();
    for spec in END_TO_END {
        not_finite.set(spec.name, f64::NAN);
    }
    assert!(not_finite.to_json(END_TO_END).is_err(), "NaN never prints");
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for (workload, secs) in [(Workload::CornerOffload, 8), (Workload::EgoStorm, 10)] {
        let a = digest(&short_reports(workload, 7, secs));
        let b = digest(&short_reports(workload, 7, secs));
        let c = digest(&short_reports(workload, 8, secs));
        assert_eq!(a, b, "{} is deterministic per seed", workload.name());
        assert_ne!(a, c, "{} depends on the seed", workload.name());
    }
}

/// A named way to break one report.
type Corruption = (&'static str, fn(&mut ScenarioReport));

#[test]
fn corrupted_reports_fail_the_check() {
    let report = short_reports(Workload::CornerOffload, 3, 8).remove(0);
    assert!(
        report.tasks_completed > 0,
        "the short run completes queries"
    );
    check_report(&report, 1).expect("an honest report passes");
    let honest = digest(std::slice::from_ref(&report));
    let corruptions: [Corruption; 6] = [
        ("completed past submitted", |r| {
            r.tasks_completed = r.tasks_submitted + 1
        }),
        ("lost latency sample", |r| {
            r.latencies_ms.pop();
        }),
        ("rate above one", |r| r.completion_rate = 1.5),
        ("rate disagrees with counts", |r| r.completion_rate *= 0.5),
        ("negative latency", |r| r.latencies_ms[0] = -1.0),
        ("missing query origin", |r| r.egos = 0),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = report.clone();
        corrupt(&mut bad);
        assert!(check_report(&bad, 1).is_err(), "{what} must fail the check");
        assert_ne!(digest(&[bad]), honest, "{what} moves the digest");
    }
}

#[test]
fn self_time_subtracts_children() {
    let mut tracer = Tracer::new();
    let root = tracer.open("root", None);
    let child = tracer.open("child", Some(root));
    std::thread::sleep(std::time::Duration::from_millis(20));
    tracer.close(child);
    tracer.close(root);
    let self_time = tracer.self_time_by_name();
    let total = tracer.spans()[root].duration_ns() as f64 * 1e-9;
    assert!(self_time["child"] >= 0.02);
    assert!((self_time["root"] + self_time["child"] - total).abs() < 1e-9);
    assert!(self_time["root"] < self_time["child"]);
}
