//! Non-perturbation pins: telemetry must be free-floating observation,
//! never an input. Running a workload with full telemetry (bounded event
//! rings, phase profiling *and* causal span recording) must produce a
//! report byte-identical to the plain run — otherwise "debug it with
//! tracing on" and "reproduce the artifact" silently diverge. F2 pins
//! the scenario-engine path and T6 the market path; together they cover
//! both `run_scenario` and `market_sim` instrumentation.

use airdnd_bench::workloads::market::{market_sim, market_sim_observed, t6};
use airdnd_bench::workloads::scenario::f2;
use airdnd_scenario::{
    extract, run_scenario, run_scenario_in_observed, validate_spans, EventCategory, RunTelemetry,
    SpanKind, SpanStatus, TelemetryOptions, WorldInstance,
};

/// Events bounded tight enough that rings demonstrably overflow in quick
/// runs — eviction must be as invisible to the report as recording is.
const TIGHT: usize = 64;

fn full() -> TelemetryOptions {
    TelemetryOptions {
        events: Some(65_536),
        profile: true,
        spans: true,
    }
}

#[test]
fn f2_reports_are_byte_identical_with_telemetry_on() {
    let manifest = (f2().spec)(true).manifest();
    let mut saw_events = false;
    let mut saw_spans = false;
    for plan in &manifest.runs {
        let plain = serde_json::to_string(&run_scenario(plan.config)).expect("serializes");
        let world = WorldInstance::canonical(&plan.config);
        let (report, telemetry) = run_scenario_in_observed(world, plan.config, full());
        let observed = serde_json::to_string(&report).expect("serializes");
        assert_eq!(
            plain, observed,
            "telemetry must not perturb {}: labels {:?}",
            plan.run_index, plan.labels
        );
        saw_events |= !telemetry.events.events().is_empty();
        saw_spans |= !telemetry.spans.is_empty();
    }
    assert!(saw_events, "the observed runs must actually record events");
    assert!(saw_spans, "the observed runs must actually record spans");
}

#[test]
fn f2_reports_survive_ring_overflow_unchanged() {
    let manifest = (f2().spec)(true).manifest();
    let plan = &manifest.runs[0];
    let plain = serde_json::to_string(&run_scenario(plan.config)).expect("serializes");
    let (report, telemetry) = run_scenario_in_observed(
        WorldInstance::canonical(&plan.config),
        plan.config,
        TelemetryOptions::events(TIGHT).with_spans(),
    );
    assert!(
        telemetry.events.dropped_total() > 0,
        "a {TIGHT}-entry ring must overflow on a quick run"
    );
    assert_eq!(
        plain,
        serde_json::to_string(&report).expect("serializes"),
        "ring eviction (with spans recording) must not perturb the report"
    );
}

/// The recorded span trees are well-formed on a real engine run, and the
/// span-tree extractor's stage decomposition sums exactly to each
/// completed query's root span duration — the `sweep explain` contract,
/// held on actual protocol traffic rather than synthetic interleavings.
#[test]
fn f2_span_trees_decompose_end_to_end_latency() {
    let manifest = (f2().spec)(true).manifest();
    let mut decomposed = 0usize;
    let mut offloaded = 0usize;
    for plan in &manifest.runs {
        let (_, telemetry) = run_scenario_in_observed(
            WorldInstance::canonical(&plan.config),
            plan.config,
            TelemetryOptions::default().with_spans(),
        );
        let spans = telemetry.spans.spans();
        validate_spans(spans).expect("engine-produced span log is well-formed");
        for root in spans
            .iter()
            .filter(|s| s.kind == SpanKind::Query && s.status == SpanStatus::Closed)
        {
            let budget =
                extract(spans, root.task).expect("every completed query yields a stage budget");
            assert_eq!(
                budget.stages_total_us(),
                budget.total_us,
                "stages partition task {}",
                root.task
            );
            assert_eq!(
                budget.total_us,
                root.duration_us(),
                "budget total equals the root span duration for task {}",
                root.task
            );
            decomposed += 1;
            if budget.radio_us > 0 || budget.discover_us > 0 {
                offloaded += 1;
            }
        }
    }
    assert!(decomposed > 0, "quick F2 completes queries to decompose");
    assert!(
        offloaded > 0,
        "at least one query crossed the radio (offloaded path exercised)"
    );
}

#[test]
fn t6_reports_are_byte_identical_with_telemetry_on() {
    let manifest = (t6().spec)(true).manifest();
    let mut saw_events = false;
    for plan in &manifest.runs {
        let cfg = &plan.config;
        let mut plain_mech = cfg.mechanism.build();
        let plain = serde_json::to_string(&market_sim(
            plain_mech.as_mut(),
            cfg.seed,
            cfg.candidates,
            cfg.tasks,
        ))
        .expect("serializes");
        let mut observed_mech = cfg.mechanism.build();
        let mut telemetry = RunTelemetry::with(full());
        let observed = serde_json::to_string(&market_sim_observed(
            observed_mech.as_mut(),
            cfg.seed,
            cfg.candidates,
            cfg.tasks,
            &mut telemetry,
        ))
        .expect("serializes");
        assert_eq!(
            plain, observed,
            "telemetry must not perturb t6: labels {:?}",
            plan.labels
        );
        saw_events |= telemetry
            .events
            .query()
            .category(EventCategory::Task)
            .exists();
    }
    assert!(
        saw_events,
        "the observed market runs must record task events"
    );
}
