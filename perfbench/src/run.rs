//! The two kinds of run: timed (end-to-end metrics, tracing off) and
//! traced (per-layer metrics: phase profile, layer probes, work counts).

use crate::check::{check_report, digest};
use crate::metrics::{median, Metrics};
use crate::probes::{self, ProbeLoad};
use crate::trace::{SpanId, Tracer};
use crate::workload::{RunInput, Workload};
use airdnd_scenario::{
    run_scenario_in_observed, Phase, RunTelemetry, ScenarioReport, Scope, TelemetryOptions,
};
use airdnd_sim::percentile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Setup samples a timed run takes before each pass, so that setup and
/// passes are sampled across the same stretch of the run.
const SETUPS_PER_PASS: usize = 8;
/// Minimum length of one setup sample, seconds: a corner pass generates
/// its inputs in tens of microseconds, too short to time alone.
const SETUP_SAMPLE_S: f64 = 0.02;
/// Minimum workload passes a timed run measures for `run_s`, after its
/// warm-up pass.
const MIN_PASSES: usize = 3;

/// One scenario run's outcome: what the simulator returned, or why the run
/// counts as failed.
pub struct Outcome {
    /// Wall seconds inside the simulator call.
    pub secs: f64,
    /// The report and telemetry, or the panic / check failure.
    pub result: Result<(ScenarioReport, RunTelemetry), String>,
}

/// Runs one input through the simulator and checks its report.
pub fn run_one(workload: Workload, input: RunInput, opts: TelemetryOptions) -> Outcome {
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_scenario_in_observed(input.world, input.cfg, opts)
    }));
    let secs = started.elapsed().as_secs_f64();
    let result = match result {
        Ok((report, telemetry)) => {
            check_report(&report, workload.egos()).map(|()| (report, telemetry))
        }
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .map_or_else(|| "panicked".to_owned(), |m| format!("panicked: {m}"))),
    };
    Outcome { secs, result }
}

/// One workload pass: every input of the workload, in order.
struct Pass {
    /// Wall seconds spent inside the simulator.
    run_s: f64,
    /// Per-run outcomes.
    outcomes: Vec<Outcome>,
}

impl Pass {
    /// Reports of the runs that passed the check.
    fn reports(&self) -> impl Iterator<Item = &ScenarioReport> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|(r, _)| r))
    }

    /// Runs that panicked or failed the check.
    fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.result.is_err()).count() as u64
    }

    /// The simulated-outcome digest of the pass (over every report, in
    /// order; a failed run makes the pass's digest 0).
    fn digest(&self) -> u64 {
        if self.failed() > 0 {
            return 0;
        }
        let reports: Vec<ScenarioReport> = self.reports().cloned().collect();
        digest(&reports)
    }

    fn telemetry(&self) -> impl Iterator<Item = &RunTelemetry> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|(_, t)| t))
    }
}

/// Runs one pass over `inputs`, each run inside a `scenario.run` span when
/// a tracer is given.
fn run_pass(
    workload: Workload,
    inputs: Vec<RunInput>,
    opts: TelemetryOptions,
    mut trace: Option<(&mut Tracer, SpanId)>,
) -> Pass {
    let mut outcomes = Vec::with_capacity(inputs.len());
    for input in inputs {
        let outcome = match trace.as_mut() {
            Some((tracer, parent)) => {
                let span = tracer.open("scenario.run", Some(*parent));
                let outcome = run_one(workload, input, opts);
                tracer.close(span);
                outcome
            }
            None => run_one(workload, input, opts),
        };
        if let Err(why) = &outcome.result {
            println!("run failed: {why}");
        }
        outcomes.push(outcome);
    }
    Pass {
        run_s: outcomes.iter().map(|o| o.secs).sum(),
        outcomes,
    }
}

/// Everything a run prints: the result-line fields and the digest.
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Scenario runs attempted.
    pub attempted: u64,
    /// Scenario runs that panicked or failed the check.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// The simulated-outcome digest of the first pass.
    pub digest: u64,
    /// Wall seconds of each pass, in order, the warm-up pass first.
    pub pass_secs: Vec<f64>,
}

/// Seconds to generate one pass's inputs: the mean over back-to-back
/// generations lasting at least [`SETUP_SAMPLE_S`].
fn setup_sample(workload: Workload, seed: u64) -> f64 {
    let started = Instant::now();
    let mut generations = 0u32;
    while generations == 0 || started.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        std::hint::black_box(workload.inputs(seed));
        generations += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(generations)
}

/// Simulated end-to-end metrics of one pass: counts pooled over its runs.
fn simulated_metrics(pass: &Pass, out: &mut Metrics) {
    let (mut submitted, mut completed, mut bytes) = (0u64, 0u64, 0u64);
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    for r in pass.reports() {
        submitted += r.tasks_submitted;
        completed += r.tasks_completed;
        bytes += r.mesh_bytes + r.cellular_bytes;
        p50s.push(percentile(&r.latencies_ms, 0.5).unwrap_or(0.0));
        p90s.push(percentile(&r.latencies_ms, 0.9).unwrap_or(0.0));
    }
    let (mut origins, mut served) = (0u64, 0u64);
    for telemetry in pass.telemetry() {
        for scope in telemetry.metrics.scopes_of("tasks_submitted") {
            if telemetry.metrics.counter("tasks_submitted", scope) > 0 {
                origins += 1;
                served += u64::from(telemetry.metrics.counter("tasks_completed", scope) > 0);
            }
        }
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.set("completion_rate", ratio(completed, submitted));
    out.set("ego_served_share", ratio(served, origins));
    // Latency percentiles are per run, then the median over the pass's
    // runs: one slow helper draw dominates a whole run's latencies, so a
    // pooled percentile would mostly measure which runs drew one.
    out.set("query_p50_ms", median(&p50s));
    out.set("query_p90_ms", median(&p90s));
    out.set(
        "kb_per_view",
        if completed == 0 {
            0.0
        } else {
            bytes as f64 / 1e3 / completed as f64
        },
    );
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timed run: one uncounted warm-up pass, then timed passes until
/// `seconds` are spent (at least [`MIN_PASSES`]), each after
/// [`SETUPS_PER_PASS`] setup samples, tracing off. The warm-up pass
/// faults the simulator's heap in and fills the caches, which a process's
/// first pass pays on its own. Every pass must reproduce the warm-up
/// pass's digest.
pub fn timed(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let started = Instant::now();
    let warmup = run_pass(
        workload,
        workload.inputs(seed),
        TelemetryOptions::default(),
        None,
    );
    let digest = warmup.digest();
    let mut metrics = Metrics::default();
    simulated_metrics(&warmup, &mut metrics);
    let (mut attempted, mut failed) = (warmup.outcomes.len() as u64, warmup.failed());
    let mut correct = true;
    let timing_started = Instant::now();
    let mut setup_samples = Vec::new();
    let mut pass_samples = Vec::new();
    loop {
        setup_samples.extend((0..SETUPS_PER_PASS).map(|_| setup_sample(workload, seed)));
        let pass = run_pass(
            workload,
            workload.inputs(seed),
            TelemetryOptions::default(),
            None,
        );
        attempted += pass.outcomes.len() as u64;
        failed += pass.failed();
        pass_samples.push(pass.run_s);
        let pass_digest = pass.digest();
        if pass_digest != digest {
            println!(
                "pass {} digest {pass_digest:016x} differs from the warm-up pass",
                pass_samples.len()
            );
            correct = false;
        }
        let passes = pass_samples.len();
        let per_pass = timing_started.elapsed().as_secs_f64() / passes as f64;
        if passes >= MIN_PASSES && started.elapsed().as_secs_f64() + per_pass > seconds {
            break;
        }
    }
    metrics.set("run_s", median(&pass_samples));
    metrics.set("setup_s", median(&setup_samples));
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set(
        "ok_run_share",
        (attempted - failed) as f64 / attempted as f64,
    );
    RunResult {
        correct: correct && failed == 0 && digest != 0,
        attempted,
        failed,
        metrics,
        digest,
        pass_secs: std::iter::once(warmup.run_s).chain(pass_samples).collect(),
    }
}

/// Deterministic work counts and sim-time stage latencies of one pass.
fn work_counts(pass: &Pass, out: &mut Metrics) {
    let sum = |f: fn(&ScenarioReport) -> u64| pass.reports().map(f).sum::<u64>();
    let offers = sum(|r| r.offers_sent);
    let results = sum(|r| r.results_returned);
    out.set("core.offers_sent", offers as f64);
    out.set("core.results_returned", results as f64);
    out.set(
        "core.result_yield",
        if offers == 0 {
            0.0
        } else {
            results as f64 / offers as f64
        },
    );
    out.set("core.tasks_failed", sum(|r| r.tasks_failed) as f64);
    out.set("mesh.joins", sum(|r| r.joins) as f64);
    out.set("mesh.leaves", sum(|r| r.leaves) as f64);
    out.set("radio.mesh_mb", sum(|r| r.mesh_bytes) as f64 / 1e6);
    let global = |name: &str| {
        pass.telemetry()
            .map(|t| t.metrics.counter(name, Scope::Global))
            .sum::<u64>() as f64
    };
    out.set("radio.frame_drops", global("frame_drops"));
    out.set("radio.queue_cap_drops", global("frame_drops_queue_cap"));
    out.set("scenario.spawns", sum(|r| r.lifecycle_spawns) as f64);
    out.set("scenario.despawns", sum(|r| r.lifecycle_despawns) as f64);
    out.set(
        "scenario.worst_ego_completion",
        pass.reports()
            .map(|r| r.ego_completion_min)
            .fold(1.0, f64::min),
    );
    let stage = |f: fn(&ScenarioReport) -> f64| median(&pass.reports().map(f).collect::<Vec<_>>());
    out.set("stage.discover_p50_ms", stage(|r| r.lat_discover_p50_ms));
    out.set("stage.discover_p95_ms", stage(|r| r.lat_discover_p95_ms));
    out.set("stage.select_p50_ms", stage(|r| r.lat_select_p50_ms));
    out.set("stage.select_p95_ms", stage(|r| r.lat_select_p95_ms));
    out.set("stage.radio_p50_ms", stage(|r| r.lat_radio_p50_ms));
    out.set("stage.radio_p95_ms", stage(|r| r.lat_radio_p95_ms));
    out.set("stage.exec_p50_ms", stage(|r| r.lat_exec_p50_ms));
    out.set("stage.exec_p95_ms", stage(|r| r.lat_exec_p95_ms));
    out.set("stage.return_p50_ms", stage(|r| r.lat_return_p50_ms));
    out.set("stage.return_p95_ms", stage(|r| r.lat_return_p95_ms));
}

/// The traced run's timed passes, after one uncounted warm-up pass:
/// untraced (`false`) and profiled (`true`) in the order U P P U, so that
/// a steady host drift falls on both sides of `trace.overhead_s` alike.
const TRACE_ORDER: [bool; 4] = [false, true, true, false];

/// The traced run: a warm-up pass, the [`TRACE_ORDER`] passes, then the
/// layer probes — all inside the benchmark's own spans, which it returns
/// for writing out. Pass times and phase times are means over the passes
/// of each kind.
pub fn traced(workload: Workload, seed: u64) -> (RunResult, Tracer) {
    let mut tracer = Tracer::new();
    let root = tracer.open("bench.traced_run", None);
    let profile = TelemetryOptions {
        profile: true,
        ..TelemetryOptions::default()
    };
    let pass = |tracer: &mut Tracer, name: &'static str, opts: TelemetryOptions| {
        let (inputs, _) = tracer.span("worldgen.pass_inputs", Some(root), || workload.inputs(seed));
        let span = tracer.open(name, Some(root));
        let pass = run_pass(workload, inputs, opts, Some((&mut *tracer, span)));
        tracer.close(span);
        pass
    };
    let warmup = pass(&mut tracer, "pass.warmup", TelemetryOptions::default());
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    let mut pass_secs = vec![warmup.run_s];
    for with_profile in TRACE_ORDER {
        let (name, opts, passes) = if with_profile {
            ("pass.profiled", profile, &mut profiled)
        } else {
            ("pass.untraced", TelemetryOptions::default(), &mut plain)
        };
        let done = pass(&mut tracer, name, opts);
        pass_secs.push(done.run_s);
        passes.push(done);
    }
    let mean_run_s =
        |passes: &[Pass]| passes.iter().map(|p| p.run_s).sum::<f64>() / passes.len() as f64;
    let run_s = mean_run_s(&profiled);

    let mut metrics = Metrics::default();
    let mut attributed = 0.0;
    for (phase, name) in [
        (Phase::Lifecycle, "scenario.lifecycle_s"),
        (Phase::Movement, "scenario.movement_s"),
        (Phase::Sensor, "scenario.sensor_s"),
        (Phase::Mesh, "scenario.mesh_s"),
        (Phase::Tasks, "scenario.tasks_s"),
        (Phase::Radio, "scenario.radio_s"),
    ] {
        let secs = profiled
            .iter()
            .flat_map(Pass::telemetry)
            .map(|t| t.phases.nanos(phase) as f64 * 1e-9)
            .sum::<f64>()
            / profiled.len() as f64;
        attributed += secs;
        metrics.set(name, secs);
    }
    metrics.set("scenario.unattributed_s", run_s - attributed);
    metrics.set(
        "scenario.phase_coverage",
        if run_s > 0.0 { attributed / run_s } else { 0.0 },
    );
    metrics.set("trace.run_s", run_s);
    metrics.set("trace.overhead_s", run_s - mean_run_s(&plain));
    work_counts(&profiled[0], &mut metrics);

    let inputs = workload.inputs(seed);
    let (probe_index, probe_input) = inputs
        .iter()
        .enumerate()
        .max_by_key(|(_, input)| input.cfg.vehicles)
        .expect("every workload has inputs");
    let mean_members = profiled[0].outcomes[probe_index]
        .result
        .as_ref()
        .map_or(1.0, |(report, _)| report.mean_members);
    let probes_span = tracer.open("probes", Some(root));
    let (load, _) = tracer.span("probes.load", Some(probes_span), || {
        ProbeLoad::new(workload, probe_input, mean_members)
    });
    println!("{}", load.describe());
    probes::run_all(&load, &mut tracer, probes_span, &mut metrics);
    tracer.close(probes_span);
    tracer.close(root);

    let all: Vec<&Pass> = std::iter::once(&warmup)
        .chain(&plain)
        .chain(&profiled)
        .collect();
    let digest = warmup.digest();
    let digests_match = all.iter().all(|p| p.digest() == digest);
    if !digests_match {
        println!("a traced-run pass digest differs from the warm-up pass {digest:016x}");
    }
    let failed = all.iter().map(|p| p.failed()).sum::<u64>();
    let result = RunResult {
        correct: failed == 0 && digests_match && digest != 0,
        attempted: all.iter().map(|p| p.outcomes.len() as u64).sum(),
        failed,
        metrics,
        digest,
        pass_secs,
    };
    (result, tracer)
}
