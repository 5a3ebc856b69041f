//! Metric names, units and directions, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with
//! their regression bounds; the benchmark's tests keep the two in step.

use serde_json::{json, Value};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit it prints with.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, printed by every untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    spec("run_s", "s", Lower),
    spec("setup_s", "s", Lower),
    spec("peak_rss_mb", "MB", Lower),
    spec("completion_rate", "ratio", Higher),
    spec("ego_served_share", "ratio", Higher),
    spec("query_p50_ms", "ms", Lower),
    spec("query_p90_ms", "ms", Lower),
    spec("kb_per_view", "kB", Lower),
    spec("ok_run_share", "ratio", Higher),
];

/// Single-layer metrics, printed by every traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    // Phase self time of the traced pass (the runner's PhaseProfiler).
    spec("scenario.lifecycle_s", "s", Lower),
    spec("scenario.movement_s", "s", Lower),
    spec("scenario.sensor_s", "s", Lower),
    spec("scenario.mesh_s", "s", Lower),
    spec("scenario.tasks_s", "s", Lower),
    spec("scenario.radio_s", "s", Lower),
    spec("scenario.unattributed_s", "s", Lower),
    spec("scenario.phase_coverage", "ratio", Higher),
    spec("trace.run_s", "s", Lower),
    spec("trace.overhead_s", "s", Lower),
    // Layer probes: public calls timed at the workload's own load.
    spec("task.verify_us", "us", Lower),
    spec("task.execute_us", "us", Lower),
    spec("task.wire_decode_us", "us", Lower),
    spec("mesh.on_timer_us", "us", Lower),
    spec("mesh.beacon_ingest_us", "us", Lower),
    spec("core.requester_tick_us", "us", Lower),
    spec("radio.broadcast_us", "us", Lower),
    spec("engine.grid_query_us", "us", Lower),
    spec("engine.timeline_op_ns", "ns", Lower),
    spec("scenario.rasterize_us", "us", Lower),
    spec("geo.los_us", "us", Lower),
    spec("data.catalog_insert_us", "us", Lower),
    spec("worldgen.instantiate_ms", "ms", Lower),
    // Deterministic work counts of one pass.
    spec("core.offers_sent", "count", Lower),
    spec("core.results_returned", "count", Higher),
    spec("core.result_yield", "ratio", Higher),
    spec("core.tasks_failed", "count", Lower),
    spec("mesh.joins", "count", Lower),
    spec("mesh.leaves", "count", Lower),
    spec("radio.mesh_mb", "MB", Lower),
    spec("radio.frame_drops", "count", Lower),
    spec("radio.queue_cap_drops", "count", Lower),
    spec("scenario.spawns", "count", Higher),
    spec("scenario.despawns", "count", Higher),
    spec("scenario.worst_ego_completion", "ratio", Higher),
    // Sim-time critical-path stage latency (median over the pass's runs).
    spec("stage.discover_p50_ms", "ms", Lower),
    spec("stage.discover_p95_ms", "ms", Lower),
    spec("stage.select_p50_ms", "ms", Lower),
    spec("stage.select_p95_ms", "ms", Lower),
    spec("stage.radio_p50_ms", "ms", Lower),
    spec("stage.radio_p95_ms", "ms", Lower),
    spec("stage.exec_p50_ms", "ms", Lower),
    spec("stage.exec_p95_ms", "ms", Lower),
    spec("stage.return_p50_ms", "ms", Lower),
    spec("stage.return_p95_ms", "ms", Lower),
];

/// Measured values keyed by metric name, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: every metric of `specs`
    /// with its unit, in spec order.
    ///
    /// # Errors
    ///
    /// Names a metric of `specs` that was not recorded, was recorded
    /// twice, or is not a finite number, or a recorded metric that
    /// `specs` does not list.
    pub fn to_json(&self, specs: &[MetricSpec]) -> Result<Value, String> {
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(n, _)| !specs.iter().any(|s| s.name == *n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        let mut entries = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut values = self.0.iter().filter(|(n, _)| *n == spec.name);
            let value = match (values.next(), values.next()) {
                (Some(&(_, v)), None) if v.is_finite() => v,
                (Some(&(_, v)), None) => return Err(format!("metric {} is {v}", spec.name)),
                (None, _) => return Err(format!("metric {} was not measured", spec.name)),
                (Some(_), Some(_)) => return Err(format!("metric {} measured twice", spec.name)),
            };
            entries.push((
                spec.name.to_owned(),
                json!({ "value": value, "unit": spec.unit }),
            ));
        }
        Ok(Value::Object(entries))
    }
}

/// The last line a run prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
    .to_compact_string()
}

/// Median of `xs` (the mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
