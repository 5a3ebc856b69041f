//! City-scale workload: the G5 scaling curve.
//!
//! * **G5** — completion, latency percentiles and per-ego fairness as
//!   fleet size and concurrent-ego count grow on the `city` composite
//!   family. The city itself scales with the fleet (more districts for
//!   more vehicles, so density stays roughly constant) — the curve
//!   therefore isolates how the *engine and protocol* respond to scale,
//!   not how a fixed map responds to crowding. Each ego is one demand
//!   stream riding its own portal arm; past one full cycle of arms the
//!   assignment wraps, stacking egos per portal.
//!
//! Every point is a [`MultiEgoConfig`] — the same pure-data config G4
//! sweeps — so G5 shards, merges, traces and drives through the harness
//! unchanged, and the per-ego fairness columns come from the same
//! telemetry registry.

use airdnd_harness::{
    fmt_f, Aggregate, ExperimentResult, FnWorkload, Manifest, SeedMode, SweepSpec, Table,
};
use airdnd_scenario::ScenarioReport;
use airdnd_sim::SimDuration;
use airdnd_worldgen::{CityParams, DemandKind, FamilyKind, FleetProfile};
use serde_json::json;

use super::lifecycle::{multi_ego_metrics, observe_multi_ego, run_multi_ego, MultiEgoConfig};
use super::worldgen::GenConfig;

/// One point on the G5 scaling curve: a city of `dx × dy` districts
/// fielding `vehicles` and `egos`.
#[derive(Clone, Copy, Debug)]
struct ScalePoint {
    dx: usize,
    dy: usize,
    vehicles: usize,
    egos: usize,
}

impl ScalePoint {
    const fn new(dx: usize, dy: usize, vehicles: usize, egos: usize) -> Self {
        ScalePoint {
            dx,
            dy,
            vehicles,
            egos,
        }
    }

    fn label(&self) -> String {
        format!(
            "{}x{} / {}v / {}e",
            self.dx, self.dy, self.vehicles, self.egos
        )
    }
}

/// G5 — the city-scale fleet × ego scaling curve.
pub fn g5() -> FnWorkload<MultiEgoConfig, ScenarioReport> {
    FnWorkload {
        name: "g5",
        title: "city-scale fleets and concurrent egos (G5 scaling curve)",
        spec: g5_spec,
        run: run_multi_ego,
        metrics: multi_ego_metrics,
        tabulate: g5_tabulate,
        observe: Some(observe_multi_ego),
    }
}

fn g5_spec(quick: bool) -> SweepSpec<MultiEgoConfig> {
    // A curve, not a cross: the fleet leg grows city and fleet together
    // (a constant ~40 vehicles per district, so radio density — the real
    // per-tick cost driver — stays flat while the world grows), the ego
    // leg holds the city and stacks demand. Quick keeps one small point
    // per leg so CI smokes both directions.
    let points: Vec<ScalePoint> = if quick {
        vec![ScalePoint::new(2, 1, 40, 2), ScalePoint::new(2, 2, 80, 4)]
    } else {
        vec![
            ScalePoint::new(2, 2, 160, 8),
            ScalePoint::new(4, 4, 640, 8),
            ScalePoint::new(8, 8, 2_560, 8),
            ScalePoint::new(16, 16, 10_240, 8),
            ScalePoint::new(4, 4, 640, 64),
            ScalePoint::new(4, 4, 640, 256),
        ]
    };
    // City blocks are long and arterials fast: a 500 ms tick loses no
    // fidelity, and it cuts the fixed-tick engine's per-second work 5×,
    // which is what makes the 10k-vehicle point tractable before the
    // event-scheduled core lands. The mesh timers scale with it —
    // beacons once per tick, neighbor timeout at the same 3.5-beacon
    // multiple the 100 ms default uses (leases already span 4 beacons).
    let mut scenario = GenConfig::quick_or(quick, 20);
    scenario.tick = SimDuration::from_millis(500);
    scenario.mesh.beacon_interval = SimDuration::from_millis(500);
    scenario.mesh.neighbor_timeout = SimDuration::from_millis(1_750);
    // City fleets can genuinely overload a collision domain (arterial
    // traffic funnels hundreds of transit vehicles through shared
    // airspace). Cap the MAC queue at a CAM-style frame lifetime so
    // overload sheds beacons — keeping surviving adverts fresh — instead
    // of deferring every frame later and later until all data ages out.
    scenario.radio_queue_cap = Some(SimDuration::from_millis(100));
    let base = MultiEgoConfig {
        gen: GenConfig {
            family: FamilyKind::City(CityParams::default()),
            profile: FleetProfile {
                vehicles: 40,
                parked: 2,
                arrival_window_s: 10.0,
            },
            demand: DemandKind::Steady,
            scenario,
        },
        egos: 1,
    };
    SweepSpec::new(base)
        .axis_labeled("scale", points, ScalePoint::label, |cfg, p| {
            cfg.gen.family = FamilyKind::City(CityParams::with_districts(p.dx, p.dy));
            cfg.gen.profile.vehicles = p.vehicles;
            cfg.egos = p.egos;
        })
        // One replicate even in full mode: G5 charts a scaling curve —
        // each point is a deterministic run at a scale where a second
        // seed costs minutes and the contrast of interest is across
        // points, not within a cell.
        .replicates(1)
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(117)
        .seed_with(|cfg, seed| cfg.gen.scenario.seed = seed)
}

fn g5_tabulate(
    manifest: &Manifest<MultiEgoConfig>,
    results: &[ScenarioReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "G5",
        "city-scale fleets and concurrent egos (G5 scaling curve)",
        &[
            "city",
            "fleet",
            "egos",
            "tasks",
            "done %",
            "worst ego %",
            "spread",
            "worst p50 ms",
            "worst p95 ms",
            "mesh ev/min",
        ],
    );
    let mut series = Vec::new();
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let cfg = &plans[0].config;
        let districts = match cfg.gen.family {
            FamilyKind::City(p) => format!("{}x{}", p.districts_x, p.districts_y),
            _ => "-".to_owned(),
        };
        let done = Aggregate::of(rs, |r| r.completion_rate * 100.0);
        table.row(vec![
            districts.clone(),
            cfg.gen.profile.vehicles.to_string(),
            cfg.egos.to_string(),
            fmt_f(Aggregate::of(rs, |r| r.tasks_submitted as f64).mean),
            fmt_f(done.mean),
            fmt_f(Aggregate::of(rs, |r| r.ego_completion_min * 100.0).mean),
            fmt_f(Aggregate::of(rs, |r| r.ego_completion_spread * 100.0).mean),
            fmt_f(Aggregate::of(rs, |r| r.ego_p50_worst_ms).mean),
            fmt_f(Aggregate::of(rs, |r| r.ego_p95_worst_ms).mean),
            fmt_f(Aggregate::of(rs, |r| (r.joins + r.leaves) as f64 / (r.duration_s / 60.0)).mean),
        ]);
        series.push(json!({
            "districts": districts,
            "vehicles": cfg.gen.profile.vehicles,
            "egos": cfg.egos,
            "completion_rate": done.mean / 100.0,
            "ego_completion_min": Aggregate::of(rs, |r| r.ego_completion_min).mean,
            "ego_p95_worst_ms": Aggregate::of(rs, |r| r.ego_p95_worst_ms).mean,
        }));
    }
    ExperimentResult {
        table,
        series: json!(series),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        assert_eq!(g5_spec(true).manifest().len(), 2);
        assert_eq!(g5_spec(false).manifest().len(), 6);
    }

    /// The fleet leg holds density flat: vehicles grow with the district
    /// count, and the 10k-vehicle acceptance point is on the curve.
    #[test]
    fn full_curve_reaches_ten_thousand_vehicles() {
        let manifest = g5_spec(false).manifest();
        let max = manifest
            .runs
            .iter()
            .map(|p| p.config.gen.profile.vehicles)
            .max()
            .unwrap();
        assert!(max >= 10_000, "{max}");
        let max_egos = manifest.runs.iter().map(|p| p.config.egos).max().unwrap();
        assert!(max_egos >= 256, "{max_egos}");
    }

    /// Wall-clock probe for the full-mode curve: `--ignored --nocapture`
    /// in release mode prints seconds per point. Not a correctness test —
    /// it exists so re-tuning the curve after engine changes is one
    /// command instead of a guessing game.
    #[test]
    #[ignore = "release-mode timing probe; run with --ignored --nocapture"]
    fn full_point_timing_probe() {
        let manifest = g5_spec(false).manifest();
        for plan in &manifest.runs {
            let started = std::time::Instant::now();
            let report = run_multi_ego(plan);
            println!(
                "{:>22}  {:>7.1}s wall  {:>5} tasks  {:.0}% done  {} offers  {} results  \
                 mesh@{:?}s  {:.1} members  {:.0}% cover",
                plan.labels.join(" "),
                started.elapsed().as_secs_f64(),
                report.tasks_submitted,
                report.completion_rate * 100.0,
                report.offers_sent,
                report.results_returned,
                report.mesh_formation_s,
                report.mean_members,
                report.mean_coverage * 100.0
            );
        }
    }

    /// One quick G5 cell end-to-end: the composite city really runs with
    /// multiple egos, each submitting its own demand stream.
    #[test]
    fn g5_quick_city_fields_multiple_egos() {
        let manifest = g5_spec(true).manifest();
        let report = run_multi_ego(&manifest.runs[0]);
        assert_eq!(report.egos, 2);
        assert!(report.tasks_submitted > 5, "{}", report.tasks_submitted);
        assert!(report.vehicles >= 40);
    }
}
