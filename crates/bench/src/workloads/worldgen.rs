//! Generated-world workloads: the scenario grid escapes the canonical
//! intersection.
//!
//! * **G1** — strategy comparison across map families × fleet density:
//!   does task-to-data offloading keep beating raw transfer and cloud
//!   upload when the geometry is a Manhattan grid, a radial/ring city or
//!   a highway merge instead of the hand-built corner?
//! * **G2** — mesh/orchestration dynamics under churn × demand pattern:
//!   how do formation, membership and completion respond when street
//!   speeds (churn) and the perception-query process (rush hour, bursts,
//!   spatial hotspots) vary on a generated grid with parked RSU anchors?
//!
//! Both workloads carry a [`GenConfig`]: the family recipe, the fleet
//! profile and the scenario knobs — pure data, so the runs shard, merge
//! and drive through the harness unchanged. World generation happens
//! inside the run (seed-deterministic), never in the spec.

use airdnd_harness::{
    fmt_ci, fmt_f, Aggregate, ExperimentResult, FnWorkload, Manifest, RunPlan, SeedMode, SweepSpec,
    Table,
};
use airdnd_scenario::{run_scenario_in, ScenarioConfig, ScenarioReport, Strategy};
use airdnd_sim::SimDuration;
use airdnd_worldgen::{DemandKind, FamilyKind, FleetProfile, GridParams};
use serde::{Deserialize, Serialize};
use serde_json::json;

use super::full_mode_replicates as replicates;
use super::scenario::scenario_metrics_with_stages;

/// One generated-world run: family recipe + fleet profile + scenario
/// knobs + demand recipe.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GenConfig {
    /// Which map family to generate.
    pub family: FamilyKind,
    /// Fleet density/churn profile (parked helpers, arrival scatter).
    pub profile: FleetProfile,
    /// Demand recipe, resolved against the derived corridor at run time.
    pub demand: DemandKind,
    /// The scenario knobs (seed, vehicles, duration, strategy, ...).
    pub scenario: ScenarioConfig,
}

impl GenConfig {
    pub(crate) fn quick_or(quick: bool, full_secs: u64) -> ScenarioConfig {
        ScenarioConfig {
            duration: if quick {
                SimDuration::from_secs(12)
            } else {
                SimDuration::from_secs(full_secs)
            },
            ..Default::default()
        }
    }
}

/// Materializes one run: the profile's mobile-fleet density overrides
/// the scenario's vehicle count (the profile is the density knob), the
/// world generates from the config's seed, and the demand recipe
/// resolves against the derived corridor.
pub(crate) fn materialize(cfg: &GenConfig) -> (airdnd_scenario::WorldInstance, ScenarioConfig) {
    let scenario = cfg.scenario.with_vehicles(cfg.profile.vehicles);
    let world = cfg.family.instantiate(&scenario, &cfg.profile);
    let scenario = scenario.with_demand(cfg.demand.resolve(&world.stage));
    (world, scenario)
}

fn run_generated(plan: &RunPlan<GenConfig>) -> ScenarioReport {
    let (world, scenario) = materialize(&plan.config);
    run_scenario_in(world, scenario)
}

fn observe_generated(
    plan: &RunPlan<GenConfig>,
    opts: airdnd_scenario::TelemetryOptions,
) -> airdnd_scenario::RunTelemetry {
    let (world, scenario) = materialize(&plan.config);
    airdnd_scenario::run_scenario_in_observed(world, scenario, opts).1
}

/// The family axis both workloads draw from. The `city` composite is
/// excluded: G1's 8–24-vehicle densities would rattle around a
/// multi-kilometre map — the city scales through its own workload (G5).
fn family_axis(quick: bool) -> Vec<FamilyKind> {
    let all: Vec<FamilyKind> = airdnd_worldgen::families()
        .into_iter()
        .filter(|f| f.name != "corner" && f.name != "city")
        .map(|f| f.kind)
        .collect();
    if quick {
        all.into_iter().take(2).collect()
    } else {
        all
    }
}

// --- G1: strategy comparison across map families × density ---

/// G1 — strategy comparison across generated map families and densities.
pub fn g1() -> FnWorkload<GenConfig, ScenarioReport> {
    FnWorkload {
        name: "g1",
        title: "strategies across generated map families and densities",
        spec: g1_spec,
        run: run_generated,
        metrics: scenario_metrics_with_stages,
        tabulate: g1_tabulate,
        observe: Some(observe_generated),
    }
}

fn g1_spec(quick: bool) -> SweepSpec<GenConfig> {
    let densities: &[usize] = if quick { &[10] } else { &[8, 14, 24] };
    let strategies: &[Strategy] = if quick {
        &[Strategy::Airdnd, Strategy::LocalOnly]
    } else {
        &[
            Strategy::Airdnd,
            Strategy::Cloud { fiveg: true },
            Strategy::LocalOnly,
        ]
    };
    let base = GenConfig {
        family: FamilyKind::Grid(GridParams::default()),
        // Two parked cars on the occluded street: the excess resources
        // AirDnD rents a view from; the non-cooperative baselines pass
        // them by.
        profile: FleetProfile {
            parked: 2,
            ..FleetProfile::default()
        },
        demand: DemandKind::Steady,
        scenario: GenConfig::quick_or(quick, 40),
    };
    SweepSpec::new(base)
        .axis_labeled(
            "family",
            family_axis(quick),
            |f| f.label().to_owned(),
            |cfg, &f| cfg.family = f,
        )
        .axis("vehicles", densities.to_vec(), |cfg, &n| {
            cfg.profile.vehicles = n;
        })
        .axis_labeled(
            "strategy",
            strategies.to_vec(),
            |s| s.label().to_owned(),
            |cfg, &s| cfg.scenario.strategy = s,
        )
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(113)
        .seed_with(|cfg, seed| cfg.scenario.seed = seed)
}

fn g1_tabulate(manifest: &Manifest<GenConfig>, results: &[ScenarioReport]) -> ExperimentResult {
    let mut table = Table::new(
        "G1",
        "strategies across generated map families and densities",
        &[
            "family",
            "vehicles",
            "strategy",
            "done %",
            "±95",
            "p50 ms",
            "kB/view",
            "coverage %",
        ],
    );
    let mut series = Vec::new();
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let done = Aggregate::of(rs, |r| r.completion_rate * 100.0);
        table.row(vec![
            plans[0].labels[0].clone(),
            plans[0].config.profile.vehicles.to_string(),
            plans[0].labels[2].clone(),
            fmt_f(done.mean),
            fmt_ci(&done),
            fmt_f(Aggregate::of(rs, |r| r.latency_p50_ms).mean),
            fmt_f(Aggregate::of(rs, |r| r.bytes_per_task / 1_000.0).mean),
            fmt_f(Aggregate::of(rs, |r| r.mean_coverage * 100.0).mean),
        ]);
        series.push(json!({
            "family": plans[0].labels[0],
            "vehicles": plans[0].config.profile.vehicles,
            "strategy": plans[0].labels[2],
            "completion_rate": done.mean / 100.0,
            "bytes_per_task": Aggregate::of(rs, |r| r.bytes_per_task).mean,
        }));
    }
    ExperimentResult {
        table,
        series: json!(series),
    }
}

// --- G2: mesh/orchestration dynamics under churn × demand pattern ---

/// G2 — mesh dynamics under churn × demand on a generated grid.
pub fn g2() -> FnWorkload<GenConfig, ScenarioReport> {
    FnWorkload {
        name: "g2",
        title: "mesh dynamics under churn and demand patterns (generated grid)",
        spec: g2_spec,
        run: run_generated,
        metrics: scenario_metrics_with_stages,
        tabulate: g2_tabulate,
        observe: Some(observe_generated),
    }
}

/// The churn axis: the generated grid's street/arterial speeds (m/s).
fn grid_at_speed(arterial: f64) -> FamilyKind {
    FamilyKind::Grid(GridParams {
        arterial_speed: arterial,
        street_speed: arterial * 0.6,
        ..GridParams::default()
    })
}

fn g2_spec(quick: bool) -> SweepSpec<GenConfig> {
    let speeds: &[f64] = if quick {
        &[6.0, 13.9]
    } else {
        &[6.0, 10.0, 13.9]
    };
    let demands: &[DemandKind] = if quick {
        &[DemandKind::Steady, DemandKind::Bursty]
    } else {
        &[
            DemandKind::Steady,
            DemandKind::RushHour,
            DemandKind::Bursty,
            DemandKind::CorridorHotspot,
        ]
    };
    let base = GenConfig {
        family: grid_at_speed(13.9),
        profile: FleetProfile {
            vehicles: 12,
            parked: 4,
            arrival_window_s: 20.0,
        },
        demand: DemandKind::Steady,
        scenario: GenConfig::quick_or(quick, 40),
    };
    SweepSpec::new(base)
        .axis("speed_mps", speeds.to_vec(), |cfg, &v| {
            cfg.family = grid_at_speed(v);
        })
        .axis_labeled(
            "demand",
            demands.to_vec(),
            |d| d.label().to_owned(),
            |cfg, &d| cfg.demand = d,
        )
        .replicates(replicates(quick))
        .seed_mode(SeedMode::PerReplicate)
        .base_seed(114)
        .seed_with(|cfg, seed| cfg.scenario.seed = seed)
}

fn g2_tabulate(manifest: &Manifest<GenConfig>, results: &[ScenarioReport]) -> ExperimentResult {
    let mut table = Table::new(
        "G2",
        "mesh dynamics under churn and demand patterns (generated grid)",
        &[
            "speed m/s",
            "demand",
            "tasks",
            "done %",
            "±95",
            "churn/min",
            "members",
            "p95 ms",
        ],
    );
    for cell in 0..manifest.cell_count {
        let plans = manifest.cell_runs(cell);
        let rs = manifest.cell_results(results, cell);
        let done = Aggregate::of(rs, |r| r.completion_rate * 100.0);
        table.row(vec![
            plans[0].labels[0].clone(),
            plans[0].labels[1].clone(),
            fmt_f(Aggregate::of(rs, |r| r.tasks_submitted as f64).mean),
            fmt_f(done.mean),
            fmt_ci(&done),
            fmt_f(Aggregate::of(rs, |r| (r.joins + r.leaves) as f64 / (r.duration_s / 60.0)).mean),
            fmt_f(Aggregate::of(rs, |r| r.mean_members).mean),
            fmt_f(Aggregate::of(rs, |r| r.latency_p95_ms).mean),
        ]);
    }
    ExperimentResult::table_only(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        assert_eq!(g1_spec(true).manifest().len(), 2 * 2);
        // Full mode sweeps every registered generated family (5 now that
        // roundabout and bridge exist) × 3 densities × 3 strategies.
        assert_eq!(
            g1_spec(false).manifest().len(),
            5 * 3 * 3 * super::super::scenario::FULL_REPLICATES
        );
        assert_eq!(g2_spec(true).manifest().len(), 2 * 2);
        assert_eq!(
            g2_spec(false).manifest().len(),
            3 * 4 * super::super::scenario::FULL_REPLICATES
        );
    }

    /// One quick G1 cell end-to-end: the generated grid world really
    /// runs, the mesh forms, and offloading completes tasks.
    #[test]
    fn g1_quick_run_completes_on_a_generated_world() {
        let manifest = g1_spec(true).manifest();
        let plan = &manifest.runs[0];
        assert_eq!(plan.labels[0], "grid");
        let report = run_generated(plan);
        assert!(report.tasks_submitted > 5, "{}", report.tasks_submitted);
        assert!(
            report.completion_rate > 0.3,
            "completion {}",
            report.completion_rate
        );
        assert!(report.mesh_bytes > 0);
    }

    /// G2's parked anchors show up in the fleet and the demand axis
    /// changes the offered load.
    #[test]
    fn g2_demand_patterns_change_the_offered_load() {
        let manifest = g2_spec(true).manifest();
        // Runs 0/1 share the slow grid; 0 is steady, 1 is bursty.
        let steady = run_generated(&manifest.runs[0]);
        let bursty = run_generated(&manifest.runs[1]);
        assert_eq!(steady.vehicles, 12 + 4, "parked anchors join the fleet");
        assert_ne!(
            steady.tasks_submitted, bursty.tasks_submitted,
            "demand patterns must change the query process"
        );
    }
}
