//! T11 — NFV chain survival under node departures.
//!
//! A perception service chain is deployed over a pool of vehicle nodes;
//! every round, each hosting node departs with the swept probability and
//! the manager heals orphaned VNFs onto survivors (one fresh node arrives
//! per round to keep density stable). Deterministic per seed.

use airdnd_harness::{
    fmt_f, ExperimentResult, FnWorkload, Manifest, RunPlan, SeedMode, SweepSpec, Table,
};
use airdnd_nfv::{
    NfManager, PlacementStrategy, ResourceCapacity, ServiceChain, VnfDescriptor, VnfKind,
};
use airdnd_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// One churn-study point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NfvChurnConfig {
    /// Per-round departure probability of each hosting node.
    pub departure_prob: f64,
    /// Simulated rounds (one second each).
    pub rounds: usize,
    /// Initial node-pool size.
    pub nodes: usize,
    /// Seed of the departure draws.
    pub seed: u64,
}

/// One churn-study measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NfvChurnReport {
    /// Successful VNF migrations.
    pub migrations_ok: u64,
    /// VNF instances lost (no capacity to heal onto).
    pub vnfs_lost: u64,
    /// Fraction of the run the full chain was up.
    pub availability: f64,
}

/// An NFV churn workload.
pub type NfvWorkload = FnWorkload<NfvChurnConfig, NfvChurnReport>;

/// T11 — VNF migration & chain availability under churn.
pub fn t11() -> NfvWorkload {
    FnWorkload {
        name: "t11",
        title: "VNF migration & chain availability under churn",
        spec: t11_spec,
        run,
        metrics: t11_metrics,
        tabulate: t11_tabulate,
        observe: None,
    }
}

fn t11_spec(quick: bool) -> SweepSpec<NfvChurnConfig> {
    let sweep: &[f64] = if quick {
        &[0.05, 0.2]
    } else {
        &[0.02, 0.05, 0.1, 0.2, 0.3]
    };
    SweepSpec::new(NfvChurnConfig {
        departure_prob: 0.0,
        rounds: if quick { 50 } else { 300 },
        nodes: 12,
        seed: 0,
    })
    .axis("departure_prob", sweep.to_vec(), |cfg, &p| {
        cfg.departure_prob = p
    })
    .seed_mode(SeedMode::PerReplicate)
    .base_seed(111)
    .seed_with(|cfg, seed| cfg.seed = seed)
}

fn run(plan: &RunPlan<NfvChurnConfig>) -> NfvChurnReport {
    let cfg = &plan.config;
    let mut rng = SimRng::seed_from(cfg.seed);
    let mut manager = NfManager::new(PlacementStrategy::BestFit);
    let mut next_node = 0u64;
    for _ in 0..cfg.nodes {
        manager.register_node(next_node, ResourceCapacity::new(1_000, 1 << 30, 2_000_000));
        next_node += 1;
    }
    let chain = ServiceChain::new(
        "perception",
        vec![
            VnfDescriptor::of_kind("fw", VnfKind::Firewall),
            VnfDescriptor::of_kind("agg", VnfKind::Aggregator),
            VnfDescriptor::of_kind("fuse", VnfKind::PerceptionFuser),
        ],
    );
    let chain_id = manager
        .deploy_chain(&chain, SimTime::ZERO)
        .expect("initial placement fits");
    let mut lost_total = 0u64;
    for round in 1..=cfg.rounds {
        let now = SimTime::from_secs(round as u64);
        // Random departures + one arrival to keep density stable.
        let hosts: Vec<u64> = manager.instances().map(|i| i.host).collect();
        for host in hosts {
            if rng.chance(cfg.departure_prob) {
                let orphans = manager.node_departed(host);
                let (_, lost) = manager.heal(&orphans, now);
                lost_total += lost.len() as u64;
            }
        }
        manager.register_node(next_node, ResourceCapacity::new(1_000, 1 << 30, 2_000_000));
        next_node += 1;
        manager.refresh_chain_status(now);
    }
    let (migrations_ok, _failed) = manager.migration_counts();
    let availability = manager.chain_status(chain_id).map_or(0.0, |s| {
        s.availability(SimTime::from_secs(cfg.rounds as u64))
    });
    NfvChurnReport {
        migrations_ok,
        vnfs_lost: lost_total,
        availability,
    }
}

fn t11_metrics(report: &NfvChurnReport) -> Vec<(&'static str, f64)> {
    vec![
        ("migrations_ok", report.migrations_ok as f64),
        ("vnfs_lost", report.vnfs_lost as f64),
        ("availability", report.availability),
    ]
}

fn t11_tabulate(
    manifest: &Manifest<NfvChurnConfig>,
    results: &[NfvChurnReport],
) -> ExperimentResult {
    let mut table = Table::new(
        "T11",
        "VNF migration & chain availability under churn",
        &[
            "departure %/round",
            "migrations ok",
            "vnfs lost",
            "availability %",
        ],
    );
    for (plan, r) in manifest.runs.iter().zip(results) {
        table.row(vec![
            fmt_f(plan.config.departure_prob * 100.0),
            r.migrations_ok.to_string(),
            r.vnfs_lost.to_string(),
            fmt_f(r.availability * 100.0),
        ]);
    }
    ExperimentResult::table_only(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_run_is_deterministic() {
        let manifest = t11_spec(true).manifest();
        let a = run(&manifest.runs[1]);
        let b = run(&manifest.runs[1]);
        assert_eq!(a.migrations_ok, b.migrations_ok);
        assert_eq!(a.vnfs_lost, b.vnfs_lost);
        assert_eq!(a.availability, b.availability);
    }

    #[test]
    fn zero_churn_never_loses_a_vnf() {
        let plan = RunPlan {
            run_index: 0,
            cell: 0,
            replicate: 0,
            seed: 1,
            labels: vec!["0".into()],
            config: NfvChurnConfig {
                departure_prob: 0.0,
                rounds: 20,
                nodes: 12,
                seed: 1,
            },
        };
        let r = run(&plan);
        assert_eq!(r.vnfs_lost, 0);
        assert_eq!(r.migrations_ok, 0);
        assert!(r.availability > 0.99);
    }
}
