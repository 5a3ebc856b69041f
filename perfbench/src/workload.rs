//! The three workloads of record and how their inputs derive from a seed.
//!
//! The benchmark seed is the only source of variation: every workload
//! derives its scenario seeds from it with [`mix`], generates its worlds
//! through `airdnd-worldgen` (or the canonical corner stage), and hands
//! the simulator nothing but the resulting `WorldInstance` and
//! `ScenarioConfig`.

use airdnd_scenario::{ScenarioConfig, Strategy, WorldInstance};
use airdnd_sim::SimDuration;
use airdnd_worldgen::{assign_extra_egos, ChurnProcess, CityParams, FamilyKind, FleetProfile};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's corner stage at four fleet sizes.
    CornerOffload,
    /// A large G5 city with few egos: per-tick O(fleet) upkeep dominates.
    CityFleet,
    /// A smaller city with hundreds of egos and heavy fleet churn.
    EgoStorm,
}

/// One scenario run's inputs: exactly what the simulator receives.
#[derive(Clone, Debug)]
pub struct RunInput {
    /// The generated world.
    pub world: WorldInstance,
    /// The scenario knobs.
    pub cfg: ScenarioConfig,
}

/// Fleet sizes of `corner-offload`, each run at [`CORNER_REPLICATES`] seeds.
const CORNER_FLEETS: [usize; 4] = [4, 8, 12, 16];
const CORNER_REPLICATES: u64 = 6;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CornerOffload,
        Workload::CityFleet,
        Workload::EgoStorm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CornerOffload => "corner-offload",
            Workload::CityFleet => "city-fleet",
            Workload::EgoStorm => "ego-storm",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The map family the workload's worlds come from (the input of the
    /// `worldgen.instantiate_ms` probe).
    pub fn family(self) -> FamilyKind {
        match self {
            Workload::CornerOffload => FamilyKind::Corner,
            Workload::CityFleet => FamilyKind::City(CityParams::with_districts(8, 8)),
            Workload::EgoStorm => FamilyKind::City(CityParams::with_districts(4, 4)),
        }
    }

    /// The fleet profile handed to the family generator.
    pub fn profile(self) -> FleetProfile {
        match self {
            Workload::CornerOffload => FleetProfile {
                vehicles: 12,
                parked: 0,
                arrival_window_s: 20.0,
            },
            Workload::CityFleet => city_profile(2_560),
            Workload::EgoStorm => city_profile(640),
        }
    }

    /// Query origins per run (the primary ego included).
    pub fn egos(self) -> usize {
        match self {
            Workload::CornerOffload => 1,
            Workload::CityFleet => 16,
            Workload::EgoStorm => 256,
        }
    }

    /// Generates one pass's inputs from the benchmark seed: world
    /// generation, corridor derivation, ego assignment and the churn
    /// schedule — everything before the first simulated tick.
    pub fn inputs(self, seed: u64) -> Vec<RunInput> {
        match self {
            Workload::CornerOffload => CORNER_FLEETS
                .iter()
                .flat_map(|&vehicles| {
                    (0..CORNER_REPLICATES).map(move |k| {
                        let cfg = ScenarioConfig {
                            seed: mix(seed, k),
                            vehicles,
                            strategy: Strategy::Airdnd,
                            duration: SimDuration::from_secs(60),
                            ..Default::default()
                        };
                        let world = self.family().instantiate(&cfg, &self.profile());
                        RunInput { world, cfg }
                    })
                })
                .collect(),
            Workload::CityFleet => {
                // One query per ego per second (the G5 default is one per
                // 2.5 s): 2.5× the latency samples for ~10 % more wall time,
                // so the simulated outcome stops swinging with the seed.
                let mut input = self.city_input(seed, 30);
                input.cfg.task_every_ticks = 2;
                vec![input]
            }
            Workload::EgoStorm => {
                // 30 s rather than the G5 ego leg's 20 s: the runner sizes
                // each ego's gas budget with one kernel run at start-up,
                // outside the six profiled phases, and a longer run
                // amortises that over more ticks.
                let mut input = self.city_input(seed, 30);
                let churn = ChurnProcess {
                    arrivals_per_min: 60.0,
                    departures_per_min: 60.0,
                    abrupt_fraction: 0.5,
                };
                input.world.schedule = churn.schedule(
                    input.cfg.duration.as_secs_f64(),
                    input.world.stage.net.arm_count(),
                    input.cfg.seed,
                );
                vec![input]
            }
        }
    }

    fn city_input(self, seed: u64, secs: u64) -> RunInput {
        let profile = self.profile();
        let cfg = city_recipe(mix(seed, 0), secs).with_vehicles(profile.vehicles);
        let mut world = self.family().instantiate(&cfg, &profile);
        assign_extra_egos(&mut world, self.egos() - 1, cfg.hidden_agents);
        RunInput { world, cfg }
    }
}

fn city_profile(vehicles: usize) -> FleetProfile {
    FleetProfile {
        vehicles,
        parked: 2,
        arrival_window_s: 10.0,
    }
}

/// The G5 city recipe: a 500 ms tick with mesh timers scaled to it (one
/// beacon per tick, the neighbour timeout at 3.5 beacons) and the MAC
/// queue capped at a 100 ms frame lifetime.
fn city_recipe(seed: u64, secs: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        seed,
        duration: SimDuration::from_secs(secs),
        strategy: Strategy::Airdnd,
        ..Default::default()
    };
    cfg.tick = SimDuration::from_millis(500);
    cfg.mesh.beacon_interval = SimDuration::from_millis(500);
    cfg.mesh.neighbor_timeout = SimDuration::from_millis(1_750);
    cfg.radio_queue_cap = Some(SimDuration::from_millis(100));
    cfg
}

/// SplitMix64 of `seed` and a stream tag: nearby benchmark seeds give
/// unrelated scenario seeds.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
