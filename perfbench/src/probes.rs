//! Layer probes: the benchmark times single public calls of each layer,
//! with inputs taken from the workload's own generated world.
//!
//! Each probe calibrates a batch size so one batch lasts about
//! [`BATCH_TARGET_S`], runs [`BATCHES`] batches, records each batch as a
//! span, and reports the median time per call.

use crate::metrics::{median, Metrics};
use crate::trace::{SpanId, Tracer};
use crate::workload::{RunInput, Workload};
use airdnd_core::protocol::RequesterBook;
use airdnd_data::{DataCatalog, DataQuery, DataType, QualityDescriptor, QualityRequirement};
use airdnd_engine::{SpatialGrid, Timeline};
use airdnd_geo::{ObstacleIndex, Vec2};
use airdnd_mesh::{Beacon, MeshMsg, MeshNode, NodeAdvert};
use airdnd_radio::{NodeAddr, RadioMedium};
use airdnd_scenario::{Fleet, FleetLayout, ScenarioConfig, ScenarioWorld};
use airdnd_sim::{SimDuration, SimRng, SimTime};
use airdnd_task::vm::{execute, verify, ExecLimits};
use airdnd_task::{library, wire, ResourceRequirements, TaskId, TaskSpec};
use airdnd_trust::ReputationTable;
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; the probe reports their median.
const BATCHES: usize = 15;
/// Target duration of one batch, seconds.
const BATCH_TARGET_S: f64 = 0.002;

/// The load one workload puts on its layers, read from its own world and
/// from the outcome of its first pass.
pub struct ProbeLoad {
    cfg: ScenarioConfig,
    workload: Workload,
    medium_world: airdnd_geo::World,
    obstacle_loss_db: Option<f64>,
    /// Distinct per-ego grids the sensors rasterize, with their LOS index.
    stages: Vec<(ScenarioWorld, ObstacleIndex)>,
    hidden_agents: Vec<Vec2>,
    /// Vehicle positions once the arrival window has passed.
    positions: Vec<Vec2>,
    /// Mesh neighbours per node: the ego's mean member count.
    neighbors: usize,
    /// Queries in flight per requester: deadline ÷ query period.
    pending: usize,
}

impl ProbeLoad {
    /// Derives the load from the pass input with the largest fleet and
    /// that run's mean mesh size.
    pub fn new(workload: Workload, input: &RunInput, mean_members: f64) -> Self {
        let RunInput { world, cfg } = input;
        let mut world = world.clone();
        world.ensure_ego_stages();
        let mut stages: Vec<(ScenarioWorld, ObstacleIndex)> = Vec::new();
        for stage in std::iter::once(&world.stage).chain(&world.extra_ego_stages) {
            if !stages
                .iter()
                .any(|(s, _)| s.hidden_region == stage.hidden_region)
            {
                stages.push((stage.clone(), stage.los_index()));
            }
        }
        let layout = FleetLayout {
            ego_arm: world.ego_arm,
            parked: world.parked.clone(),
            arrival_window_s: world.arrival_window_s,
        };
        let mut rng = SimRng::seed_from(cfg.seed);
        let mut fleet = Fleet::spawn(
            &world.stage,
            cfg.vehicles,
            cfg.gas_rate_range,
            cfg.sensor_range,
            cfg.byzantine_fraction,
            cfg.orch,
            cfg.mesh,
            &layout,
            &mut rng,
        );
        let dt = cfg.tick.as_secs_f64();
        let steps = (world.arrival_window_s / dt).ceil() as usize;
        for _ in 0..steps {
            fleet.step_all(&world.stage, dt);
        }
        let positions: Vec<Vec2> = fleet.iter().map(|v| v.pos()).collect();
        let period_s = cfg.task_every_ticks as f64 * dt;
        let deadline_s = 1.0;
        ProbeLoad {
            cfg: *cfg,
            workload,
            medium_world: world.stage.world.clone(),
            obstacle_loss_db: world.obstacle_loss_db,
            stages,
            hidden_agents: world.hidden_agents.clone(),
            positions,
            neighbors: (mean_members.round() as usize).max(1),
            pending: ((deadline_s / period_s).ceil() as usize).max(1),
        }
    }

    /// A one-line description of the probe inputs.
    pub fn describe(&self) -> String {
        format!(
            "probe load: {} vehicles, {} sensor grids, {} neighbours, {} pending queries, {} compute rounds, {} obstacles",
            self.positions.len(),
            self.stages.len(),
            self.neighbors,
            self.pending,
            self.cfg.task_compute_rounds,
            self.medium_world.obstacle_count()
        )
    }
}

/// Times `op` in calibrated batches under a span named `name`; returns the
/// median seconds per call. `op` receives a call counter that runs on
/// across batches.
fn time_calls(
    tracer: &mut Tracer,
    parent: SpanId,
    name: &'static str,
    mut op: impl FnMut(u64),
) -> f64 {
    let probe = tracer.open(name, Some(parent));
    let mut counter = 0u64;
    let mut calls = 1u64;
    let seconds_per_call = loop {
        let started = Instant::now();
        for _ in 0..calls {
            op(counter);
            counter += 1;
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= BATCH_TARGET_S / 4.0 || calls >= 1 << 24 {
            break elapsed / calls as f64;
        }
        calls *= 2;
    };
    let calls = ((BATCH_TARGET_S / seconds_per_call.max(1e-12)).round() as u64).clamp(1, 1 << 26);
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let batch = tracer.open("probe.batch", Some(probe));
        for _ in 0..calls {
            op(counter);
            counter += 1;
        }
        per_call.push(tracer.close(batch) / calls as f64);
    }
    tracer.close(probe);
    median(&per_call)
}

fn perception_spec(id: u64, cfg: &ScenarioConfig, stage: &ScenarioWorld) -> TaskSpec {
    TaskSpec::new(
        TaskId::new(id),
        "corner-view",
        library::burn_and_echo(cfg.task_compute_rounds).into_inner(),
    )
    .with_input(DataQuery {
        data_type: DataType::OccupancyGrid,
        requirement: QualityRequirement {
            max_age: SimDuration::from_secs(1),
            required_region: Some(stage.hidden_region),
            min_coverage_fraction: 0.3,
            ..Default::default()
        },
    })
    .with_requirements(ResourceRequirements {
        gas: 10_000_000,
        memory_bytes: 1 << 16,
        input_bytes: 512,
        output_bytes: stage.cell_count() as u64 * 8,
        deadline: SimDuration::from_secs(1),
    })
}

fn grid_quality(stage: &ScenarioWorld, at: SimTime) -> QualityDescriptor {
    QualityDescriptor {
        produced_at: at,
        confidence: 0.9,
        resolution: 1.0 / stage.cell_size,
        coverage: Some(stage.hidden_region),
        noise_sigma: 0.0,
    }
}

/// A node's catalog (64 items) filled with occupancy grids, as every
/// sensing vehicle's is after its first refreshes.
fn full_catalog(stage: &ScenarioWorld) -> DataCatalog {
    let mut catalog = DataCatalog::new(64);
    for k in 0..64 {
        catalog.insert(
            DataType::OccupancyGrid,
            stage.cell_count() as u64 * 8,
            grid_quality(stage, SimTime::from_millis(k)),
        );
    }
    catalog
}

/// The advert a sensing vehicle beacons.
fn sensing_advert(stage: &ScenarioWorld) -> NodeAdvert {
    NodeAdvert {
        gas_rate: 2_000_000,
        gas_backlog: 0,
        mem_free_bytes: 1 << 30,
        accepting: true,
        catalog: full_catalog(stage).summarize(),
    }
}

fn beacon(src: NodeAddr, seq: u64, pos: Vec2, advert: &NodeAdvert) -> Beacon {
    Beacon {
        src,
        seq,
        pos,
        velocity: Vec2::new(10.0, 0.0),
        advert: advert.clone(),
        members: Vec::new(),
    }
}

/// Runs every probe and records its metric.
pub fn run_all(load: &ProbeLoad, tracer: &mut Tracer, parent: SpanId, out: &mut Metrics) {
    let us = 1e6;
    let cfg = &load.cfg;
    let (stage, los) = &load.stages[0];
    let n = load.positions.len() as u64;
    let t0 = SimTime::from_secs(30);

    // task: the offloaded perception kernel, on a fully observed grid.
    let program = library::burn_and_echo(cfg.task_compute_rounds).into_inner();
    let secs = time_calls(tracer, parent, "probe.task.verify", |_| {
        black_box(verify(black_box(program.clone())).is_ok());
    });
    out.set("task.verify_us", secs * us);
    let verified = verify(program.clone()).expect("library kernels verify");
    let grid = stage.rasterize_with(
        los,
        stage.hidden_region.center(),
        cfg.sensor_range,
        &load.hidden_agents,
    );
    let secs = time_calls(tracer, parent, "probe.task.execute", |_| {
        black_box(execute(&verified, black_box(&grid), ExecLimits::default()).is_ok());
    });
    out.set("task.execute_us", secs * us);
    let bytes = wire::encode_spec(&perception_spec(1, cfg, stage));
    let secs = time_calls(tracer, parent, "probe.task.wire_decode", |_| {
        black_box(wire::decode_spec(black_box(&bytes)).is_ok());
    });
    out.set("task.wire_decode_us", secs * us);

    // mesh: one node holding `neighbors` neighbours, all of them members.
    let advert = sensing_advert(stage);
    let mut node = MeshNode::new(NodeAddr::new(1), cfg.mesh, advert.clone());
    let peers: Vec<NodeAddr> = (0..load.neighbors as u64)
        .map(|p| NodeAddr::new(p + 2))
        .collect();
    for (k, &peer) in peers.iter().enumerate() {
        let pos = load.positions[k % load.positions.len()];
        node.on_message(t0, peer, MeshMsg::Beacon(beacon(peer, 0, pos, &advert)));
        node.on_message(
            t0,
            peer,
            MeshMsg::JoinRequest {
                advert: advert.clone(),
                pos,
                velocity: Vec2::ZERO,
            },
        );
    }
    // Timer calls stay inside the neighbour timeout, so every call scans
    // the full table without pruning it.
    let secs = time_calls(tracer, parent, "probe.mesh.on_timer", |_| {
        black_box(node.on_timer(t0));
    });
    out.set("mesh.on_timer_us", secs * us);
    let secs = time_calls(tracer, parent, "probe.mesh.beacon_ingest", |i| {
        let peer = peers[(i % peers.len() as u64) as usize];
        let msg = MeshMsg::Beacon(beacon(peer, i + 1, load.positions[0], &advert));
        black_box(node.on_message(t0, peer, msg));
    });
    out.set("mesh.beacon_ingest_us", secs * us);

    // core: a requester with `pending` queries out, none of them due.
    let mut book = RequesterBook::new();
    let ranked: Vec<NodeAddr> = peers
        .iter()
        .copied()
        .take(cfg.orch.max_candidates)
        .collect();
    for k in 0..load.pending as u64 {
        book.submit(
            t0,
            perception_spec(k + 1, cfg, stage),
            ranked.clone(),
            &cfg.orch,
        );
    }
    let mut trust = ReputationTable::default();
    let idle = t0 + SimDuration::from_millis(50);
    let secs = time_calls(tracer, parent, "probe.core.requester_tick", |_| {
        black_box(book.on_tick(idle, &cfg.orch, &mut trust));
    });
    out.set("core.requester_tick_us", secs * us);

    // radio: every vehicle beacons once per interval over the real map.
    let mut medium = RadioMedium::v2v(load.medium_world.clone(), SimRng::seed_from(cfg.seed));
    if let Some(loss_db) = load.obstacle_loss_db {
        medium.set_obstacle_loss_db(loss_db);
    }
    medium.set_max_queue_delay(cfg.radio_queue_cap);
    for (k, &pos) in load.positions.iter().enumerate() {
        medium.set_position(NodeAddr::new(k as u64 + 1), pos);
    }
    let beacon_bytes = beacon(NodeAddr::new(1), 0, Vec2::ZERO, &advert).wire_size_bytes();
    let spacing_ns = (cfg.mesh.beacon_interval.as_nanos() / n.max(1)).max(1);
    let secs = time_calls(tracer, parent, "probe.radio.broadcast", |i| {
        let now = t0 + SimDuration::from_nanos(i * spacing_ns);
        let src = NodeAddr::new(i % n + 1);
        black_box(medium.broadcast(now, src, beacon_bytes));
    });
    out.set("radio.broadcast_us", secs * us);

    // engine: the carrier-sense grid and the event timeline at fleet size.
    let mut grid_index: SpatialGrid<u64> = SpatialGrid::new(600.0);
    for (k, &pos) in load.positions.iter().enumerate() {
        grid_index.insert(k as u64, pos);
    }
    let secs = time_calls(tracer, parent, "probe.engine.grid_query", |i| {
        let center = load.positions[(i % n) as usize];
        black_box(grid_index.query_within(center, 600.0));
    });
    out.set("engine.grid_query_us", secs * us);
    let tick_ns = cfg.tick.as_nanos();
    let mut delays = SimRng::seed_from(cfg.seed ^ 0x71AE);
    let delays: Vec<u64> = (0..4_096)
        .map(|_| (delays.next_f64() * tick_ns as f64) as u64)
        .collect();
    let mut timeline: Timeline<u64> = Timeline::new();
    for k in 0..n {
        timeline.schedule_at(
            t0 + SimDuration::from_nanos(delays[(k % 4_096) as usize]),
            k,
        );
    }
    let horizon = SimTime::from_secs(1 << 30);
    let secs = time_calls(tracer, parent, "probe.engine.timeline_op", |i| {
        let delay = SimDuration::from_nanos(delays[(i % 4_096) as usize]);
        timeline.schedule_at(timeline.now() + delay, i);
        black_box(timeline.pop_before(horizon));
    });
    out.set("engine.timeline_op_ns", secs * 1e9);

    // scenario + geo + data: one vehicle's sensor refresh of one grid.
    let stage_count = load.stages.len() as u64;
    let secs = time_calls(tracer, parent, "probe.scenario.rasterize", |i| {
        let (sensed, index) = &load.stages[((i / n) % stage_count) as usize];
        let pos = load.positions[(i % n) as usize];
        black_box(sensed.rasterize_with(index, pos, cfg.sensor_range, &load.hidden_agents));
    });
    out.set("scenario.rasterize_us", secs * us);
    let mut sight_lines: Vec<(usize, Vec2, Vec2)> = Vec::new();
    for (s, (sensed, _)) in load.stages.iter().enumerate() {
        let target = sensed.hidden_region.center();
        for &pos in &load.positions {
            if pos.distance(target) <= cfg.sensor_range {
                sight_lines.push((s, pos, target));
            }
        }
    }
    if sight_lines.is_empty() {
        let target = stage.hidden_region.center();
        sight_lines.push((0, target + Vec2::new(cfg.sensor_range / 2.0, 0.0), target));
    }
    let lines = sight_lines.len() as u64;
    let secs = time_calls(tracer, parent, "probe.geo.los", |i| {
        let (s, a, b) = sight_lines[(i % lines) as usize];
        black_box(load.stages[s].1.line_of_sight(a, b));
    });
    out.set("geo.los_us", secs * us);
    let mut catalog = full_catalog(stage);
    let item_bytes = stage.cell_count() as u64 * 8;
    // Every insert into the full catalog evicts its oldest item.
    let secs = time_calls(tracer, parent, "probe.data.catalog_insert", |i| {
        let quality = grid_quality(stage, t0 + SimDuration::from_micros(i));
        black_box(catalog.insert(DataType::OccupancyGrid, item_bytes, quality));
    });
    out.set("data.catalog_insert_us", secs * us);

    // worldgen: one world of the workload's family.
    let family = load.workload.family();
    let profile = load.workload.profile();
    let secs = time_calls(tracer, parent, "probe.worldgen.instantiate", |_| {
        black_box(family.instantiate(cfg, &profile));
    });
    out.set("worldgen.instantiate_ms", secs * 1e3);
}
