//! Radio-medium microbenchmarks: PER math and frame delivery.

use airdnd_geo::{Vec2, World};
use airdnd_radio::{NodeAddr, RadioMedium};
use airdnd_sim::{SimRng, SimTime};
use airdnd_worldgen::maps::{city, CityParams};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel");

    let (channel, _) = airdnd_radio::profiles::dsrc();
    group.bench_function("per_at_200m", |b| {
        b.iter(|| black_box(channel.per_at(black_box(200.0), true, 1.5, 8 * 512)))
    });

    // The range bisection a broadcast used to re-run on every call.
    group.bench_function("nominal_range_los", |b| {
        b.iter(|| black_box(black_box(channel).nominal_range(true)))
    });

    let mut medium = RadioMedium::v2v(World::corner_buildings(12.0, 40.0), SimRng::seed_from(1));
    for i in 0..50u64 {
        medium.set_position(
            NodeAddr::new(i + 1),
            Vec2::new((i as f64) * 15.0 - 350.0, 0.0),
        );
    }
    let mut t = 0u64;
    group.bench_function("unicast_50_node_medium", |b| {
        b.iter(|| {
            t += 1;
            medium.unicast(
                SimTime::from_micros(t * 500),
                NodeAddr::new(1),
                NodeAddr::new(20),
                512,
            )
        })
    });

    group.bench_function("broadcast_50_node_medium", |b| {
        b.iter(|| {
            t += 1;
            medium.broadcast(SimTime::from_micros(t * 500), NodeAddr::new(25), 200)
        })
    });

    // City density: a sender at the home junction of a generated city,
    // buildings included, with 90 receivers inside the broadcast horizon
    // and 30 more beyond it.
    let mut rng = SimRng::seed_from(5);
    let map = city(&CityParams::default(), &mut rng);
    let horizon = 2.0 * channel.nominal_range(true);
    let mut dense = RadioMedium::v2v(map.world, SimRng::seed_from(1));
    dense.set_position(NodeAddr::new(1), Vec2::ZERO);
    for i in 0..120u64 {
        let reach = if i < 90 {
            0.95 * rng.next_f64().sqrt()
        } else {
            1.05 + rng.next_f64()
        };
        let angle = std::f64::consts::TAU * rng.next_f64();
        let r = reach * horizon;
        dense.set_position(
            NodeAddr::new(i + 2),
            Vec2::new(r * angle.cos(), r * angle.sin()),
        );
    }
    group.bench_function("broadcast_city_density", |b| {
        b.iter(|| {
            t += 1;
            dense.broadcast(SimTime::from_micros(t * 500), NodeAddr::new(1), 200)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_channel);
criterion_main!(benches);
