//! TaskVM microbenchmarks: verification and execution throughput.

use airdnd_scenario::{ScenarioConfig, WorldInstance};
use airdnd_task::library;
use airdnd_task::vm::{execute, verify, ExecLimits};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_vm(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm");

    let fuse = library::grid_fuse(256);
    let inputs: Vec<i64> = (0..512).map(|i| (i % 3) as i64 - 1).collect();
    group.bench_function("execute_grid_fuse_256", |b| {
        b.iter(|| execute(black_box(&fuse), black_box(&inputs), ExecLimits::default()).unwrap())
    });

    let mm = library::matmul(8);
    let mm_inputs: Vec<i64> = (0..128).map(|i| i as i64 % 7).collect();
    group.bench_function("execute_matmul_8", |b| {
        b.iter(|| execute(black_box(&mm), black_box(&mm_inputs), ExecLimits::default()).unwrap())
    });

    // The corner scenario's offloaded kernel on a grid of the canonical
    // corner's cell count, with a few occupied cells.
    let cfg = ScenarioConfig::default();
    let cells = WorldInstance::canonical(&cfg).stage.cell_count();
    let burn = library::burn_and_echo(cfg.task_compute_rounds);
    let grid: Vec<i64> = (0..cells).map(|i| i64::from(i % 7 == 0)).collect();
    group.bench_function("execute_burn_and_echo_150", |b| {
        b.iter(|| execute(black_box(&burn), black_box(&grid), ExecLimits::default()).unwrap())
    });

    let program = library::matmul(8).into_inner();
    group.bench_function("verify_matmul_8", |b| {
        b.iter(|| verify(black_box(program.clone())).unwrap())
    });

    let wire = airdnd_task::wire::encode_program(&program);
    group.bench_function("wire_decode_matmul_8", |b| {
        b.iter(|| airdnd_task::wire::decode_program(black_box(&wire)).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_vm);
criterion_main!(benches);
