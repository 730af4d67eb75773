//! Criterion benchmarks of the three QuHE stages and the whole procedure on
//! the paper's default scenario (the timing side of Fig. 5(a)/(b)).

use criterion::{criterion_group, criterion_main, Criterion};
use quhe_core::prelude::*;
use std::hint::black_box;

fn scenario() -> SystemScenario {
    SystemScenario::paper_default(42)
}

fn fast_config() -> QuheConfig {
    QuheConfig {
        max_outer_iterations: 2,
        max_stage3_iterations: 8,
        ..QuheConfig::default()
    }
}

fn bench_stage1(c: &mut Criterion) {
    let problem = Problem::new(scenario(), fast_config()).unwrap();
    c.bench_function("stage1_interior_point", |b| {
        b.iter(|| Stage1Solver::new().solve(black_box(&problem)).unwrap())
    });
}

fn bench_stage1_baselines(c: &mut Criterion) {
    let problem = Problem::new(scenario(), fast_config()).unwrap();
    let mut group = c.benchmark_group("stage1_baselines");
    group.sample_size(10);
    group.bench_function("gradient_descent", |b| {
        b.iter(|| stage1_gradient_descent(black_box(&problem)).unwrap())
    });
    group.bench_function("random_selection", |b| {
        use rand::SeedableRng;
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            stage1_random_selection(black_box(&problem), &mut rng).unwrap()
        })
    });
    group.finish();
}

fn bench_stage2(c: &mut Criterion) {
    let problem = Problem::new(scenario(), fast_config()).unwrap();
    let vars = problem.initial_point().unwrap();
    let mut group = c.benchmark_group("stage2");
    group.bench_function("threshold_sweep", |b| {
        b.iter(|| {
            Stage2Solver::new()
                .solve(black_box(&problem), black_box(&vars))
                .unwrap()
        })
    });
    group.bench_function("exhaustive", |b| {
        b.iter(|| {
            Stage2Solver::new()
                .solve_exhaustive(black_box(&problem), black_box(&vars))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_stage3(c: &mut Criterion) {
    let problem = Problem::new(scenario(), fast_config()).unwrap();
    let vars = problem.initial_point().unwrap();
    let mut group = c.benchmark_group("stage3");
    group.sample_size(10);
    group.bench_function("fractional_programming", |b| {
        b.iter(|| {
            Stage3Solver::new(8, 1e-5)
                .solve(black_box(&problem), black_box(&vars))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_whole_quhe(c: &mut Criterion) {
    let scenario = scenario();
    let config = fast_config();
    let mut group = c.benchmark_group("quhe_whole_procedure");
    group.sample_size(10);
    group.bench_function("algorithm4", |b| {
        b.iter(|| {
            QuheSolver::new(config)
                .solve(black_box(&scenario), &SolveSpec::cold())
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stage1,
    bench_stage1_baselines,
    bench_stage2,
    bench_stage3,
    bench_whole_quhe
);
criterion_main!(benches);
