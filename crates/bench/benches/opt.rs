//! Criterion benchmarks of the optimization toolkit on problems shaped like
//! the QuHE subproblems (ablation: projected gradient vs. Newton vs. barrier
//! on the same convex objective). The Stage-2 sweep vs. exhaustive search
//! ablation lives in the `stage2` group of the `stages` benches.

use criterion::{criterion_group, criterion_main, Criterion};
use quhe_opt::prelude::*;
use std::hint::black_box;

/// A smooth convex bowl in six dimensions (the Stage-1 dimensionality).
fn bowl(x: &[f64]) -> f64 {
    x.iter()
        .enumerate()
        .map(|(i, v)| (v - 0.3 * (i as f64 + 1.0)).powi(2) * (1.0 + i as f64 * 0.2))
        .sum()
}

fn bench_continuous_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("convex_solvers_6d");
    let start = vec![2.0; 6];
    let boxp = BoxProjection::uniform(6, -5.0, 5.0).unwrap();

    group.bench_function("projected_gradient", |b| {
        let solver = ProjectedGradient::default();
        b.iter(|| solver.minimize(&bowl, &boxp, black_box(&start)).unwrap())
    });
    group.bench_function("damped_newton", |b| {
        let solver = DampedNewton::default();
        b.iter(|| {
            solver
                .minimize(&bowl, &|_: &[f64]| true, black_box(&start))
                .unwrap()
        })
    });
    group.bench_function("log_barrier", |b| {
        let solver = BarrierSolver::default();
        b.iter(|| {
            let problem = quhe_opt::barrier::FnProblem::new(6, bowl, |x: &[f64]| {
                let mut g: Vec<f64> = x.iter().map(|v| -v - 5.0).collect();
                g.extend(x.iter().map(|v| v - 5.0));
                g
            })
            .with_start(vec![2.0; 6]);
            solver.solve(&problem, None).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_continuous_solvers);
criterion_main!(benches);
