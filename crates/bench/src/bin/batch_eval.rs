//! Parallel batch evaluation of the full scenario catalogue.
//!
//! Runs the selected registry solver (default `quhe`) on every scenario of
//! [`ScenarioCatalog::builtin`] across a seed grid, once serially and once on
//! the scoped worker pool via [`Solver::solve_batch`], and emits
//! `BENCH_batch.json` through the shared report writer: per-job objective,
//! gap over the `aa` registry baseline and wall-clock, plus the aggregate
//! serial/parallel walls and the measured speedup. The file is the standing
//! performance-trajectory artifact for the batch pipeline, which the
//! repository benchmark in `perfbench/` does not run.
//!
//! ```bash
//! cargo run --release -p quhe-bench --bin batch_eval            # full grid
//! cargo run --release -p quhe-bench --bin batch_eval -- --quick # CI budgets
//! cargo run --release -p quhe-bench --bin batch_eval -- --serial # no pool
//! cargo run --release -p quhe-bench --bin batch_eval -- --solver occr
//! cargo run --release -p quhe-bench --bin batch_eval -- out.json
//! ```
//!
//! Environment: `QUHE_SEED` (base seed, default 42), `QUHE_BATCH_SEEDS`
//! (seeds per scenario, default 3), `QUHE_THREADS` (pool size, default 0 =
//! available parallelism), `QUHE_SOLVER` (registry name). Both passes solve
//! the identical job list with Stage-3 multi-start forced serial
//! (`solver_threads = 1`), so the measured speedup isolates the batch-level
//! parallelism.

use std::time::Instant;

use quhe_bench::report::{grid_envelope, job_identity, solve_measurement, write};
use quhe_bench::{env_u64, env_usize, output_path, selected_solver_name};
use quhe_core::prelude::*;

/// One (scenario, seed) cell of the evaluation grid.
struct Job {
    name: String,
    seed: u64,
    scenario: SystemScenario,
}

/// The measured result of one job.
struct JobResult {
    report: SolveReport,
    aa_objective: f64,
    wall_s: f64,
}

fn run_job(job: &Job, solver: &dyn Solver, aa: &dyn Solver, spec: &SolveSpec) -> JobResult {
    // `wall_s` times the selected solve alone — it is the perf-trajectory
    // metric, so the AA baseline and the feasibility audit stay outside the
    // clock.
    let wall = Instant::now();
    let report = solver
        .solve(&job.scenario, spec)
        .unwrap_or_else(|e| panic!("{} seed {}: solve failed: {e}", job.name, job.seed));
    let wall_s = wall.elapsed().as_secs_f64();
    let aa = aa
        .solve(&job.scenario, &SolveSpec::cold())
        .unwrap_or_else(|e| panic!("{} seed {}: AA baseline failed: {e}", job.name, job.seed));
    let problem = Problem::new(job.scenario.clone(), *solver.config()).unwrap_or_else(|e| {
        panic!(
            "{} seed {}: problem construction failed: {e}",
            job.name, job.seed
        )
    });
    problem
        .check_feasible(&report.variables)
        .unwrap_or_else(|e| panic!("{} seed {}: infeasible solution: {e}", job.name, job.seed));
    JobResult {
        report,
        aa_objective: aa.objective,
        wall_s,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let serial_only = args.iter().any(|a| a == "--serial");
    let solver_name = selected_solver_name(&args);
    let out_path = output_path(&args, "BENCH_batch.json");

    let base_seed = env_u64("QUHE_SEED", 42);
    let num_seeds = env_usize("QUHE_BATCH_SEEDS", 3).max(1);
    let threads = env_usize("QUHE_THREADS", 0);
    let seeds: Vec<u64> = (0..num_seeds as u64).map(|i| base_seed + i).collect();
    // Stage-3 multi-start stays serial inside each solve: the batch is the
    // parallel axis, and nesting both pools would oversubscribe the cores.
    let config = QuheConfig {
        max_outer_iterations: if quick { 2 } else { 5 },
        max_stage3_iterations: if quick { 8 } else { 20 },
        solver_threads: 1,
        ..QuheConfig::default()
    };
    let registry = SolverRegistry::builtin_with(config);
    let solver = registry
        .resolve(&solver_name)
        .unwrap_or_else(|e| panic!("{e}"));
    let aa = registry.resolve("aa").expect("aa is a built-in");
    // The jobs only read the top-level report fields, so the lean
    // instrumentation level keeps the grid's memory flat.
    let spec = SolveSpec::cold().with_instrumentation(InstrumentationLevel::Minimal);

    let catalog = ScenarioCatalog::builtin();
    let mut jobs = Vec::new();
    for name in catalog.names() {
        for &seed in &seeds {
            let scenario = catalog
                .generate(name, seed)
                .unwrap_or_else(|e| panic!("generating {name} seed {seed}: {e}"));
            jobs.push(Job {
                name: name.to_string(),
                seed,
                scenario,
            });
        }
    }

    let pool = threadpool::ThreadPool::new(threads);
    eprintln!(
        "batch_eval: solver '{}', {} scenarios x {} seeds = {} jobs, pool of {} threads{}",
        solver.name(),
        catalog.names().len(),
        seeds.len(),
        jobs.len(),
        pool.threads(),
        if quick { " (quick budgets)" } else { "" },
    );

    let serial_results: Vec<JobResult> = jobs
        .iter()
        .map(|job| run_job(job, solver, aa, &spec))
        .collect();
    // The serial wall is the sum of the per-job solve walls (baseline and
    // feasibility audits excluded), so it measures the same work the
    // parallel pass below re-runs on the pool.
    let serial_wall_s: f64 = serial_results.iter().map(|r| r.wall_s).sum();

    let (parallel_wall_s, speedup) = if serial_only {
        (None, None)
    } else {
        let parallel_wall = Instant::now();
        let scenarios: Vec<SystemScenario> = jobs.iter().map(|j| j.scenario.clone()).collect();
        let parallel_results = solver.solve_batch(&scenarios, &spec, threads);
        let parallel_wall_s = parallel_wall.elapsed().as_secs_f64();
        // Parallel and serial passes must agree bit-for-bit: the solves share
        // no mutable state, so any divergence is a bug worth failing on.
        for ((job, serial), parallel) in jobs.iter().zip(&serial_results).zip(&parallel_results) {
            let parallel = parallel.as_ref().unwrap_or_else(|e| {
                panic!("{} seed {}: parallel solve failed: {e}", job.name, job.seed)
            });
            assert_eq!(
                serial.report.objective, parallel.objective,
                "{} seed {}: serial and parallel objectives diverged",
                job.name, job.seed
            );
        }
        (Some(parallel_wall_s), Some(serial_wall_s / parallel_wall_s))
    };

    let job_values: Vec<JsonValue> = jobs
        .iter()
        .zip(&serial_results)
        .map(|(job, result)| {
            let mut value = job_identity(&job.name, job.seed, job.scenario.num_clients());
            solve_measurement(&mut value, &result.report, result.wall_s);
            value.set("aa_objective", JsonValue::from_f64(result.aa_objective));
            value.set(
                "gap_over_aa",
                JsonValue::from_f64(result.report.objective - result.aa_objective),
            );
            value
        })
        .collect();

    let opt_f64 = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::from_f64);
    let document = grid_envelope(
        "quhe-batch/v2",
        if quick { "quick" } else { "full" },
        solver.name(),
        &catalog.names(),
        &seeds,
    )
    .with("threads", JsonValue::from_usize(pool.threads()))
    .with("jobs", JsonValue::Array(job_values))
    .with("serial_wall_s", JsonValue::from_f64(serial_wall_s))
    .with("parallel_wall_s", opt_f64(parallel_wall_s))
    .with("speedup", opt_f64(speedup));
    write(&out_path, &document);

    // Standing invariant of the batch pipeline: no built-in solver loses to
    // the average-allocation baseline on any scenario of the grid (AA itself
    // ties it by definition).
    for (job, result) in jobs.iter().zip(&serial_results) {
        assert!(
            result.report.objective >= result.aa_objective - 1e-6,
            "{} seed {}: {} ({}) lost to AA ({})",
            job.name,
            job.seed,
            solver.name(),
            result.report.objective,
            result.aa_objective
        );
    }
    if let Some(speedup) = speedup {
        eprintln!("parallel speedup over serial: {speedup:.2}x");
    }
}
