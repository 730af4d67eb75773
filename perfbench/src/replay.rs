//! The traced replay: the same seeded requests, pushed in-process through the
//! public function of each layer with a span around every call.
//!
//! [`Replay::request`] follows the serving order of `SolveService::handle` —
//! decode, resolve, fingerprint, exact lookup, then on a miss the anchor
//! lookup and the warm → floor guard → cold fallback policy or a cold solve,
//! the cache insert, and the encode — but calls each layer from this file, so
//! the spans measure the layers from outside the program. The path it takes
//! (hit, warm, fallback, cold) must match the tag the server returned for
//! the same request sequence.
//!
//! [`Replay::probe`] adds standalone calls the workloads cannot isolate: one
//! cold solve and two drift steps per world, each stage solved alone from
//! `Problem::initial_point`, and the `quhe-opt` kernels at the Stage-3 packed
//! dimensions of `paper_default` (24) and `dense_cell` (128).

use std::collections::BTreeMap;
use std::time::Instant;

use quhe_core::online::prepare_warm_tracking;
use quhe_core::params::QuheConfig;
use quhe_core::problem::Problem;
use quhe_core::solver::{SolveReport, SolveSpec, StartMode};
use quhe_core::stage1::Stage1Solver;
use quhe_core::stage2::Stage2Solver;
use quhe_core::stage3::Stage3Solver;
use quhe_opt::linalg::{CholeskyFactor, DenseMatrix};
use quhe_opt::newton::{DampedNewton, NewtonWorkspace};
use quhe_opt::projection::{Projection, SimplexCapProjection};
use quhe_serve::wire::{self, Protocol};
use quhe_serve::{
    CacheEntry, CacheOutcome, ScenarioCache, ScenarioSpec, ServiceConfig, SolveResponse,
    SolveService, DEFAULT_CACHE_CAPACITY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{probe_seeds, Key, Request, WORLDS};
use crate::server::solver_config;
use crate::trace::Recorder;

/// Stage-3 packed dimensions (4 × clients) of `paper_default` and
/// `dense_cell`, where the Cholesky kernels are timed.
pub const CHOLESKY_DIMS: [usize; 2] = [24, 128];

/// Counters the replay keeps next to its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    /// Requests per path.
    pub paths: BTreeMap<&'static str, usize>,
    /// Warm attempts (warm kept plus fallbacks).
    pub warm_attempts: usize,
    /// Warm solves kept.
    pub warm_kept: usize,
    /// Sum of the solve-path outer iterations of warm attempts.
    pub path_outer_iters: usize,
    /// Sum of the floor-guard outer iterations of warm attempts.
    pub guard_outer_iters: usize,
    /// `(world, outer iterations, stage-3 calls)` of every cold solve.
    pub cold_solves: Vec<(usize, usize, usize)>,
    /// Encoded reply sizes in bytes.
    pub reply_bytes: Vec<usize>,
    /// `(world, stage-1 iterations, stage-2 leaves, stage-3 iterations)` of
    /// the standalone stage probes.
    pub stages: Vec<(usize, usize, usize, usize)>,
    /// Kernel timings in nanoseconds per call, by metric name.
    pub kernels: BTreeMap<String, f64>,
}

/// The in-process replica of the serving path, with its own cache.
#[derive(Debug)]
pub struct Replay {
    service: SolveService,
    cache: ScenarioCache,
    /// Spans of everything replayed so far.
    pub recorder: Recorder,
    /// Counters of everything replayed so far.
    pub counts: ReplayCounts,
}

impl Default for Replay {
    fn default() -> Self {
        Self::new()
    }
}

/// The best of the warm, floor and cold candidates (the service's fallback
/// rule), and whether the cold solve won.
fn best_of(warm: SolveReport, floor: SolveReport, cold: SolveReport) -> (SolveReport, bool) {
    let mut kept = warm;
    if floor.objective > kept.objective {
        kept = floor;
    }
    if cold.objective > kept.objective {
        return (cold, true);
    }
    (kept, false)
}

impl Replay {
    /// A replica over the benchmark's solver configuration and an empty cache
    /// of the service's default capacity.
    pub fn new() -> Self {
        Self {
            service: ServiceConfig::new(solver_config()).build(),
            cache: ScenarioCache::new(DEFAULT_CACHE_CAPACITY),
            recorder: Recorder::new(),
            counts: ReplayCounts::default(),
        }
    }

    /// Replays one request under request id `seq`; returns the path taken.
    pub fn request(&mut self, seq: usize, request: &Request) -> Result<CacheOutcome, String> {
        self.recorder.set_request(seq);
        self.recorder.begin("request", None);
        let result = self.serve(request);
        self.recorder.end();
        let outcome = result?;
        *self.counts.paths.entry(outcome.tag()).or_default() += 1;
        Ok(outcome)
    }

    fn serve(&mut self, request: &Request) -> Result<CacheOutcome, String> {
        let Self {
            service,
            cache,
            recorder: rec,
            counts,
        } = self;
        let world = request.key.world();
        let (_, _, parsed) = rec.span("wire.decode_s", None, || {
            wire::parse_request(request.body())
        });
        let parsed = parsed.map_err(|e| e.to_string())?;
        let resolve = match parsed.scenario {
            ScenarioSpec::Drifted { .. } => "request.resolve_drifted_s",
            _ => "request.resolve_catalog_s",
        };
        let scenario = rec
            .span(resolve, None, || service.resolve_scenario(&parsed.scenario))
            .map_err(|e| e.to_string())?;
        let solver = service
            .registry()
            .resolve(&parsed.solver)
            .map_err(|e| e.to_string())?;
        let spec = &parsed.spec;
        let spec_key = spec.to_json_value().to_compact_string();
        let fingerprint = rec.span("fingerprint.full_s", None, || scenario.fingerprint());
        let lookup = |rec: &mut Recorder| {
            rec.span("cache.lookup_exact_s", None, || {
                cache.lookup_exact(fingerprint, &scenario, &parsed.solver, &spec_key)
            })
        };
        let hit = lookup(rec);
        let (outcome, report, path_iters, guard_iters, shape) = if let Some(report) = hit {
            let shape = rec.span("fingerprint.shape_s", None, || scenario.shape_fingerprint());
            (CacheOutcome::Hit, report, 0, 0, shape)
        } else {
            // The miss path fingerprints again and re-checks the exact index
            // before solving, as the service's leader does.
            let _ = rec.span("fingerprint.full_s", None, || scenario.fingerprint());
            let shape = rec.span("fingerprint.shape_s", None, || scenario.shape_fingerprint());
            if let Some(report) = lookup(rec) {
                (CacheOutcome::Hit, report, 0, 0, shape)
            } else {
                let anchor =
                    if matches!(spec.start(), StartMode::Cold) && solver.supports_warm_start() {
                        rec.span("cache.lookup_anchor_s", None, || {
                            cache.lookup_anchor(shape, &parsed.solver, &scenario)
                        })
                    } else {
                        None
                    };
                let (outcome, report, anchor_flag, path_iters, guard_iters) = match anchor {
                    Some(anchor) => {
                        let _ = rec.span("fingerprint.drift_distance_s", None, || {
                            scenario.drift_distance(&anchor.scenario)
                        });
                        let config = spec.effective_config(solver.config());
                        let warm = rec
                            .span("service.warm_solve_s", None, || {
                                let (problem, start) = prepare_warm_tracking(
                                    &config,
                                    &scenario,
                                    anchor.report.objective,
                                    &anchor.report.variables,
                                )?;
                                solver.with_config(*problem.config()).solve_prepared(
                                    &problem,
                                    &SolveSpec::warm_from(start)
                                        .with_instrumentation(spec.instrumentation()),
                                )
                            })
                            .map_err(|e| e.to_string())?;
                        let floor = rec
                            .span("service.guard_solve_s", None, || {
                                solver.with_config(config).solve(
                                    &scenario,
                                    &SolveSpec::single_start()
                                        .with_instrumentation(spec.instrumentation()),
                                )
                            })
                            .map_err(|e| e.to_string())?;
                        counts.warm_attempts += 1;
                        counts.guard_outer_iters += floor.outer_iterations;
                        let guard_iters = floor.outer_iterations;
                        if warm.objective >= floor.objective {
                            counts.warm_kept += 1;
                            counts.path_outer_iters += warm.outer_iterations;
                            let path_iters = warm.outer_iterations;
                            (CacheOutcome::Warm, warm, false, path_iters, guard_iters)
                        } else {
                            let cold = rec
                                .span("service.fallback_solve_s", None, || {
                                    solver.solve(&scenario, spec)
                                })
                                .map_err(|e| e.to_string())?;
                            let path_iters = warm.outer_iterations + cold.outer_iterations;
                            counts.path_outer_iters += path_iters;
                            let (kept, cold_won) = best_of(warm, floor, cold);
                            (
                                CacheOutcome::WarmFallback,
                                kept,
                                cold_won,
                                path_iters,
                                guard_iters,
                            )
                        }
                    }
                    None => {
                        let report = rec
                            .span("core.cold_solve_s", Some(world), || {
                                solver.solve(&scenario, spec)
                            })
                            .map_err(|e| e.to_string())?;
                        counts.cold_solves.push((
                            world,
                            report.outer_iterations,
                            report.stage_calls[2],
                        ));
                        let iters = report.outer_iterations;
                        let anchor = matches!(spec.start(), StartMode::Cold);
                        (CacheOutcome::Cold, report, anchor, iters, 0)
                    }
                };
                rec.span("cache.insert_s", None, || {
                    cache.insert(CacheEntry {
                        scenario: scenario.clone(),
                        fingerprint,
                        shape,
                        solver: parsed.solver.clone(),
                        spec_key: spec_key.clone(),
                        report: report.clone(),
                        anchor: anchor_flag && spec.multi_start(),
                    });
                });
                (outcome, report, path_iters, guard_iters, shape)
            }
        };
        let response = SolveResponse {
            id: parsed.id.clone(),
            solver: parsed.solver.clone(),
            cache: outcome,
            fingerprint,
            shape_fingerprint: shape,
            service_wall_s: 0.0,
            path_outer_iterations: path_iters,
            guard_outer_iterations: guard_iters,
            report,
        };
        let body = rec.span("wire.encode_s", None, || {
            wire::ok_envelope(Protocol::V2, &response)
        });
        counts.reply_bytes.push(body.len());
        Ok(outcome)
    }

    /// The standalone probes, seeded by `seed`; request ids continue from
    /// `first_seq`.
    pub fn probe(&mut self, seed: u64, first_seq: usize) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e_656c_0000);
        let config = solver_config();
        let mut seq = first_seq;
        for (world, probe_seed) in probe_seeds(seed).into_iter().enumerate() {
            // A cold solve, then two drift steps that take the warm path.
            let keys = [
                Key::Catalog {
                    world,
                    seed: probe_seed,
                },
                Key::Drifted {
                    world,
                    seed: probe_seed,
                    step: 1,
                },
                Key::Drifted {
                    world,
                    seed: probe_seed,
                    step: 2,
                },
            ];
            for key in keys {
                self.request(seq, &Request::new(format!("p-{seq}"), key))?;
                seq += 1;
            }
            self.stage_probe(world, probe_seed, &config, seq)?;
            seq += 1;
        }
        self.kernel_probe(&mut rng);
        Ok(())
    }

    /// Each stage alone from `Problem::initial_point`, with the settings the
    /// QuHE algorithm gives it.
    fn stage_probe(
        &mut self,
        world: usize,
        seed: u64,
        config: &QuheConfig,
        seq: usize,
    ) -> Result<(), String> {
        let scenario = self
            .service
            .catalog()
            .generate(WORLDS[world], seed)
            .map_err(|e| e.to_string())?;
        let problem = Problem::new(scenario, *config).map_err(|e| e.to_string())?;
        let start = problem.initial_point().map_err(|e| e.to_string())?;
        let rec = &mut self.recorder;
        rec.set_request(seq);
        let stage1 = rec
            .span("stage1.solve_s", Some(world), || {
                Stage1Solver::new().solve(&problem)
            })
            .map_err(|e| e.to_string())?;
        let stage2 = rec
            .span("stage2.solve_s", Some(world), || {
                Stage2Solver::new().solve(&problem, &start)
            })
            .map_err(|e| e.to_string())?;
        let stage3_solver =
            Stage3Solver::new(config.max_stage3_iterations, config.tolerance * 1e-2)
                .with_threads(config.solver_threads);
        let stage3 = rec
            .span("stage3.solve_s", Some(world), || {
                stage3_solver.solve(&problem, &start)
            })
            .map_err(|e| e.to_string())?;
        self.counts.stages.push((
            world,
            stage1.iterations,
            stage2.leaves_evaluated,
            stage3.iterations,
        ));
        Ok(())
    }

    /// Times the `quhe-opt` kernels; each figure is the median over batches
    /// of nanoseconds per call.
    fn kernel_probe(&mut self, rng: &mut StdRng) {
        const BATCHES: usize = 7;
        let kernels = &mut self.counts.kernels;
        for n in CHOLESKY_DIMS {
            // A seeded SPD matrix: B Bᵀ + n I.
            let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let dot: f64 = (0..n).map(|k| b[i * n + k] * b[j * n + k]).sum();
                    a.set(i, j, dot + if i == j { n as f64 } else { 0.0 });
                }
            }
            let rhs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let reps = (200_000 / (n * n)).max(20);
            let mut factor = CholeskyFactor::new();
            let factor_ns = median_ns_per_call(BATCHES, reps, || {
                factor
                    .refresh(std::hint::black_box(&a))
                    .expect("the probe matrix is SPD");
            });
            let mut x = Vec::with_capacity(n);
            let solve_ns = median_ns_per_call(BATCHES, reps * 8, || {
                factor
                    .solve_into(std::hint::black_box(&rhs), &mut x)
                    .expect("dimensions match");
                std::hint::black_box(&x);
            });
            kernels.insert(format!("opt.cholesky_factor_ns.{n}"), factor_ns);
            kernels.insert(format!("opt.cholesky_solve_ns.{n}"), solve_ns);
            kernels.insert(format!("opt.cholesky_flops.{n}"), cholesky_flops(n));
        }

        // A smooth strictly convex function in the paper-default Stage-3
        // dimension; the metric is wall time per Newton iteration.
        let dim = CHOLESKY_DIMS[0];
        let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.5..2.0)).collect();
        let f = |x: &[f64]| -> f64 {
            let coupled: f64 = x.windows(2).map(|w| (w[0] - w[1]).powi(2)).sum();
            x.iter()
                .zip(&weights)
                .map(|(xi, c)| xi.exp() - c * xi)
                .sum::<f64>()
                + 0.5 * coupled
        };
        let start = vec![0.0; dim];
        let newton = DampedNewton::default();
        let mut ws = NewtonWorkspace::new();
        let mut per_step = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let started = Instant::now();
            let result = newton
                .minimize_with(&f, &|_: &[f64]| true, &start, &mut ws)
                .expect("the probe function is smooth and convex");
            per_step.push(started.elapsed().as_nanos() as f64 / result.iterations.max(1) as f64);
        }
        kernels.insert("opt.newton_step_ns".to_string(), median(&mut per_step));

        // The budget projection of Stage 3 at dense_cell's client count, on
        // points over the budget so the bisection runs.
        let clients = CHOLESKY_DIMS[1] / 4;
        let projection = SimplexCapProjection::uniform(clients, 1e-3 / clients as f64, 1.0)
            .expect("a feasible budget");
        let point: Vec<f64> = (0..clients).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut work = point.clone();
        let project_ns = median_ns_per_call(BATCHES, 2_000, || {
            work.copy_from_slice(&point);
            projection.project(std::hint::black_box(&mut work));
        });
        kernels.insert("opt.project_bisect_ns".to_string(), project_ns);
    }
}

/// Floating-point operations of one factorization of an `n × n` matrix as
/// the kernel computes it: per `(i, j ≤ i)` entry, `j` multiply-subtracts and
/// one divide or square root. Computed from the loop structure, not counted.
pub fn cholesky_flops(n: usize) -> f64 {
    (0..n)
        .map(|i| (0..=i).map(|j| 2 * j + 1).sum::<usize>())
        .sum::<usize>() as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn median_ns_per_call(batches: usize, reps: usize, mut call: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                call();
            }
            started.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&mut per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_flops_match_the_closed_form() {
        // Σ_i Σ_{j≤i} (2j + 1) = Σ_i (i + 1)² = n(n + 1)(2n + 1) / 6.
        for n in [1usize, 2, 24] {
            assert_eq!(cholesky_flops(n), (n * (n + 1) * (2 * n + 1) / 6) as f64);
        }
    }
}
