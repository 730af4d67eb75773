//! Random-initialization optimality study (the paper's Fig. 3).
//!
//! The paper evaluates the robustness of QuHE by running it from 100
//! uniformly sampled initial configurations of bandwidth, power and CPU
//! frequencies and reporting the distribution of final objective values:
//! solutions in `[10, 15]` are "very good", `[5, 10]` "good" and `[-25, 0]`
//! "poor". This module provides the sampling loop and the histogram
//! summary; the absolute bucket edges are configurable because the absolute
//! objective scale of a reproduction differs from the paper's testbed.

use rand::Rng;

use crate::error::QuheResult;
use crate::params::QuheConfig;
use crate::problem::Problem;
use crate::scenario::SystemScenario;
use crate::solver::{QuheSolver, SolveSpec, Solver};
use crate::variables::DecisionVariables;

/// Draws `count` random feasible initial variable assignments.
///
/// # Errors
/// Propagates substrate errors if the scenario is inconsistent.
pub fn sample_initial_points<R: Rng + ?Sized>(
    problem: &Problem,
    count: usize,
    rng: &mut R,
) -> QuheResult<Vec<DecisionVariables>> {
    (0..count)
        .map(|_| problem.random_initial_point(rng))
        .collect()
}

/// Outcome of the optimality study.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OptimalityStudy {
    /// Final objective value of each run, in sample order (Fig. 3(a)).
    pub objectives: Vec<f64>,
    /// Histogram bucket edges used for Fig. 3(b).
    pub bucket_edges: Vec<f64>,
    /// Number of runs falling in each bucket (one fewer than the edges).
    pub bucket_counts: Vec<usize>,
}

impl OptimalityStudy {
    /// Runs QuHE from `samples` random initial configurations.
    ///
    /// # Errors
    /// Propagates solver errors from any run.
    pub fn run<R: Rng + ?Sized>(
        scenario: &SystemScenario,
        config: &QuheConfig,
        samples: usize,
        bucket_edges: Vec<f64>,
        rng: &mut R,
    ) -> QuheResult<Self> {
        let problem = Problem::new(scenario.clone(), *config)?;
        let solver = QuheSolver::new(*config);
        let starts = sample_initial_points(&problem, samples, rng)?;
        let mut objectives = Vec::with_capacity(samples);
        for start in starts {
            // Each sampled configuration is explored with the full
            // multi-start solve on the shared problem instance.
            let report = solver.solve_prepared(
                &problem,
                &SolveSpec::warm_from(start).with_multi_start(true),
            )?;
            objectives.push(report.objective);
        }
        let bucket_counts = histogram(&objectives, &bucket_edges);
        Ok(Self {
            objectives,
            bucket_edges,
            bucket_counts,
        })
    }

    /// The maximum objective observed.
    ///
    /// An empty study has no statistics: like [`OptimalityStudy::min`],
    /// [`OptimalityStudy::mean`] and [`OptimalityStudy::fraction_within`],
    /// this returns NaN when `objectives` is empty. NaN is the one value the
    /// JSON layer treats consistently — [`crate::json::JsonValue::from_f64`]
    /// writes it as `null` and [`crate::json::JsonValue::as_f64_or_nan`]
    /// reads `null` back as NaN, so the empty-set contract survives a
    /// serialization round trip (the previous `±INFINITY` sentinels also
    /// serialized to `null` but silently came back as NaN, disagreeing with
    /// the `0.0` that `mean` returned).
    pub fn max(&self) -> f64 {
        if self.objectives.is_empty() {
            return f64::NAN;
        }
        self.objectives
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The minimum objective observed (NaN for an empty study; see
    /// [`OptimalityStudy::max`] for the empty-set contract).
    pub fn min(&self) -> f64 {
        if self.objectives.is_empty() {
            return f64::NAN;
        }
        self.objectives
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    /// The mean objective (NaN for an empty study; see
    /// [`OptimalityStudy::max`] for the empty-set contract).
    pub fn mean(&self) -> f64 {
        if self.objectives.is_empty() {
            f64::NAN
        } else {
            self.objectives.iter().sum::<f64>() / self.objectives.len() as f64
        }
    }

    /// Fraction of runs whose objective is within `fraction` of the best run
    /// (relative to the best-minus-worst spread); the paper's "very good"
    /// and "good" rates are instances of this with the spread replaced by
    /// fixed buckets. NaN for an empty study (see [`OptimalityStudy::max`]
    /// for the empty-set contract).
    pub fn fraction_within(&self, fraction: f64) -> f64 {
        if self.objectives.is_empty() {
            return f64::NAN;
        }
        let best = self.max();
        let worst = self.min();
        let spread = (best - worst).max(f64::MIN_POSITIVE);
        let threshold = best - fraction * spread;
        self.objectives.iter().filter(|&&v| v >= threshold).count() as f64
            / self.objectives.len() as f64
    }
}

/// Counts how many values fall into each `[edge_i, edge_{i+1})` bucket; the
/// final bucket is closed on the right.
pub fn histogram(values: &[f64], edges: &[f64]) -> Vec<usize> {
    if edges.len() < 2 {
        return Vec::new();
    }
    let mut counts = vec![0usize; edges.len() - 1];
    for &value in values {
        for i in 0..counts.len() {
            let last = i == counts.len() - 1;
            if value >= edges[i] && (value < edges[i + 1] || (last && value <= edges[i + 1])) {
                counts[i] += 1;
                break;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn histogram_buckets_cover_edges() {
        let counts = histogram(&[0.5, 1.5, 2.0, -1.0, 2.0], &[0.0, 1.0, 2.0]);
        assert_eq!(counts, vec![1, 3]);
        assert!(histogram(&[1.0], &[0.0]).is_empty());
    }

    #[test]
    fn sampled_points_are_feasible_and_distinct() {
        let problem =
            Problem::new(SystemScenario::paper_default(1), QuheConfig::default()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let points = sample_initial_points(&problem, 5, &mut rng).unwrap();
        assert_eq!(points.len(), 5);
        for p in &points {
            problem.check_feasible(p).unwrap();
        }
        assert_ne!(points[0], points[1]);
    }

    #[test]
    fn empty_study_statistics_agree_on_nan() {
        // The empty-set contract: all four statistics return NaN, which the
        // JSON layer writes as `null` and reads back as NaN — one consistent
        // story instead of the old 0.0 / ±INFINITY split.
        let study = OptimalityStudy {
            objectives: Vec::new(),
            bucket_edges: vec![0.0, 1.0],
            bucket_counts: vec![0],
        };
        assert!(study.min().is_nan());
        assert!(study.max().is_nan());
        assert!(study.mean().is_nan());
        assert!(study.fraction_within(0.5).is_nan());
        // And the JSON round trip preserves the contract for every one.
        for value in [study.min(), study.max(), study.mean()] {
            let json = crate::json::JsonValue::from_f64(value);
            assert_eq!(json, crate::json::JsonValue::Null);
            assert!(json.as_f64_or_nan().unwrap().is_nan());
        }
    }

    #[test]
    fn small_optimality_study_runs_end_to_end() {
        let scenario = SystemScenario::paper_default(1);
        let config = QuheConfig {
            max_outer_iterations: 2,
            max_stage3_iterations: 5,
            ..QuheConfig::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let study = OptimalityStudy::run(
            &scenario,
            &config,
            3,
            vec![-100.0, -10.0, 0.0, 10.0, 100.0],
            &mut rng,
        )
        .unwrap();
        assert_eq!(study.objectives.len(), 3);
        assert_eq!(study.bucket_counts.iter().sum::<usize>(), 3);
        assert!(study.max() >= study.mean() && study.mean() >= study.min());
        assert!(study.fraction_within(1.0) >= 0.99);
    }
}
