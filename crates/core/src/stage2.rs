//! Stage 2 of the QuHE algorithm: CKKS polynomial degrees by an exact
//! threshold sweep.
//!
//! With `(phi, w)` and the communication/computation resources fixed, the
//! objective of problem P1 depends on the discrete degrees `lambda` through
//! the security utility `U_msl`, the server computation energy, and the
//! system delay `T` (whose optimal value, Eq. 21/23, is the largest per-client
//! end-to-end delay). Over the finite set `{lambda^(set)_1, …,
//! lambda^(set)_M}^N` the Stage-2 objective (Eq. 22) is
//! `F_s2 = c + Σ_n g[n][m_n] − α_t · max_n d[n][m_n]`, so the clients are
//! coupled only through the max-delay term.
//!
//! That coupling admits an exact sweep in place of the paper's
//! branch-and-bound (Algorithm 2) — the bottleneck technique of Edmonds and
//! Fulkerson ("Bottleneck extrema", 1970). For each table delay `T` in
//! ascending order, every client takes its highest-gain degree whose delay is
//! at most `T`, and the best assignment over all `T` wins. At the optimum's
//! own max delay `T*` each client's choice has at least the optimum's gain
//! and at most delay `T*`; floating-point addition is monotone, so that
//! assignment's computed objective is at least the optimum's, bit for bit.
//! The sweep scores at most `N·M` assignments and needs no search tree. An
//! exhaustive enumeration is kept for the ablation benches and for verifying
//! optimality in tests.

use std::time::Instant;

use quhe_crypto::cost_model::min_security_level;

use crate::error::{QuheError, QuheResult};
use crate::problem::Problem;
use crate::variables::DecisionVariables;

/// Result of Stage 2.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Stage2Result {
    /// Optimal polynomial degree per client.
    pub lambda: Vec<u64>,
    /// The delay bound `T*_s2` implied by the chosen degrees (Eq. 23): the
    /// largest per-client end-to-end delay.
    pub delay_bound: f64,
    /// The Stage-2 objective `F_s2(lambda*)` (Eq. 22).
    pub objective: f64,
    /// Incumbent objective after each improvement found by the search
    /// (reproduces the paper's Fig. 4(b)).
    pub trace: Vec<f64>,
    /// Number of delay bounds the sweep examined (for the exhaustive
    /// search, the number of assignments enumerated).
    pub nodes_expanded: usize,
    /// Number of complete assignments scored.
    pub leaves_evaluated: usize,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
}

/// Precomputed per-client tables for the Stage-2 search.
struct Stage2Tables {
    /// `g[n][m]`: the lambda-dependent, delay-independent part of the
    /// objective for client `n` at choice `m`
    /// (`alpha_msl varsigma_n f_msl - alpha_e E^(cmp)`).
    gains: Vec<Vec<f64>>,
    /// `d[n][m]`: the end-to-end delay of client `n` at choice `m`.
    delays: Vec<Vec<f64>>,
    /// The lambda-independent part of the objective
    /// (`alpha_qkd U_qkd - alpha_e (E^(enc) + E^(tr))`).
    constant: f64,
    /// Weight of the delay term.
    alpha_t: f64,
    /// The discrete degree choices.
    choices: Vec<u64>,
}

impl Stage2Tables {
    /// # Errors
    /// [`QuheError::ConstraintViolation`] naming the client and degree whose
    /// gain or delay is not finite (an out-of-range warm start can drive a
    /// delay to infinity), plus substrate errors for malformed variables.
    fn build(problem: &Problem, vars: &DecisionVariables) -> QuheResult<Self> {
        let choices = problem.scenario().lambda_choices().to_vec();
        let weights = problem.config().weights;
        let n_clients = problem.num_clients();
        let privacy = problem.scenario().mec().privacy_weights();

        let mut gains = vec![vec![0.0; choices.len()]; n_clients];
        let mut delays = vec![vec![0.0; choices.len()]; n_clients];
        let mut lambda_independent_energy = 0.0;
        let mut probe = vars.clone();
        for n in 0..n_clients {
            // The encryption and transmission parts do not depend on lambda.
            probe.lambda[n] = choices[0];
            let base = problem.client_cost(&probe, n)?;
            lambda_independent_energy += base.encryption_energy_j + base.transmission_energy_j;
            for (m, &lambda) in choices.iter().enumerate() {
                probe.lambda[n] = lambda;
                let cost = problem.client_cost(&probe, n)?;
                let gain = weights.security * privacy[n] * min_security_level(lambda as f64)
                    - weights.energy * cost.computation_energy_j;
                let delay = cost.total_delay_s();
                if !(gain.is_finite() && delay.is_finite()) {
                    return Err(QuheError::ConstraintViolation {
                        reason: format!(
                            "stage 2: client {} at lambda {} has gain {} and delay {}; \
                             both must be finite",
                            n + 1,
                            lambda,
                            gain,
                            delay
                        ),
                    });
                }
                gains[n][m] = gain;
                delays[n][m] = delay;
            }
            probe.lambda[n] = vars.lambda[n];
        }
        let constant = weights.qkd_utility * problem.qkd_utility(vars)?
            - weights.energy * lambda_independent_energy;
        Ok(Self {
            gains,
            delays,
            constant,
            alpha_t: weights.delay,
            choices,
        })
    }

    fn objective(&self, assignment: &[usize]) -> f64 {
        let gain: f64 = assignment
            .iter()
            .enumerate()
            .map(|(n, &m)| self.gains[n][m])
            .sum();
        self.constant + gain - self.alpha_t * self.max_delay(assignment)
    }

    fn max_delay(&self, assignment: &[usize]) -> f64 {
        assignment
            .iter()
            .enumerate()
            .map(|(n, &m)| self.delays[n][m])
            .fold(0.0_f64, f64::max)
    }

    /// The exact threshold sweep (see the module docs). Bounds below the
    /// largest per-client minimum delay leave some client without a degree,
    /// so the sweep starts there; a bound that changes no client's choice is
    /// examined but not scored again.
    fn sweep(&self) -> Search {
        let mut bounds: Vec<f64> = self.delays.iter().flatten().copied().collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let floor = self
            .delays
            .iter()
            .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut assignment = vec![0; self.gains.len()];
        self.choose_within(floor, &mut assignment);
        let mut search = Search::new(self, assignment.clone());
        for &bound in bounds.iter().filter(|&&bound| bound > floor) {
            search.nodes += 1;
            if self.choose_within(bound, &mut assignment) {
                search.offer(self, &assignment);
            }
        }
        search
    }

    /// Gives each client its highest-gain degree whose delay is at most
    /// `bound`, the lowest index on a gain tie, and returns whether any
    /// client's choice changed. Every client has such a degree once `bound`
    /// reaches the sweep's floor.
    fn choose_within(&self, bound: f64, assignment: &mut [usize]) -> bool {
        let mut changed = false;
        for ((gains, delays), choice) in self.gains.iter().zip(&self.delays).zip(assignment) {
            let best = (0..gains.len())
                .filter(|&m| delays[m] <= bound)
                .reduce(|best, m| if gains[m] > gains[best] { m } else { best })
                .unwrap_or(*choice);
            changed |= best != *choice;
            *choice = best;
        }
        changed
    }

    /// Scores all `M^N` assignments in lexicographic order.
    fn exhaustive(&self) -> Search {
        let mut assignment = vec![0; self.gains.len()];
        let mut search = Search::new(self, assignment.clone());
        // Odometer: advance the last client with a higher degree left and
        // reset every client after it.
        while let Some(pos) = assignment.iter().rposition(|&m| m + 1 < self.choices.len()) {
            assignment[pos] += 1;
            assignment[pos + 1..].fill(0);
            search.nodes += 1;
            search.offer(self, &assignment);
        }
        search
    }
}

/// The incumbent of a Stage-2 search and its work counters.
struct Search {
    assignment: Vec<usize>,
    objective: f64,
    trace: Vec<f64>,
    nodes: usize,
    leaves: usize,
}

impl Search {
    /// Starts a search with `assignment` scored as the first incumbent.
    fn new(tables: &Stage2Tables, assignment: Vec<usize>) -> Self {
        let objective = tables.objective(&assignment);
        Self {
            assignment,
            objective,
            trace: vec![objective],
            nodes: 1,
            leaves: 1,
        }
    }

    /// Scores `assignment`, which replaces the incumbent only when it is
    /// strictly better.
    fn offer(&mut self, tables: &Stage2Tables, assignment: &[usize]) {
        let objective = tables.objective(assignment);
        self.leaves += 1;
        if objective > self.objective {
            self.assignment.copy_from_slice(assignment);
            self.objective = objective;
            self.trace.push(objective);
        }
    }
}

/// The Stage-2 solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage2Solver;

impl Stage2Solver {
    /// Creates a Stage-2 solver.
    pub fn new() -> Self {
        Self
    }

    /// Solves Stage 2 exactly by the threshold sweep of the module docs: at
    /// most `N·M` delay bounds examined and assignments scored, with no node
    /// cap.
    ///
    /// # Errors
    /// [`QuheError::ConstraintViolation`] when a client's gain or delay is
    /// not finite at some degree, and substrate errors for malformed
    /// variables.
    pub fn solve(&self, problem: &Problem, vars: &DecisionVariables) -> QuheResult<Stage2Result> {
        Self::run(problem, vars, Stage2Tables::sweep)
    }

    /// Solves Stage 2 by exhaustive enumeration of all `M^N` assignments (the
    /// ablation baseline the paper mentions before opting for
    /// branch-and-bound).
    ///
    /// # Errors
    /// Same conditions as [`Stage2Solver::solve`].
    pub fn solve_exhaustive(
        &self,
        problem: &Problem,
        vars: &DecisionVariables,
    ) -> QuheResult<Stage2Result> {
        Self::run(problem, vars, Stage2Tables::exhaustive)
    }

    fn run(
        problem: &Problem,
        vars: &DecisionVariables,
        search: fn(&Stage2Tables) -> Search,
    ) -> QuheResult<Stage2Result> {
        let start = Instant::now();
        let tables = Stage2Tables::build(problem, vars)?;
        let search = search(&tables);
        Ok(Stage2Result {
            lambda: search
                .assignment
                .iter()
                .map(|&m| tables.choices[m])
                .collect(),
            delay_bound: tables.max_delay(&search.assignment),
            objective: search.objective,
            trace: search.trace,
            nodes_expanded: search.nodes,
            leaves_evaluated: search.leaves,
            runtime_s: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QuheConfig;
    use crate::scenario::SystemScenario;

    fn setup() -> (Problem, DecisionVariables) {
        let problem =
            Problem::new(SystemScenario::paper_default(1), QuheConfig::default()).unwrap();
        let vars = problem.initial_point().unwrap();
        (problem, vars)
    }

    #[test]
    fn stage2_selects_degrees_from_the_choice_set() {
        let (problem, vars) = setup();
        let result = Stage2Solver::new().solve(&problem, &vars).unwrap();
        assert_eq!(result.lambda.len(), 6);
        for l in &result.lambda {
            assert!(problem.scenario().lambda_choices().contains(l));
        }
        assert!(result.delay_bound > 0.0);
        assert!(result.objective.is_finite());
    }

    #[test]
    fn the_sweep_matches_exhaustive_search() {
        let (problem, vars) = setup();
        let solver = Stage2Solver::new();
        let sweep = solver.solve(&problem, &vars).unwrap();
        let exhaustive = solver.solve_exhaustive(&problem, &vars).unwrap();
        assert_eq!(sweep.objective, exhaustive.objective);
        assert_eq!(sweep.lambda, exhaustive.lambda);
        assert_eq!(exhaustive.leaves_evaluated, 3usize.pow(6));
        // At most one delay bound and one scored assignment per table entry.
        assert!(sweep.nodes_expanded <= 6 * 3);
        assert!(sweep.leaves_evaluated <= sweep.nodes_expanded);
    }

    #[test]
    fn the_sweep_matches_exhaustive_search_on_random_tables() {
        use rand::{Rng, SeedableRng};
        // Small-integer tables keep every sum exact, so equal objectives are
        // bit-equal and gain or delay ties are common.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..500 {
            let n_clients = rng.gen_range(1..=7);
            let n_choices = rng.gen_range(1..=4);
            let mut table = |lo: i32, hi: i32| -> Vec<Vec<f64>> {
                (0..n_clients)
                    .map(|_| {
                        (0..n_choices)
                            .map(|_| f64::from(rng.gen_range(lo..=hi)))
                            .collect()
                    })
                    .collect()
            };
            let tables = Stage2Tables {
                gains: table(-4, 4),
                delays: table(1, 5),
                constant: f64::from(rng.gen_range(-3..=3)),
                alpha_t: f64::from(rng.gen_range(0..=3)),
                choices: (0..n_choices as u64).collect(),
            };
            let sweep = tables.sweep();
            let exhaustive = tables.exhaustive();
            assert_eq!(sweep.objective, exhaustive.objective, "case {case}");
            assert_eq!(tables.objective(&sweep.assignment), sweep.objective);
            assert!(sweep.nodes <= n_clients * n_choices, "case {case}");
            assert!(sweep.leaves <= sweep.nodes, "case {case}");
            assert_eq!(exhaustive.leaves, n_choices.pow(n_clients as u32));
            for trace in [&sweep.trace, &exhaustive.trace] {
                assert!(trace.windows(2).all(|pair| pair[1] > pair[0]));
                assert_eq!(trace.last(), Some(&sweep.objective));
            }
        }
    }

    #[test]
    fn stage2_objective_matches_problem_objective() {
        let (problem, vars) = setup();
        let result = Stage2Solver::new().solve(&problem, &vars).unwrap();
        let mut updated = vars.clone();
        updated.lambda = result.lambda.clone();
        updated.delay_bound = result.delay_bound;
        let direct = problem.objective_with_max_delay(&updated).unwrap();
        assert!(
            (result.objective - direct).abs() < 1e-6 * direct.abs().max(1.0),
            "stage-2 objective {} vs direct {}",
            result.objective,
            direct
        );
    }

    #[test]
    fn stage2_never_worsens_the_starting_assignment() {
        let (problem, vars) = setup();
        let result = Stage2Solver::new().solve(&problem, &vars).unwrap();
        let tables_objective_at_start = {
            let mut updated = vars.clone();
            updated.delay_bound = problem.system_cost(&vars).unwrap().total_delay_s;
            problem.objective_with_max_delay(&updated).unwrap()
        };
        assert!(result.objective >= tables_objective_at_start - 1e-9);
    }

    #[test]
    fn incumbent_trace_is_increasing() {
        let (problem, vars) = setup();
        let result = Stage2Solver::new().solve(&problem, &vars).unwrap();
        for pair in result.trace.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }
}
