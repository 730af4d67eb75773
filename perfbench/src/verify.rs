//! Output verification, run after the timed window and outside every timing.
//!
//! Each distinct key's first response is parsed in full and checked: it
//! answers the resolved scenario (fingerprint), its allocation is feasible
//! (`Problem::check_feasible`), it is no worse than the AA baseline on the
//! same scenario, and a drift key's report — served by the warm path — is no
//! worse than the cold single-start floor. Later responses for the key were
//! already compared byte for byte during the window.

use std::collections::HashMap;

use quhe_core::problem::Problem;
use quhe_core::solver::{AaSolver, QuheSolver, SolveSpec, Solver};
use quhe_serve::{ServiceConfig, SolveService, WireReply};

use crate::plan::Key;
use crate::server::solver_config;

/// What verification learned about one key.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// The served objective.
    pub objective: f64,
    /// The AA baseline's objective on the same scenario.
    pub aa_objective: f64,
    /// Why the response is wrong, if it is.
    pub failure: Option<String>,
}

fn check(service: &SolveService, key: &Key, frame: &[u8]) -> Result<(f64, f64), String> {
    let text = std::str::from_utf8(frame).map_err(|_| "reply is not UTF-8".to_string())?;
    let response = match WireReply::from_json(text).map_err(|e| e.to_string())? {
        WireReply::Ok(response) => response,
        WireReply::Err { kind, message, .. } => return Err(format!("{kind}: {message}")),
    };
    let report = &response.report;
    let scenario = service
        .resolve_scenario(&key.request().scenario)
        .map_err(|e| e.to_string())?;
    if response.fingerprint != scenario.fingerprint() {
        return Err("the response answers a different scenario".to_string());
    }
    if !report.objective.is_finite() {
        return Err(format!("non-finite objective {}", report.objective));
    }
    let config = solver_config();
    Problem::new(scenario.clone(), config)
        .and_then(|problem| problem.check_feasible(&report.variables))
        .map_err(|e| format!("infeasible allocation: {e}"))?;
    let aa = AaSolver::new(config)
        .solve(&scenario, &SolveSpec::cold())
        .map_err(|e| e.to_string())?;
    if report.objective < aa.objective {
        return Err(format!(
            "objective {} below the AA baseline {}",
            report.objective, aa.objective
        ));
    }
    if matches!(key, Key::Drifted { .. }) {
        let floor = QuheSolver::new(config)
            .solve(&scenario, &SolveSpec::single_start())
            .map_err(|e| e.to_string())?;
        if report.objective < floor.objective {
            return Err(format!(
                "warm-path objective {} below the single-start floor {}",
                report.objective, floor.objective
            ));
        }
    }
    Ok((report.objective, aa.objective))
}

/// Checks every key's first response, on two threads.
pub fn check_first_frames(frames: &HashMap<Key, (Vec<u8>, usize)>) -> HashMap<Key, Checked> {
    let service = ServiceConfig::new(solver_config()).build();
    let mut keys: Vec<&Key> = frames.keys().collect();
    // A stable order spreads the expensive worlds evenly over both threads.
    keys.sort();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|half| {
                let keys: Vec<&Key> = keys.iter().skip(half).step_by(2).copied().collect();
                let service = &service;
                scope.spawn(move || {
                    keys.into_iter()
                        .map(|key| {
                            let checked = match check(service, key, &frames[key].0) {
                                Ok((objective, aa_objective)) => Checked {
                                    objective,
                                    aa_objective,
                                    failure: None,
                                },
                                Err(failure) => Checked {
                                    objective: f64::NAN,
                                    aa_objective: f64::NAN,
                                    failure: Some(failure),
                                },
                            };
                            (*key, checked)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread"))
            .collect()
    })
}
