//! The shared report writer of the experiment harness.
//!
//! The JSON-emitting binary (`batch_eval`) builds a [`JsonValue`] document
//! through the helpers here and hands it to [`write()`], so its
//! `BENCH_*.json` artifact has one envelope (schema tag, mode, solver name,
//! scenario and seed grids) and one field vocabulary: a job is always
//! identified by `scenario` / `seed` / `clients`, a measured solve always
//! reports `objective` / `outer_iterations` / `converged` / `wall_s`, and
//! full solver output is embedded as a [`SolveReport`] JSON tree.

use quhe_core::prelude::*;

/// The common envelope of a grid artifact: schema tag, run mode, the solver
/// that produced it, and the scenario × seed grid.
pub fn grid_envelope(
    schema: &str,
    mode: &str,
    solver: &str,
    scenarios: &[&str],
    seeds: &[u64],
) -> JsonValue {
    JsonValue::object()
        .with("schema", JsonValue::String(schema.to_string()))
        .with("mode", JsonValue::String(mode.to_string()))
        .with("solver", JsonValue::String(solver.to_string()))
        .with("scenarios", JsonValue::from_str_slice(scenarios))
        .with(
            "seeds",
            JsonValue::Array(seeds.iter().map(|&s| JsonValue::from_u64(s)).collect()),
        )
}

/// The common identity fields of one job of a grid: which world, which seed,
/// how many clients.
pub fn job_identity(scenario: &str, seed: u64, clients: usize) -> JsonValue {
    JsonValue::object()
        .with("scenario", JsonValue::String(scenario.to_string()))
        .with("seed", JsonValue::from_u64(seed))
        .with("clients", JsonValue::from_usize(clients))
}

/// The common measurement fields of one solve: objective, iteration count,
/// convergence flag and wall clock.
pub fn solve_measurement(object: &mut JsonValue, report: &SolveReport, wall_s: f64) {
    object.set("objective", JsonValue::from_f64(report.objective));
    object.set(
        "outer_iterations",
        JsonValue::from_usize(report.outer_iterations),
    );
    object.set("converged", JsonValue::Bool(report.converged));
    object.set("wall_s", JsonValue::from_f64(wall_s));
}

/// Serializes the document, writes it to `out_path`, echoes it to stdout and
/// notes the path on stderr — the uniform tail of every report-emitting
/// binary.
///
/// # Panics
/// Panics when the file cannot be written (experiment binaries fail loudly).
pub fn write(out_path: &str, document: &JsonValue) {
    let text = document.to_pretty_string();
    std::fs::write(out_path, &text).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    print!("{text}");
    eprintln!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_and_identity_share_the_field_vocabulary() {
        let envelope = grid_envelope("quhe-batch/v2", "quick", "quhe", &["paper_default"], &[42]);
        assert_eq!(
            envelope.get("schema").and_then(JsonValue::as_str),
            Some("quhe-batch/v2")
        );
        assert_eq!(
            envelope.get("solver").and_then(JsonValue::as_str),
            Some("quhe")
        );
        let job = job_identity("far_edge", 7, 8);
        assert_eq!(job.get("seed").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(job.get("clients").and_then(JsonValue::as_usize), Some(8));
        // The document round-trips through the parser.
        let text = envelope.to_pretty_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), envelope);
    }

    #[test]
    fn measurements_embed_the_report_fields() {
        let scenario = SystemScenario::paper_default(1);
        let config = QuheConfig {
            max_outer_iterations: 1,
            max_stage3_iterations: 4,
            solver_threads: 1,
            ..QuheConfig::default()
        };
        let report = AaSolver::new(config)
            .solve(&scenario, &SolveSpec::cold())
            .unwrap();
        let mut job = job_identity("paper_default", 1, 6);
        solve_measurement(&mut job, &report, 0.25);
        assert_eq!(
            job.get("objective").and_then(JsonValue::as_f64),
            Some(report.objective)
        );
        assert_eq!(
            job.get("converged").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(job.get("wall_s").and_then(JsonValue::as_f64), Some(0.25));
    }
}
