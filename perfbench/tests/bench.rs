//! The benchmark's own contracts: seeded inputs, reproducible serving paths
//! and objectives, replay/server agreement, and a `BENCHMARK.json` that
//! names exactly what the code reports.

use std::process::Command;

use quhe_core::json::JsonValue;
use quhe_perfbench::metrics::{per_layer, END_TO_END};
use quhe_perfbench::plan::{Plan, Workload};

/// Runs the benchmark binary; returns its exit status, result line and the
/// whole standard output.
fn bench(workload: &str, seed: &str, seconds: &str, trace: &str) -> (bool, JsonValue, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_quhe-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            seconds,
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let result = JsonValue::parse(last).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    (output.status.success(), result, stdout)
}

fn metric(result: &JsonValue, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn note<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.trim_start().starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix} note in {stdout}"))
}

#[test]
fn the_same_seed_gives_byte_identical_requests_and_another_seed_does_not() {
    for workload in Workload::ALL {
        let frames = |seed| {
            let plan = Plan::new(workload, seed, 3.0);
            let setup: Vec<Vec<u8>> = plan
                .setup
                .iter()
                .flatten()
                .map(|&i| plan.requests[i].frame.clone())
                .collect();
            let timed: Vec<Vec<u8>> = plan
                .streams
                .iter()
                .flatten()
                .map(|&i| plan.requests[i].frame.clone())
                .collect();
            (setup, timed)
        };
        assert_eq!(frames(11), frames(11), "{}", workload.name());
        assert_ne!(frames(11).1, frames(12).1, "{}", workload.name());
    }
}

#[test]
fn a_seed_reproduces_its_serving_paths_and_objective() {
    let (ok_a, a, out_a) = bench("drift_track", "5", "2", "0");
    let (ok_b, b, out_b) = bench("drift_track", "5", "2", "0");
    assert!(ok_a && ok_b, "{out_a}\n{out_b}");
    for (name, _, _) in END_TO_END {
        assert!(metric(&a, name) > 0.0, "{name} must never be 0");
    }
    assert_eq!(note(&out_a, "prefix paths"), note(&out_b, "prefix paths"));
    assert_eq!(metric(&a, "objective_mean"), metric(&b, "objective_mean"));
    let (ok_c, c, out_c) = bench("drift_track", "6", "2", "0");
    assert!(ok_c, "{out_c}");
    assert_ne!(metric(&a, "objective_mean"), metric(&c, "objective_mean"));
}

#[test]
fn the_traced_replay_takes_the_servers_path_on_one_client_closed_loops() {
    // The traced run fails any request whose replayed path differs from the
    // tag the server returned.
    for workload in ["cold_catalogue", "drift_track"] {
        let (ok, result, stdout) = bench(workload, "3", "2", "1");
        assert!(ok, "{stdout}");
        assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
        for (name, _, _) in per_layer() {
            let value = metric(&result, &name);
            assert!(value.is_finite(), "{name} = {value}");
        }
    }
}

#[test]
fn benchmark_json_names_what_the_code_reports() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = JsonValue::parse(&text).expect("valid JSON");
    let entries = |key: &str| -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(JsonValue::as_array)
            .expect("an array")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let end_to_end: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(entries("end_to_end"), end_to_end);
    let layers: Vec<(String, String, String)> = per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(entries("per_layer"), layers);
    let workloads: Vec<String> = entries("workloads").into_iter().map(|w| w.0).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
