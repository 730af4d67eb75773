//! Command line of the QuHE serving benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench serve        # the server child; started by the benchmark itself
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every timed request was served and verified.

use std::process::ExitCode;

use quhe_core::json::JsonValue;
use quhe_perfbench::plan::Workload;
use quhe_perfbench::run::{run, Args, Outcomes};
use quhe_perfbench::server::serve_main;

const USAGE: &str = "usage: perfbench --workload <cold_catalogue|hit_storm|drift_track> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn result_line(outcomes: &Outcomes) -> String {
    let mut metrics = JsonValue::object();
    for m in &outcomes.metrics {
        metrics.set(
            &m.name,
            JsonValue::object()
                .with("value", JsonValue::from_f64(m.value))
                .with("unit", JsonValue::String(m.unit.to_string())),
        );
    }
    JsonValue::object()
        .with("correct", JsonValue::Bool(outcomes.failed == 0))
        .with("attempted", JsonValue::from_usize(outcomes.attempted))
        .with("failed", JsonValue::from_usize(outcomes.failed))
        .with("metrics", metrics)
        .to_compact_string()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("serve") {
        return serve_main();
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcomes = match run(&args) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} ({} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcomes.notes {
        println!("  {note}");
    }
    for m in &outcomes.metrics {
        println!("  {:<40} {:>14.6e} {}", m.name, m.value, m.unit);
    }
    println!("  failed_frac {} / {}", outcomes.failed, outcomes.attempted);
    println!("{}", result_line(&outcomes));
    if outcomes.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
