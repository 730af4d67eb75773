//! One benchmark run: set up, time the window, verify, and (traced) replay.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

use quhe_serve::CacheOutcome;

use crate::client::{self, FirstFrames, Outcome, Reply};
use crate::metrics::{self, median, Metric, SLO_S};
use crate::plan::{Plan, Workload, WORLDS};
use crate::replay::Replay;
use crate::server::{ServerProcess, ServerStats};
use crate::trace::{self, Recorder};
use crate::verify::{self, Checked};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed requests the traced replay re-runs at most.
const REPLAY_CAP: usize = 2_000;

/// The command-line arguments of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcomes {
    /// Timed requests sent.
    pub attempted: usize,
    /// Timed requests that failed: error envelopes (sheds included), failed
    /// verification, wrong serving path; plus one per failed run-level check.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail: failures and sample counts.
    pub notes: Vec<String>,
}

/// Everything the timed window produced.
struct Window {
    replies: Vec<Vec<Reply>>,
    elapsed_s: f64,
    spans: usize,
    delta: ServerStats,
    after: ServerStats,
    checked: HashMap<crate::plan::Key, Checked>,
}

fn setup(plan: &Plan, first: &FirstFrames) -> Result<(ServerProcess, f64), String> {
    let started = Instant::now();
    let server = ServerProcess::spawn()?;
    let replies = client::run_setup(server.addr(), plan, first).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(bad) = replies
        .iter()
        .find(|r| !matches!(r.outcome, Outcome::Ok(_)))
    {
        return Err(format!("set-up request failed: {:?}", bad.outcome));
    }
    Ok((server, elapsed))
}

/// Times the window on a set-up server; `checked` is left for verification.
fn time_window(
    plan: &Plan,
    server: &mut ServerProcess,
    first: &FirstFrames,
    seconds: f64,
    traced: bool,
) -> Result<Window, String> {
    let before = server.stats()?;
    server.mark()?;
    let addr = server.addr();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let results: Vec<Result<(Vec<Reply>, usize), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut recorder = traced.then(Recorder::new);
                    let replies = client::closed_loop(
                        addr,
                        plan,
                        stream,
                        origin,
                        Some(deadline),
                        first,
                        recorder.as_mut(),
                    )
                    .map_err(|e| e.to_string())?;
                    Ok((replies, recorder.map_or(0, |r| r.spans().len())))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut replies = Vec::new();
    let mut spans = 0;
    for result in results {
        let (client_replies, client_spans) = result?;
        replies.push(client_replies);
        spans += client_spans;
    }
    let elapsed_s = replies
        .iter()
        .flatten()
        .map(|r| r.done_s)
        .fold(0.0, f64::max);
    // Counters are read only once every reply is in and the server has
    // answered every frame it received.
    let after = server.quiesced_stats()?;
    Ok(Window {
        replies,
        elapsed_s,
        spans,
        delta: after.since(&before),
        after,
        checked: HashMap::new(),
    })
}

fn window(plan: &Plan, args: &Args) -> Result<(Window, f64), String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut live: Option<(ServerProcess, FirstFrames)> = None;
    for _ in 0..reps {
        if let Some((previous, _)) = live.take() {
            previous.stop()?;
        }
        let first = FirstFrames::default();
        let (server, elapsed) = setup(plan, &first)?;
        setup_s.push(elapsed);
        live = Some((server, first));
    }
    let (mut server, first) = live.expect("at least one set-up");
    let mut window = time_window(plan, &mut server, &first, args.seconds, args.trace)?;
    server.stop()?;
    window.checked = verify::check_first_frames(&first.into_inner());
    Ok((window, median(&setup_s)))
}

/// The serving paths a workload's timed requests must take.
fn expected_path(workload: Workload, outcome: CacheOutcome) -> bool {
    match workload {
        Workload::ColdCatalogue => outcome == CacheOutcome::Cold,
        Workload::HitStorm => outcome == CacheOutcome::Hit,
        Workload::DriftTrack => {
            matches!(outcome, CacheOutcome::Warm | CacheOutcome::WarmFallback)
        }
    }
}

/// Counts failures and computes the untraced end-to-end figures shared by
/// both modes.
struct Judged {
    attempted: usize,
    failed: usize,
    latencies: Vec<f64>,
    slo_met: usize,
    objective_mean: f64,
    notes: Vec<String>,
}

fn judge(plan: &Plan, w: &Window) -> Judged {
    let mut notes = Vec::new();
    let mut failed = 0;
    let mut latencies = Vec::new();
    let mut slo_met = 0;
    let all: Vec<&Reply> = w.replies.iter().flatten().collect();
    for reply in &all {
        let key = plan.requests[reply.request].key;
        let problem = match &reply.outcome {
            Outcome::Err(kind) => Some(format!("error envelope {kind}")),
            Outcome::Ok(_) if !reply.identical => {
                Some("report differs from the first response for its key".to_string())
            }
            Outcome::Ok(tag) if !expected_path(plan.workload, *tag) => {
                Some(format!("unexpected serving path {}", tag.tag()))
            }
            Outcome::Ok(_) => w.checked.get(&key).and_then(|c| c.failure.clone()),
        };
        match problem {
            Some(problem) => {
                failed += 1;
                if notes.len() < 10 {
                    let request = &plan.requests[reply.request];
                    notes.push(format!(
                        "FAILED {} {:?}: {problem}",
                        request.id, request.key
                    ));
                }
            }
            None => {
                latencies.push(reply.latency_s);
                if reply.latency_s <= SLO_S {
                    slo_met += 1;
                }
            }
        }
    }

    let mut world_latency: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for reply in &all {
        world_latency
            .entry(plan.requests[reply.request].key.world())
            .or_default()
            .push(reply.latency_s);
    }
    notes.push(format!(
        "latency p50 per world: {}",
        world_latency
            .iter()
            .map(|(w, v)| format!("{} {:.4} s (n={})", WORLDS[*w], median(v), v.len()))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // Each workload must do the work it claims, by the server's own counters.
    let d = &w.delta;
    let misses = d.cold_solves + d.warm_hits + d.warm_fallbacks;
    let claim = match plan.workload {
        Workload::ColdCatalogue => (d.exact_hits == 0, "cold_catalogue served exact hits"),
        Workload::HitStorm => (misses == 0, "hit_storm solved during the window"),
        Workload::DriftTrack => (
            d.exact_hits + d.cold_solves + d.coalesced == 0,
            "drift_track served something other than warm or fallback",
        ),
    };
    if !claim.0 {
        failed += 1;
        notes.push(format!("FAILED {}: {d:?}", claim.1));
    }

    // objective_mean: raw objectives differ across seeds by orders of
    // magnitude (far_edge) and cross zero. Over the distinct keys requested
    // at the head of each stream, each world's figure is G / (|A| + G): G is
    // the summed gain of the served objective over the AA baseline on the
    // same scenario, |A| the summed AA objective magnitude. It lies in
    // [0, 1) by the AA check, rises with every allocation that improves, and
    // is damped where AA sits near zero. The mean over worlds weighs every
    // world alike for every seed, and the figure is exact for a fixed seed.
    let mut per_world: BTreeMap<usize, (f64, f64, usize)> = BTreeMap::new();
    let mut scored = HashSet::new();
    for stream in &plan.streams {
        for &index in stream.iter().take(plan.objective_prefix) {
            let request = &plan.requests[index];
            if !scored.insert(request.key) {
                continue;
            }
            match w.checked.get(&request.key) {
                Some(checked) if checked.failure.is_none() => {
                    let entry = per_world.entry(request.key.world()).or_default();
                    entry.0 += checked.objective - checked.aa_objective;
                    entry.1 += checked.aa_objective.abs();
                    entry.2 += 1;
                }
                _ => {
                    failed += 1;
                    notes.push(format!(
                        "FAILED the window did not serve {} of the scored prefix",
                        request.id
                    ));
                    break;
                }
            }
        }
    }
    let world_means: Vec<f64> = per_world
        .values()
        .map(|(gain, aa, _)| gain / (aa + gain))
        .collect();
    notes.push(format!(
        "objective G/(|A|+G) per world: {}",
        per_world
            .iter()
            .zip(&world_means)
            .map(|((w, v), mean)| format!("{} {mean:.4} (n={})", WORLDS[*w], v.2))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let objective_mean = world_means.iter().sum::<f64>() / world_means.len().max(1) as f64;

    // The serving paths of the scored prefix: fixed by the seed on the
    // one-client closed loops.
    let tags: HashMap<usize, &'static str> = all
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Ok(tag) => Some((r.request, tag.tag())),
            Outcome::Err(_) => None,
        })
        .collect();
    let mut split: BTreeMap<&str, usize> = BTreeMap::new();
    for stream in &plan.streams {
        for index in stream.iter().take(plan.objective_prefix) {
            if let Some(tag) = tags.get(index) {
                *split.entry(tag).or_default() += 1;
            }
        }
    }
    notes.push(format!("prefix paths: {split:?}"));

    Judged {
        attempted: all.len(),
        failed,
        latencies,
        slo_met,
        objective_mean,
        notes,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Runs one benchmark invocation.
pub fn run(args: &Args) -> Result<Outcomes, String> {
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    let (window, setup_s) = window(&plan, args)?;
    let mut judged = judge(&plan, &window);
    let throughput = judged.latencies.len() as f64 / window.elapsed_s.max(1e-9);
    if judged.latencies.is_empty() {
        return Err(format!("no verified reply; {:?}", judged.notes));
    }
    if !args.trace {
        let p = args.workload.tail_percentile();
        let tail = metrics::tail(&judged.latencies, p);
        judged.notes.push(format!(
            "{} verified replies in {:.3} s; latency_tail_s is p{} with {} samples beyond it",
            judged.latencies.len(),
            window.elapsed_s,
            p * 100.0,
            tail.beyond
        ));
        judged.notes.push(format!(
            "latency ladder: {}",
            [0.5, 0.75, 0.9, 0.95, 0.99]
                .iter()
                .map(|&q| format!(
                    "p{} {:.4} s",
                    q * 100.0,
                    metrics::tail(&judged.latencies, q).value
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if tail.beyond < 10 {
            judged
                .notes
                .push("WARNING fewer than ten samples beyond the tail percentile".to_string());
        }
        let metrics = vec![
            metric("setup_s", setup_s, "s"),
            metric("throughput_rps", throughput, "1/s"),
            metric("latency_p50_s", median(&judged.latencies), "s"),
            metric("latency_tail_s", tail.value, "s"),
            metric(
                "slo_frac",
                judged.slo_met as f64 / judged.attempted as f64,
                "ratio",
            ),
            metric("objective_mean", judged.objective_mean, "objective"),
        ];
        return Ok(Outcomes {
            attempted: judged.attempted,
            failed: judged.failed,
            metrics,
            notes: judged.notes,
        });
    }
    traced(&plan, args, &window, throughput, judged)
}

/// The traced run: replays the set-up and the served timed requests through
/// each layer, runs the probes, and turns spans and counters into the
/// per-layer metrics.
fn traced(
    plan: &Plan,
    args: &Args,
    window: &Window,
    throughput: f64,
    mut judged: Judged,
) -> Result<Outcomes, String> {
    let started = Instant::now();
    let mut replay = Replay::new();
    let mut seq = 0;
    for &index in plan.setup.iter().flatten() {
        replay.request(seq, &plan.requests[index])?;
        seq += 1;
    }
    // Served timed requests in each client's order; on a single connection
    // the replayed path must match the server's tag.
    let compare = plan.streams.len() == 1;
    let mut mismatches = 0;
    for reply in window.replies.iter().flatten().take(REPLAY_CAP) {
        let path = replay.request(seq, &plan.requests[reply.request])?;
        seq += 1;
        if compare && reply.outcome != Outcome::Ok(path) {
            mismatches += 1;
            if mismatches <= 5 {
                judged.notes.push(format!(
                    "FAILED replay took {} where the server answered {:?} for {}",
                    path.tag(),
                    reply.outcome,
                    plan.requests[reply.request].id
                ));
            }
        }
    }
    judged.failed += mismatches;
    replay.probe(args.seed, seq)?;
    let replay_s = started.elapsed().as_secs_f64();

    let spans = window.spans + replay.recorder.spans().len();
    let span_cost_ns = trace::span_cost_ns();
    let overhead_frac = spans as f64 * span_cost_ns * 1e-9 / (window.elapsed_s + replay_s);
    write_spans(plan, args, &replay.recorder);

    let self_times = replay.recorder.self_times();
    let counts = &replay.counts;
    let d = &window.delta;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let median_of = |values: Vec<f64>| {
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let per_world = |f: &dyn Fn(usize) -> Vec<f64>| -> Vec<f64> {
        (0..WORLDS.len()).map(|w| median_of(f(w))).collect()
    };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, times) in &self_times {
        let seconds: Vec<f64> = times.iter().map(|&ns| ns as f64 * 1e-9).collect();
        values.insert(name.clone(), median(&seconds));
    }
    values.insert(
        "wire.reply_bytes".into(),
        median_of(counts.reply_bytes.iter().map(|&b| b as f64).collect()),
    );
    values.insert(
        "cache.exact_hit_ratio".into(),
        ratio(
            d.cache_exact_hits,
            d.cache_exact_hits + d.cache_exact_misses,
        ),
    );
    values.insert(
        "cache.anchor_hit_ratio".into(),
        ratio(
            d.cache_anchor_hits,
            d.cache_anchor_hits + d.cache_anchor_misses,
        ),
    );
    values.insert("cache.evictions".into(), d.cache_evictions as f64);
    values.insert(
        "server.peak_rss_mb".into(),
        window.after.peak_rss_kib as f64 / 1024.0,
    );
    values.insert(
        "server.rss_mb".into(),
        window.after.rss_median_kib as f64 / 1024.0,
    );
    values.insert("coalesce.coalesced".into(), d.coalesced as f64);
    values.insert(
        "coalesce.share_of_misses".into(),
        ratio(
            d.coalesced,
            d.coalesced + d.cold_solves + d.warm_hits + d.warm_fallbacks,
        ),
    );
    values.insert("net.queue_depth_max".into(), d.max_queue_depth as f64);
    values.insert("net.shed".into(), d.shed as f64);
    values.insert(
        "net.frames_minus_responses".into(),
        window.after.frames as f64 - window.after.responses as f64,
    );
    let attempts = counts.warm_attempts as u64;
    values.insert(
        "service.warm_kept_ratio".into(),
        ratio(counts.warm_kept as u64, attempts),
    );
    values.insert(
        "service.path_outer_iters".into(),
        ratio(counts.path_outer_iters as u64, attempts),
    );
    values.insert(
        "service.guard_outer_iters".into(),
        ratio(counts.guard_outer_iters as u64, attempts),
    );
    let cold = |pick: fn(&(usize, usize, usize)) -> usize| {
        per_world(&|w| {
            counts
                .cold_solves
                .iter()
                .filter(|c| c.0 == w)
                .map(|c| pick(c) as f64)
                .collect()
        })
    };
    let stage = |pick: fn(&(usize, usize, usize, usize)) -> usize| {
        per_world(&|w| {
            counts
                .stages
                .iter()
                .filter(|s| s.0 == w)
                .map(|s| pick(s) as f64)
                .collect()
        })
    };
    for (prefix, figures) in [
        ("core.outer_iters", cold(|c| c.1)),
        ("core.stage3_calls", cold(|c| c.2)),
        ("stage1.iters", stage(|s| s.1)),
        ("stage2.leaves", stage(|s| s.2)),
        ("stage3.iters", stage(|s| s.3)),
    ] {
        for (world, value) in WORLDS.iter().zip(figures) {
            values.insert(format!("{prefix}.{world}"), value);
        }
    }
    for (name, ns) in &counts.kernels {
        values.insert(name.clone(), *ns);
    }
    values.insert("trace.throughput_rps".into(), throughput);
    values.insert("trace.span_cost_ns".into(), span_cost_ns);
    values.insert("trace.overhead_frac".into(), overhead_frac);

    // Every per-layer metric is reported; a layer this workload and the
    // probes never reached reads 0.
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric { name, value, unit }
        })
        .collect();
    judged.notes.push(format!(
        "replayed {seq} requests ({:?}); {spans} spans",
        counts.paths
    ));
    Ok(Outcomes {
        attempted: judged.attempted,
        failed: judged.failed,
        metrics,
        notes: judged.notes,
    })
}

/// Writes the replay's spans to `out/` in the benchmark's directory.
fn write_spans(plan: &Plan, args: &Args, recorder: &Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.json", plan.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, recorder.to_json().to_compact_string()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
