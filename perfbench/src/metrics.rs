//! Metric names, units and the summary statistics behind them.

use crate::plan::WORLDS;
use crate::replay::CHOLESKY_DIMS;

/// Latency limit of `slo_frac`.
pub const SLO_S: f64 = 1.0;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("slo_frac", "ratio", "higher"),
    ("objective_mean", "objective", "higher"),
];

/// Per-layer metrics of the traced run: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = [
        ("wire.decode_s", "s", "lower"),
        ("wire.encode_s", "s", "lower"),
        ("wire.reply_bytes", "bytes", "lower"),
        ("request.resolve_catalog_s", "s", "lower"),
        ("request.resolve_drifted_s", "s", "lower"),
        ("fingerprint.full_s", "s", "lower"),
        ("fingerprint.shape_s", "s", "lower"),
        ("fingerprint.drift_distance_s", "s", "lower"),
        ("cache.lookup_exact_s", "s", "lower"),
        ("cache.lookup_anchor_s", "s", "lower"),
        ("cache.insert_s", "s", "lower"),
        ("cache.exact_hit_ratio", "ratio", "higher"),
        ("cache.anchor_hit_ratio", "ratio", "higher"),
        ("cache.evictions", "count", "lower"),
        ("server.peak_rss_mb", "MB", "lower"),
        ("server.rss_mb", "MB", "lower"),
        ("coalesce.coalesced", "count", "higher"),
        ("coalesce.share_of_misses", "ratio", "higher"),
        ("net.queue_depth_max", "count", "lower"),
        ("net.shed", "count", "lower"),
        ("net.frames_minus_responses", "count", "lower"),
        ("service.warm_solve_s", "s", "lower"),
        ("service.guard_solve_s", "s", "lower"),
        ("service.fallback_solve_s", "s", "lower"),
        ("service.warm_kept_ratio", "ratio", "higher"),
        ("service.path_outer_iters", "count", "lower"),
        ("service.guard_outer_iters", "count", "lower"),
    ]
    .iter()
    .map(|&(n, u, b)| (n.to_string(), u, b))
    .collect();
    for (prefix, unit) in [
        ("core.cold_solve_s", "s"),
        ("core.outer_iters", "count"),
        ("core.stage3_calls", "count"),
        ("stage1.solve_s", "s"),
        ("stage1.iters", "count"),
        ("stage2.solve_s", "s"),
        ("stage2.leaves", "count"),
        ("stage3.solve_s", "s"),
        ("stage3.iters", "count"),
    ] {
        for world in WORLDS {
            out.push((format!("{prefix}.{world}"), unit, "lower"));
        }
    }
    for n in CHOLESKY_DIMS {
        out.push((format!("opt.cholesky_factor_ns.{n}"), "ns", "lower"));
        out.push((format!("opt.cholesky_solve_ns.{n}"), "ns", "lower"));
        out.push((format!("opt.cholesky_flops.{n}"), "flop_computed", "lower"));
    }
    out.push(("opt.newton_step_ns".to_string(), "ns", "lower"));
    out.push(("opt.project_bisect_ns".to_string(), "ns", "lower"));
    out.push(("trace.throughput_rps".to_string(), "1/s", "higher"));
    out.push(("trace.span_cost_ns".to_string(), "ns", "lower"));
    out.push(("trace.overhead_frac".to_string(), "ratio", "lower"));
    out
}

/// The median of `values` (the upper one for an even count); NaN if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Nearest-rank percentile of ascending `sorted` at `p` in (0, 1].
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail of a latency sample at a workload's tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at the percentile.
    pub value: f64,
    /// Samples beyond it; a tail needs at least ten.
    pub beyond: usize,
}

/// The latency at percentile `p` of a non-empty sample, and how many samples
/// lie beyond it.
pub fn tail(latencies: &[f64], p: f64) -> Tail {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Tail {
        value: percentile(&sorted, p),
        beyond: sorted.len() - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_counts_the_samples_beyond_it() {
        let sample: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&sample, 0.95);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(count - END_TO_END.len() <= 128);
        for name in names {
            assert!(name.len() <= 64, "{name}");
        }
    }
}
