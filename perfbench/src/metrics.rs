//! The metric tables (name, unit, better direction), order statistics, and the result
//! line.  `BENCHMARK.json` lists the same metrics; `tests/ledger.rs` keeps the two in
//! step.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured on the untraced repetitions.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("solve_s", "s", "lower"),
    m("baseline_solve_s", "s", "lower"),
    m("jobs_per_s", "1/s", "higher"),
    m("phase_rtt_p50_us", "us", "lower"),
    m("phase_rtt_p90_us", "us", "lower"),
    m("tree_shots_to_target", "count", "lower"),
    m("baseline_shots_to_target", "count", "lower"),
    m("shot_savings_x", "x", "higher"),
    m("min_fidelity", "fraction", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, measured on the traced repetitions.
pub const PER_LAYER: &[MetricDef] = &[
    m("treevqa.rounds", "count", "lower"),
    m("treevqa.splits", "count", "lower"),
    m("treevqa.nodes", "count", "lower"),
    m("treevqa.critical_depth", "count", "lower"),
    m("treevqa.overhead_us_per_job", "us", "lower"),
    m("driver.self_us_per_phase", "us", "lower"),
    m("driver.phase_rtt_p99_us", "us", "lower"),
    m("qexec.submit_us_p50", "us", "lower"),
    m("qexec.wait_overhead_us_p50", "us", "lower"),
    m("qexec.wait_overhead_us_p99", "us", "lower"),
    m("qexec.jobs_per_batch", "count", "higher"),
    m("backend.calls", "count", "lower"),
    m("backend.requests", "count", "lower"),
    m("backend.probes", "count", "lower"),
    m("backend.busy_s", "s", "lower"),
    m("backend.us_per_request", "us", "lower"),
    m("backend.share_of_solve", "fraction", "higher"),
    m("kernel.amplitudes", "count", "lower"),
    m("kernel.compiled_ops", "count", "lower"),
    m("kernel.pauli_terms", "count", "lower"),
    m("kernel.computed_bytes_per_request", "B", "lower"),
    m("kernel.computed_gb_per_s", "GB/s", "higher"),
    m("noise.trajectories_per_request", "count", "lower"),
    m("noise.us_per_trajectory", "us", "lower"),
    m("qnet.client_rtt_p50_us", "us", "lower"),
    m("qnet.overhead_us_per_job", "us", "lower"),
    m("qnet.request_bytes_per_job", "B", "lower"),
    m("qnet.reply_bytes_per_job", "B", "lower"),
    m("os.cpu_user_s", "s", "lower"),
    m("os.cpu_sys_s", "s", "lower"),
    m("os.ctx_switches_per_job", "count", "lower"),
    m("os.reference_ms", "ms", "lower"),
    m("wall.setup_s", "s", "lower"),
    m("wall.solve_s", "s", "lower"),
    m("wall.baseline_solve_s", "s", "lower"),
    m("setup.build_s", "s", "lower"),
    m("setup.reference_s", "s", "lower"),
    m("setup.tree_init_s", "s", "lower"),
    m("setup.service_start_s", "s", "lower"),
    m("ledger.unattributed_share", "fraction", "lower"),
    m("ledger.reconcile_error_pct", "%", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// The `q`-quantile of `values` by linear interpolation between order statistics
/// (`None` when empty).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Prints `metrics` (every entry of `defs`, by name, with unit and better direction) as
/// human-readable lines, and returns them as the `metrics` object of the result line.
/// A metric missing from `metrics` or not finite is reported and returned as an error.
pub fn render(
    defs: &[MetricDef],
    metrics: &BTreeMap<&'static str, f64>,
    prefix: &str,
) -> Result<String, String> {
    let mut json = Vec::with_capacity(defs.len());
    for def in defs {
        let value = *metrics
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", def.name));
        }
        println!(
            "  {prefix}{:<36} {value:>18.6} {:<8} ({} is better)",
            def.name, def.unit, def.better
        );
        json.push(format!(
            "\"{prefix}{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(json.join(", "))
}
