//! Metric names, the per-run report, and its printing.
//!
//! Every run prints a human-readable table and then, as its last line, one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics of [`E2E`] for an untraced run, the per-layer metrics
//! of [`LAYERS`] for a traced one. Each workload reports every metric in
//! both lists; a layer a workload never calls reads 0.

use std::fmt::Write as _;

/// End-to-end metrics: name and unit. Each is reported by every workload.
/// Latency percentiles are printed in the table but not gated: on a shared
/// two-vCPU machine a sub-millisecond request's p50 and p99 mostly measure
/// how often the host preempts the process, and their spread over ten
/// seeds (0.42 for the p50, above 1 for the p99) exceeded any usable bound.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("proven_fraction", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit.
pub const LAYERS: [(&str, &str); 32] = [
    ("popmond.protocol.parse_us", "us"),
    ("popmond.state.handle_us", "us"),
    ("popmond.server.wait_us", "us"),
    ("popmond.state.memo_hit_ratio", "ratio"),
    ("popmond.json.response_bytes", "bytes"),
    ("popmond.server.shed", "count"),
    ("placement.delta.mutate_us", "us"),
    ("placement.delta.resolve_us", "us"),
    ("placement.anytime.overshoot", "ratio"),
    ("placement.anytime.work_per_ms", "units/ms"),
    ("placement.anytime.deadline_miss_rate", "ratio"),
    ("placement.devices_unproven", "count"),
    ("placement.greedy_us", "us"),
    ("placement.mecf_bb_us", "us"),
    ("placement.resilience.scenarios_per_s", "1/s"),
    ("placement.instance_us", "us"),
    ("milp.lp.iterations", "count"),
    ("milp.lp.us_per_iter", "us"),
    ("milp.lp.work", "count"),
    ("milp.mip.nodes", "count"),
    ("milp.mip.work", "count"),
    ("milp.mip.solve_us", "us"),
    ("popgen.pop_us", "us"),
    ("popgen.traffic_us", "us"),
    ("popgen.scenarios_us", "us"),
    ("netgraph.spt_us", "us"),
    ("netgraph.ksp_us", "us"),
    ("mcmf.min_cost_flow_us", "us"),
    ("engine.efficiency", "ratio"),
    ("engine.straggler_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests or cells attempted.
    pub attempted: u64,
    /// Attempts that failed, were refused or shed, or answered wrongly.
    pub failed: u64,
    /// Descriptions of the first failures (printed, not in the JSON).
    pub failures: Vec<String>,
    /// End-to-end values by name (see [`E2E`]).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values by name (see [`LAYERS`]); filled by traced runs.
    pub layers: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the JSON.
    pub lines: Vec<String>,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl Report {
    /// Records a failed attempt with its reason (only the first 20 are
    /// kept for printing).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// Sets an end-to-end value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(E2E.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.e2e.retain(|(n, _)| *n != name);
        self.e2e.push((name, value));
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layers.retain(|(n, _)| *n != name);
        self.layers.push((name, value));
    }

    /// Appends a printed line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    fn value(list: &[(&'static str, f64)], name: &str) -> f64 {
        list.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Prints the table and the final JSON line.
    pub fn print(&self, traced: bool) {
        for l in &self.lines {
            println!("{l}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let names: &[(&str, &str)] = if traced { &LAYERS } else { &E2E };
        let list = if traced { &self.layers } else { &self.e2e };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = Self::value(list, name);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("metric {name:<40} {v:>16.6} {unit}");
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(metrics, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}
