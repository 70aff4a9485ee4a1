//! Metric names and units, the human-readable lines, and the one-line
//! JSON result that ends a run's standard output.
//!
//! The two tables below are the benchmark's metric set; `BENCHMARK.json`
//! lists the same names in the same order (a test holds them equal).

/// End-to-end metrics of the untraced run (`--trace 0`), with units.
///
/// The times are paced seconds (see [`crate::pipeline`]); the host-time
/// medians and the error rate are printed by name on their own lines
/// ([`Report::show`]). `success_ratio` is `1 - error_rate`: a gated
/// metric is compared by ratio to its median, so it must never be 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("e2e_s_p90", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics of the traced run (`--trace 1`), with units. Layers
/// are named after the crate whose public call the probe times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_s", "s"),
    ("spec.validate_s", "s"),
    ("spec.bytes", "bytes"),
    ("compile.s", "s"),
    ("compile.self_s", "s"),
    ("hints.s", "s"),
    ("hints.samples", "count"),
    ("hints.ns_per_sample", "ns"),
    ("engine.run_s", "s"),
    ("engine.run_j2_s", "s"),
    ("engine.speedup_j2", "ratio"),
    ("engine.handoffs", "count"),
    ("engine.forced_handoffs", "count"),
    ("mac.arbitrate_s", "s"),
    ("mac.calls", "count"),
    ("mac.grants", "count"),
    ("mac.collisions", "count"),
    ("mac.ns_per_grant", "ns"),
    ("mac.outcome_collisions", "count"),
    ("channel.trace_s", "s"),
    ("channel.slots", "count"),
    ("channel.ns_per_slot", "ns"),
    ("link.run_s", "s"),
    ("link.packets_sent", "count"),
    ("link.attempts", "count"),
    ("link.delivery_ratio", "ratio"),
    ("link.ns_per_attempt", "ns"),
    ("cc.flow_run_s", "s"),
    ("cc.backhaul_dropped", "count"),
    ("topology.scan_s", "s"),
    ("topology.scans", "count"),
    ("topology.candidates_per_scan", "count"),
    ("output.serialize_s", "s"),
    ("output.bytes", "bytes"),
    ("bench.trace_overhead_s", "s"),
];

/// A run's result: the outcome-check tally and its metrics.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Outcome checks made.
    pub attempted: u64,
    /// Outcome checks failed.
    pub failed: u64,
    /// Whether every check passed (outcomes and count identities).
    pub correct: bool,
    /// `(name, value, unit)` in the order they were set.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable notes printed after the metric lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Record metric `name` from `table`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in `table`: the metric set is fixed.
    pub fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a benchmark metric"));
        // A ratio over nothing is reported as 0, never as NaN or infinity,
        // so the result line is always valid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// The metric names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.0).collect()
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Print `name` among the human-readable lines only (not in the
    /// result line), with `note` after its unit.
    pub fn show(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.notes
            .push(format!("{} {note}", line(name, value, unit)));
    }

    /// Human-readable lines: one per metric, then the notes.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| line(name, *value, unit))
            .collect();
        out.extend(self.notes.iter().cloned());
        out
    }

    /// The result as one line of JSON: `correct`, `attempted`, `failed`
    /// and `metrics` (each `{"value": v, "unit": u}`), values with every
    /// digit (Rust's shortest round-trip float form).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn line(name: &str, value: f64, unit: &str) -> String {
    if value.fract() == 0.0 {
        format!("{name:<30} {value:>16} {unit}")
    } else {
        format!("{name:<30} {value:>16.6} {unit}")
    }
}
