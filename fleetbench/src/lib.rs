//! `fleetbench` — the spec → outcome benchmark of the fleet pipeline.
//!
//! One iteration turns a checked-in fleet spec into outcome JSON with the
//! public calls `scenario_run` makes, in its order:
//! [`FleetSpec::from_json`] → [`FleetScenario::compile`] (which validates)
//! → [`FleetScenario::run_with_jobs`]`(1)` → [`FleetOutcome::to_json_pretty`].
//! The load is a closed loop: one spec in flight at a time, in one
//! process. Every outcome is checked against a reference ([`Reference`]).
//!
//! * [`pipeline`] — the untraced run: end-to-end times, paced against
//!   the host's drift.
//! * [`probes`] — the traced run: spans around the public call into each
//!   crate (the layer probes) and the per-layer metrics.
//! * [`report`] — metric names, units and the result line.
//!
//! [`FleetOutcome::to_json_pretty`]: sensor_hints::rateadapt::fleet::FleetOutcome::to_json_pretty

pub mod pipeline;
pub mod probes;
pub mod report;

use sensor_hints::fleet::FleetScenario;
use sensor_hints::rateadapt::fleet::FleetSpec;
use std::path::Path;

/// One benchmark workload: a checked-in spec and its golden outcome.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// The fleet spec, relative to the repository root.
    pub spec: &'static str,
    /// The outcome at the spec's own seed, relative to the repository root.
    pub golden: &'static str,
}

/// Every workload, in the order `--workload all` runs them. Why each was
/// chosen is recorded in `BENCHMARK.json` and `fleetbench/README.md`.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "metro",
        spec: "scenarios/fleet_metro.json",
        golden: "crates/bench/tests/golden/fleet_metro_outcome.json",
    },
    Workload {
        name: "resilience",
        spec: "scenarios/fleet_resilience.json",
        golden: "crates/bench/tests/golden/fleet_resilience_outcome.json",
    },
    Workload {
        name: "office_walk",
        spec: "scenarios/fleet_office_walk.json",
        golden: "crates/bench/tests/golden/fleet_office_walk_outcome.json",
    },
    Workload {
        name: "backhaul",
        spec: "scenarios/fleet_backhaul_office.json",
        golden: "crates/bench/tests/golden/fleet_backhaul_outcome.json",
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Outcome bytes with ASCII whitespace removed: the goldens are compared
/// ignoring layout, and every other reference is compared the same way.
pub fn strip_ws(bytes: &[u8]) -> Vec<u8> {
    bytes
        .iter()
        .copied()
        .filter(|b| !b.is_ascii_whitespace())
        .collect()
}

/// The bytes every outcome of a run must match, after [`strip_ws`].
#[derive(Clone, Debug, PartialEq)]
pub struct Reference(pub Vec<u8>);

impl Reference {
    /// Whether `json` is the reference outcome.
    pub fn matches(&self, json: &str) -> bool {
        strip_ws(json.as_bytes()) == self.0
    }
}

/// Everything a run needs, loaded and checked before any timing.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The workload's name.
    pub workload: &'static str,
    /// The spec file's text, exactly as checked in.
    pub text: String,
    /// The seed every iteration writes over the spec's own.
    pub seed: u64,
    /// The outcome every iteration must produce.
    pub reference: Reference,
    /// Where the reference came from, for the human-readable report.
    pub reference_from: String,
}

/// Parse `text`, put `seed` in place of the spec's seed, and compile —
/// the set-up half of an iteration.
pub fn compile(text: &str, seed: u64) -> Result<FleetScenario, String> {
    let mut spec = FleetSpec::from_json(text).map_err(|e| format!("cannot parse spec: {e}"))?;
    spec.seed = seed;
    FleetScenario::compile(&spec).map_err(|e| format!("invalid spec: {e}"))
}

/// Load `w` from the repository at `root` and fix its reference outcome.
///
/// At the spec's own seed (the default, `seed == None`) the reference is
/// the checked-in golden. At any other seed it is that seed's `--jobs 1`
/// outcome ([`pipeline::check_sharded`] holds `--jobs 2` to it).
pub fn prepare(root: &Path, w: &'static Workload, seed: Option<u64>) -> Result<Inputs, String> {
    let spec_path = root.join(w.spec);
    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let own_seed = FleetSpec::from_json(&text)
        .map_err(|e| format!("cannot parse {}: {e}", w.spec))?
        .seed;
    let seed = seed.unwrap_or(own_seed);
    let mut inputs = Inputs {
        workload: w.name,
        text,
        seed,
        reference: Reference(Vec::new()),
        reference_from: String::new(),
    };
    if seed == own_seed {
        let golden_path = root.join(w.golden);
        let golden = std::fs::read(&golden_path)
            .map_err(|e| format!("cannot read {}: {e}", golden_path.display()))?;
        inputs.reference = Reference(strip_ws(&golden));
        inputs.reference_from = format!("golden {}", w.golden);
    } else {
        let serial = compile(&inputs.text, seed)?
            .run_with_jobs(1)
            .to_json_pretty();
        inputs.reference = Reference(strip_ws(serial.as_bytes()));
        inputs.reference_from = format!("--jobs 1 outcome at seed {seed}");
    }
    Ok(inputs)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail quantile reported as `e2e_s_p90` for `n` samples: 0.90, or,
/// when fewer than 10 samples would lie beyond it, the highest quantile
/// that still leaves 10 beyond — but never below the median, which is
/// what short runs (fewer than 21 samples) report.
pub fn tail_quantile(n: usize) -> f64 {
    let leaves_ten = n.saturating_sub(11) as f64 / n.saturating_sub(1).max(1) as f64;
    leaves_ten.clamp(0.5, 0.9)
}

/// Peak resident set size of this process (Linux `VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
