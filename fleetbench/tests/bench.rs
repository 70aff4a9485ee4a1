//! The benchmark's own checks: its count identities, its outcome check,
//! and its metric set against `BENCHMARK.json`.

use fleetbench::probes::{self, ProbeInputs, Tracer};
use fleetbench::report::{END_TO_END, PER_LAYER};
use fleetbench::{pipeline, prepare, workload, Inputs, Reference, WORKLOADS};
use sensor_hints::fleet::FleetScenario;
use sensor_hints::rateadapt::fleet::{FleetSpec, MediumSpec};
use sensor_hints::rateadapt::scenario::MotionSpec;
use sensor_hints::rateadapt::Workload;
use sensor_hints::sim::SimDuration;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// A two-AP, three-client, 2 s shared-medium fleet: small enough for a
/// debug build, and it exercises every layer but `cc`.
fn tiny_inputs() -> Inputs {
    let spec = FleetSpec::builder()
        .bounds(200.0, 100.0)
        .ap(40.0, 50.0, 70.0)
        .ap(160.0, 50.0, 70.0)
        .client(
            5.0,
            50.0,
            MotionSpec::Walking {
                speed_mps: 1.6,
                heading_deg: 90.0,
            },
            Workload::Udp,
        )
        .client(30.0, 40.0, MotionSpec::Stationary, Workload::Udp)
        .client(50.0, 60.0, MotionSpec::Stationary, Workload::tcp())
        .medium(MediumSpec::shared())
        .duration(SimDuration::from_secs(2))
        .seed(7)
        .into_spec();
    let json = FleetScenario::compile(&spec)
        .expect("valid spec")
        .run()
        .to_json_pretty();
    Inputs {
        workload: "tiny",
        text: spec.to_json(),
        seed: spec.seed,
        reference: Reference(fleetbench::strip_ws(json.as_bytes())),
        reference_from: "test".to_string(),
    }
}

fn probe_counts(inputs: &Inputs) -> (probes::LayerCounts, FleetSpec) {
    let p = ProbeInputs::new(inputs).expect("probe inputs");
    let n = probes::run_probes(&p, &mut Tracer::new(inputs.workload), None);
    (n, p.spec().clone())
}

#[test]
fn count_identities_hold() {
    // office_walk: 4 clients x 90 s, 2 ms hints, 1 s scans, no shared
    // medium; backhaul: the same geometry, flows only.
    for name in ["office_walk", "backhaul"] {
        let w = workload(name).expect("known workload");
        let (n, spec) = probe_counts(&prepare(&repo_root(), w, None).expect("inputs"));
        assert_eq!(spec.clients.len(), 4);
        assert_eq!(n.hints_samples, 4 * 90_000 / 2, "{name}");
        assert_eq!(n.topology_scans, 4 * 90, "{name}");
        assert_eq!(n.mac_calls, 0, "{name}: no shared medium, no arbitration");
        assert!(probes::identities_hold(&spec, &n));
    }
    // metro: 224 clients x 1 s, 250 ms scans, shared medium.
    let w = workload("metro").expect("known workload");
    let (n, spec) = probe_counts(&prepare(&repo_root(), w, None).expect("inputs"));
    assert_eq!(n.hints_samples, 224 * 500);
    assert_eq!(n.topology_scans, 224 * 4);
    assert!(n.mac_calls > 0 && n.mac_grants > 0);
    assert!(probes::identities_hold(&spec, &n));
}

#[test]
fn flows_run_only_in_the_cc_probe() {
    let w = workload("backhaul").expect("known workload");
    let (n, _) = probe_counts(&prepare(&repo_root(), w, None).expect("inputs"));
    assert_eq!(n.link_attempts, 0, "every backhaul client is a flow");
    assert!(n.cc_backhaul_dropped > 0, "a 2 Mbit/s backhaul drops");
}

#[test]
fn a_corrupted_outcome_byte_raises_error_rate() {
    let inputs = tiny_inputs();
    let clean = pipeline::run(&inputs, Duration::ZERO).expect("run");
    assert!(clean.correct);
    assert_eq!(clean.failed, 0);
    assert_eq!(clean.get("success_ratio"), Some(1.0));

    let mut corrupt = inputs.clone();
    let i = corrupt.reference.0.len() / 2;
    corrupt.reference.0[i] ^= 0x01;
    let r = pipeline::run(&corrupt, Duration::ZERO).expect("run");
    assert!(!r.correct);
    assert_eq!(r.failed, r.attempted, "every outcome now mismatches");
    assert_eq!(r.get("success_ratio"), Some(0.0));
}

#[test]
fn an_unparsable_spec_counts_as_failed() {
    let mut inputs = tiny_inputs();
    inputs.text.truncate(inputs.text.len() / 2);
    let r = pipeline::run(&inputs, Duration::ZERO).expect("run");
    assert!(!r.correct);
    assert_eq!(r.failed, r.attempted);
}

/// The `name`s (and `unit`s) of `BENCHMARK.json`'s metric list `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let root = serde::Value::parse_json(&text).expect("valid JSON");
    let serde::Value::Object(fields) = root else {
        panic!("BENCHMARK.json is not an object")
    };
    let (_, serde::Value::Array(metrics)) = fields.iter().find(|(k, _)| k == key).expect(key)
    else {
        panic!("{key} is not an array")
    };
    metrics
        .iter()
        .map(|m| {
            let serde::Value::Object(m) = m else {
                panic!("{key} entry is not an object")
            };
            let field = |f: &str| match m.iter().find(|(k, _)| k == f) {
                Some((_, serde::Value::Str(s))) => s.clone(),
                _ => panic!("{key} entry lacks `{f}`"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_are_those_in_benchmark_json() {
    assert_eq!(owned(END_TO_END), listed("end_to_end"));
    assert_eq!(owned(PER_LAYER), listed("per_layer"));

    let inputs = tiny_inputs();
    let untraced = pipeline::run(&inputs, Duration::ZERO).expect("run");
    let (traced, tracer) = probes::run(&inputs, Duration::ZERO).expect("traced run");
    assert!(untraced.correct && traced.correct);
    let names = |t: &[(&'static str, &'static str)]| t.iter().map(|m| m.0).collect::<Vec<_>>();
    assert_eq!(untraced.names(), names(END_TO_END));
    assert_eq!(traced.names(), names(PER_LAYER));
    for r in [&untraced, &traced] {
        assert!(serde::Value::parse_json(&r.json_line()).is_ok());
    }
    // Each traced iteration's pipeline steps are children of its `e2e`
    // span, and the `hints` probe is a child of its `compile` span.
    let parent_name = |name: &str| {
        let s = tracer.spans.iter().find(|s| s.name == name).expect(name);
        s.parent.map(|p| tracer.spans[p].name)
    };
    for step in ["spec.parse", "spec.validate", "compile", "engine", "output"] {
        assert_eq!(parent_name(step), Some("e2e"), "{step}");
    }
    assert_eq!(parent_name("hints"), Some("compile"));
    assert_eq!(parent_name("e2e"), None);
}

#[test]
fn every_workload_has_its_spec_and_golden() {
    for w in WORKLOADS {
        assert!(repo_root().join(w.spec).is_file(), "{}", w.spec);
        assert!(repo_root().join(w.golden).is_file(), "{}", w.golden);
    }
}
