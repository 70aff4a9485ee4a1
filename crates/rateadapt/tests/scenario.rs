//! Integration tests of the Scenario API's two contracts:
//!
//! 1. **Serde round-trips** — every spec shape survives
//!    spec → JSON → spec with full equality, so spec files are faithful
//!    experiment descriptions; every checked-in spec file and golden
//!    outcome re-serializes to its exact bytes.
//! 2. **Spec-vs-builder determinism** — a spec-driven run is bit-identical
//!    to the equivalent hand-built `Trace` + `HintStream` +
//!    `LinkSimulator` pipeline with the same seeds.

use hint_channel::{Environment, Trace};
use hint_rateadapt::scenario::{
    EnvironmentSpec, HintSpec, MotionSpec, ProtocolSpec, ScenarioBuilder, ScenarioSpec,
    HINT_SEED_MASK,
};
use hint_rateadapt::{HintStream, LinkSimulator, ProtocolParams, ProtocolRegistry, Workload};
use hint_sensors::MotionProfile;
use hint_sim::SimDuration;

fn roundtrip(spec: &ScenarioSpec) -> ScenarioSpec {
    let json = spec.to_json();
    ScenarioSpec::from_json(&json).expect("spec JSON parses back")
}

#[test]
fn default_spec_round_trips() {
    let spec = ScenarioSpec::default();
    assert_eq!(roundtrip(&spec), spec);
}

#[test]
fn every_environment_variant_round_trips() {
    for env in [
        EnvironmentSpec::Office,
        EnvironmentSpec::Hallway,
        EnvironmentSpec::Outdoor,
        EnvironmentSpec::Vehicular,
        EnvironmentSpec::MeshEdge,
        EnvironmentSpec::Custom(Environment::vehicular()),
    ] {
        let spec = ScenarioSpec {
            environment: env,
            ..ScenarioSpec::default()
        };
        assert_eq!(roundtrip(&spec), spec);
    }
}

#[test]
fn every_motion_variant_round_trips() {
    let profile = MotionProfile::alternating(SimDuration::from_secs(2), 2);
    for motion in [
        MotionSpec::Stationary,
        MotionSpec::Walking {
            speed_mps: 1.4,
            heading_deg: 90.0,
        },
        MotionSpec::Vehicle {
            speed_mps: 15.0,
            heading_deg: 45.0,
        },
        MotionSpec::HalfAndHalf {
            static_first: false,
        },
        MotionSpec::StaticMoveStatic {
            lead: SimDuration::from_secs(2),
            moving: SimDuration::from_secs(6),
            tail: SimDuration::from_secs(2),
        },
        MotionSpec::Alternating {
            each: SimDuration::from_secs(1),
            n_pairs: 5,
        },
        MotionSpec::Custom(profile.segments().to_vec()),
    ] {
        let spec = ScenarioSpec {
            motion,
            duration: SimDuration::from_secs(10),
            ..ScenarioSpec::default()
        };
        assert_eq!(roundtrip(&spec), spec);
    }
}

#[test]
fn workload_hints_and_protocol_round_trip() {
    let spec = ScenarioSpec {
        workload: Workload::tcp(),
        hints: HintSpec::Sensors { seed: Some(17) },
        protocol: ProtocolSpec {
            name: "HintAware".into(),
            samplerate_window: SimDuration::from_secs(5),
        },
        payload_bytes: 500,
        seed: 0xDEADBEEF,
        ..ScenarioSpec::default()
    };
    assert_eq!(roundtrip(&spec), spec);

    let oracle = ScenarioSpec {
        hints: HintSpec::Oracle {
            latency: SimDuration::from_millis(250),
        },
        ..ScenarioSpec::default()
    };
    assert_eq!(roundtrip(&oracle), oracle);
}

/// The checked-in artifacts — spec files under `scenarios/` and golden
/// outcomes under `crates/bench/tests/golden/` — as `(file name, text)`.
fn checked_in_json(dir: &str) -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable artifact");
            (name, text)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn checked_in_specs_and_goldens_round_trip_byte_exactly() {
    // Spec files are the experiment and goldens pin its result, so each
    // must survive parse → serialize with its exact bytes (the writers
    // emit `to_json_pretty()` plus a trailing newline).
    use hint_rateadapt::{FleetOutcome, FleetSpec, ScenarioOutcome};
    let specs = checked_in_json("../../scenarios");
    assert!(specs.len() >= 8, "spec files went missing: {specs:?}");
    for (name, text) in &specs {
        let again = if name.starts_with("fleet_") {
            FleetSpec::from_json(text).map(|s| s.to_json_pretty())
        } else {
            ScenarioSpec::from_json(text).map(|s| s.to_json_pretty())
        };
        let again = again.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            again + "\n",
            *text,
            "{name} does not re-serialize byte-exactly"
        );
    }
    let goldens = checked_in_json("../bench/tests/golden");
    assert!(goldens.len() >= 6, "goldens went missing: {goldens:?}");
    for (name, text) in &goldens {
        let again = if name.starts_with("fleet_") {
            let outcome = FleetOutcome::from_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            // Isolated goldens carry no `contention` key; it defaults.
            if !text.contains("\"contention\"") {
                assert_eq!(outcome.contention, "isolated", "{name}");
            }
            outcome.to_json_pretty()
        } else {
            let outcome: ScenarioOutcome =
                serde_json::from_str(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            outcome.to_json_pretty()
        };
        assert_eq!(
            again + "\n",
            *text,
            "{name} does not re-serialize byte-exactly"
        );
    }
}

#[test]
fn explicit_null_backhaul_parses_as_none() {
    // `backhaul` is `#[serde(default)]`, so an explicit `null` is the
    // same as leaving the key out, in a single-link spec and on an AP.
    use hint_rateadapt::fleet::FleetSpec;
    let spec = ScenarioSpec::default();
    let compact = spec.to_json();
    let with_null = format!("{},\"backhaul\":null}}", compact.strip_suffix('}').unwrap());
    assert_eq!(
        ScenarioSpec::from_json(&with_null).expect("null backhaul parses"),
        spec
    );

    let fleet = FleetSpec::builder()
        .ap(50.0, 40.0, 60.0)
        .client(10.0, 40.0, MotionSpec::Stationary, Workload::Udp)
        .into_spec();
    let with_null = fleet.to_json().replacen(
        "\"coverage_m\":60.0",
        "\"coverage_m\":60.0,\"backhaul\":null",
        1,
    );
    assert!(with_null.contains("\"backhaul\":null"), "{with_null}");
    let parsed = FleetSpec::from_json(&with_null).expect("null AP backhaul parses");
    assert_eq!(parsed.aps[0].backhaul, None);
    assert_eq!(parsed, fleet);
}

#[test]
fn pretty_json_parses_back_too() {
    let spec = ScenarioSpec {
        motion: MotionSpec::HalfAndHalf { static_first: true },
        workload: Workload::tcp(),
        hints: HintSpec::Sensors { seed: None },
        ..ScenarioSpec::default()
    };
    let parsed = ScenarioSpec::from_json(&spec.to_json_pretty()).expect("pretty JSON parses");
    assert_eq!(parsed, spec);
}

#[test]
fn spec_file_save_load_round_trips() {
    let spec = ScenarioSpec {
        environment: EnvironmentSpec::Vehicular,
        motion: MotionSpec::Vehicle {
            speed_mps: 12.0,
            heading_deg: 0.0,
        },
        seed: 99,
        ..ScenarioSpec::default()
    };
    let dir = std::env::temp_dir().join("hint-scenario-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("spec.json");
    spec.save(&path).expect("save");
    let loaded = ScenarioSpec::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, spec);
}

#[test]
fn spec_and_builder_agree_bit_identically_with_hand_built_run() {
    // Same experiment three ways: raw pipeline, builder, spec-from-JSON.
    let duration = SimDuration::from_secs(6);
    let seed = 4242;

    // 1. Hand-built.
    let env = Environment::outdoor();
    let profile = MotionProfile::half_and_half(duration / 2, true);
    let trace = Trace::generate(&env, &profile, duration, seed);
    let hints = HintStream::from_sensors(&profile, duration, seed ^ HINT_SEED_MASK);
    let mut adapter = ProtocolRegistry::builtin_shared()
        .build("HintAware", &ProtocolParams::default())
        .unwrap();
    let hand = LinkSimulator::new(&trace)
        .with_hints(&hints)
        .run(adapter.as_mut(), &Workload::tcp());

    // 2. Builder.
    let built = ScenarioBuilder::new()
        .environment(EnvironmentSpec::Outdoor)
        .motion(MotionSpec::HalfAndHalf { static_first: true })
        .duration(duration)
        .seed(seed)
        .workload(Workload::tcp())
        .protocol("HintAware")
        .sensor_hints()
        .build()
        .expect("valid scenario");
    let from_builder = built.run();

    // 3. The builder's spec, serialized and parsed back.
    let json = built.spec().to_json();
    let from_spec = ScenarioSpec::from_json(&json)
        .expect("parses")
        .run()
        .expect("valid spec");

    assert_eq!(from_builder.result, hand);
    assert_eq!(from_spec.result, hand);
    assert_eq!(from_spec, from_builder);
}

#[test]
fn different_seeds_give_different_outcomes() {
    let run = |seed: u64| {
        ScenarioBuilder::new()
            .motion(MotionSpec::Walking {
                speed_mps: 1.4,
                heading_deg: 0.0,
            })
            .duration(SimDuration::from_secs(3))
            .seed(seed)
            .build()
            .expect("valid")
            .run()
            .result
    };
    assert_ne!(run(1), run(2));
    assert_eq!(run(1), run(1));
}

#[test]
fn custom_environment_spec_runs_like_its_preset() {
    // `Custom` carrying the office preset behaves exactly like `Office`.
    let base = ScenarioBuilder::new()
        .duration(SimDuration::from_secs(2))
        .seed(3)
        .into_spec();
    let preset = ScenarioSpec {
        environment: EnvironmentSpec::Office,
        ..base.clone()
    };
    let custom = ScenarioSpec {
        environment: EnvironmentSpec::Custom(Environment::office()),
        ..base
    };
    assert_eq!(
        preset.run().expect("valid").result,
        custom.run().expect("valid").result
    );
}

#[test]
fn fleet_spec_round_trips_every_field() {
    use hint_rateadapt::fleet::FleetSpec;
    let spec = FleetSpec::builder()
        .environment(EnvironmentSpec::Hallway)
        .bounds(300.0, 80.0)
        .ap(50.0, 40.0, 60.0)
        .ap(250.0, 40.0, 60.0)
        .client(
            10.0,
            40.0,
            MotionSpec::Vehicle {
                speed_mps: 8.0,
                heading_deg: 90.0,
            },
            Workload::tcp(),
        )
        .client(20.0, 20.0, MotionSpec::Stationary, Workload::Udp)
        .duration(SimDuration::from_secs(40))
        .seed(99)
        .protocol("SampleRate")
        .hints(HintSpec::Oracle {
            latency: SimDuration::from_millis(200),
        })
        .handoff_policy("hint-aware")
        .scan_interval(SimDuration::from_millis(500))
        .hysteresis(1.5)
        .reassociation_cost(SimDuration::from_millis(80))
        .payload_bytes(1500)
        .validate()
        .expect("valid fleet spec");
    let reparsed = FleetSpec::from_json(&spec.to_json()).expect("parses back");
    assert_eq!(reparsed, spec);
    let pretty = FleetSpec::from_json(&spec.to_json_pretty()).expect("pretty parses back");
    assert_eq!(pretty, spec);
}

#[test]
fn fleet_validation_reuses_scenario_error_paths() {
    use hint_rateadapt::fleet::FleetSpec;
    use hint_rateadapt::scenario::ScenarioError;
    let base = || {
        FleetSpec::builder()
            .ap(50.0, 40.0, 60.0)
            .client(10.0, 40.0, MotionSpec::Stationary, Workload::Udp)
            .duration(SimDuration::from_secs(10))
    };
    assert_eq!(
        base().duration(SimDuration::ZERO).validate().err(),
        Some(ScenarioError::ZeroDuration)
    );
    assert_eq!(
        base().payload_bytes(0).validate().err(),
        Some(ScenarioError::ZeroPayload)
    );
    // Unknown protocols surface through the same registry-backed error
    // (message lists the registered names).
    let err = base().protocol("warpdrive").validate().err().unwrap();
    assert!(err.to_string().contains("registered: HintAware"));
}
