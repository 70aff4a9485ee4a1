//! The parallel experiment engine's core contract: running the battery on
//! N worker threads produces output byte-identical to running it serially.
//! Every experiment owns its own seeded RNG streams and buffers its output
//! into a `Report`, so scheduling cannot leak into results.

use hint_bench::runner::{battery_output, filter_jobs, run_jobs, smoke_battery};
use std::path::{Path, PathBuf};

/// The smoke battery's pinned output, relative to the workspace root.
const SMOKE_GOLDEN: &str = "crates/bench/tests/golden/run_all_smoke.txt";

fn repo_path(rel: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// `run_all --smoke --jobs 4` output equals `--jobs 1`, byte for byte,
/// and both equal the checked-in golden.
#[test]
fn smoke_battery_parallel_output_identical_to_serial() {
    let serial = battery_output(smoke_battery(), 1);
    let parallel = battery_output(smoke_battery(), 4);
    assert!(
        serial == parallel,
        "parallel smoke battery diverged from serial (serial {} bytes, parallel {} bytes)",
        serial.len(),
        parallel.len()
    );
    // And the output is the real battery, not an empty shell.
    assert!(serial.contains("Fig. 2-2"));
    assert!(serial.contains("Table 5.1"));
    assert!(serial.contains("Fig. 5-1"));
    let golden = std::fs::read_to_string(repo_path(SMOKE_GOLDEN)).expect("smoke golden");
    assert!(
        serial == golden,
        "smoke battery output ({} bytes) diverged from {SMOKE_GOLDEN} ({} bytes); if the \
         change is intentional, regenerate with \
         `cargo test -p hint-bench --test parallel_determinism -- --ignored`",
        serial.len(),
        golden.len()
    );
}

/// Regenerate the smoke battery golden. Deliberate-changes-only: run
/// with `cargo test -p hint-bench --test parallel_determinism -- --ignored`
/// and review the diff before committing.
#[test]
#[ignore = "regenerates checked-in fixtures; run explicitly after intentional changes"]
fn regenerate_smoke_golden() {
    std::fs::write(repo_path(SMOKE_GOLDEN), battery_output(smoke_battery(), 1))
        .expect("write golden");
}

/// Filtering composes with parallelism: the filtered slice of the battery
/// runs the same experiments in the same order.
#[test]
fn filtered_battery_is_deterministic_and_ordered() {
    let serial: Vec<String> = run_jobs(filter_jobs(smoke_battery(), "fig"), 1)
        .into_iter()
        .map(|r| r.name)
        .collect();
    let parallel: Vec<String> = run_jobs(filter_jobs(smoke_battery(), "fig"), 3)
        .into_iter()
        .map(|r| r.name)
        .collect();
    assert_eq!(serial, parallel);
    assert_eq!(
        serial,
        [
            "fig_2_2",
            "fig_3_5",
            "fig_4_2_4_3",
            "fig_5_1",
            "fig_fleet",
            "fig_metro"
        ]
    );
}
