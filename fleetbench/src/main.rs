//! `fleetbench` command line. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload metro [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--workload all` runs every workload, each in its own process.

use fleetbench::report::Report;
use fleetbench::{pipeline, prepare, probes, workload, Inputs, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "usage: fleetbench --workload <metro|resilience|office_walk|backhaul|all> \
    [--seed N] [--seconds S] [--trace 0|1]\n\
    \x20 --seed N     replaces the spec's seed (default: the checked-in seed,\n\
    \x20              whose outcome must match the checked-in golden)\n\
    \x20 --seconds S  how long to measure (default 10)\n\
    \x20 --trace 1    traced run: per-layer metrics instead of end-to-end ones;\n\
    \x20              its spans go to fleetbench/out/spans-<workload>-<seed>.jsonl";

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(w) = workload(&args.workload) else {
        eprintln!("fleetbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let inputs = match prepare(Path::new("."), w, args.seed) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("fleetbench: {}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    println!(
        "fleetbench: workload {} seed {} for {} s, {} run; reference: {}",
        w.name,
        inputs.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        inputs.reference_from
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let report = if args.trace {
        traced(&inputs, budget)
    } else {
        pipeline::run(&inputs, budget)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleetbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run; its spans are written once it has ended.
fn traced(inputs: &Inputs, budget: Duration) -> Result<Report, String> {
    let (mut report, tracer) = probes::run(inputs, budget)?;
    let dir = Path::new("fleetbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", inputs.workload, inputs.seed));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "spans: {} written to {}",
        tracer.spans.len(),
        path.display()
    ));
    Ok(report)
}

/// `--workload all`: every workload in a process of its own (so each
/// `peak_rss_mb` is that workload's alone), with this run's other flags.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fleetbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = argv.clone();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = w.name.to_string();
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("fleetbench: cannot run {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
