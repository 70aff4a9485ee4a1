//! The untraced run: the end-to-end metrics.
//!
//! Each iteration is `scenario_run --jobs 1 --json` without the process:
//! spec text → [`crate::compile`] (parse, re-seed, validate, compile) →
//! `run_with_jobs(1)` → `to_json_pretty`, timed with the host clock and
//! nothing else in the loop but the outcome check and the [`Pace`] walk.
//!
//! Every iteration repeats the same deterministic work, so the spread of
//! its host times is the host's, not the program's. On a shared machine
//! the host's pace drifts by a factor of two over minutes, which no
//! statistic of host time survives. The gated times are therefore
//! *paced*: each iteration's host time is scaled by [`REFERENCE_PACE_S`]
//! over the time of a fixed walk made just before it, which slows with
//! the host and not with the program.

use crate::report::{Report, END_TO_END};
use crate::{compile, median, peak_rss_mb, quantile, tail_quantile, Inputs};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest timed iterations a run makes, however short `--seconds` is.
pub const MIN_ITERATIONS: usize = 3;

/// Words in the pace walk's table: 4 MiB, past a core's private caches,
/// so the walk meets shared-cache and memory contention as the pipeline
/// does.
const PACE_WORDS: usize = 1 << 19;

/// Read-modify-write steps per pace walk (about 2.5 ms on a 2.1 GHz
/// core).
const PACE_STEPS: u32 = 300_000;

/// The walk time paced seconds are quoted at: a paced second is a second
/// of host time at a pace where one walk takes this long.
pub const REFERENCE_PACE_S: f64 = 2.5e-3;

/// The host-pace probe: a fixed pseudo-random walk over a fixed table.
pub struct Pace {
    table: Vec<u64>,
}

impl Pace {
    /// The walk's table, allocated and touched.
    pub fn new() -> Pace {
        Pace {
            table: vec![1; PACE_WORDS],
        }
    }

    /// Bytes the table keeps resident.
    pub fn bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u64>()
    }

    /// Walk once; returns the host seconds it took.
    pub fn walk(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..black_box(PACE_STEPS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % PACE_WORDS as u64) as usize;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}

impl Default for Pace {
    fn default() -> Pace {
        Pace::new()
    }
}

/// Host times of the successful iterations of one untraced run, and the
/// outcome-check tally.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Per iteration: parse + validate + compile, host seconds.
    pub setup_s: Vec<f64>,
    /// Per iteration: spec text → outcome JSON string, host seconds.
    pub e2e_s: Vec<f64>,
    /// Per iteration: the [`Pace`] walk made just before it, seconds.
    pub pace_s: Vec<f64>,
    /// Outcome checks made (iterations and the `--jobs 2` check).
    pub attempted: u64,
    /// Checks failed: the outcome differed from the reference, or the
    /// spec failed to parse or compile.
    pub failed: u64,
}

impl Samples {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        crate::ratio(self.failed as f64, self.attempted as f64)
    }

    /// `host_s` (one of this run's per-iteration series) in paced
    /// seconds.
    pub fn paced(&self, host_s: &[f64]) -> Vec<f64> {
        host_s
            .iter()
            .zip(&self.pace_s)
            .map(|(t, p)| t * REFERENCE_PACE_S / p)
            .collect()
    }

    /// Median of `e2e_s` (host seconds).
    pub fn e2e_median(&self) -> f64 {
        median(&self.e2e_s)
    }
}

/// One untimed iteration, so caches fill and lazy set-up finishes before
/// the clock starts (its outcome is still checked).
pub fn warm_up(inputs: &Inputs, samples: &mut Samples) {
    iterate(inputs, samples, None);
}

/// Run iterations for `budget` (at least [`MIN_ITERATIONS`]), each after
/// a walk of `pace`, adding their times and checks to `samples`.
pub fn measure(inputs: &Inputs, budget: Duration, pace: &mut Pace, samples: &mut Samples) {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_ITERATIONS || start.elapsed() < budget {
        let pace_s = pace.walk();
        iterate(inputs, samples, Some(pace_s));
        n += 1;
    }
}

/// One checked iteration; its times are recorded when `pace_s` is given.
fn iterate(inputs: &Inputs, samples: &mut Samples, pace_s: Option<f64>) {
    samples.attempted += 1;
    match one(inputs) {
        Ok((setup, e2e, ok)) => {
            if let Some(p) = pace_s {
                samples.setup_s.push(setup);
                samples.e2e_s.push(e2e);
                samples.pace_s.push(p);
            }
            if !ok {
                samples.failed += 1;
            }
        }
        Err(e) => {
            if samples.failed == 0 {
                eprintln!("fleetbench: {}: {e}", inputs.workload);
            }
            samples.failed += 1;
        }
    }
}

/// The `--jobs 2` check: the sharded engine must produce the reference
/// too. [`run`] makes it after reading the peak RSS, so the worker
/// threads' memory never counts toward `peak_rss_mb`.
pub fn check_sharded(inputs: &Inputs, samples: &mut Samples) {
    samples.attempted += 1;
    let sharded = compile(&inputs.text, inputs.seed).map(|f| f.run_with_jobs(2).to_json_pretty());
    if !sharded.is_ok_and(|json| inputs.reference.matches(&json)) {
        eprintln!(
            "fleetbench: {}: --jobs 2 outcome differs from the reference",
            inputs.workload
        );
        samples.failed += 1;
    }
}

/// One iteration: `(setup_s, e2e_s, outcome matches the reference)`.
fn one(inputs: &Inputs) -> Result<(f64, f64, bool), String> {
    let t0 = Instant::now();
    let fleet = compile(std::hint::black_box(&inputs.text), inputs.seed)?;
    let t1 = Instant::now();
    let json = fleet.run_with_jobs(1).to_json_pretty();
    let t2 = Instant::now();
    let ok = inputs.reference.matches(std::hint::black_box(&json));
    Ok((
        t1.duration_since(t0).as_secs_f64(),
        t2.duration_since(t0).as_secs_f64(),
        ok,
    ))
}

/// The untraced run: a warm-up, then iterations for `budget`. Returns
/// the end-to-end report.
pub fn run(inputs: &Inputs, budget: Duration) -> Result<Report, String> {
    let mut s = Samples::default();
    warm_up(inputs, &mut s);
    let mut pace = Pace::new();
    measure(inputs, budget, &mut pace, &mut s);
    // Every iteration does the same work, so the high-water mark falls
    // while the pace table is resident: take the table's bytes back out.
    let peak_rss_mb = peak_rss_mb()? - pace.bytes() as f64 / (1024.0 * 1024.0);
    check_sharded(inputs, &mut s);

    let setup = s.paced(&s.setup_s);
    let e2e = s.paced(&s.e2e_s);
    let n = e2e.len();
    let q = tail_quantile(n);
    let mut r = Report {
        attempted: s.attempted,
        failed: s.failed,
        correct: s.failed == 0,
        ..Report::default()
    };
    r.set(END_TO_END, "setup_s", median(&setup));
    r.set(END_TO_END, "e2e_s", median(&e2e));
    r.set(END_TO_END, "e2e_s_p90", quantile(&e2e, q));
    r.set(END_TO_END, "peak_rss_mb", peak_rss_mb);
    r.set(END_TO_END, "success_ratio", 1.0 - s.error_rate());
    r.notes.push(format!(
        "paced seconds over {n} iterations; e2e_s_p90 is their p{:.1}",
        q * 100.0
    ));
    r.show(
        "host_setup_s",
        median(&s.setup_s),
        "s",
        "(median, host time)",
    );
    r.show("host_e2e_s", s.e2e_median(), "s", "(median, host time)");
    let fastest = s.e2e_s.iter().copied().fold(f64::INFINITY, f64::min);
    r.show("host_e2e_s_min", fastest, "s", "(fastest, host time)");
    r.show("pace_s", median(&s.pace_s), "s", "(median pace walk)");
    r.show(
        "error_rate",
        s.error_rate(),
        "ratio",
        &format!("({} of {} outcome checks failed)", s.failed, s.attempted),
    );
    Ok(r)
}
