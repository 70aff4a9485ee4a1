//! The jerk-based movement detector of Sec. 2.2.1, implemented verbatim.
//!
//! For each 2 ms force report `t`, the detector computes the average force
//! vector over the five most recent reports and over the five before those,
//! and defines the **jerk**
//!
//! ```text
//! J_t = (x̄ − x̄′)² + (ȳ − ȳ′)² + (z̄ − z̄′)²
//! ```
//!
//! — "roughly, the recent change in force on the accelerometer". The
//! movement hint `H_t` then follows the paper's four-case rule with
//! threshold 3 and a 50-report (100 ms) hysteresis window:
//!
//! * `H_{t−1} = 0` and `J_t > 3`  ⇒ `H_t = 1` (instant rising edge)
//! * `H_{t−1} = 1` and some `J` in the last 50 reports `> 3` ⇒ `H_t = 1`
//! * `H_{t−1} = 1` and all `J` in the last 50 reports `≤ 3` ⇒ `H_t = 0`
//! * `H_{t−1} = 0` and `J_t ≤ 3` ⇒ `H_t = 0`
//!
//! `H_0 = 0`. Because the raw units are never calibrated, the same constants
//! work across devices (the paper's point); our synthetic sensor honours the
//! same unit conventions.

use crate::accelerometer::ForceReport;
use hint_sim::SimTime;

/// The paper's empirically determined jerk threshold.
pub const JERK_THRESHOLD: f64 = 3.0;

/// Number of reports in each averaging half-window.
pub const AVG_WINDOW: usize = 5;

/// Hysteresis window in reports (50 reports × 2 ms = 100 ms).
pub const HYSTERESIS_REPORTS: usize = 50;

/// Output of feeding one report into the detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JerkSample {
    /// Report timestamp.
    pub t: SimTime,
    /// The jerk value `J_t` (zero until ten reports have been seen).
    pub jerk: f64,
    /// The movement hint `H_t` after this report.
    pub moving: bool,
}

/// Streaming implementation of the Sec. 2.2.1 movement-hint algorithm.
///
/// ```
/// use hint_sensors::{Accelerometer, MovementDetector, MotionProfile};
/// use hint_sim::{RngStream, SimDuration, SimTime};
///
/// let profile = MotionProfile::static_move_static(
///     SimDuration::from_secs(2), SimDuration::from_secs(2), SimDuration::from_secs(2));
/// let mut accel = Accelerometer::new(profile, RngStream::new(1).derive("accel"));
/// let mut det = MovementDetector::new();
/// let mut hint_at_5s = false;
/// while accel.profile().duration() > (SimDuration::from_secs(0)) {
///     let r = accel.next_report();
///     let s = det.push(&r);
///     if r.t >= SimTime::from_secs(5) { hint_at_5s = s.moving; break; }
/// }
/// assert!(!hint_at_5s); // static again by t = 5 s
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MovementDetector {
    /// Mirrored ring of the last [`WINDOW`] reports' force vectors: each
    /// report is written at slot `i` and `i + WINDOW`, so
    /// `ring[head..head + WINDOW]` is always the window, oldest first.
    ring: [[f64; 3]; 2 * WINDOW],
    /// Slot of the oldest report once the window is full.
    head: usize,
    /// Current hint value `H_t`.
    moving: bool,
    /// Reports elapsed since a jerk value last exceeded the threshold.
    reports_since_jerk: usize,
    /// Total reports consumed.
    count: u64,
}

/// Reports in the jerk window: an older and a recent averaging half.
const WINDOW: usize = 2 * AVG_WINDOW;

impl Default for MovementDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl MovementDetector {
    /// Fresh detector with `H_0 = 0`.
    pub fn new() -> Self {
        MovementDetector {
            ring: [[0.0; 3]; 2 * WINDOW],
            head: 0,
            moving: false,
            reports_since_jerk: HYSTERESIS_REPORTS + 1,
            count: 0,
        }
    }

    /// Current movement hint — "the most recently calculated hint value"
    /// returned by the paper's hint service when queried.
    pub fn is_moving(&self) -> bool {
        self.moving
    }

    /// Feed one force report; returns the jerk and updated hint.
    pub fn push(&mut self, report: &ForceReport) -> JerkSample {
        self.count += 1;
        let slot = if self.count <= WINDOW as u64 {
            (self.count - 1) as usize
        } else {
            let oldest = self.head;
            self.head = (self.head + 1) % WINDOW;
            oldest
        };
        let v = [report.x, report.y, report.z];
        self.ring[slot] = v;
        self.ring[slot + WINDOW] = v;

        let jerk = if self.count >= WINDOW as u64 {
            // Older half: indices 0..5; recent half: indices 5..10 —
            // summed in index order, as a shifting buffer would be.
            let window = &self.ring[self.head..self.head + WINDOW];
            let avg = |half: &[[f64; 3]]| {
                let mut s = [0.0f64; 3];
                for f in half {
                    for (acc, x) in s.iter_mut().zip(f) {
                        *acc += x;
                    }
                }
                let n = half.len() as f64;
                [s[0] / n, s[1] / n, s[2] / n]
            };
            let old = avg(&window[..AVG_WINDOW]);
            let new = avg(&window[AVG_WINDOW..]);
            (new[0] - old[0]).powi(2) + (new[1] - old[1]).powi(2) + (new[2] - old[2]).powi(2)
        } else {
            0.0
        };

        if jerk > JERK_THRESHOLD {
            self.reports_since_jerk = 0;
        } else {
            self.reports_since_jerk = self.reports_since_jerk.saturating_add(1);
        }

        // The four-case update from Sec. 2.2.1.
        self.moving = if self.moving {
            // Stay moving while any of the last 50 jerks exceeded the
            // threshold; clear once the whole window is quiet.
            self.reports_since_jerk <= HYSTERESIS_REPORTS
        } else {
            jerk > JERK_THRESHOLD
        };

        JerkSample {
            t: report.t,
            jerk,
            moving: self.moving,
        }
    }

    /// Convenience: run the detector over a whole report slice, returning
    /// the per-report samples (used to regenerate Fig. 2-2).
    pub fn run(reports: &[ForceReport]) -> Vec<JerkSample> {
        let mut det = MovementDetector::new();
        reports.iter().map(|r| det.push(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerometer::{Accelerometer, ACCEL_REPORT_PERIOD};
    use crate::motion::MotionProfile;
    use hint_sim::{RngStream, SimDuration};

    fn report(t_idx: u64, x: f64, y: f64, z: f64) -> ForceReport {
        ForceReport {
            t: SimTime::ZERO + ACCEL_REPORT_PERIOD * t_idx,
            x,
            y,
            z,
        }
    }

    #[test]
    fn quiet_input_never_triggers() {
        let mut det = MovementDetector::new();
        for i in 0..1000 {
            let s = det.push(&report(i, 0.0, 0.0, 9.3));
            assert!(!s.moving);
            assert!(s.jerk.is_finite() && s.jerk >= 0.0);
            assert!(s.jerk < JERK_THRESHOLD);
        }
    }

    #[test]
    fn step_change_triggers_immediately() {
        let mut det = MovementDetector::new();
        // 10 quiet reports to fill the window.
        for i in 0..10 {
            det.push(&report(i, 0.0, 0.0, 9.3));
        }
        assert!(!det.is_moving());
        // A 3-unit jump on z: averages differ by ~3 within a few reports,
        // J ≈ 9 > 3.
        let mut fired_at = None;
        for i in 10..20 {
            let s = det.push(&report(i, 0.0, 0.0, 12.3));
            if s.moving && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        let fired = fired_at.expect("detector should fire");
        assert!(
            fired <= 14,
            "fired at report {fired}, want within 5 reports"
        );
    }

    #[test]
    fn hint_clears_after_hysteresis_window() {
        let mut det = MovementDetector::new();
        for i in 0..10 {
            det.push(&report(i, 0.0, 0.0, 9.3));
        }
        // One violent report burst.
        for i in 10..15 {
            det.push(&report(i, 5.0, 5.0, 15.0));
        }
        assert!(det.is_moving());
        // Quiet again: hint must persist for ~50 reports then clear.
        let mut cleared_at = None;
        for i in 15..200 {
            let s = det.push(&report(i, 0.0, 0.0, 9.3));
            if !s.moving {
                cleared_at = Some(i);
                break;
            }
        }
        let cleared = cleared_at.expect("hint should eventually clear");
        // The burst's influence on the averaging window lasts ~10 reports
        // past report 14, and the hysteresis a further 50.
        assert!(
            (60..=90).contains(&(cleared - 14)),
            "cleared {} reports after burst end",
            cleared - 14
        );
    }

    #[test]
    fn jerk_is_zero_until_window_full() {
        let mut det = MovementDetector::new();
        for i in 0..9 {
            let s = det.push(&report(i, 100.0 * i as f64, 0.0, 0.0));
            assert_eq!(s.jerk, 0.0, "report {i} should have no jerk yet");
        }
    }

    #[test]
    fn detects_synthetic_walk_with_low_latency() {
        // End-to-end: synthetic accelerometer + detector reproduce the
        // paper's "<100 ms detection" claim on a static→walk transition.
        let profile = MotionProfile::static_move_static(
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
        );
        let mut accel = Accelerometer::new(profile, RngStream::new(99).derive("walk"));
        let reports = accel.reports_until(SimTime::from_secs(15));
        let samples = MovementDetector::run(&reports);

        // No false positive during the first static phase (allow the first
        // 100 ms of warm-up).
        for s in &samples {
            if s.t > SimTime::from_millis(100) && s.t < SimTime::from_secs(5) {
                assert!(!s.moving, "false positive at {:?}", s.t);
            }
        }
        // Rising edge within 300 ms of movement onset (walking ramps in with
        // the step cycle, so allow a touch more than the paper's 100 ms).
        let rise = samples
            .iter()
            .find(|s| s.t >= SimTime::from_secs(5) && s.moving)
            .expect("movement detected");
        let latency_ms = rise.t.as_millis() as i64 - 5000;
        assert!(
            (0..=300).contains(&latency_ms),
            "rising-edge latency {latency_ms} ms"
        );
        // Falling edge within 500 ms of movement end.
        let fall = samples
            .iter()
            .find(|s| s.t >= SimTime::from_secs(10) && !s.moving)
            .expect("stop detected");
        let latency_ms = fall.t.as_millis() as i64 - 10_000;
        assert!(
            (0..=500).contains(&latency_ms),
            "falling-edge latency {latency_ms} ms"
        );
        // Hint held through the moving phase (after onset).
        let held = samples
            .iter()
            .filter(|s| s.t > SimTime::from_millis(5500) && s.t < SimTime::from_millis(9500))
            .filter(|s| s.moving)
            .count();
        let total = samples
            .iter()
            .filter(|s| s.t > SimTime::from_millis(5500) && s.t < SimTime::from_millis(9500))
            .count();
        assert!(
            held as f64 / total as f64 > 0.95,
            "hint held {}/{} of moving phase",
            held,
            total
        );
    }

    /// The shifting-`Vec` detector the ring buffer replaced, kept as the
    /// reference the ring must match bit for bit.
    struct VecDetector {
        window: Vec<[f64; 3]>,
        moving: bool,
        reports_since_jerk: usize,
    }

    impl VecDetector {
        fn new() -> Self {
            VecDetector {
                window: Vec::with_capacity(2 * AVG_WINDOW),
                moving: false,
                reports_since_jerk: HYSTERESIS_REPORTS + 1,
            }
        }

        fn push(&mut self, report: &ForceReport) -> (f64, bool) {
            if self.window.len() == 2 * AVG_WINDOW {
                self.window.remove(0);
            }
            self.window.push([report.x, report.y, report.z]);
            let jerk = if self.window.len() == 2 * AVG_WINDOW {
                let avg = |range: std::ops::Range<usize>| {
                    let mut s = [0.0f64; 3];
                    for i in range.clone() {
                        for (a, acc) in s.iter_mut().enumerate() {
                            *acc += self.window[i][a];
                        }
                    }
                    let n = range.len() as f64;
                    [s[0] / n, s[1] / n, s[2] / n]
                };
                let old = avg(0..AVG_WINDOW);
                let new = avg(AVG_WINDOW..2 * AVG_WINDOW);
                (new[0] - old[0]).powi(2) + (new[1] - old[1]).powi(2) + (new[2] - old[2]).powi(2)
            } else {
                0.0
            };
            if jerk > JERK_THRESHOLD {
                self.reports_since_jerk = 0;
            } else {
                self.reports_since_jerk = self.reports_since_jerk.saturating_add(1);
            }
            self.moving = if self.moving {
                self.reports_since_jerk <= HYSTERESIS_REPORTS
            } else {
                jerk > JERK_THRESHOLD
            };
            (jerk, self.moving)
        }
    }

    #[test]
    fn ring_buffer_matches_shifting_vec_bit_for_bit() {
        let secs = SimDuration::from_secs;
        let profiles = [
            MotionProfile::stationary(secs(4)),
            MotionProfile::walking(secs(4), 1.4, 30.0),
            MotionProfile::vehicle(secs(4), 12.0, 90.0),
            MotionProfile::alternating(secs(1), 3),
        ];
        for (p, profile) in profiles.iter().enumerate() {
            for seed in 0..16u64 {
                let rng = RngStream::new(seed).derive_idx("ring", p as u64);
                let mut accel = Accelerometer::new(profile.clone(), rng);
                let (mut ring, mut reference) = (MovementDetector::new(), VecDetector::new());
                for _ in 0..2000 {
                    let r = accel.next_report();
                    let s = ring.push(&r);
                    let (jerk, moving) = reference.push(&r);
                    assert_eq!(s.jerk.to_bits(), jerk.to_bits(), "profile {p} seed {seed}");
                    assert_eq!(s.moving, moving, "profile {p} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn default_is_a_fresh_detector() {
        assert_eq!(MovementDetector::default(), MovementDetector::new());
    }

    #[test]
    fn static_jerk_values_stay_below_threshold_with_margin() {
        let profile = MotionProfile::stationary(SimDuration::from_secs(10));
        let mut accel = Accelerometer::new(profile, RngStream::new(5).derive("static"));
        let reports = accel.reports_until(SimTime::from_secs(10));
        let samples = MovementDetector::run(&reports);
        let max_jerk = samples.iter().map(|s| s.jerk).fold(0.0, f64::max);
        assert!(
            max_jerk < JERK_THRESHOLD,
            "static max jerk {max_jerk} exceeds threshold"
        );
    }
}
