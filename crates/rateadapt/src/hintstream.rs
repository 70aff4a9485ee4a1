//! Movement-hint time series feeding the link simulator.
//!
//! In the real system, the receiver's hint service (Sec. 2.2.1) computes
//! the movement hint from its accelerometer and ships it to the sender in
//! ACK frames (Sec. 2.3). The link simulator consumes hints as a
//! precomputed boolean time series sampled at the accelerometer report
//! period, produced either:
//!
//! * **end-to-end** ([`HintStream::from_sensors`]): a synthetic
//!   accelerometer observes the trace's motion profile and the paper's
//!   jerk detector produces the hints — including its real detection
//!   latency and any transient errors; or
//! * **oracle** ([`HintStream::oracle`]): ground truth delayed by a fixed
//!   latency, for ablations isolating the effect of detector quality.
//!
//! A stream covers a whole run; [`HintStream::window`] cuts the slice one
//! association span sees, so every consumer of a client's hints reads the
//! same detector.

use hint_sensors::accelerometer::{Accelerometer, ACCEL_REPORT_PERIOD};
use hint_sensors::jerk::MovementDetector;
use hint_sensors::motion::MotionProfile;
use hint_sim::{RngStream, SimDuration, SimTime};

/// A boolean movement-hint series sampled every 2 ms.
#[derive(Clone, Debug)]
pub struct HintStream {
    samples: Vec<bool>,
    period: SimDuration,
    /// How far time zero sits past the first sample's grid point: zero
    /// for a full stream, `from mod period` for a window cut at `from`.
    offset: SimDuration,
}

impl HintStream {
    /// Run the full sensor pipeline (synthetic accelerometer → jerk
    /// detector) over `profile` for `duration`.
    pub fn from_sensors(profile: &MotionProfile, duration: SimDuration, seed: u64) -> Self {
        let rng = RngStream::new(seed).derive("hintstream-accel");
        let mut accel = Accelerometer::new(profile.clone(), rng);
        let mut det = MovementDetector::new();
        let n = duration.as_micros() / ACCEL_REPORT_PERIOD.as_micros();
        let mut samples = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let r = accel.next_report();
            samples.push(det.push(&r).moving);
        }
        HintStream {
            samples,
            period: ACCEL_REPORT_PERIOD,
            offset: SimDuration::ZERO,
        }
    }

    /// Ground-truth hints delayed by `latency` (an idealised detector).
    pub fn oracle(profile: &MotionProfile, duration: SimDuration, latency: SimDuration) -> Self {
        let period = ACCEL_REPORT_PERIOD;
        let n = duration.as_micros() / period.as_micros();
        let mut samples = Vec::with_capacity(n as usize);
        for i in 0..n {
            let t = SimTime::from_micros(i * period.as_micros());
            let shifted = t.saturating_since(SimTime::ZERO + latency);
            let query = SimTime::ZERO + shifted;
            samples.push(profile.is_moving_at(query));
        }
        HintStream {
            samples,
            period,
            offset: SimDuration::ZERO,
        }
    }

    /// The `len`-long stretch of this stream starting at `from`, re-based
    /// so `from` becomes time zero: for every `t <= len`,
    /// `window(from, len).query(t) == query(from + t)`, whether or not
    /// `from` falls on the sample grid. Later queries clamp to the value
    /// at `from + len`. Copies the covered samples; never re-runs the
    /// detector.
    pub fn window(&self, from: SimTime, len: SimDuration) -> HintStream {
        if self.samples.is_empty() {
            return self.clone();
        }
        let (lo, hi) = (self.index(from), self.index(from + len));
        let grid = lo as u64 * self.period.as_micros();
        HintStream {
            samples: self.samples[lo..=hi].to_vec(),
            period: self.period,
            offset: SimDuration::from_micros(from.as_micros() + self.offset.as_micros() - grid),
        }
    }

    /// The hint value at time `t` (clamped to the series bounds).
    #[inline]
    pub fn query(&self, t: SimTime) -> bool {
        !self.samples.is_empty() && self.samples[self.index(t)]
    }

    /// Index of the sample in force at `t`, clamped to the last sample
    /// (the stream must be non-empty).
    #[inline]
    fn index(&self, t: SimTime) -> usize {
        let idx = (t.as_micros() + self.offset.as_micros()) / self.period.as_micros();
        (idx as usize).min(self.samples.len() - 1)
    }

    /// Number of 2 ms samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the stream holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Fraction of samples reporting movement.
    pub fn moving_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|&&m| m).count() as f64 / self.samples.len() as f64
    }

    /// Agreement with ground truth over the stream (hint-accuracy metric).
    pub fn accuracy_vs(&self, profile: &MotionProfile) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let agree = self
            .samples
            .iter()
            .enumerate()
            .filter(|(i, &m)| {
                // Sample i holds from its grid point (time zero for a
                // window's first sample) on.
                let grid = *i as u64 * self.period.as_micros();
                let t = SimTime::from_micros(grid.saturating_sub(self.offset.as_micros()));
                m == profile.is_moving_at(t)
            })
            .count();
        agree as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_with_zero_latency_matches_truth() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(5), true);
        let h = HintStream::oracle(&p, SimDuration::from_secs(10), SimDuration::ZERO);
        assert!(h.accuracy_vs(&p) > 0.999);
        assert!(!h.query(SimTime::from_secs(2)));
        assert!(h.query(SimTime::from_secs(7)));
    }

    #[test]
    fn oracle_latency_shifts_transitions() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(5), true);
        let h = HintStream::oracle(
            &p,
            SimDuration::from_secs(10),
            SimDuration::from_millis(500),
        );
        // Just after the true transition the delayed oracle still says
        // static.
        assert!(!h.query(SimTime::from_millis(5200)));
        assert!(h.query(SimTime::from_millis(5800)));
    }

    #[test]
    fn sensor_stream_tracks_profile_well() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(10), true);
        let h = HintStream::from_sensors(&p, SimDuration::from_secs(20), 7);
        let acc = h.accuracy_vs(&p);
        assert!(acc > 0.95, "sensor hint accuracy {acc:.3}");
        assert!((h.moving_fraction() - 0.5).abs() < 0.05);
    }

    /// A 10 s sensor stream with several hint edges.
    fn mixed_stream() -> HintStream {
        let p = MotionProfile::alternating(SimDuration::from_millis(700), 7);
        HintStream::from_sensors(&p, SimDuration::from_secs(10), 11)
    }

    /// `window(from, len).query(t) == full.query(from + t)` for every
    /// microsecond-step `t` in `[0, len]`.
    fn assert_window_matches(full: &HintStream, from_us: u64, len_us: u64) {
        let from = SimTime::from_micros(from_us);
        let w = full.window(from, SimDuration::from_micros(len_us));
        for t in (0..=len_us).step_by(97).chain([len_us]) {
            assert_eq!(
                w.query(SimTime::from_micros(t)),
                full.query(from + SimDuration::from_micros(t)),
                "window ({from_us}, {len_us}) at t = {t} us"
            );
        }
    }

    #[test]
    fn window_matches_full_stream_at_unaligned_starts() {
        let full = mixed_stream();
        assert!(full.moving_fraction() > 0.2 && full.moving_fraction() < 0.8);
        for from_us in [0, 1, 1_999, 2_000, 2_001, 1_234_567, 4_999_999] {
            assert_window_matches(&full, from_us, 3_000_000);
        }
    }

    #[test]
    fn zero_length_window_holds_the_value_at_from() {
        let full = mixed_stream();
        for from_us in [0, 777, 700_001, 9_999_999] {
            let from = SimTime::from_micros(from_us);
            let w = full.window(from, SimDuration::ZERO);
            assert_eq!(w.len(), 1);
            assert_eq!(w.query(SimTime::ZERO), full.query(from));
            assert_eq!(w.query(SimTime::from_secs(1)), full.query(from));
        }
    }

    #[test]
    fn window_ending_at_or_past_the_run_end_clamps_like_the_full_stream() {
        let full = mixed_stream();
        // Ends exactly at the run end, and starts past it.
        assert_window_matches(&full, 7_000_001, 3_000_000 - 1);
        assert_window_matches(&full, 7_000_001, 3_000_000);
        assert_window_matches(&full, 12_345_678, 1_000_000);
        let last = full.query(SimTime::from_secs(10));
        let past = full.window(SimTime::from_secs(11), SimDuration::from_secs(1));
        assert_eq!(past.len(), 1);
        assert_eq!(past.query(SimTime::ZERO), last);
    }

    #[test]
    fn queries_past_a_window_clamp_to_its_last_value() {
        let full = mixed_stream();
        let from = SimTime::from_micros(1_000_333);
        let len = SimDuration::from_micros(2_500_001);
        let w = full.window(from, len);
        let at_end = full.query(from + len);
        for extra_ms in [1, 2, 3, 50, 5_000] {
            let t = SimTime::ZERO + len + SimDuration::from_millis(extra_ms);
            assert_eq!(w.query(t), at_end, "{extra_ms} ms past the window");
        }
    }

    #[test]
    fn window_of_a_window_is_the_window_of_the_whole() {
        let full = mixed_stream();
        let outer = full.window(SimTime::from_micros(1_111_111), SimDuration::from_secs(6));
        let inner = outer.window(SimTime::from_micros(2_222_223), SimDuration::from_secs(2));
        let direct = full.window(SimTime::from_micros(3_333_334), SimDuration::from_secs(2));
        for t in (0..=2_000_000).step_by(499) {
            let t = SimTime::from_micros(t);
            assert_eq!(inner.query(t), direct.query(t));
        }
    }

    #[test]
    fn windows_of_an_empty_stream_stay_empty() {
        let p = MotionProfile::stationary(SimDuration::from_secs(1));
        let empty = HintStream::oracle(&p, SimDuration::ZERO, SimDuration::ZERO);
        let w = empty.window(SimTime::from_millis(5), SimDuration::from_secs(1));
        assert!(w.is_empty());
        assert!(!w.query(SimTime::ZERO));
    }

    #[test]
    fn queries_clamp_past_end() {
        let p = MotionProfile::walking(SimDuration::from_secs(1), 1.4, 0.0);
        let h = HintStream::oracle(&p, SimDuration::from_secs(1), SimDuration::ZERO);
        assert!(h.query(SimTime::from_secs(100)));
    }
}
