//! GPS model (Sec. 2.2.3).
//!
//! Outdoors, GPS provides position, speed and heading fixes at ~1 Hz with
//! metre-scale position noise; indoors it does not lock at all. The paper
//! uses the *absence of a lock* as a cheap outdoor/indoor discriminator
//! (Sec. 5.3), so availability is part of the model, not an error case.

use crate::motion::MotionProfile;
use hint_sim::{RngStream, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A 2-D position in metres on a local tangent plane (x east, y north).
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// Metres east of the origin.
    pub x: f64,
    /// Metres north of the origin.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to another position, metres.
    pub fn distance(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// One GPS fix.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpsFix {
    /// Fix timestamp.
    pub t: SimTime,
    /// Estimated position (noisy).
    pub position: Position,
    /// Estimated ground speed, m/s (noisy, floored at 0).
    pub speed_mps: f64,
    /// Estimated course over ground, degrees `[0, 360)`. Meaningless at
    /// near-zero speed, as with real receivers.
    pub heading_deg: f64,
}

/// Synthetic GPS receiver bound to a ground-truth motion profile.
#[derive(Clone, Debug)]
pub struct Gps {
    profile: MotionProfile,
    rng: RngStream,
    /// Whether the device is outdoors (GPS only locks outdoors).
    outdoors: bool,
    /// Position noise std-dev, metres (typical consumer GPS ≈ 3–5 m).
    pub position_noise_m: f64,
    /// Speed noise std-dev, m/s.
    pub speed_noise_mps: f64,
    /// Heading noise std-dev, degrees.
    pub heading_noise_deg: f64,
    /// Fix interval (1 Hz by default).
    pub fix_interval: SimDuration,
    /// Dead-reckoned true position integrated from the profile.
    true_pos: Position,
    last_integrated: SimTime,
}

impl Gps {
    /// Create an outdoor GPS receiver observing `profile`.
    pub fn outdoor(profile: MotionProfile, rng: RngStream) -> Self {
        Gps {
            profile,
            rng,
            outdoors: true,
            position_noise_m: 4.0,
            speed_noise_mps: 0.3,
            heading_noise_deg: 5.0,
            fix_interval: SimDuration::from_secs(1),
            true_pos: Position::default(),
            last_integrated: SimTime::ZERO,
        }
    }

    /// Create an indoor receiver: it never produces a fix.
    pub fn indoor(profile: MotionProfile, rng: RngStream) -> Self {
        let mut g = Gps::outdoor(profile, rng);
        g.outdoors = false;
        g
    }

    /// Whether the receiver currently has a lock (Sec. 5.3's outdoor test).
    pub fn has_lock(&self) -> bool {
        self.outdoors
    }

    /// Advance ground truth to time `t` by integrating the profile at the
    /// fix granularity.
    fn integrate_to(&mut self, t: SimTime) {
        // Integrate in 100 ms steps for accuracy through segment changes.
        let step = SimDuration::from_millis(100);
        while self.last_integrated + step <= t {
            let mid = self.last_integrated;
            let speed = self.profile.speed_at(mid);
            let heading = self.profile.heading_at(mid).to_radians();
            let dt = step.as_secs_f64();
            self.true_pos.x += speed * dt * heading.sin();
            self.true_pos.y += speed * dt * heading.cos();
            self.last_integrated += step;
        }
    }

    /// Take a fix at time `t`. Returns `None` indoors (no lock).
    ///
    /// Fixes should be requested in non-decreasing time order; requests
    /// between fix intervals simply reflect the latest integrated truth.
    pub fn fix_at(&mut self, t: SimTime) -> Option<GpsFix> {
        if !self.outdoors {
            return None;
        }
        self.integrate_to(t);
        let speed_true = self.profile.speed_at(t);
        let heading_true = self.profile.heading_at(t);
        Some(GpsFix {
            t,
            position: Position {
                x: self.true_pos.x + self.rng.normal() * self.position_noise_m,
                y: self.true_pos.y + self.rng.normal() * self.position_noise_m,
            },
            speed_mps: (speed_true + self.rng.normal() * self.speed_noise_mps).max(0.0),
            heading_deg: (heading_true + self.rng.normal() * self.heading_noise_deg)
                .rem_euclid(360.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::new(77).derive("gps")
    }

    #[test]
    fn indoor_never_locks() {
        let p = MotionProfile::stationary(SimDuration::from_secs(10));
        let mut g = Gps::indoor(p, rng());
        assert!(!g.has_lock());
        assert!(g.fix_at(SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn stationary_fixes_cluster_near_origin() {
        let p = MotionProfile::stationary(SimDuration::from_secs(100));
        let mut g = Gps::outdoor(p, rng());
        for s in 1..=50 {
            let fix = g.fix_at(SimTime::from_secs(s)).unwrap();
            assert!(fix.position.distance(Position::default()) < 20.0);
            assert!(fix.speed_mps < 1.5);
        }
    }

    #[test]
    fn moving_fixes_track_true_displacement() {
        // 10 m/s due east for 60 s → ~600 m east.
        let p = MotionProfile::vehicle(SimDuration::from_secs(60), 10.0, 90.0);
        let mut g = Gps::outdoor(p, rng());
        let fix = g.fix_at(SimTime::from_secs(60)).unwrap();
        assert!(
            (fix.position.x - 600.0).abs() < 20.0,
            "x {}",
            fix.position.x
        );
        assert!(fix.position.y.abs() < 20.0, "y {}", fix.position.y);
        assert!((fix.speed_mps - 10.0).abs() < 1.5);
        // Heading near 90°.
        let err = (fix.heading_deg - 90.0)
            .abs()
            .min(360.0 - (fix.heading_deg - 90.0).abs());
        assert!(err < 20.0, "heading {}", fix.heading_deg);
    }

    #[test]
    fn heading_wraps_into_range() {
        let p = MotionProfile::vehicle(SimDuration::from_secs(10), 10.0, 359.0);
        let mut g = Gps::outdoor(p, rng());
        for s in 1..=10 {
            let fix = g.fix_at(SimTime::from_secs(s)).unwrap();
            assert!((0.0..360.0).contains(&fix.heading_deg));
        }
    }

    #[test]
    fn position_distance_is_euclidean() {
        let a = Position { x: 0.0, y: 0.0 };
        let b = Position { x: 3.0, y: 4.0 };
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }
}
