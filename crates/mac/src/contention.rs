//! CSMA/CA shared-medium airtime arbitration.
//!
//! A single `LinkSimulator` models one sender with the channel to itself
//! (the paper's back-to-back mode, Sec. 3.3). When several clients share
//! one AP, the medium is a contended resource: every frame pays DIFS plus
//! a random backoff, simultaneous backoff expiries collide, and colliders
//! retry with a doubled contention window until the retry budget runs
//! out. This module simulates that DCF machinery over one **scheduling
//! epoch** and reports exactly where every microsecond of the epoch went:
//! granted frame airtime per station, time lost to collisions, and idle
//! time (DIFS, backoff slots, and genuinely empty air).
//!
//! The arbiter is deliberately frame-fate-agnostic: it decides *who holds
//! the medium when*, not whether the channel delivers the frame — channel
//! fates stay with the per-link traces. The fleet engine converts the
//! per-station grants into airtime shares that throttle each client's
//! link simulation, which is what turns per-link arithmetic into shared-
//! medium behaviour (aggregate throughput saturates as clients are
//! added instead of growing additively).
//!
//! Everything is integer microseconds, so the conservation identity
//!
//! ```text
//! granted airtime + collision airtime + idle == epoch length
//! ```
//!
//! holds **exactly** — it is property-tested, not approximate.

use crate::retry::RetryPolicy;
use crate::timing::MacTiming;
use hint_sim::{RngStream, SimDuration};

/// DCF parameters of the shared medium.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContentionParams {
    /// Backoff slot time (9 µs for 802.11a).
    pub slot: SimDuration,
    /// DCF interframe space paid before every backoff countdown.
    pub difs: SimDuration,
    /// Minimum contention window, slots (first attempt draws from
    /// `[0, cw_min]`).
    pub cw_min: u32,
    /// Maximum contention window, slots (doubling caps here).
    pub cw_max: u32,
    /// Transmission attempts a frame gets before it is dropped and the
    /// window resets (802.11's retry limit).
    pub max_attempts: u32,
}

impl ContentionParams {
    /// Standard 802.11a DCF parameters, consistent with
    /// [`MacTiming::ieee80211a`] and the default [`RetryPolicy`].
    pub fn ieee80211a() -> Self {
        let t = MacTiming::ieee80211a();
        ContentionParams {
            slot: t.slot,
            difs: t.difs,
            cw_min: t.cw_min,
            cw_max: 1023,
            max_attempts: RetryPolicy::default().max_attempts,
        }
    }
}

impl Default for ContentionParams {
    fn default() -> Self {
        Self::ieee80211a()
    }
}

/// One station contending for the medium during an epoch.
///
/// A station is **saturated** while active: it always has a frame ready
/// (the fleet workloads are saturated UDP/TCP senders). The active window
/// is the slice of the epoch during which the station is associated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Station {
    /// Airtime of one complete frame exchange at this station's
    /// operating rate (from [`MacTiming::exchange_airtime`]).
    pub frame_airtime: SimDuration,
    /// Offset within the epoch at which the station starts contending.
    pub active_from: SimDuration,
    /// Offset within the epoch at which the station stops contending.
    pub active_to: SimDuration,
}

impl Station {
    /// A station contending for the whole epoch.
    pub fn saturated(frame_airtime: SimDuration) -> Station {
        Station {
            frame_airtime,
            active_from: SimDuration::ZERO,
            active_to: SimDuration::from_secs(u64::MAX / 2_000_000),
        }
    }

    /// How long this station contends within an epoch of length `epoch`
    /// (zero when the window is empty or starts past the epoch).
    pub fn active_within(&self, epoch: SimDuration) -> SimDuration {
        let to = self.active_to.min(epoch).as_micros();
        SimDuration::from_micros(to.saturating_sub(self.active_from.as_micros()))
    }
}

/// One successful medium acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Index of the station that won the medium.
    pub station: usize,
    /// Offset within the epoch at which the frame starts.
    pub at: SimDuration,
    /// Airtime the frame occupies.
    pub airtime: SimDuration,
}

/// The complete outcome of arbitrating one epoch: the grant schedule plus
/// exact airtime accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrantSchedule {
    /// The arbitrated epoch length.
    pub epoch: SimDuration,
    /// Every successful acquisition, in chronological order.
    pub grants: Vec<Grant>,
    /// Total granted frame airtime per station (sums `grants`).
    pub granted: Vec<SimDuration>,
    /// Airtime destroyed by collisions (the longest colliding frame per
    /// collision event).
    pub collision_airtime: SimDuration,
    /// Time the medium carried no frame: DIFS, backoff slots, and spells
    /// with no active station.
    pub idle: SimDuration,
    /// Number of collision events.
    pub collisions: u32,
    /// Frames abandoned after [`ContentionParams::max_attempts`].
    pub dropped_frames: u32,
}

impl GrantSchedule {
    /// Total granted frame airtime across stations.
    pub fn busy(&self) -> SimDuration {
        self.granted
            .iter()
            .fold(SimDuration::ZERO, |acc, &g| acc + g)
    }

    /// `busy + collision + idle` — equals [`GrantSchedule::epoch`]
    /// exactly (the conservation identity the property suite pins).
    pub fn accounted(&self) -> SimDuration {
        self.busy() + self.collision_airtime + self.idle
    }

    /// Station `i`'s airtime share: granted airtime over the time it was
    /// actually contending. Total over every input: an inactive station
    /// (empty window) has share 0; grants finishing just past the window
    /// edge clamp to 1.
    pub fn share(&self, i: usize, stations: &[Station]) -> f64 {
        let active = stations[i].active_within(self.epoch).as_micros();
        if active == 0 {
            return 0.0;
        }
        (self.granted[i].as_micros() as f64 / active as f64).min(1.0)
    }
}

/// The CSMA/CA airtime arbiter: slotted DCF over one epoch at a time.
///
/// ```
/// use hint_mac::contention::{AirtimeArbiter, ContentionParams, Station};
/// use hint_sim::SimDuration;
///
/// let arbiter = AirtimeArbiter::new(ContentionParams::ieee80211a());
/// let epoch = SimDuration::from_millis(100);
/// let stations = vec![
///     Station {
///         frame_airtime: SimDuration::from_micros(300),
///         active_from: SimDuration::ZERO,
///         active_to: epoch,
///     };
///     2
/// ];
/// let sched = arbiter.arbitrate(epoch, &stations, 42);
/// // Conservation: every microsecond is granted, collided, or idle.
/// assert_eq!(sched.accounted(), epoch);
/// // Two saturated equal stations split the medium roughly evenly,
/// // and arbitration is a pure function of (params, epoch, stations,
/// // seed): the same call replays grant for grant.
/// assert!(sched.share(0, &stations) > 0.0);
/// assert_eq!(sched, arbiter.arbitrate(epoch, &stations, 42));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct AirtimeArbiter {
    params: ContentionParams,
}

impl AirtimeArbiter {
    /// An arbiter with the given DCF parameters.
    ///
    /// # Panics
    /// Panics if `slot` is zero, `cw_min > cw_max`, or `max_attempts` is
    /// zero — spec-level validation rejects these before an arbiter is
    /// ever built, so hitting this is a programming error.
    pub fn new(params: ContentionParams) -> AirtimeArbiter {
        assert!(!params.slot.is_zero(), "contention slot time must be > 0");
        assert!(
            params.cw_min <= params.cw_max,
            "cw_min {} exceeds cw_max {}",
            params.cw_min,
            params.cw_max
        );
        assert!(params.max_attempts > 0, "max_attempts must be > 0");
        AirtimeArbiter { params }
    }

    /// The arbiter's DCF parameters.
    pub fn params(&self) -> &ContentionParams {
        &self.params
    }

    /// Arbitrate one epoch among `stations`, deterministically from
    /// `seed`: same params + epoch + stations + seed ⇒ the identical
    /// [`GrantSchedule`], grant for grant.
    ///
    /// # Panics
    /// Panics if any station has a zero `frame_airtime` (the arbitration
    /// loop could not make progress).
    pub fn arbitrate(&self, epoch: SimDuration, stations: &[Station], seed: u64) -> GrantSchedule {
        for (i, s) in stations.iter().enumerate() {
            assert!(
                !s.frame_airtime.is_zero(),
                "station {i} has zero frame airtime"
            );
        }
        let mut rng = RngStream::new(seed).derive("contention");
        let n = stations.len();
        let mut cw: Vec<u32> = vec![self.params.cw_min; n];
        let mut attempts: Vec<u32> = vec![0; n];
        let mut out = GrantSchedule {
            epoch,
            grants: Vec::new(),
            granted: vec![SimDuration::ZERO; n],
            collision_airtime: SimDuration::ZERO,
            idle: SimDuration::ZERO,
            collisions: 0,
            dropped_frames: 0,
        };

        let mut t = SimDuration::ZERO;
        let mut active: Vec<usize> = Vec::with_capacity(n);
        let mut backoffs: Vec<u64> = Vec::with_capacity(n);
        let mut winners: Vec<usize> = Vec::with_capacity(n);
        while t < epoch {
            active.clear();
            for (i, s) in stations.iter().enumerate() {
                if s.active_from <= t && t < s.active_to.min(epoch) {
                    active.push(i);
                }
            }
            if active.is_empty() {
                // Jump to the next activation (or the epoch end), all idle.
                let next = stations
                    .iter()
                    .filter(|s| s.active_from > t && s.active_from < s.active_to)
                    .map(|s| s.active_from)
                    .min()
                    .unwrap_or(epoch)
                    .min(epoch);
                out.idle += next - t;
                t = next;
                continue;
            }

            // Every active station counts down a fresh backoff; the
            // smallest draw wins the medium. Draws happen in station
            // order, so the schedule is a pure function of the seed.
            backoffs.clear();
            for &i in &active {
                let draw = (rng.uniform() * (f64::from(cw[i]) + 1.0)) as u64;
                backoffs.push(draw.min(u64::from(cw[i])));
            }
            let min_backoff = *backoffs.iter().min().expect("non-empty active set");
            let access = self.params.difs + self.params.slot * min_backoff;
            if t + access >= epoch {
                out.idle += epoch - t;
                break;
            }
            out.idle += access;
            t += access;

            // Stations whose active window closed during the DIFS+backoff
            // countdown leave without transmitting (and cannot collide).
            winners.clear();
            winners.extend(
                active
                    .iter()
                    .zip(backoffs.iter())
                    .filter(|(_, &b)| b == min_backoff)
                    .map(|(&i, _)| i)
                    .filter(|&i| t < stations[i].active_to.min(epoch)),
            );
            if winners.is_empty() {
                // Every winner's window closed mid-countdown.
                continue;
            }
            if let [w] = winners.as_slice() {
                let w = *w;
                let tx = stations[w].frame_airtime;
                if t + tx > epoch {
                    // The frame cannot finish inside the epoch: the
                    // station defers to the next one; the remainder idles.
                    out.idle += epoch - t;
                    break;
                }
                out.grants.push(Grant {
                    station: w,
                    at: t,
                    airtime: tx,
                });
                out.granted[w] += tx;
                t += tx;
                cw[w] = self.params.cw_min;
                attempts[w] = 0;
            } else {
                // Collision: the medium is destroyed for the longest
                // colliding frame; every collider doubles its window and
                // burns one retry.
                let longest = winners
                    .iter()
                    .map(|&i| stations[i].frame_airtime)
                    .max()
                    .expect("winners non-empty");
                let cost = longest.min(epoch - t);
                out.collision_airtime += cost;
                out.collisions += 1;
                t += cost;
                for &i in &winners {
                    attempts[i] += 1;
                    if attempts[i] >= self.params.max_attempts {
                        out.dropped_frames += 1;
                        attempts[i] = 0;
                        cw[i] = self.params.cw_min;
                    } else {
                        cw[i] = cw[i]
                            .saturating_mul(2)
                            .saturating_add(1)
                            .min(self.params.cw_max);
                    }
                }
            }
        }
        debug_assert_eq!(out.accounted(), epoch, "airtime conservation");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::BitRate;

    fn frame(rate: BitRate) -> SimDuration {
        MacTiming::ieee80211a().exchange_airtime(rate, 1000)
    }

    #[test]
    fn empty_epoch_is_all_idle() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_millis(100);
        let s = arb.arbitrate(epoch, &[], 7);
        assert_eq!(s.idle, epoch);
        assert_eq!(s.busy(), SimDuration::ZERO);
        assert_eq!(s.accounted(), epoch);
        assert!(s.grants.is_empty());
    }

    #[test]
    fn single_saturated_station_gets_most_of_the_epoch() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st = [Station::saturated(frame(BitRate::R54))];
        let s = arb.arbitrate(epoch, &st, 1);
        assert_eq!(s.collisions, 0, "one station cannot collide");
        assert_eq!(s.accounted(), epoch);
        // Exchange 220 µs; overhead DIFS 34 µs + ~7.5 backoff slots:
        // ~68-72% of the epoch should be granted airtime.
        let share = s.share(0, &st);
        assert!(
            (0.6..0.8).contains(&share),
            "uncontended share {share} out of the DCF ballpark"
        );
    }

    #[test]
    fn symmetric_stations_split_the_medium_evenly() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st = [
            Station::saturated(frame(BitRate::R54)),
            Station::saturated(frame(BitRate::R54)),
            Station::saturated(frame(BitRate::R54)),
        ];
        let s = arb.arbitrate(epoch, &st, 42);
        let max = s.granted.iter().max().unwrap().as_micros();
        let min = s.granted.iter().min().unwrap().as_micros();
        assert!(min > 0, "starvation: {:?}", s.granted);
        assert!(min * 2 >= max, "uneven split: {:?}", s.granted);
        // Aggregate stays sub-additive: three stations cannot beat the
        // medium capacity one saturated station already approaches.
        assert!(s.busy() < epoch);
    }

    #[test]
    fn contention_collides_and_retries() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st: Vec<Station> = (0..8)
            .map(|_| Station::saturated(frame(BitRate::R54)))
            .collect();
        let s = arb.arbitrate(epoch, &st, 5);
        assert!(s.collisions > 0, "8 stations at CWmin 15 must collide");
        assert!(s.collision_airtime > SimDuration::ZERO);
        assert_eq!(s.accounted(), epoch);
    }

    #[test]
    fn active_windows_bound_grants() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st = [
            Station {
                frame_airtime: frame(BitRate::R54),
                active_from: SimDuration::ZERO,
                active_to: SimDuration::from_millis(300),
            },
            Station {
                frame_airtime: frame(BitRate::R54),
                active_from: SimDuration::from_millis(700),
                active_to: SimDuration::from_secs(1),
            },
        ];
        let s = arb.arbitrate(epoch, &st, 9);
        for g in &s.grants {
            let w = st[g.station];
            assert!(g.at >= w.active_from, "grant before activation");
            assert!(g.at < w.active_to, "grant after deactivation");
        }
        // The 400 ms gap between the windows is idle air.
        assert!(s.idle >= SimDuration::from_millis(400));
        assert_eq!(s.accounted(), epoch);
    }

    #[test]
    fn share_is_total_over_degenerate_windows() {
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let epoch = SimDuration::from_secs(1);
        let st = [Station {
            frame_airtime: frame(BitRate::R6),
            active_from: SimDuration::from_millis(10),
            active_to: SimDuration::from_millis(10),
        }];
        let s = arb.arbitrate(epoch, &st, 3);
        assert_eq!(s.share(0, &st), 0.0, "empty window has zero share");
        assert!(s.share(0, &st).is_finite());
    }

    #[test]
    #[should_panic(expected = "cw_min")]
    fn inverted_backoff_window_is_rejected() {
        let _ = AirtimeArbiter::new(ContentionParams {
            cw_min: 63,
            cw_max: 15,
            ..ContentionParams::ieee80211a()
        });
    }

    #[test]
    #[should_panic(expected = "slot time")]
    fn zero_slot_is_rejected() {
        let _ = AirtimeArbiter::new(ContentionParams {
            slot: SimDuration::ZERO,
            ..ContentionParams::ieee80211a()
        });
    }
}
