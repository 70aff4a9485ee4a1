//! Property tests for hint-stream windows: a window cut at any
//! microsecond is the full stream seen from that instant, so one
//! association span's rate adapter reads exactly the hints the rest of
//! the run reads.

use hint_rateadapt::HintStream;
use hint_sensors::motion::{MotionProfile, MotionSegment, MotionState};
use hint_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Oracle streams over arbitrary static/walking schedules, with an
/// arbitrary detection latency: cheap to build, and with segments of a
/// few samples, dense enough in hint edges that an off-by-one-sample
/// window shows.
fn streams() -> impl Strategy<Value = HintStream> {
    (
        proptest::collection::vec((any::<bool>(), 1u64..8_000), 1..300),
        0u64..10_000,
        0u64..1_200_000,
    )
        .prop_map(|(raw, latency_us, duration_us)| {
            let segments = raw
                .into_iter()
                .map(|(moving, us)| MotionSegment {
                    state: if moving {
                        MotionState::Walking { speed_mps: 1.4 }
                    } else {
                        MotionState::Static
                    },
                    duration: SimDuration::from_micros(us),
                    heading_deg: 0.0,
                })
                .collect();
            HintStream::oracle(
                &MotionProfile::new(segments),
                SimDuration::from_micros(duration_us),
                SimDuration::from_micros(latency_us),
            )
        })
}

proptest! {
    /// Inside the window every query matches the full stream at the
    /// same absolute instant; past it, queries clamp to the window end.
    #[test]
    fn window_query_is_the_full_query_shifted(
        full in streams(),
        from_us in 0u64..1_400_000,
        len_us in 0u64..1_400_000,
        ts in proptest::collection::vec(0u64..1_600_000, 1..200),
    ) {
        let from = SimTime::from_micros(from_us);
        let len = SimDuration::from_micros(len_us);
        let w = full.window(from, len);
        for t_us in ts {
            let t = SimTime::from_micros(t_us);
            let expected = full.query(from + SimDuration::from_micros(t_us.min(len_us)));
            prop_assert_eq!(w.query(t), expected, "t = {} us", t_us);
        }
        prop_assert_eq!(w.query(SimTime::ZERO + len), full.query(from + len));
        // A window holds at most the samples its span touches.
        prop_assert!(w.len() as u64 <= len_us / 2_000 + 2);
    }
}
