//! Workspace-wide accounting invariant: for **every** workload variant
//! — open-loop UDP, the retrying TCP model, trace replay, and the
//! closed-loop Flow — the per-second delivery series must sum exactly
//! to `packets_delivered`, whatever the duration (fractional seconds
//! included), seed, motion, or backhaul. This is the property the
//! past-end bucketing bug class violated: deliveries whose completion
//! landed past the trace end vanished from the series while still
//! counting in the total. Every run is also recorded, and the recording
//! must agree with the counters: one record per delivered packet, and
//! the per-second histogram of record times is exactly the series.

use hint_cc::BackhaulSpec;
use hint_channel::{Environment, Trace};
use hint_rateadapt::protocols::RapidSample;
use hint_rateadapt::sim::{LinkSimulator, SimResult};
use hint_rateadapt::trace::PacketTrace;
use hint_rateadapt::workload::Workload;
use hint_sensors::MotionProfile;
use hint_sim::SimDuration;
use proptest::prelude::*;

fn channel_trace(duration_ms: u64, seed: u64, moving: bool) -> Trace {
    let d = SimDuration::from_millis(duration_ms);
    let p = if moving {
        MotionProfile::walking(d, 1.4, 0.0)
    } else {
        MotionProfile::stationary(d)
    };
    Trace::generate(&Environment::office(), &p, d, seed)
}

/// Run `workload` through `run_recording` and check the one-tally
/// invariants: the series spans `len` seconds and sums to
/// `packets_delivered`, the recording holds one record per delivered
/// packet, and bucketing the record times per second gives the series.
fn run_checked(
    sim: &LinkSimulator,
    workload: &Workload,
    len: usize,
    what: &str,
) -> (SimResult, PacketTrace) {
    let mut rs = RapidSample::new();
    let (res, recorded) = sim.run_recording(&mut rs, workload);
    let series_sum: u64 = res.delivered_per_second.iter().sum();
    assert_eq!(series_sum, res.packets_delivered, "{what} sum");
    assert_eq!(res.delivered_per_second.len(), len, "{what} len");
    assert_eq!(
        recorded.len() as u64,
        res.packets_delivered,
        "{what} records"
    );
    let mut histogram = vec![0u64; len];
    for r in &recorded.records {
        let sec = (r.time_us / 1_000_000) as usize;
        assert!(
            sec < len,
            "{what} record at {} us past the trace",
            r.time_us
        );
        histogram[sec] += 1;
    }
    assert_eq!(histogram, res.delivered_per_second, "{what} histogram");
    (res, recorded)
}

proptest! {
    /// The one-tally invariants for every workload variant, plus the
    /// replay of a mixed-size schedule.
    #[test]
    fn per_second_series_sums_to_delivered_for_every_workload(
        duration_ms in 300u64..2600,
        seed in 0u64..10_000,
        moving in any::<bool>(),
        slow_wire in any::<bool>(),
    ) {
        let t = channel_trace(duration_ms, seed, moving);
        let len = duration_ms.div_ceil(1000) as usize;
        let sim = LinkSimulator::new(&t);

        // UDP (its recording is the schedule for the replay legs).
        let (_, recorded) = run_checked(&sim, &Workload::Udp, len, "udp");
        run_checked(&sim, &Workload::tcp(), len, "tcp");
        run_checked(&sim, &Workload::trace(recorded.clone()), len, "trace");

        // Replaying records of other sizes than the simulator's payload
        // costs each record its own airtime, so the result cannot depend
        // on the payload the simulator was built with.
        let mut mixed = recorded;
        for (i, r) in mixed.records.iter_mut().enumerate() {
            r.size = if i % 2 == 0 { 200 } else { 1500 };
        }
        let mixed = Workload::trace(mixed);
        let (at_1000, _) = run_checked(&sim, &mixed, len, "mixed trace");
        let sim_1500 = LinkSimulator::new(&t).with_payload(1500);
        let (at_1500, _) = run_checked(&sim_1500, &mixed, len, "mixed trace at 1500");
        prop_assert_eq!(at_1000, at_1500, "mixed-size replay depends on the payload");

        // Closed-loop flow, with and without a wired backhaul (the
        // slow wire forces queueing and drops; the invariant must hold
        // on both sides of the bottleneck).
        let mut flow_sim = LinkSimulator::new(&t);
        if slow_wire {
            flow_sim = flow_sim.with_backhaul(BackhaulSpec {
                rate_bps: 2_000_000,
                queue_pkts: 4,
                ..BackhaulSpec::default()
            });
        }
        let (flow, _) = run_checked(&flow_sim, &Workload::flow(), len, "flow");
        if !slow_wire {
            prop_assert_eq!(flow.backhaul_dropped, 0, "no wire, no drops");
        }
    }
}
