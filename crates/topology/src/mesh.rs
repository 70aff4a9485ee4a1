//! A small mesh tying probing accuracy to routing decisions (Sec. 4.2).
//!
//! Sec. 4.2 argues the cost of stale link estimates through ETX: "suppose
//! a node uses the ETX metric to pick the next-hop ... the node would pick
//! the wrong link if, and only if, p₂ + δ ≥ p₁ − δ". This module builds
//! the smallest mesh where that matters — one source choosing between
//! relay links whose delivery probabilities evolve independently — and
//! measures, end to end, how often each probing strategy picks the wrong
//! next hop and what the extra transmissions cost.
//!
//! Each relay link is an independent `hint-channel` trace; the source
//! probes each link (slow / fast / hint-adaptive) and routes every packet
//! over the link with the best current ETX estimate. An oracle that knows
//! the true windowed delivery probabilities provides the lower bound.

use crate::adaptive::{AdaptiveConfig, AdaptiveProber};
use crate::delivery::{actual_at, actual_series, DeliverySample, WINDOW_PROBES};
use crate::probes::ProbeStream;
use hint_channel::{Environment, Trace};
use hint_mac::BitRate;
use hint_sensors::MotionProfile;
use hint_sim::{SimDuration, SimTime};

/// Probing strategies for the relay links.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MeshProbing {
    /// Fixed rate, Hz.
    Fixed(f64),
    /// The Ch. 4 hint-adaptive prober (1 ↔ 10 probes/s).
    HintAdaptive,
    /// Ground truth (no probing error) — the lower bound.
    Oracle,
}

/// Result of one mesh routing run.
#[derive(Clone, Debug)]
pub struct MeshRunResult {
    /// Fraction of decision instants where the chosen relay was not the
    /// truly best one.
    pub wrong_pick_fraction: f64,
    /// Mean extra transmissions per packet versus always picking the true
    /// best link (the Sec. 4.2 penalty, realised).
    pub mean_etx_penalty: f64,
    /// Probes sent across all links.
    pub probes_sent: u64,
}

/// One relay link: its trace-derived probe stream, true delivery series,
/// and the estimate series produced by the configured prober.
struct RelayLink {
    actual: Vec<DeliverySample>,
    estimates: Vec<DeliverySample>,
    probes_sent: u64,
}

/// Estimate lookup with hold semantics (0.5 before warm-up — an unknown
/// link is assumed mediocre, not perfect).
fn held(estimates: &[DeliverySample], t: SimTime) -> f64 {
    match estimates.binary_search_by(|s| s.t.cmp(&t)) {
        Ok(i) => estimates[i].p,
        Err(0) => 0.5,
        Err(i) => estimates[i - 1].p,
    }
}

/// Build and evaluate a mesh of `n_links` relay links over `secs` seconds
/// of mixed mobility, deciding the next hop once per `decision_ms`.
pub fn run_mesh(
    n_links: usize,
    secs: u64,
    decision_ms: u64,
    probing: MeshProbing,
    seed: u64,
) -> MeshRunResult {
    assert!(n_links >= 2, "a routing choice needs >= 2 links");
    let env = Environment::mesh_edge();
    let dur = SimDuration::from_secs(secs);

    let links: Vec<RelayLink> = (0..n_links)
        .map(|i| {
            // Every relay is carried by a node that alternates mobility,
            // staggered so the best next hop changes over the run — the
            // regime where stale estimates pick wrong (Sec. 4.2). A mesh
            // of permanently static relays would make probing strategy
            // irrelevant: the same link would win every decision.
            let profile =
                MotionProfile::half_and_half(SimDuration::from_secs(secs / 2), i % 2 == 0);
            let link_seed = seed.wrapping_mul(1000).wrapping_add(i as u64);
            let trace = Trace::generate(&env, &profile, dur, link_seed);
            let stream = ProbeStream::from_trace(&trace, BitRate::R6, link_seed ^ 0xE7);
            let actual = actual_series(&stream);

            let (estimates, probes_sent) = match probing {
                MeshProbing::Oracle => (actual.clone(), 0),
                MeshProbing::Fixed(hz) => {
                    let est = crate::delivery::observed_series(&stream, hz);
                    (est, (secs as f64 * hz) as u64)
                }
                MeshProbing::HintAdaptive => {
                    let prober = AdaptiveProber::with_config(AdaptiveConfig::default());
                    let run = prober.run(&stream, |t| profile.is_moving_at(t));
                    (run.estimates, run.probes_sent)
                }
            };
            RelayLink {
                actual,
                estimates,
                probes_sent,
            }
        })
        .collect();

    // Routing loop: once per decision interval, pick the relay with the
    // best estimated ETX and charge the *actual* ETX of that choice.
    let mut wrong = 0u64;
    let mut decisions = 0u64;
    let mut penalty_sum = 0.0;
    let mut t = SimTime::from_secs(WINDOW_PROBES as u64); // past warm-up
    let end = SimTime::ZERO + dur;
    let step = SimDuration::from_millis(decision_ms);
    while t < end {
        let best_est = links
            .iter()
            .enumerate()
            .max_by(|a, b| {
                held(&a.1.estimates, t)
                    .partial_cmp(&held(&b.1.estimates, t))
                    .expect("finite estimates")
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        let truths: Vec<f64> = links.iter().map(|l| actual_at(&l.actual, t)).collect();
        let best_true = truths
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        decisions += 1;
        if truths[best_est] + 1e-9 < truths[best_true] {
            wrong += 1;
        }
        // Realised penalty: extra expected transmissions on this packet.
        let chosen = truths[best_est].max(0.05);
        let best = truths[best_true].max(0.05);
        penalty_sum += 1.0 / chosen - 1.0 / best;
        t += step;
    }

    MeshRunResult {
        wrong_pick_fraction: wrong as f64 / decisions.max(1) as f64,
        mean_etx_penalty: penalty_sum / decisions.max(1) as f64,
        probes_sent: links.iter().map(|l| l.probes_sent).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_a_lower_bound() {
        let oracle = run_mesh(4, 60, 500, MeshProbing::Oracle, 1);
        assert_eq!(oracle.wrong_pick_fraction, 0.0);
        assert!(oracle.mean_etx_penalty.abs() < 1e-9);
        assert_eq!(oracle.probes_sent, 0);
    }

    #[test]
    fn slow_probing_picks_wrong_links_more_often() {
        let mut slow_wrong = 0.0;
        let mut fast_wrong = 0.0;
        for seed in 0..4 {
            slow_wrong += run_mesh(4, 60, 500, MeshProbing::Fixed(0.5), seed).wrong_pick_fraction;
            fast_wrong += run_mesh(4, 60, 500, MeshProbing::Fixed(10.0), seed).wrong_pick_fraction;
        }
        assert!(
            slow_wrong > fast_wrong,
            "slow {slow_wrong:.2} vs fast {fast_wrong:.2} (summed over seeds)"
        );
    }

    #[test]
    fn adaptive_probing_matches_fast_accuracy_with_fewer_probes() {
        let mut adaptive_pen = 0.0;
        let mut fast_pen = 0.0;
        let mut slow_pen = 0.0;
        let mut adaptive_probes = 0;
        let mut fast_probes = 0;
        for seed in 10..14 {
            let a = run_mesh(4, 60, 500, MeshProbing::HintAdaptive, seed);
            let f = run_mesh(4, 60, 500, MeshProbing::Fixed(10.0), seed);
            let s = run_mesh(4, 60, 500, MeshProbing::Fixed(1.0), seed);
            adaptive_pen += a.mean_etx_penalty;
            fast_pen += f.mean_etx_penalty;
            slow_pen += s.mean_etx_penalty;
            adaptive_probes += a.probes_sent;
            fast_probes += f.probes_sent;
        }
        // Accuracy: adaptive within 2x of always-fast and better than
        // always-slow; bandwidth: well under always-fast.
        assert!(
            adaptive_pen < slow_pen,
            "adaptive {adaptive_pen:.3} vs slow {slow_pen:.3}"
        );
        assert!(
            adaptive_pen < 2.0 * fast_pen + 0.05,
            "adaptive {adaptive_pen:.3} vs fast {fast_pen:.3}"
        );
        assert!(
            adaptive_probes * 3 < fast_probes * 2,
            "adaptive {adaptive_probes} vs fast {fast_probes} probes"
        );
    }

    #[test]
    #[should_panic]
    fn single_link_mesh_rejected() {
        let _ = run_mesh(1, 10, 500, MeshProbing::Oracle, 1);
    }
}
