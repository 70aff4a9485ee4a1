//! ETX and the wrong-link overhead analysis (Sec. 4.2).
//!
//! "Suppose a node uses the ETX metric to pick the next-hop ... there are
//! two choices, one with link delivery probability p₁ and the other with
//! probability p₂ ... p₁ > p₂. ETX would choose link 1, and the expected
//! number of transmissions ... would be 1/p₁. Suppose the error in the
//! average link delivery probability estimate is δ. The node would pick
//! the wrong link if, and only if, p₂ + δ ≥ p₁ − δ. In this case, the
//! penalty ... is equal to 1/p₂ − 1/p₁. The overhead ... is therefore
//! equal to p₁/p₂ − 1. ... If we have two links, one with a delivery
//! probability p₁ = 0.8 and the other with p₂ = 0.6, the overhead, for
//! δ = 0.25, is 5/12 = 42% on that hop."

use hint_sim::RngStream;

/// Expected transmissions for one delivery over a link with delivery
/// probability `p` (forward direction only, as in the Sec. 4.2 analysis).
///
/// Returns `f64::INFINITY` for `p <= 0` — and for NaN, so the metric is
/// total over all `f64` inputs (an unusable estimate scores as an
/// unusable link) and anti-monotone in `p` everywhere it is finite.
pub fn etx(p: f64) -> f64 {
    // `p > 0.0` is false for NaN too, so the usable-link arm only ever
    // sees strictly positive finite probabilities.
    if p > 0.0 {
        1.0 / p.min(1.0)
    } else {
        f64::INFINITY
    }
}

/// Outcome of the two-link wrong-choice analysis.
///
/// Note on the paper's arithmetic: for `p₁ = 0.8, p₂ = 0.6` it quotes an
/// overhead of "5/12 = 42%". `5/12` is the *penalty* `1/p₂ − 1/p₁` (extra
/// transmissions per packet), while the overhead formula the paper states,
/// `p₁/p₂ − 1`, evaluates to `1/3 ≈ 33%`. Both values are exposed here;
/// the Sec. 4.2 experiment (`etx_overhead`) reports both and notes the
/// discrepancy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WrongLinkAnalysis {
    /// Can an estimate error of ±δ cause the wrong link to be picked?
    pub wrong_pick_possible: bool,
    /// Extra transmissions per packet when the wrong link is picked
    /// (`1/p₂ − 1/p₁` — the paper's quoted "5/12").
    pub penalty: f64,
    /// Relative overhead when the wrong link is picked (`p₁/p₂ − 1`,
    /// the formula as stated in Sec. 4.2).
    pub overhead: f64,
}

/// The closed-form Sec. 4.2 analysis for links `p1 > p2` and estimate
/// error bound `delta`.
///
/// # Panics
/// Panics unless `0 < p2 <= p1 <= 1` and `delta >= 0`.
pub fn wrong_link_analysis(p1: f64, p2: f64, delta: f64) -> WrongLinkAnalysis {
    assert!(p2 > 0.0 && p2 <= p1 && p1 <= 1.0, "need 0 < p2 <= p1 <= 1");
    assert!(delta >= 0.0, "delta must be non-negative");
    WrongLinkAnalysis {
        // Small epsilon keeps the boundary case ("if and only if
        // p2 + δ ≥ p1 − δ") inclusive under floating-point rounding.
        wrong_pick_possible: p2 + delta >= p1 - delta - 1e-12,
        penalty: etx(p2) - etx(p1),
        overhead: p1 / p2 - 1.0,
    }
}

/// Monte-Carlo estimate of the *expected* overhead when both links'
/// delivery estimates carry independent uniform ±δ errors: the fraction of
/// trials in which the worse link wins, times the overhead of that
/// mistake.
pub fn expected_overhead_monte_carlo(p1: f64, p2: f64, delta: f64, trials: u32, seed: u64) -> f64 {
    assert!(p2 > 0.0 && p2 <= p1 && p1 <= 1.0);
    let mut rng = RngStream::new(seed).derive("etx-mc");
    let analysis = wrong_link_analysis(p1, p2, delta);
    let mut wrong = 0u32;
    for _ in 0..trials {
        let e1 = p1 + (rng.uniform() * 2.0 - 1.0) * delta;
        let e2 = p2 + (rng.uniform() * 2.0 - 1.0) * delta;
        if e2 > e1 {
            wrong += 1;
        }
    }
    f64::from(wrong) / f64::from(trials) * analysis.overhead
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etx_basics() {
        assert_eq!(etx(1.0), 1.0);
        assert_eq!(etx(0.5), 2.0);
        assert_eq!(etx(0.0), f64::INFINITY);
        assert_eq!(etx(-0.1), f64::INFINITY);
        // Clamped above 1.
        assert_eq!(etx(2.0), 1.0);
        // Total: NaN estimates score as unusable, never propagate.
        assert_eq!(etx(f64::NAN), f64::INFINITY);
    }

    #[test]
    fn paper_example_42_percent() {
        // p1 = 0.8, p2 = 0.6, δ = 0.25 ⇒ the paper's quoted "5/12 ≈ 42%"
        // (the penalty), and 1/3 by its own overhead formula.
        let a = wrong_link_analysis(0.8, 0.6, 0.25);
        assert!(a.wrong_pick_possible);
        assert!((a.penalty - 5.0 / 12.0).abs() < 1e-12);
        assert!((a.overhead - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn small_error_cannot_flip_well_separated_links() {
        let a = wrong_link_analysis(0.9, 0.5, 0.1);
        assert!(!a.wrong_pick_possible);
        // The overhead *if* it happened is still reported.
        assert!(a.overhead > 0.0);
    }

    #[test]
    fn boundary_condition_is_inclusive() {
        // p2 + δ == p1 − δ exactly ⇒ wrong pick possible (the paper's
        // "if and only if p2 + δ ≥ p1 − δ").
        let a = wrong_link_analysis(0.8, 0.6, 0.1);
        assert!(a.wrong_pick_possible);
    }

    #[test]
    fn monte_carlo_matches_intuition() {
        // With δ = 0.25 and p-gap 0.2, the wrong link wins a noticeable
        // fraction of the time; expected overhead is positive but below
        // the conditional overhead.
        let cond = wrong_link_analysis(0.8, 0.6, 0.25).overhead;
        let exp = expected_overhead_monte_carlo(0.8, 0.6, 0.25, 100_000, 1);
        assert!(exp > 0.01, "expected overhead {exp}");
        assert!(
            exp < cond,
            "expected {exp} must be below conditional {cond}"
        );
        // With tiny δ, mistakes vanish.
        let exp0 = expected_overhead_monte_carlo(0.8, 0.6, 0.01, 100_000, 2);
        assert_eq!(exp0, 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_links() {
        let _ = wrong_link_analysis(0.5, 0.8, 0.1);
    }
}
