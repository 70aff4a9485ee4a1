//! Hint-driven physical-layer parameter adaptation (Sec. 5.3).
//!
//! Two PHY knobs the paper proposes driving from hints:
//!
//! 1. **Cyclic prefix vs. delay spread.** "802.11a/g is known to work
//!    poorly in outdoor environments because of the longer and more varied
//!    multipath effects outdoors, which induce a longer delay spread and
//!    increase inter-symbol interference. A node that knows it is outdoors
//!    can adjust the length of the cyclic prefix" — and "a simple way to
//!    determine if a node is outdoors is to see if it acquired a GPS
//!    lock."
//! 2. **Frame length vs. coherence time.** "At vehicular speeds, the
//!    coherence time can drop to less than the duration of a single
//!    packet ... Using a speed hint from the GPS, the sender can perform
//!    channel estimation mid-packet, or reduce the maximum frame size it
//!    sends."
//!
//! The models here quantify both trade-offs so the `ext_phy_*` battery
//! experiments can sweep them.

use crate::rates::BitRate;
use crate::timing::MacTiming;

/// Cyclic prefix options. 802.11a's standard guard interval is 0.8 µs;
/// an extended prefix (as in 802.11-2012's optional modes and OFDM
/// systems generally) doubles it at the cost of symbol-rate overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CyclicPrefix {
    /// Standard 0.8 µs guard interval (4 µs symbol).
    Standard,
    /// Extended 1.6 µs guard interval (4.8 µs symbol).
    Extended,
}

impl CyclicPrefix {
    /// Guard interval in microseconds.
    pub fn guard_us(self) -> f64 {
        match self {
            CyclicPrefix::Standard => 0.8,
            CyclicPrefix::Extended => 1.6,
        }
    }

    /// Symbol duration in microseconds (3.2 µs useful + guard).
    pub fn symbol_us(self) -> f64 {
        3.2 + self.guard_us()
    }

    /// Throughput efficiency relative to the standard prefix (longer
    /// prefixes stretch every symbol).
    pub fn efficiency(self) -> f64 {
        CyclicPrefix::Standard.symbol_us() / self.symbol_us()
    }
}

/// Representative RMS delay spreads, nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelaySpreadEnv {
    /// Indoor office/home: 30–60 ns.
    Indoor,
    /// Outdoor urban: 200–400 ns, occasionally more.
    OutdoorUrban,
    /// Outdoor hilly/highway: up to ~1 µs.
    OutdoorLong,
}

impl DelaySpreadEnv {
    /// Representative RMS delay spread, ns.
    pub fn rms_ns(self) -> f64 {
        match self {
            DelaySpreadEnv::Indoor => 50.0,
            DelaySpreadEnv::OutdoorUrban => 300.0,
            DelaySpreadEnv::OutdoorLong => 800.0,
        }
    }
}

/// Fraction of multipath energy arriving *outside* the guard interval —
/// the inter-symbol interference proxy. Exponential power-delay profile:
/// `exp(-guard / rms)`.
pub fn isi_fraction(cp: CyclicPrefix, env: DelaySpreadEnv) -> f64 {
    (-(cp.guard_us() * 1000.0) / env.rms_ns()).exp()
}

/// Effective SNR degradation from ISI, dB: interference power `isi` turns
/// an interference-free SNR into `1 / (1/snr + isi)` (self-noise floor).
pub fn isi_snr_penalty_db(snr_db: f64, cp: CyclicPrefix, env: DelaySpreadEnv) -> f64 {
    let snr = 10f64.powf(snr_db / 10.0);
    let isi = isi_fraction(cp, env);
    let eff = 1.0 / (1.0 / snr + isi);
    snr_db - 10.0 * eff.log10()
}

/// Pick the cyclic prefix from the GPS-lock hint (Sec. 5.3's rule: lock ⇒
/// outdoors ⇒ extended prefix).
pub fn prefix_for_gps_lock(has_gps_lock: bool) -> CyclicPrefix {
    if has_gps_lock {
        CyclicPrefix::Extended
    } else {
        CyclicPrefix::Standard
    }
}

/// Net throughput factor of a prefix choice in an environment at a given
/// SNR and rate: symbol-stretch efficiency × the delivery probability
/// after the ISI penalty. (Delivery curve matches `hint-channel`'s:
/// logistic around the rate threshold, steepness 1.1/dB.)
pub fn net_throughput_factor(
    cp: CyclicPrefix,
    env: DelaySpreadEnv,
    snr_db: f64,
    rate: BitRate,
) -> f64 {
    let penalty = isi_snr_penalty_db(snr_db, cp, env);
    let eff_snr = snr_db - penalty;
    let p = 1.0 / (1.0 + (-1.1 * (eff_snr - rate.snr_threshold_db())).exp());
    cp.efficiency() * p
}

/// Maximum frame payload (bytes) whose airtime stays within half the
/// channel coherence time at `rate` — Sec. 5.3's "reduce the maximum
/// frame size" rule for fast-moving nodes. Clamped to `[min_bytes, 1500]`.
pub fn max_frame_for_coherence(
    timing: &MacTiming,
    rate: BitRate,
    coherence_s: f64,
    min_bytes: u32,
) -> u32 {
    let budget_us = coherence_s * 0.5 * 1e6;
    // Invert the airtime formula approximately: subtract PLCP, fill
    // symbols.
    let sym_budget =
        ((budget_us - timing.plcp.as_micros() as f64) / timing.symbol.as_micros() as f64).floor();
    if sym_budget <= 0.0 {
        return min_bytes;
    }
    let bits = sym_budget * f64::from(rate.bits_per_symbol());
    let bytes = ((bits - 22.0) / 8.0).floor() as i64 - i64::from(timing.mac_overhead_bytes);
    bytes.clamp(i64::from(min_bytes), 1500) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_prefix_costs_throughput() {
        assert!(CyclicPrefix::Extended.efficiency() < 1.0);
        assert_eq!(CyclicPrefix::Standard.efficiency(), 1.0);
        assert!((CyclicPrefix::Extended.symbol_us() - 4.8).abs() < 1e-12);
    }

    #[test]
    fn isi_negligible_indoors_significant_outdoors() {
        let indoor = isi_fraction(CyclicPrefix::Standard, DelaySpreadEnv::Indoor);
        let outdoor = isi_fraction(CyclicPrefix::Standard, DelaySpreadEnv::OutdoorLong);
        assert!(indoor < 1e-6, "indoor ISI {indoor}");
        assert!(outdoor > 0.3, "outdoor-long ISI {outdoor}");
        // The extended prefix slashes outdoor ISI.
        let fixed = isi_fraction(CyclicPrefix::Extended, DelaySpreadEnv::OutdoorLong);
        assert!(fixed < outdoor / 2.0);
    }

    #[test]
    fn snr_penalty_monotone_in_delay_spread() {
        let p_in = isi_snr_penalty_db(25.0, CyclicPrefix::Standard, DelaySpreadEnv::Indoor);
        let p_urb = isi_snr_penalty_db(25.0, CyclicPrefix::Standard, DelaySpreadEnv::OutdoorUrban);
        let p_long = isi_snr_penalty_db(25.0, CyclicPrefix::Standard, DelaySpreadEnv::OutdoorLong);
        assert!(p_in < p_urb && p_urb < p_long);
        assert!(p_in < 0.1, "indoor penalty {p_in} dB");
        assert!(p_long > 3.0, "outdoor-long penalty {p_long} dB");
    }

    #[test]
    fn hint_rule_picks_the_winning_prefix_outdoors() {
        // At high rates outdoors, the extended prefix's ISI relief beats
        // its 17% symbol stretch; indoors the standard prefix wins.
        let rate = BitRate::R54;
        let snr = 26.0;
        let out_std = net_throughput_factor(
            CyclicPrefix::Standard,
            DelaySpreadEnv::OutdoorLong,
            snr,
            rate,
        );
        let out_ext = net_throughput_factor(
            CyclicPrefix::Extended,
            DelaySpreadEnv::OutdoorLong,
            snr,
            rate,
        );
        assert!(
            out_ext > out_std,
            "outdoor: ext {out_ext:.3} vs std {out_std:.3}"
        );
        let in_std =
            net_throughput_factor(CyclicPrefix::Standard, DelaySpreadEnv::Indoor, snr, rate);
        let in_ext =
            net_throughput_factor(CyclicPrefix::Extended, DelaySpreadEnv::Indoor, snr, rate);
        assert!(
            in_std > in_ext,
            "indoor: std {in_std:.3} vs ext {in_ext:.3}"
        );
        // And the GPS-lock rule selects accordingly.
        assert_eq!(prefix_for_gps_lock(true), CyclicPrefix::Extended);
        assert_eq!(prefix_for_gps_lock(false), CyclicPrefix::Standard);
    }

    #[test]
    fn frame_cap_shrinks_with_speed() {
        let t = MacTiming::ieee80211a();
        // Walking (10 ms coherence): full frames fit easily.
        let walk = max_frame_for_coherence(&t, BitRate::R54, 0.010, 100);
        assert_eq!(walk, 1500);
        // Highway Clarke coherence (1 ms): budget 500 µs minus PLCP —
        // still roomy at 54 Mbit/s...
        let fast = max_frame_for_coherence(&t, BitRate::R54, 0.001, 100);
        assert!(fast > 1000);
        // ...but tight at 6 Mbit/s, where symbols carry 9x less.
        let fast_slow_rate = max_frame_for_coherence(&t, BitRate::R6, 0.001, 100);
        assert!(
            fast_slow_rate < 400,
            "6 Mbps frame cap at 1 ms coherence: {fast_slow_rate}"
        );
        // Sub-packet coherence clamps to the minimum.
        let extreme = max_frame_for_coherence(&t, BitRate::R6, 0.00005, 100);
        assert_eq!(extreme, 100);
    }

    #[test]
    fn frame_cap_monotone_in_coherence() {
        let t = MacTiming::ieee80211a();
        let mut prev = 0;
        for c in [0.0002, 0.0005, 0.001, 0.002, 0.01] {
            let cap = max_frame_for_coherence(&t, BitRate::R24, c, 50);
            assert!(cap >= prev, "cap not monotone at {c}");
            prev = cap;
        }
    }
}
