//! # hint-channel — mobility-modulated wireless channel models and traces
//!
//! The paper's evaluation is **trace-driven**: real 802.11a packet fates
//! were logged per 5 ms time slot per bit rate, then replayed through a
//! modified ns-3 (Sec. 3.3). The hardware half of that pipeline is the part
//! a pure-software reproduction cannot run, so this crate substitutes a
//! physically grounded synthetic channel:
//!
//! * [`snr`] — an SNR process combining a mean level (path loss), slow
//!   log-normal shadowing, and Rician/Rayleigh fast fading whose
//!   **coherence time tracks the device's motion** (seconds when static,
//!   ≈10 ms at walking speed — the paper's own Fig. 3-1 estimate — and
//!   ~1 ms at vehicular speed).
//! * [`delivery`] — per-rate packet success probability as a sigmoid in
//!   SNR around each 802.11a modulation threshold, with packet-length
//!   scaling.
//! * [`trace`] — the paper's trace format: for each 5 ms slot, the fate of
//!   a packet at each of the eight bit rates; serializable, replayable,
//!   and generated from a [`hint_sensors::MotionProfile`] + environment.
//! * [`environments`] — presets for the paper's four environments: office
//!   (no line of sight), hallway (LoS), outdoor pavement, and a roadside
//!   drive-by vehicular setting.
//! * [`analysis`] — conditional-loss-vs-lag statistics (Fig. 3-1) and
//!   related channel diagnostics.
//!
//! What makes the substitution faithful (measured by the `fig_3_1` row of
//! EXPERIMENTS.md's battery index): the two statistics the paper's
//! protocols are sensitive to — coherence time and bursty conditional
//! loss — are explicit model inputs, validated by tests in [`analysis`].

pub mod analysis;
pub mod delivery;
pub mod environments;
pub mod snr;
pub mod trace;

pub use delivery::{delivery_table, DeliveryTable};
pub use environments::Environment;
pub use snr::ChannelModel;
pub use trace::{Trace, TraceSlot, SLOT_DURATION};
