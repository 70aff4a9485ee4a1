//! Name → congestion-controller-factory registry.
//!
//! Serialized specs pick a congestion-control algorithm **by name** —
//! `{"cca": {"name": "Reno", "window": 64.0}}` — so the same JSON means
//! the same controller in every binary, exactly as
//! `hint_rateadapt::ProtocolRegistry` does for rate-adaptation
//! protocols. The two baselines come pre-registered
//! ([`CcaRegistry::builtin`]); downstream code can
//! [`CcaRegistry::register`] additional controllers without touching
//! this crate. Lookups are case-insensitive with one canonical display
//! name per entry.

use crate::controller::{CongestionController, FixedWindow, Reno};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A lookup for a name no registered congestion controller answers to.
/// The error carries (and displays) the registered names so a failed
/// spec field tells the caller what would have worked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownCcaError {
    /// The name that failed to resolve.
    pub name: String,
    /// Canonical names of every registered controller, in registration
    /// order.
    pub known: Vec<String>,
}

impl fmt::Display for UnknownCcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown congestion controller `{}` (registered: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownCcaError {}

/// Names a congestion controller and its window cap in serialized specs.
///
/// `window` is the congestion-window cap in packets: Reno grows toward
/// it, [`FixedWindow`] pins the window to it. It mirrors the open-loop TCP
/// model's `cwnd_cap` (and shares its default of 64).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CcaSpec {
    /// Registry name of the algorithm (case-insensitive; canonical names
    /// are `Reno` and `FixedWindow`).
    pub name: String,
    /// Congestion-window cap, packets.
    pub window: f64,
}

impl Default for CcaSpec {
    fn default() -> Self {
        CcaSpec {
            name: "Reno".to_string(),
            window: 64.0,
        }
    }
}

impl CcaSpec {
    /// A spec for `name` with the default window cap.
    pub fn named(name: impl Into<String>) -> CcaSpec {
        CcaSpec {
            name: name.into(),
            ..CcaSpec::default()
        }
    }

    /// Reject parameter sets the sender cannot run: an unknown algorithm
    /// name (checked against the builtin registry) or a window cap below
    /// the model's two-packet loss-recovery floor.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.window.is_finite() && self.window >= 2.0) {
            return Err(format!(
                "cca window must be finite and >= 2 packets, got {}",
                self.window
            ));
        }
        if !CcaRegistry::builtin_shared().contains(&self.name) {
            return Err(CcaRegistry::builtin_shared()
                .unknown(&self.name)
                .to_string());
        }
        Ok(())
    }
}

/// A shared, reusable controller factory: each call yields a fresh
/// controller with clean state.
pub type CcaFactory = Arc<dyn Fn(&CcaSpec) -> Box<dyn CongestionController> + Send + Sync>;

/// A registry of named congestion-control algorithms.
pub struct CcaRegistry {
    /// `(canonical name, factory)` in registration order.
    entries: Vec<(String, CcaFactory)>,
}

impl CcaRegistry {
    /// An empty registry (no controllers known).
    pub fn empty() -> Self {
        CcaRegistry {
            entries: Vec::new(),
        }
    }

    /// The two baseline controllers under their canonical names:
    /// `Reno`, `FixedWindow`.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register("Reno", |s: &CcaSpec| Box::new(Reno::new(s.window)));
        r.register("FixedWindow", |s: &CcaSpec| {
            Box::new(FixedWindow::new(s.window))
        });
        r
    }

    /// The shared builtin registry (constructed once per process).
    pub fn builtin_shared() -> &'static CcaRegistry {
        static BUILTIN: OnceLock<CcaRegistry> = OnceLock::new();
        BUILTIN.get_or_init(CcaRegistry::builtin)
    }

    /// Register (or replace) a controller under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&CcaSpec) -> Box<dyn CongestionController> + Send + Sync + 'static,
    ) {
        let name = name.into();
        let factory: CcaFactory = Arc::new(factory);
        match self.position(&name) {
            Some(i) => self.entries[i] = (name, factory),
            None => self.entries.push((name, factory)),
        }
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    /// The canonical display name for `name`, if registered.
    pub fn canonical_name(&self, name: &str) -> Option<&str> {
        self.position(name).map(|i| self.entries[i].0.as_str())
    }

    /// The factory registered under `name` (case-insensitive), shareable
    /// across threads and calls.
    pub fn factory(&self, name: &str) -> Option<CcaFactory> {
        self.position(name).map(|i| Arc::clone(&self.entries[i].1))
    }

    /// Instantiate a fresh controller for `spec.name`.
    pub fn build(&self, spec: &CcaSpec) -> Option<Box<dyn CongestionController>> {
        self.factory(&spec.name).map(|f| f(spec))
    }

    /// The error for a `name` this registry does not know: carries the
    /// registered names so callers can render an actionable message.
    pub fn unknown(&self, name: &str) -> UnknownCcaError {
        UnknownCcaError {
            name: name.to_string(),
            known: self.names().iter().map(|s| s.to_string()).collect(),
        }
    }

    /// [`CcaRegistry::build`] with an actionable error: the `Err` names
    /// every registered controller.
    pub fn try_build(
        &self,
        spec: &CcaSpec,
    ) -> Result<Box<dyn CongestionController>, UnknownCcaError> {
        self.build(spec).ok_or_else(|| self.unknown(&spec.name))
    }

    /// True when `name` resolves to a registered controller.
    pub fn contains(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// Canonical names in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_both_baselines() {
        let r = CcaRegistry::builtin();
        assert_eq!(r.names(), ["Reno", "FixedWindow"]);
        for name in r.names() {
            let c = r.build(&CcaSpec::named(name)).expect("factory");
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn lookup_is_case_insensitive_with_canonical_display() {
        let r = CcaRegistry::builtin();
        assert!(r.contains("reno"));
        assert!(r.contains("FIXEDWINDOW"));
        assert_eq!(r.canonical_name("reno"), Some("Reno"));
        assert!(!r.contains("made-up"));
        assert!(r.build(&CcaSpec::named("made-up")).is_none());
    }

    #[test]
    fn failed_lookup_lists_registered_names() {
        let r = CcaRegistry::builtin();
        let err = match r.try_build(&CcaSpec::named("vegas")) {
            Err(e) => e,
            Ok(_) => panic!("unknown name must not build"),
        };
        assert_eq!(err.name, "vegas");
        assert_eq!(
            err.to_string(),
            "unknown congestion controller `vegas` (registered: Reno, FixedWindow)"
        );
    }

    #[test]
    fn spec_validation_is_actionable() {
        assert!(CcaSpec::default().validate().is_ok());
        assert!(CcaSpec::named("fixedwindow").validate().is_ok());
        let bad_name = CcaSpec::named("vegas").validate().unwrap_err();
        assert!(bad_name.contains("Reno, FixedWindow"), "{bad_name}");
        let bad_window = CcaSpec {
            window: 1.0,
            ..CcaSpec::default()
        };
        assert!(bad_window.validate().unwrap_err().contains("window"));
        let nan_window = CcaSpec {
            window: f64::NAN,
            ..CcaSpec::default()
        };
        assert!(nan_window.validate().is_err());
    }

    #[test]
    fn window_cap_reaches_the_controller() {
        let r = CcaRegistry::builtin();
        let spec = CcaSpec {
            name: "FixedWindow".to_string(),
            window: 7.0,
        };
        let c = r.build(&spec).unwrap();
        assert_eq!(c.window(), 7.0);
    }

    #[test]
    fn custom_registration_and_replacement() {
        let mut r = CcaRegistry::empty();
        r.register("custom", |s| Box::new(FixedWindow::new(s.window)));
        assert_eq!(r.names(), ["custom"]);
        r.register("Custom", |s| Box::new(FixedWindow::new(s.window)));
        assert_eq!(r.names(), ["Custom"]);
    }
}
