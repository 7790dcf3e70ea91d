//! The paper's policy extension for data streams: it "provides
//! additional information for configuring data streams, such as the
//! allowed query interval and possible aggregation levels" (§3.3).
//!
//! [`StreamGate`] enforces those settings per module: queries arriving
//! faster than the allowed interval are rejected, and requested
//! aggregation levels are checked.

use std::collections::HashMap;

use paradise_policy::StreamSettings;

/// Decision of the gate for one query arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum GateDecision {
    /// Proceed.
    Admitted,
    /// Rejected: arrived too soon after the module's previous query.
    TooFrequent {
        /// Seconds since the previous admitted query.
        elapsed: f64,
        /// Required minimum interval.
        required: f64,
    },
    /// Rejected: the requested aggregation level is not permitted.
    LevelNotAllowed {
        /// The level asked for.
        requested: String,
    },
}

/// Per-module query-rate and aggregation-level enforcement.
#[derive(Debug, Default)]
pub struct StreamGate {
    settings: HashMap<String, StreamSettings>,
    last_admitted: HashMap<String, f64>,
}

impl StreamGate {
    /// Empty gate (admits everything).
    pub fn new() -> Self {
        StreamGate::default()
    }

    /// Install a module's stream settings.
    pub fn set_settings(&mut self, module_id: impl Into<String>, settings: StreamSettings) {
        self.settings.insert(module_id.into(), settings);
    }

    /// Check (and record) a query arrival at time `now_secs` requesting
    /// aggregation `level` (`None` = raw).
    pub fn admit(
        &mut self,
        module_id: &str,
        now_secs: f64,
        level: Option<&str>,
    ) -> GateDecision {
        let Some(settings) = self.settings.get(module_id) else {
            self.last_admitted.insert(module_id.to_string(), now_secs);
            return GateDecision::Admitted;
        };
        if let Some(level) = level {
            if !settings.permits_level(level) {
                return GateDecision::LevelNotAllowed { requested: level.to_string() };
            }
        }
        if let (Some(min), Some(last)) =
            (settings.min_query_interval_secs, self.last_admitted.get(module_id))
        {
            let elapsed = now_secs - last;
            if elapsed < min {
                return GateDecision::TooFrequent { elapsed, required: min };
            }
        }
        self.last_admitted.insert(module_id.to_string(), now_secs);
        GateDecision::Admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(interval: f64, levels: &[&str]) -> StreamSettings {
        StreamSettings {
            min_query_interval_secs: Some(interval),
            allowed_aggregation_levels: levels.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn gate_enforces_intervals() {
        let mut gate = StreamGate::new();
        gate.set_settings("M", settings(60.0, &[]));
        assert_eq!(gate.admit("M", 0.0, None), GateDecision::Admitted);
        assert!(matches!(
            gate.admit("M", 30.0, None),
            GateDecision::TooFrequent { required, .. } if required == 60.0
        ));
        assert_eq!(gate.admit("M", 61.0, None), GateDecision::Admitted);
        // a rejected attempt must not reset the clock
        assert!(matches!(gate.admit("M", 90.0, None), GateDecision::TooFrequent { .. }));
    }

    #[test]
    fn gate_enforces_levels() {
        let mut gate = StreamGate::new();
        gate.set_settings("M", settings(0.0, &["minute"]));
        assert_eq!(gate.admit("M", 0.0, Some("minute")), GateDecision::Admitted);
        assert!(matches!(
            gate.admit("M", 1.0, Some("raw")),
            GateDecision::LevelNotAllowed { .. }
        ));
    }

    #[test]
    fn unknown_modules_are_admitted() {
        let mut gate = StreamGate::new();
        assert_eq!(gate.admit("anyone", 0.0, Some("raw")), GateDecision::Admitted);
    }
}
