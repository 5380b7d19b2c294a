//! The `RTNN_TELEMETRY` knob: how much the telemetry layer records.
//!
//! Mirrors the `RTNN_SCALE` / `RTNN_SERVE_*` pattern: an unset or empty
//! variable falls back to the default ([`TelemetryLevel::Off`]), a
//! set-but-invalid variable is a configuration error reported with a clear
//! message instead of silently recording at the wrong level. The parsing
//! core ([`TelemetryLevel::from_vars`]) takes an injectable variable source
//! so it is unit-testable without touching the process environment.

/// How much the telemetry layer records.
///
/// The levels are strictly ordered: everything `Basic` records, `Full`
/// records too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Record nothing. Every producer hook reduces to one relaxed atomic
    /// load — the overhead `fig_obs` gates.
    #[default]
    Off,
    /// Metrics only: counters, gauges and latency histograms.
    Basic,
    /// Metrics plus spans.
    Full,
}

impl TelemetryLevel {
    /// The canonical spelling of each level (what `RTNN_TELEMETRY` accepts
    /// and what provenance records emit).
    pub fn as_str(&self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Basic => "basic",
            TelemetryLevel::Full => "full",
        }
    }

    /// True when counters/gauges/histograms are recorded.
    pub fn metrics_enabled(&self) -> bool {
        *self >= TelemetryLevel::Basic
    }

    /// True when spans are recorded.
    pub fn spans_enabled(&self) -> bool {
        *self >= TelemetryLevel::Full
    }

    /// Read the level from the `RTNN_TELEMETRY` environment variable. A
    /// variable that is set but not one of `off`/`basic`/`full` is a
    /// configuration error: the process exits with a clear message instead
    /// of silently recording at the wrong level.
    pub fn from_env() -> Self {
        match Self::from_vars(|name| std::env::var(name).ok()) {
            Ok(level) => level,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// [`Self::from_env`] with an injectable variable source (testable).
    /// Unset or empty falls back to [`TelemetryLevel::Off`]; values are
    /// trimmed and matched case-insensitively; anything else is rejected
    /// with a message naming the variable and the accepted values.
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let Some(raw) = get("RTNN_TELEMETRY") else {
            return Ok(TelemetryLevel::Off);
        };
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Ok(TelemetryLevel::Off);
        }
        match trimmed.to_ascii_lowercase().as_str() {
            "off" => Ok(TelemetryLevel::Off),
            "basic" => Ok(TelemetryLevel::Basic),
            "full" => Ok(TelemetryLevel::Full),
            _ => Err(format!(
                "RTNN_TELEMETRY={raw:?} is not a telemetry level: expected one of \
                 \"off\", \"basic\" or \"full\" (unset it to use the default, off)"
            )),
        }
    }
}

impl std::fmt::Display for TelemetryLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_or_empty_defaults_to_off() {
        assert_eq!(
            TelemetryLevel::from_vars(|_| None).unwrap(),
            TelemetryLevel::Off
        );
        assert_eq!(
            TelemetryLevel::from_vars(|_| Some("   ".into())).unwrap(),
            TelemetryLevel::Off
        );
    }

    #[test]
    fn valid_levels_parse_case_insensitively() {
        for (raw, want) in [
            ("off", TelemetryLevel::Off),
            ("basic", TelemetryLevel::Basic),
            ("full", TelemetryLevel::Full),
            ("FULL", TelemetryLevel::Full),
            ("  Basic ", TelemetryLevel::Basic),
        ] {
            assert_eq!(
                TelemetryLevel::from_vars(|_| Some(raw.to_string())).unwrap(),
                want,
                "raw {raw:?}"
            );
        }
    }

    #[test]
    fn garbage_is_rejected_with_a_clear_error() {
        for bad in ["on", "1", "verbose", "tru e", "yes"] {
            let err = TelemetryLevel::from_vars(|_| Some(bad.to_string())).unwrap_err();
            assert!(err.contains("RTNN_TELEMETRY"), "{err}");
            assert!(err.contains("default"), "{err}");
        }
    }

    #[test]
    fn levels_are_ordered_and_gate_correctly() {
        assert!(TelemetryLevel::Off < TelemetryLevel::Basic);
        assert!(TelemetryLevel::Basic < TelemetryLevel::Full);
        assert!(!TelemetryLevel::Off.metrics_enabled());
        assert!(!TelemetryLevel::Basic.spans_enabled());
        assert!(TelemetryLevel::Basic.metrics_enabled());
        assert!(TelemetryLevel::Full.spans_enabled() && TelemetryLevel::Full.metrics_enabled());
        assert_eq!(TelemetryLevel::Full.as_str(), "full");
        assert_eq!(TelemetryLevel::default(), TelemetryLevel::Off);
    }
}
