//! Observability configuration.
//!
//! Runs are hermetic: simulation code never consults the environment.
//! Binaries that want env control (benches, simcheck) call
//! [`ObsConfig::from_env`] once at their CLI edge and pass the result
//! into `SimConfig`.

use crate::trace::TraceLevel;

/// Per-run observability settings. The default is everything off, which
/// costs one `Option`-is-`None` branch per hook site.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Collect the counter catalogue and wall-clock phase profile.
    pub counters: bool,
    /// Structured trace capture level.
    pub trace: TraceLevel,
    /// Trace ring capacity in records.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            counters: false,
            trace: TraceLevel::Off,
            trace_capacity: 64 * 1024,
        }
    }
}

impl ObsConfig {
    /// True when any instrumentation is requested.
    pub fn enabled(&self) -> bool {
        self.counters || self.trace != TraceLevel::Off
    }

    /// Everything on at the given trace level — the bench/report setting.
    pub fn full(trace: TraceLevel) -> Self {
        Self {
            counters: true,
            trace,
            ..Self::default()
        }
    }

    /// CLI-edge env parsing: `COMPASS_TRACE` selects the trace level
    /// (`off`/`coarse`/`fine`, old truthy spellings mean `coarse`) and
    /// any non-off level also switches counters on; `COMPASS_OBS=1`
    /// switches counters on alone.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("COMPASS_TRACE") {
            cfg.trace = TraceLevel::parse(&v);
        }
        if cfg.trace != TraceLevel::Off || std::env::var_os("COMPASS_OBS").is_some() {
            cfg.counters = true;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled());
        assert!(!cfg.counters);
        assert_eq!(cfg.trace, TraceLevel::Off);
    }

    #[test]
    fn full_enables_counters_and_trace() {
        let cfg = ObsConfig::full(TraceLevel::Fine);
        assert!(cfg.enabled());
        assert!(cfg.counters);
        assert_eq!(cfg.trace, TraceLevel::Fine);
    }
}
