//! Shared harness for the `harmony-bench` subcommands.
//!
//! Every module of `src/bin/harmony-bench/` is one subcommand; the
//! `fig*`/`table*` ones each regenerate one table or figure of the
//! paper (see DESIGN.md §4 for the index) and print the same rows or
//! series the paper plots. Common knobs:
//!
//! * `HARMONY_SCALE` — trace/cluster scale preset: `quick` (CI-sized),
//!   `default`, or `full` (the 29-day trace; minutes of runtime).
//! * `HARMONY_SEED` — RNG seed override.
//!
//! Output is tab-separated so it can be piped straight into a plotting
//! tool.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod checkpoint;
pub mod json;

use harmony::classify::ClassifierConfig;
use harmony::HarmonyConfig;
use harmony_model::{MachineCatalog, SimDuration};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long runs for CI and smoke tests.
    Quick,
    /// The default laptop-scale configuration.
    Default,
    /// The full 29-day analysis window.
    Full,
}

impl Scale {
    /// Reads the scale from `HARMONY_SCALE` (`quick`/`default`/`full`),
    /// defaulting to [`Scale::Default`].
    pub fn from_env() -> Self {
        Self::parse(&std::env::var("HARMONY_SCALE").unwrap_or_default()).unwrap_or(Scale::Default)
    }

    /// Parses a preset name (`quick`/`default`/`full`), case-insensitive.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "default" | "" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The preset's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

/// Seed from `HARMONY_SEED`, defaulting to 2013 (the trace default).
pub fn seed_from_env() -> u64 {
    std::env::var("HARMONY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2013)
}

/// The workload-analysis trace (Section III / Figs. 1–7): the synthetic
/// 29-day Google-like trace, shortened per scale.
pub fn analysis_trace(scale: Scale) -> Trace {
    let config = match scale {
        Scale::Quick => TraceConfig::google_like().with_span(SimDuration::from_hours(6.0)),
        Scale::Default => TraceConfig::google_like().with_span(SimDuration::from_days(7.0)),
        Scale::Full => TraceConfig::google_like(),
    }
    .with_seed(seed_from_env());
    TraceGenerator::new(config).generate()
}

/// The closed-loop evaluation setup (Section IX / Figs. 19–26): trace,
/// catalog, controller and classifier configuration.
pub fn evaluation_setup(scale: Scale) -> (Trace, MachineCatalog, HarmonyConfig, ClassifierConfig) {
    evaluation_setup_seeded(scale, seed_from_env())
}

/// [`evaluation_setup`] with an explicit workload seed, for callers that
/// must reproduce a run independently of the environment (e.g. replay
/// checkpoints).
pub fn evaluation_setup_seeded(
    scale: Scale,
    seed: u64,
) -> (Trace, MachineCatalog, HarmonyConfig, ClassifierConfig) {
    // Catalog divisors keep peak concurrent demand near ~65-70% of
    // cluster capacity, the regime where provisioning choices matter
    // (measured: ~26 cpu units at 4 h, ~133 at 1 day, ~201 at 3 days).
    let (span, catalog_divisor, control_mins) = match scale {
        Scale::Quick => (SimDuration::from_hours(4.0), 50, 15.0),
        Scale::Default => (SimDuration::from_days(1.0), 10, 15.0),
        Scale::Full => (SimDuration::from_days(3.0), 7, 10.0),
    };
    let trace =
        TraceGenerator::new(TraceConfig::evaluation().with_span(span).with_seed(seed)).generate();
    let catalog = MachineCatalog::table2().scaled(catalog_divisor);
    let harmony_config = HarmonyConfig {
        control_period: SimDuration::from_mins(control_mins),
        horizon: 4,
        ..Default::default()
    };
    let classifier_config = ClassifierConfig::default();
    (trace, catalog, harmony_config, classifier_config)
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

/// Prints a tab-separated table with a header row.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Formats a float compactly.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        // `Scale::parse` is what `from_env` applies to `HARMONY_SCALE`;
        // testing it directly keeps the test independent of the
        // environment it runs in.
        for (text, scale) in [
            ("quick", Scale::Quick),
            ("default", Scale::Default),
            ("full", Scale::Full),
            ("", Scale::Default),
            ("QuIcK", Scale::Quick),
            ("FULL", Scale::Full),
        ] {
            assert_eq!(Scale::parse(text), Some(scale), "{text:?}");
        }
        assert_eq!(Scale::parse("paper"), None);
        for scale in [Scale::Quick, Scale::Default, Scale::Full] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
    }

    #[test]
    fn quick_setups_are_small() {
        let trace = analysis_trace(Scale::Quick);
        assert!(!trace.is_empty());
        assert!(trace.span() <= SimDuration::from_hours(6.0));
        let (trace, catalog, config, _) = evaluation_setup(Scale::Quick);
        assert!(!trace.is_empty());
        assert!(catalog.total_machines() <= 250);
        config.validate().unwrap();
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.5), "1234");
        assert_eq!(fmt(4.56789), "4.57");
        assert_eq!(fmt(0.012345), "0.0123");
    }
}
