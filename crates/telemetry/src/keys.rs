//! Central registry of every metric name the workspace records.
//!
//! Each name is a `pub const` here, and every emit and read site in the
//! workspace names the constant rather than spelling the string, so a
//! renamed or mistyped key is a compile error instead of a counter that
//! silently never moves. [`REGISTERED_KEYS`] lists every constant once;
//! `every_key_is_documented` below holds each entry against DESIGN.md
//! §9.2.
//!
//! Keep the constants and the list sorted by name;
//! `registry_is_sorted_and_unique` below fails on violations.

// Each constant's value is its documentation; DESIGN.md §9.2 says what
// it measures. (`missing_docs` is silent in test builds, so an
// `#[expect]` here would go unfulfilled there.)
#![allow(missing_docs)]

pub const FORECAST_DEGRADED: &str = "forecast.degraded";
pub const FORECAST_TIER_ARIMA: &str = "forecast.tier.arima";
pub const FORECAST_TIER_LAST_OBSERVATION: &str = "forecast.tier.last_observation";
pub const FORECAST_TIER_MOVING_AVERAGE: &str = "forecast.tier.moving_average";
pub const LP_FAILURES: &str = "lp.failures";
pub const LP_PHASE1_PIVOTS: &str = "lp.phase1_pivots";
pub const LP_PIVOTS: &str = "lp.pivots";
pub const LP_SOLVES: &str = "lp.solves";
pub const LP_WARM_START_HITS: &str = "lp.warm_start_hits";
pub const LP_WARM_START_REPAIR_FALLBACKS: &str = "lp.warm_start_repair_fallbacks";
pub const LP_WARM_START_STRUCTURAL_FALLBACKS: &str = "lp.warm_start_structural_fallbacks";
pub const MONITOR_DROPPED_ARRIVALS: &str = "monitor.dropped_arrivals";
pub const PIPELINE_CLASSIFY_SECONDS: &str = "pipeline.classify_seconds";
pub const PIPELINE_ERRORS: &str = "pipeline.errors";
pub const PIPELINE_FORECAST_SECONDS: &str = "pipeline.forecast_seconds";
pub const PIPELINE_LP_SECONDS: &str = "pipeline.lp_seconds";
pub const PIPELINE_PERIOD_SECONDS: &str = "pipeline.period_seconds";
pub const PIPELINE_ROUNDING_SECONDS: &str = "pipeline.rounding_seconds";
pub const PIPELINE_SIZING_SECONDS: &str = "pipeline.sizing_seconds";
pub const PIPELINE_TICKS: &str = "pipeline.ticks";
pub const SERVER_ERRORS: &str = "server.errors";
pub const SERVER_REQUEST_SECONDS: &str = "server.request_seconds";
pub const SERVER_REQUESTS: &str = "server.requests";
pub const SERVER_SHED_TOTAL: &str = "server.shed_total";
pub const SERVER_TICKER_RESTARTS: &str = "server.ticker_restarts";
pub const SERVER_TIMEOUT_TOTAL: &str = "server.timeout_total";
pub const SIM_CONTROLLER_SECONDS: &str = "sim.controller_seconds";
pub const SIM_DRAIN_LIMIT_HITS: &str = "sim.drain_limit_hits";
pub const SIM_DRAIN_PASSES: &str = "sim.drain_passes";
pub const SIM_DRAIN_REPLAYS: &str = "sim.drain_replays";
pub const SIM_DRAIN_VISITS: &str = "sim.drain_visits";
pub const SIM_EVENTS_ARRIVAL: &str = "sim.events.arrival";
pub const SIM_EVENTS_BOOT: &str = "sim.events.boot";
pub const SIM_EVENTS_CONTROL: &str = "sim.events.control";
pub const SIM_EVENTS_FAULT: &str = "sim.events.fault";
pub const SIM_EVENTS_FINISH: &str = "sim.events.finish";
pub const SIM_EVENTS_SAMPLE: &str = "sim.events.sample";
pub const SIM_EVENTS_PER_SEC: &str = "sim.events_per_sec";
pub const SIM_HEAP_PEAK: &str = "sim.heap_peak";
pub const SIM_PENDING_PEAK: &str = "sim.pending_peak";

/// Every concrete metric name the workspace records or reads.
pub const REGISTERED_KEYS: &[&str] = &[
    FORECAST_DEGRADED,
    FORECAST_TIER_ARIMA,
    FORECAST_TIER_LAST_OBSERVATION,
    FORECAST_TIER_MOVING_AVERAGE,
    LP_FAILURES,
    LP_PHASE1_PIVOTS,
    LP_PIVOTS,
    LP_SOLVES,
    LP_WARM_START_HITS,
    LP_WARM_START_REPAIR_FALLBACKS,
    LP_WARM_START_STRUCTURAL_FALLBACKS,
    MONITOR_DROPPED_ARRIVALS,
    PIPELINE_CLASSIFY_SECONDS,
    PIPELINE_ERRORS,
    PIPELINE_FORECAST_SECONDS,
    PIPELINE_LP_SECONDS,
    PIPELINE_PERIOD_SECONDS,
    PIPELINE_ROUNDING_SECONDS,
    PIPELINE_SIZING_SECONDS,
    PIPELINE_TICKS,
    SERVER_ERRORS,
    SERVER_REQUEST_SECONDS,
    SERVER_REQUESTS,
    SERVER_SHED_TOTAL,
    SERVER_TICKER_RESTARTS,
    SERVER_TIMEOUT_TOTAL,
    SIM_CONTROLLER_SECONDS,
    SIM_DRAIN_LIMIT_HITS,
    SIM_DRAIN_PASSES,
    SIM_DRAIN_REPLAYS,
    SIM_DRAIN_VISITS,
    SIM_EVENTS_ARRIVAL,
    SIM_EVENTS_BOOT,
    SIM_EVENTS_CONTROL,
    SIM_EVENTS_FAULT,
    SIM_EVENTS_FINISH,
    SIM_EVENTS_SAMPLE,
    SIM_EVENTS_PER_SEC,
    SIM_HEAP_PEAK,
    SIM_PENDING_PEAK,
];

/// Prefixes under which names are minted dynamically:
/// `server.requests.<verb>`, one counter per protocol verb.
pub const REGISTERED_PREFIXES: &[&str] = &["server.requests."];

/// Whether `name` is a registered key or falls under a registered
/// dynamic prefix.
#[cfg(test)]
pub fn is_registered(name: &str) -> bool {
    REGISTERED_KEYS.binary_search(&name).is_ok()
        || REGISTERED_PREFIXES.iter().any(|p| name.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTERED_KEYS.windows(2) {
            assert!(
                pair[0] < pair[1],
                "REGISTERED_KEYS must be sorted and duplicate-free: {} then {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn lookup_covers_keys_and_prefixes() {
        assert!(is_registered("lp.pivots"));
        assert!(is_registered("server.requests.tick"));
        assert!(!is_registered("lp.bogus"));
        assert!(!is_registered("server.requestsx"));
    }

    /// Every backticked name in DESIGN.md §9.2, with one `{a,b}` group
    /// per name expanded (`lp.{solves,pivots}` → both keys).
    fn documented_names() -> Vec<String> {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("### 9.2").expect("DESIGN.md has §9.2");
        let len = design[start..].find("### 9.3").expect("§9.3 follows §9.2");
        let mut names = Vec::new();
        for span in design[start..start + len].split('`').skip(1).step_by(2) {
            match (span.find('{'), span.find('}')) {
                (Some(open), Some(close)) if open < close => {
                    for alt in span[open + 1..close].split(',') {
                        names.push(format!("{}{alt}{}", &span[..open], &span[close + 1..]));
                    }
                }
                _ => names.push(span.to_owned()),
            }
        }
        names
    }

    #[test]
    fn every_key_is_documented() {
        let documented = documented_names();
        let missing: Vec<&str> = REGISTERED_KEYS
            .iter()
            .copied()
            .filter(|key| !documented.iter().any(|d| d == key))
            .collect();
        assert!(missing.is_empty(), "not documented in DESIGN.md §9.2: {missing:?}");
    }

    #[test]
    fn names_are_dotted_lowercase_paths() {
        for key in REGISTERED_KEYS {
            assert!(
                key.contains('.')
                    && key
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "bad key shape: {key}"
            );
        }
    }
}
