//! Central registry of every metric name the workspace records.
//!
//! Telemetry names are stringly typed at the call sites, so nothing in
//! the type system stops a producer renaming `lp.pivots` while a
//! consumer (the `metrics` verb, `replay --metrics`, the smoke script)
//! keeps reading the old spelling. This module is the single source of
//! truth: every key literal used anywhere in the workspace must appear
//! here exactly once, and every entry here must be documented in
//! DESIGN.md §9.2. `harmony-lint`'s `metric-name-drift` rule enforces
//! both directions as a CI gate.
//!
//! Keep the list sorted; `registry_is_sorted_and_unique` below and the
//! lint's duplicate check both fail on violations.

/// Every concrete metric name the workspace records or reads.
pub const REGISTERED_KEYS: &[&str] = &[
    "cost.cumulative_dollars",
    "cost.dollar_solves",
    "cost.plan_rental_dollars",
    "cost.plan_slo_dollars",
    "cost.spot_fraction",
    "forecast.degraded",
    "forecast.tier.arima",
    "forecast.tier.last_observation",
    "forecast.tier.moving_average",
    "lp.failures",
    "lp.phase1_pivots",
    "lp.pivots",
    "lp.solves",
    "lp.warm_start_hits",
    "lp.warm_start_repair_fallbacks",
    "lp.warm_start_structural_fallbacks",
    "monitor.dropped_arrivals",
    "pipeline.classify_seconds",
    "pipeline.errors",
    "pipeline.forecast_seconds",
    "pipeline.lp_seconds",
    "pipeline.period_seconds",
    "pipeline.rounding_seconds",
    "pipeline.sizing_seconds",
    "pipeline.ticks",
    "pipeline.workers",
    "server.errors",
    "server.request_seconds",
    "server.requests",
    "server.shed_total",
    "server.ticker_restarts",
    "server.timeout_total",
    "sim.controller_seconds",
    "sim.drain_limit_hits",
    "sim.drain_passes",
    "sim.drain_visits",
    "sim.events.arrival",
    "sim.events.boot",
    "sim.events.control",
    "sim.events.fault",
    "sim.events.finish",
    "sim.events.sample",
    "sim.events_per_sec",
    "sim.heap_peak",
    "sim.pending_peak",
];

/// Prefixes under which names are minted dynamically (one counter per
/// protocol verb). A literal starting with one of these is legal even
/// though the full name is not in [`REGISTERED_KEYS`].
pub const REGISTERED_PREFIXES: &[&str] = &["server.requests."];

/// Whether `name` is a registered key or falls under a registered
/// dynamic prefix.
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
