//! Encoding tests for the controller-state types that cross a
//! serialization boundary (daemon checkpoints, the wire protocol). All of
//! them derive their impls; these tests pin the bytes and the tolerant
//! reads of fields added after the first checkpoint format.

use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::classify::ClassifierConfig;
use crate::monitor::ClassForecast;
use crate::rounding::IntegerPlan;
use crate::HarmonyConfig;

mod tests {
    use super::*;
    use harmony_sim::ForecastTier;

    /// Asserts that `value` writes exactly `json` and reads back from it.
    fn pin<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, json: &str) {
        let text = serde_json::to_string(value).unwrap();
        assert_eq!(text, json);
        assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value);
    }

    #[test]
    fn encodings_are_pinned() {
        pin(
            &HarmonyConfig { pipeline_workers: Some(3), ..Default::default() },
            r#"{"arima_min_history":24,"control_period":600,"demand_margin":1.25e0,"epsilon":1e-1,"history_len":288,"horizon":4,"max_lp_pivots":20000,"omega":1.1e0,"pipeline_workers":3,"slo_delay_secs":[600,120,15],"utility_per_container_hour":[2e-2,6e-2,2.5e-1]}"#,
        );
        pin(
            &ClassifierConfig::default(),
            r#"{"elbow_min_gain":2e-2,"k_max":10,"k_per_group":null,"seed":2013,"split_by_duration":true}"#,
        );
        pin(
            &ClassifierConfig { k_per_group: Some([2, 3, 4]), seed: 42, ..Default::default() },
            r#"{"elbow_min_gain":2e-2,"k_max":10,"k_per_group":[2,3,4],"seed":42,"split_by_duration":true}"#,
        );
        let plan = IntegerPlan { machines: vec![3, 0], quotas: vec![vec![2, 0], vec![0, 5]] };
        pin(&plan, r#"{"machines":[3,0],"quotas":[[2,0],[0,5]]}"#);
        let fc = ClassForecast {
            rates: vec![0.5, 0.25],
            tier: ForecastTier::MovingAverage,
            degraded: Some("ARIMA failed".to_owned()),
        };
        pin(&fc, r#"{"degraded":"ARIMA failed","rates":[5e-1,2.5e-1],"tier":"MovingAverage"}"#);
        pin(
            &ClassForecast { rates: vec![], tier: ForecastTier::Arima, degraded: None },
            r#"{"degraded":null,"rates":[],"tier":"Arima"}"#,
        );
        let state = crate::OnlineState {
            ticks: 4,
            errors: 1,
            histories: vec![vec![0.5, 1.0], vec![]],
            last_plan: Some(plan),
            pending_events: vec![harmony_sim::DegradationEvent {
                at: harmony_model::SimTime::from_secs(600.0),
                kind: harmony_sim::DegradationKind::LpGreedyFallback,
                detail: "pivot budget".to_owned(),
            }],
            lp_basis: None,
        };
        pin(
            &state,
            r#"{"errors":1,"histories":[[5e-1,1],[]],"last_plan":{"machines":[3,0],"quotas":[[2,0],[0,5]]},"lp_basis":null,"pending_events":[{"at":600,"detail":"pivot budget","kind":"LpGreedyFallback"}],"ticks":4}"#,
        );
    }

    #[test]
    fn harmony_config_roundtrip() {
        let config = HarmonyConfig {
            horizon: 7,
            epsilon: 0.05,
            pipeline_workers: Some(3),
            ..Default::default()
        };
        let text = serde_json::to_string(&config).unwrap();
        let back: HarmonyConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, config);
        back.validate().unwrap();
    }

    #[test]
    fn config_without_pipeline_workers_field_still_loads() {
        // Checkpoints from before the parallel pipeline existed have no
        // pipeline_workers key; they must deserialize to None.
        let mut v = HarmonyConfig::default().to_value();
        if let Value::Object(map) = &mut v {
            map.remove("pipeline_workers");
        }
        let back = HarmonyConfig::from_value(&v).unwrap();
        assert_eq!(back.pipeline_workers, None);
    }

    /// A default config as checkpoints wrote it while the LP engine was
    /// selectable: an "lp_backend" key naming the engine.
    const WRITTEN_WITH_LP_BACKEND: &str = concat!(
        r#"{"arima_min_history":24,"control_period":600,"demand_margin":1.25e0,"#,
        r#""epsilon":1e-1,"history_len":288,"horizon":4,"lp_backend":"ENGINE","#,
        r#""max_lp_pivots":20000,"omega":1.1e0,"pipeline_workers":null,"#,
        r#""slo_delay_secs":[600,120,15],"utility_per_container_hour":[2e-2,6e-2,2.5e-1]}"#,
    );

    #[test]
    fn config_without_lp_backend_field_defaults_to_sparse() {
        // The sparse engine is the only one left, so the config no longer
        // names it: a default config writes no lp_backend key, and a
        // checkpoint without the key loads as the default.
        let without = WRITTEN_WITH_LP_BACKEND.replace(r#""lp_backend":"ENGINE","#, "");
        assert_eq!(serde_json::to_string(&HarmonyConfig::default()).unwrap(), without);
        let back: HarmonyConfig = serde_json::from_str(&without).unwrap();
        assert_eq!(back, HarmonyConfig::default());
    }

    #[test]
    fn config_lp_backend_roundtrips_both_ways() {
        // Checkpoints naming either retired engine choice must load as if
        // the key were absent, and write back without it.
        let without = WRITTEN_WITH_LP_BACKEND.replace(r#""lp_backend":"ENGINE","#, "");
        let expected: HarmonyConfig = serde_json::from_str(&without).unwrap();
        for engine in ["dense", "sparse"] {
            let back: HarmonyConfig =
                serde_json::from_str(&WRITTEN_WITH_LP_BACKEND.replace("ENGINE", engine)).unwrap();
            assert_eq!(back, expected, "lp_backend {engine}");
            assert_eq!(serde_json::to_string(&back).unwrap(), without, "lp_backend {engine}");
        }
    }

    #[test]
    fn classifier_config_roundtrip() {
        let config = ClassifierConfig {
            k_per_group: Some([2, 3, 4]),
            seed: 42,
            ..ClassifierConfig::default()
        };
        let text = serde_json::to_string(&config).unwrap();
        let back: ClassifierConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(back, config);
        let config = ClassifierConfig::default();
        let back = ClassifierConfig::from_value(&config.to_value()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn integer_plan_roundtrip() {
        let plan = IntegerPlan {
            machines: vec![3, 0, 1],
            quotas: vec![vec![2, 0], vec![0, 0], vec![0, 5]],
        };
        let back = IntegerPlan::from_value(&plan.to_value()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn class_forecast_roundtrip() {
        let fc = ClassForecast {
            rates: vec![0.5, 0.25],
            tier: ForecastTier::MovingAverage,
            degraded: Some("ARIMA failed".to_owned()),
        };
        let back = ClassForecast::from_value(&fc.to_value()).unwrap();
        assert_eq!(back, fc);
        let fc = ClassForecast { rates: vec![], tier: ForecastTier::Arima, degraded: None };
        let back = ClassForecast::from_value(&fc.to_value()).unwrap();
        assert_eq!(back, fc);
    }

    #[test]
    fn bad_slo_arity_rejected() {
        let mut v = HarmonyConfig::default().to_value();
        if let Value::Object(map) = &mut v {
            map.insert("slo_delay_secs".to_owned(), Value::Array(vec![Value::Number(1.0)]));
        }
        assert!(HarmonyConfig::from_value(&v).is_err());
    }
}
