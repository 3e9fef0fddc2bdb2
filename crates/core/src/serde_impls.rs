//! Hand-written serde impls for the controller-state types that cross a
//! serialization boundary (daemon checkpoints, the wire protocol).
//!
//! The vendored `serde` stand-in has no derive machinery, so
//! [`HarmonyConfig`], [`IntegerPlan`], and [`ClassForecast`] implement
//! the value-model traits explicitly here, matching the field-keyed
//! object encoding the upstream derives would produce.

use harmony_model::SimDuration;
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

use crate::classify::ClassifierConfig;
use crate::monitor::ClassForecast;
use crate::rounding::IntegerPlan;
use crate::HarmonyConfig;

fn array3(v: &Value, what: &str) -> Result<[f64; 3], DeError> {
    Vec::<f64>::from_value(v)?
        .try_into()
        .map_err(|_| DeError::new(format!("{what} must have exactly 3 entries")))
}

impl Serialize for HarmonyConfig {
    fn to_value(&self) -> Value {
        Value::object(&[
            ("control_period", self.control_period.to_value()),
            ("horizon", self.horizon.to_value()),
            ("epsilon", self.epsilon.to_value()),
            ("omega", self.omega.to_value()),
            ("slo_delay_secs", self.slo_delay_secs.to_vec().to_value()),
            (
                "utility_per_container_hour",
                self.utility_per_container_hour.to_vec().to_value(),
            ),
            ("history_len", self.history_len.to_value()),
            ("arima_min_history", self.arima_min_history.to_value()),
            ("demand_margin", self.demand_margin.to_value()),
            ("max_lp_pivots", self.max_lp_pivots.to_value()),
            (
                "pipeline_workers",
                match self.pipeline_workers {
                    Some(w) => w.to_value(),
                    None => Value::Null,
                },
            ),
        ])
    }
}

impl Deserialize for HarmonyConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(HarmonyConfig {
            control_period: SimDuration::from_value(v.field("control_period")?)?,
            horizon: usize::from_value(v.field("horizon")?)?,
            epsilon: f64::from_value(v.field("epsilon")?)?,
            omega: f64::from_value(v.field("omega")?)?,
            slo_delay_secs: array3(v.field("slo_delay_secs")?, "slo_delay_secs")?,
            utility_per_container_hour: array3(
                v.field("utility_per_container_hour")?,
                "utility_per_container_hour",
            )?,
            history_len: usize::from_value(v.field("history_len")?)?,
            arima_min_history: usize::from_value(v.field("arima_min_history")?)?,
            demand_margin: f64::from_value(v.field("demand_margin")?)?,
            max_lp_pivots: usize::from_value(v.field("max_lp_pivots")?)?,
            // Tolerate checkpoints written before this field existed.
            pipeline_workers: match v.field("pipeline_workers") {
                Ok(Value::Null) | Err(_) => None,
                Ok(other) => Some(usize::from_value(other)?),
            },
        })
    }
}

impl Serialize for ClassifierConfig {
    fn to_value(&self) -> Value {
        let k_per_group = match &self.k_per_group {
            Some(ks) => ks.to_vec().to_value(),
            None => Value::Null,
        };
        Value::object(&[
            ("k_per_group", k_per_group),
            ("k_max", self.k_max.to_value()),
            ("elbow_min_gain", self.elbow_min_gain.to_value()),
            ("split_by_duration", self.split_by_duration.to_value()),
            ("seed", self.seed.to_value()),
        ])
    }
}

impl Deserialize for ClassifierConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let k_per_group = match v.field("k_per_group")? {
            Value::Null => None,
            other => Some(Vec::<usize>::from_value(other)?.try_into().map_err(|_| {
                DeError::new("k_per_group must have exactly 3 entries".to_owned())
            })?),
        };
        Ok(ClassifierConfig {
            k_per_group,
            k_max: usize::from_value(v.field("k_max")?)?,
            elbow_min_gain: f64::from_value(v.field("elbow_min_gain")?)?,
            split_by_duration: bool::from_value(v.field("split_by_duration")?)?,
            seed: u64::from_value(v.field("seed")?)?,
        })
    }
}

impl Serialize for IntegerPlan {
    fn to_value(&self) -> Value {
        Value::object(&[("machines", self.machines.to_value()), ("quotas", self.quotas.to_value())])
    }
}

impl Deserialize for IntegerPlan {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(IntegerPlan {
            machines: Vec::from_value(v.field("machines")?)?,
            quotas: Vec::from_value(v.field("quotas")?)?,
        })
    }
}

impl Serialize for ClassForecast {
    fn to_value(&self) -> Value {
        Value::object(&[
            ("rates", self.rates.to_value()),
            ("tier", self.tier.to_value()),
            ("degraded", self.degraded.to_value()),
        ])
    }
}

impl Deserialize for ClassForecast {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(ClassForecast {
            rates: Vec::from_value(v.field("rates")?)?,
            tier: Deserialize::from_value(v.field("tier")?)?,
            degraded: Option::from_value(v.field("degraded")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_sim::ForecastTier;

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
        let plan = IntegerPlan { machines: vec![3, 0, 1], quotas: vec![vec![2, 0], vec![0, 0], vec![0, 5]] };
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
