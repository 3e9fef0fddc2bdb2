//! Hand-written serde impls for the pricing types that cross a
//! serialization boundary (checkpoints, bench artifacts).
//!
//! The vendored `serde` stand-in has no derive machinery, so the value
//! model is implemented explicitly, matching what upstream derives
//! would emit: structs are objects keyed by field name, unit enums are
//! strings. Deserialization funnels through the validating
//! constructors, so a corrupted artifact can never smuggle in a
//! negative rate or a non-concave curve.

use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

use crate::book::{MarketPolicy, PriceBook, SpotPrice, SpotPriceSeries, TypePrice};
use crate::slo::SloCostCurve;
use crate::spot::SpotMarket;

impl Serialize for MarketPolicy {
    fn to_value(&self) -> Value {
        match self {
            MarketPolicy::OnDemandOnly => "OnDemandOnly".to_value(),
            MarketPolicy::SpotAware => "SpotAware".to_value(),
        }
    }
}

impl Deserialize for MarketPolicy {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_str() {
            Some("OnDemandOnly") => Ok(MarketPolicy::OnDemandOnly),
            Some("SpotAware") => Ok(MarketPolicy::SpotAware),
            _ => Err(DeError::new("unknown MarketPolicy")),
        }
    }
}

impl Serialize for SpotPriceSeries {
    fn to_value(&self) -> Value {
        Value::object(&[("multipliers", self.multipliers().to_vec().to_value())])
    }
}

impl Deserialize for SpotPriceSeries {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let multipliers = Vec::<f64>::from_value(v.field("multipliers")?)?;
        SpotPriceSeries::from_multipliers(multipliers).map_err(|e| DeError::new(e.to_string()))
    }
}

impl Serialize for SpotPrice {
    fn to_value(&self) -> Value {
        Value::object(&[
            ("base_per_hour", self.base_per_hour.to_value()),
            ("series", self.series.to_value()),
            ("eviction_rate_per_hour", self.eviction_rate_per_hour.to_value()),
            (
                "interruption_overhead_hours",
                self.interruption_overhead_hours.to_value(),
            ),
        ])
    }
}

impl Deserialize for SpotPrice {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(SpotPrice {
            base_per_hour: f64::from_value(v.field("base_per_hour")?)?,
            series: SpotPriceSeries::from_value(v.field("series")?)?,
            eviction_rate_per_hour: f64::from_value(v.field("eviction_rate_per_hour")?)?,
            interruption_overhead_hours: f64::from_value(
                v.field("interruption_overhead_hours")?,
            )?,
        })
    }
}

impl Serialize for TypePrice {
    fn to_value(&self) -> Value {
        let spot = match &self.spot {
            Some(s) => s.to_value(),
            None => Value::Null,
        };
        Value::object(&[
            ("on_demand_per_hour", self.on_demand_per_hour.to_value()),
            ("spot", spot),
        ])
    }
}

impl Deserialize for TypePrice {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let spot = match v.field("spot")? {
            Value::Null => None,
            other => Some(SpotPrice::from_value(other)?),
        };
        Ok(TypePrice {
            on_demand_per_hour: f64::from_value(v.field("on_demand_per_hour")?)?,
            spot,
        })
    }
}

impl Serialize for PriceBook {
    fn to_value(&self) -> Value {
        let rates = Value::Array(self.rates().iter().map(Serialize::to_value).collect());
        Value::object(&[("rates", rates)])
    }
}

impl Deserialize for PriceBook {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let rates = Vec::<TypePrice>::from_value(v.field("rates")?)?;
        PriceBook::new(rates).map_err(|e| DeError::new(e.to_string()))
    }
}

impl Serialize for SloCostCurve {
    fn to_value(&self) -> Value {
        Value::object(&[
            ("critical_fraction", self.critical_fraction.to_value()),
            ("critical_per_hour", self.critical_per_hour.to_value()),
            ("tail_per_hour", self.tail_per_hour.to_value()),
        ])
    }
}

impl Deserialize for SloCostCurve {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        SloCostCurve::new(
            f64::from_value(v.field("critical_fraction")?)?,
            f64::from_value(v.field("critical_per_hour")?)?,
            f64::from_value(v.field("tail_per_hour")?)?,
        )
        .map_err(|e| DeError::new(e.to_string()))
    }
}

impl Serialize for SpotMarket {
    fn to_value(&self) -> Value {
        Value::object(&[("seed", self.seed().to_value())])
    }
}

impl Deserialize for SpotMarket {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(SpotMarket::new(u64::from_value(v.field("seed")?)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::MachineCatalog;

    #[test]
    fn book_round_trips_through_json_text() {
        let book = PriceBook::default_for(&MachineCatalog::table2_with_accel(), 2013);
        let text = serde_json::to_string(&book).unwrap();
        let back: PriceBook = serde_json::from_str(&text).unwrap();
        assert_eq!(back, book);
    }

    #[test]
    fn corrupted_rate_rejected_on_read() {
        let book = PriceBook::default_for(&MachineCatalog::table2(), 1);
        let mut v = book.to_value();
        if let Value::Object(map) = &mut v {
            if let Some(Value::Array(rates)) = map.get_mut("rates") {
                if let Some(Value::Object(first)) = rates.first_mut() {
                    first.insert("on_demand_per_hour".to_owned(), Value::Number(-1.0));
                }
            }
        }
        assert!(PriceBook::from_value(&v).is_err());
    }

    #[test]
    fn policy_and_market_round_trip() {
        for p in [MarketPolicy::OnDemandOnly, MarketPolicy::SpotAware] {
            assert_eq!(MarketPolicy::from_value(&p.to_value()).unwrap(), p);
        }
        assert!(MarketPolicy::from_value(&Value::String("Nope".into())).is_err());
        let m = SpotMarket::new(99);
        assert_eq!(SpotMarket::from_value(&m.to_value()).unwrap(), m);
    }
}
