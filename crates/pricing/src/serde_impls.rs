//! Hand-written `Deserialize` impls for the pricing types whose reads
//! validate: they funnel through the validating constructors, so a
//! corrupted artifact can never smuggle in a negative rate or a
//! non-concave curve. These types derive `Serialize`; the rest of the
//! crate's serialized types derive both traits.

use serde::value::{DeError, Value};
use serde::Deserialize;

use crate::book::{PriceBook, SpotPriceSeries, TypePrice};
use crate::slo::SloCostCurve;

impl Deserialize for SpotPriceSeries {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let multipliers = Vec::<f64>::from_value(v.field("multipliers")?)?;
        SpotPriceSeries::from_multipliers(multipliers).map_err(|e| DeError::new(e.to_string()))
    }
}

impl Deserialize for PriceBook {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let rates = Vec::<TypePrice>::from_value(v.field("rates")?)?;
        PriceBook::new(rates).map_err(|e| DeError::new(e.to_string()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::book::{MarketPolicy, SpotPrice};
    use crate::spot::SpotMarket;
    use harmony_model::MachineCatalog;
    use serde::Serialize;

    /// Asserts that `value` writes exactly `json` and reads back from it.
    fn pin<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, json: &str) {
        let text = serde_json::to_string(value).unwrap();
        assert_eq!(text, json);
        assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value);
    }

    #[test]
    fn encodings_are_pinned() {
        pin(&MarketPolicy::SpotAware, r#""SpotAware""#);
        let spot = SpotPrice {
            base_per_hour: 0.25,
            series: SpotPriceSeries::from_multipliers(vec![0.5; crate::book::SPOT_SERIES_HOURS]).unwrap(),
            eviction_rate_per_hour: 0.125,
            interruption_overhead_hours: 0.5,
        };
        pin(&spot, r#"{"base_per_hour":2.5e-1,"eviction_rate_per_hour":1.25e-1,"interruption_overhead_hours":5e-1,"series":{"multipliers":[5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1]}}"#);
        pin(&TypePrice { on_demand_per_hour: 1.5, spot: Some(spot) }, r#"{"on_demand_per_hour":1.5e0,"spot":{"base_per_hour":2.5e-1,"eviction_rate_per_hour":1.25e-1,"interruption_overhead_hours":5e-1,"series":{"multipliers":[5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1,5e-1]}}}"#);
        pin(&TypePrice { on_demand_per_hour: 2.0, spot: None }, r#"{"on_demand_per_hour":2,"spot":null}"#);
    }

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
