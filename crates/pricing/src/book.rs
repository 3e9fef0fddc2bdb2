//! Per-machine-type $/hour rates: on-demand, spot, and the planning
//! rates the dollar objective feeds into the LP.

use harmony_model::{MachineCatalog, MachineTypeId, SimTime, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::error::PricingError;

/// How much of the market a plan may use when pricing capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MarketPolicy {
    /// Rent everything at the on-demand rate; spot prices are ignored.
    OnDemandOnly,
    /// Use spot capacity whenever its risk-adjusted rate undercuts
    /// on-demand.
    SpotAware,
}

impl MarketPolicy {
    /// Stable lowercase name (used in artifacts and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            MarketPolicy::OnDemandOnly => "on-demand",
            MarketPolicy::SpotAware => "spot-aware",
        }
    }
}

/// Number of hourly steps in a [`SpotPriceSeries`] day.
pub const SPOT_SERIES_HOURS: usize = 24;

/// A daily-repeating series of hourly spot-price multipliers, generated
/// as a seeded bounded random walk. Multiplier 1.0 means the spot base
/// rate; the walk stays within `[0.7, 1.6]`, the diurnal band public
/// spot-price histories show.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpotPriceSeries {
    multipliers: Vec<f64>,
}

impl SpotPriceSeries {
    /// Generates the daily multiplier walk for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5907_5907_5907_5907);
        let mut multipliers = Vec::with_capacity(SPOT_SERIES_HOURS);
        let mut level = rng.range(0.85, 1.15);
        for _ in 0..SPOT_SERIES_HOURS {
            level = (level + rng.range(-0.12, 0.12)).clamp(0.7, 1.6);
            multipliers.push(level);
        }
        SpotPriceSeries { multipliers }
    }

    /// A flat series (multiplier 1.0 all day) — spot price equals base.
    pub fn flat() -> Self {
        SpotPriceSeries { multipliers: vec![1.0; SPOT_SERIES_HOURS] }
    }

    /// Builds a series from explicit hourly multipliers.
    ///
    /// # Errors
    ///
    /// Rejects series that are not exactly [`SPOT_SERIES_HOURS`] long or
    /// contain non-finite / non-positive multipliers.
    pub fn from_multipliers(multipliers: Vec<f64>) -> Result<Self, PricingError> {
        if multipliers.len() != SPOT_SERIES_HOURS {
            return Err(PricingError::InvalidCurve {
                reason: format!(
                    "spot series needs {SPOT_SERIES_HOURS} hourly multipliers, got {}",
                    multipliers.len()
                ),
            });
        }
        for &m in &multipliers {
            if !m.is_finite() || m <= 0.0 {
                return Err(PricingError::InvalidRate {
                    what: "spot multiplier".to_owned(),
                    value: m,
                });
            }
        }
        Ok(SpotPriceSeries { multipliers })
    }

    /// The hourly multipliers, in hour-of-day order.
    pub fn multipliers(&self) -> &[f64] {
        &self.multipliers
    }

    /// The multiplier in effect at simulation time `at` (the series
    /// repeats daily; negative times clamp to hour 0).
    pub fn multiplier_at(&self, at: SimTime) -> f64 {
        let hours = (at.as_secs() / 3600.0).max(0.0) as usize;
        self.multipliers[hours % SPOT_SERIES_HOURS]
    }
}

/// Spot-market terms for one machine type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpotPrice {
    /// Base spot rate in $/hour (multiplied by the series).
    pub base_per_hour: f64,
    /// Daily multiplier walk applied to the base rate.
    pub series: SpotPriceSeries,
    /// Expected market reclaims per machine-hour on this type.
    pub eviction_rate_per_hour: f64,
    /// Hours of work lost (re-queue, reboot, warm-up) per reclaim,
    /// charged at the on-demand rate when computing the risk premium.
    pub interruption_overhead_hours: f64,
}

impl SpotPrice {
    /// The spot rate in effect at `at`, in $/hour.
    pub fn rate_at(&self, at: SimTime) -> f64 {
        self.base_per_hour * self.series.multiplier_at(at)
    }
}

/// The rates for one machine type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypePrice {
    /// Guaranteed-capacity rate in $/hour.
    pub on_demand_per_hour: f64,
    /// Spot terms, for types the market offers interruptible capacity
    /// on; `None` means on-demand only.
    pub spot: Option<SpotPrice>,
}

/// A rate the planner should charge for one machine-hour, with the
/// market it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateQuote {
    /// Risk-adjusted $/hour the LP should price this type at.
    pub dollars_per_hour: f64,
    /// `true` when the quote is spot capacity (risk premium included).
    pub spot: bool,
}

/// Per-machine-type price book, indexed by [`MachineTypeId`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PriceBook {
    rates: Vec<TypePrice>,
}

impl PriceBook {
    /// Builds a book from per-type rates (index = machine type id).
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive rates and overhead/eviction
    /// terms that are negative or non-finite.
    pub fn new(rates: Vec<TypePrice>) -> Result<Self, PricingError> {
        for ty in &rates {
            if !ty.on_demand_per_hour.is_finite() || ty.on_demand_per_hour <= 0.0 {
                return Err(PricingError::InvalidRate {
                    what: "on_demand_per_hour".to_owned(),
                    value: ty.on_demand_per_hour,
                });
            }
            if let Some(spot) = &ty.spot {
                if !spot.base_per_hour.is_finite() || spot.base_per_hour <= 0.0 {
                    return Err(PricingError::InvalidRate {
                        what: "spot base_per_hour".to_owned(),
                        value: spot.base_per_hour,
                    });
                }
                if !spot.eviction_rate_per_hour.is_finite() || spot.eviction_rate_per_hour < 0.0 {
                    return Err(PricingError::InvalidRate {
                        what: "eviction_rate_per_hour".to_owned(),
                        value: spot.eviction_rate_per_hour,
                    });
                }
                if !spot.interruption_overhead_hours.is_finite()
                    || spot.interruption_overhead_hours < 0.0
                {
                    return Err(PricingError::InvalidRate {
                        what: "interruption_overhead_hours".to_owned(),
                        value: spot.interruption_overhead_hours,
                    });
                }
            }
        }
        Ok(PriceBook { rates })
    }

    /// A deterministic book for `catalog`: on-demand rates follow a
    /// cloud-shaped tariff (a flat per-instance fee plus linear capacity
    /// and accelerator terms, so small machines carry a per-capacity
    /// premium), and every type except the smallest-capacity platforms
    /// gets a spot pool at a deep, seeded discount. This mirrors real
    /// menus, where big and accelerator nodes are the ones with
    /// interruptible pools.
    #[expect(
        clippy::expect_used,
        reason = "Invariant: every generated rate below is positive and finite by construction, so PriceBook::new cannot fail."
    )]
    pub fn default_for(catalog: &MachineCatalog, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xB00C_B00C_B00C_B00C);
        let rates = catalog
            .iter()
            .map(|ty| {
                let cap = ty.capacity;
                let on_demand = 0.055 + 0.45 * cap.cpu + 0.20 * cap.mem + 0.30 * ty.accel_capacity;
                // Spot pools exist for the larger platforms only; tiny
                // instances are on-demand-only, like real menus.
                let spot = if cap.cpu >= 0.2 || ty.accel_capacity > 0.0 {
                    let discount = rng.range(0.26, 0.34);
                    Some(SpotPrice {
                        base_per_hour: on_demand * discount,
                        series: SpotPriceSeries::new(seed ^ ty.id.0 as u64),
                        eviction_rate_per_hour: rng.range(0.02, 0.08),
                        interruption_overhead_hours: 0.25,
                    })
                } else {
                    None
                };
                TypePrice { on_demand_per_hour: on_demand, spot }
            })
            .collect();
        PriceBook::new(rates).expect("generated rates are statically valid")
    }

    /// Number of machine types the book prices.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `true` when the book prices no types.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// The rates for one type, or `None` when out of range.
    pub fn get(&self, ty: MachineTypeId) -> Option<&TypePrice> {
        self.rates.get(ty.0)
    }

    /// The per-type rates in id order.
    pub fn rates(&self) -> &[TypePrice] {
        &self.rates
    }

    /// Checks the book covers every type of `catalog`.
    ///
    /// # Errors
    ///
    /// Returns [`PricingError::CatalogMismatch`] when lengths differ.
    pub fn check_covers(&self, catalog: &MachineCatalog) -> Result<(), PricingError> {
        if self.rates.len() != catalog.len() {
            return Err(PricingError::CatalogMismatch {
                book_types: self.rates.len(),
                catalog_types: catalog.len(),
            });
        }
        Ok(())
    }

    /// The on-demand rate for `ty` in $/hour (0 when out of range —
    /// unpriced types cost nothing, which accounting treats as owned
    /// hardware).
    pub fn on_demand_rate(&self, ty: MachineTypeId) -> f64 {
        self.get(ty).map_or(0.0, |t| t.on_demand_per_hour)
    }

    /// The raw spot rate for `ty` at `at`, when a spot pool exists.
    pub fn spot_rate(&self, ty: MachineTypeId, at: SimTime) -> Option<f64> {
        self.get(ty).and_then(|t| t.spot.as_ref()).map(|s| s.rate_at(at))
    }

    /// The accounting rate a machine-hour of `ty` costs at `at` under
    /// `policy`: on-demand, or the cheaper of on-demand and spot when
    /// the policy may use the spot pool.
    pub fn market_rate(&self, ty: MachineTypeId, at: SimTime, policy: MarketPolicy) -> f64 {
        let od = self.on_demand_rate(ty);
        match policy {
            MarketPolicy::OnDemandOnly => od,
            MarketPolicy::SpotAware => match self.spot_rate(ty, at) {
                Some(spot) => od.min(spot),
                None => od,
            },
        }
    }

    /// The planning rate for the LP: like [`Self::market_rate`], but
    /// spot capacity carries a risk premium — the expected reclaims per
    /// hour times the interruption overhead, charged at the on-demand
    /// rate (the cost of re-running lost work on reliable capacity).
    pub fn planning_rate(&self, ty: MachineTypeId, at: SimTime, policy: MarketPolicy) -> RateQuote {
        let od = self.on_demand_rate(ty);
        let od_quote = RateQuote { dollars_per_hour: od, spot: false };
        if policy == MarketPolicy::OnDemandOnly {
            return od_quote;
        }
        let Some(spot) = self.get(ty).and_then(|t| t.spot.as_ref()) else {
            return od_quote;
        };
        let risky =
            spot.rate_at(at) + spot.eviction_rate_per_hour * spot.interruption_overhead_hours * od;
        if risky < od {
            RateQuote { dollars_per_hour: risky, spot: true }
        } else {
            od_quote
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::SimDuration;

    #[test]
    fn series_is_seeded_bounded_and_daily() {
        let a = SpotPriceSeries::new(7);
        let b = SpotPriceSeries::new(7);
        assert_eq!(a, b);
        assert_ne!(a, SpotPriceSeries::new(8));
        assert_eq!(a.multipliers().len(), SPOT_SERIES_HOURS);
        for &m in a.multipliers() {
            assert!((0.7..=1.6).contains(&m));
        }
        let day = SimTime::ZERO + SimDuration::from_hours(24.0);
        assert_eq!(a.multiplier_at(SimTime::ZERO), a.multiplier_at(day));
        assert_eq!(
            a.multiplier_at(SimTime::from_secs(3600.0 * 3.5)),
            a.multipliers()[3]
        );
    }

    #[test]
    fn default_book_covers_catalog_with_sane_economics() {
        let catalog = harmony_model::MachineCatalog::table2_with_accel();
        let book = PriceBook::default_for(&catalog, 2013);
        assert!(book.check_covers(&catalog).is_ok());
        assert_eq!(book, PriceBook::default_for(&catalog, 2013));
        // The R210 is on-demand-only; big and GPU platforms have spot.
        assert!(book.get(MachineTypeId(0)).unwrap().spot.is_none());
        for i in 1..catalog.len() {
            assert!(book.get(MachineTypeId(i)).unwrap().spot.is_some(), "type {i}");
        }
        // Per-CPU-capacity, the smallest platform is the priciest: the
        // flat instance fee dominates its tiny capacity.
        let per_cpu = |i: usize| {
            book.on_demand_rate(MachineTypeId(i)) / catalog.machine_type(MachineTypeId(i)).capacity.cpu
        };
        for i in 1..4 {
            assert!(per_cpu(0) > per_cpu(i), "R210 premium vs type {i}");
        }
        // Spot undercuts on-demand even with the risk premium.
        let quote = book.planning_rate(MachineTypeId(3), SimTime::ZERO, MarketPolicy::SpotAware);
        assert!(quote.spot);
        assert!(quote.dollars_per_hour < book.on_demand_rate(MachineTypeId(3)));
    }

    #[test]
    fn market_and_planning_rates_respect_policy() {
        let catalog = harmony_model::MachineCatalog::table2();
        let book = PriceBook::default_for(&catalog, 9);
        let ty = MachineTypeId(3);
        let at = SimTime::from_secs(7200.0);
        let od = book.market_rate(ty, at, MarketPolicy::OnDemandOnly);
        assert_eq!(od, book.on_demand_rate(ty));
        assert!(book.market_rate(ty, at, MarketPolicy::SpotAware) <= od);
        let q = book.planning_rate(ty, at, MarketPolicy::OnDemandOnly);
        assert!(!q.spot);
        assert_eq!(q.dollars_per_hour, od);
        // Planning never quotes below the raw spot rate (the premium is
        // non-negative) and never above on-demand.
        let sq = book.planning_rate(ty, at, MarketPolicy::SpotAware);
        assert!(sq.dollars_per_hour >= book.spot_rate(ty, at).unwrap());
        assert!(sq.dollars_per_hour <= od);
        // Out-of-range types are unpriced (owned hardware).
        assert_eq!(book.on_demand_rate(MachineTypeId(99)), 0.0);
        assert!(book.spot_rate(MachineTypeId(99), at).is_none());
    }

    #[test]
    fn validation_rejects_bad_rates() {
        assert!(PriceBook::new(vec![TypePrice { on_demand_per_hour: 0.0, spot: None }]).is_err());
        assert!(PriceBook::new(vec![TypePrice {
            on_demand_per_hour: f64::NAN,
            spot: None
        }])
        .is_err());
        let bad_spot = TypePrice {
            on_demand_per_hour: 1.0,
            spot: Some(SpotPrice {
                base_per_hour: -0.1,
                series: SpotPriceSeries::flat(),
                eviction_rate_per_hour: 0.05,
                interruption_overhead_hours: 0.25,
            }),
        };
        assert!(PriceBook::new(vec![bad_spot]).is_err());
        assert!(SpotPriceSeries::from_multipliers(vec![1.0; 3]).is_err());
        assert!(SpotPriceSeries::from_multipliers(vec![0.0; SPOT_SERIES_HOURS]).is_err());
        assert!(SpotPriceSeries::from_multipliers(vec![1.1; SPOT_SERIES_HOURS]).is_ok());
    }
}
