//! The spot market: turns a price book into a reproducible schedule of
//! capacity reclaims, delivered through the simulator's fault machinery.

use harmony_model::{MachineCatalog, SimDuration, SimTime, SplitMix64};
use harmony_sim::{FaultKind, FaultPlan};
use serde::{Deserialize, Serialize};

use crate::book::PriceBook;

/// A seeded spot market. The market itself holds no price state — it
/// reads eviction rates from a [`PriceBook`] and emits when (and how
/// hard) each spot pool reclaims capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpotMarket {
    seed: u64,
}

impl SpotMarket {
    /// A market with the given event-schedule seed.
    pub fn new(seed: u64) -> Self {
        SpotMarket { seed }
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the reclaim schedule for one run of `span` against
    /// `catalog`: for every type `book` prices with a spot pool, reclaim
    /// events arrive as a Poisson process whose rate scales with the
    /// type's `eviction_rate_per_hour` and (sub-linearly) its
    /// population, each taking 1–3 machines down for 10–30 minutes.
    /// The same market, book, catalog, and span always produce the same
    /// plan; the plan's victim-selection seed is derived from this
    /// market's seed, so full runs are reproducible end to end.
    pub fn eviction_plan(
        &self,
        book: &PriceBook,
        catalog: &MachineCatalog,
        span: SimDuration,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed ^ 0x5B07_5B07_5B07_5B07);
        let span_hours = span.as_secs() / 3600.0;
        for ty in catalog.iter() {
            let Some(spot) = book.get(ty.id).and_then(|t| t.spot.as_ref()) else {
                continue;
            };
            // Event rate: per-machine reclaim rate aggregated over the
            // pool, damped so huge pools see storms, not annihilation.
            let pool = ty.count as f64;
            let rate_per_hour = spot.eviction_rate_per_hour * pool.sqrt();
            let mut rng = SplitMix64::new(self.seed ^ (ty.id.0 as u64).wrapping_mul(0x9E3779B9));
            let mut t_hours = rng.exponential(rate_per_hour);
            while t_hours < span_hours {
                plan = plan.with_event(
                    SimTime::from_secs(t_hours * 3600.0),
                    FaultKind::SpotEviction {
                        machine_type: ty.id,
                        count: 1 + rng.below(3),
                        down: SimDuration::from_secs(rng.range(600.0, 1800.0)),
                    },
                );
                t_hours += rng.exponential(rate_per_hour);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::MachineTypeId;

    #[test]
    fn plans_are_reproducible_and_typed() {
        let catalog = MachineCatalog::table2_with_accel();
        let book = PriceBook::default_for(&catalog, 2013);
        let market = SpotMarket::new(5);
        let span = SimDuration::from_hours(4.0);
        let a = market.eviction_plan(&book, &catalog, span);
        let b = market.eviction_plan(&book, &catalog, span);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "spot pools must see reclaims over 4h");
        assert_ne!(a, SpotMarket::new(6).eviction_plan(&book, &catalog, span));
        for ev in a.events() {
            assert!(ev.at.as_secs() >= 0.0 && ev.at.as_secs() <= span.as_secs());
            match ev.kind {
                FaultKind::SpotEviction { machine_type, count, down } => {
                    // Only spot-priced types are ever reclaimed — never
                    // the on-demand-only R210.
                    assert_ne!(machine_type, MachineTypeId(0));
                    assert!((1..=3).contains(&count));
                    assert!(down.as_secs() >= 600.0 && down.as_secs() <= 1800.0);
                }
                other => panic!("market emitted a non-spot fault: {other:?}"),
            }
        }
    }

    #[test]
    fn on_demand_only_book_yields_empty_plan() {
        let catalog = MachineCatalog::table2();
        // A book with no spot pools at all.
        let rates = catalog
            .iter()
            .map(|_| crate::book::TypePrice { on_demand_per_hour: 1.0, spot: None })
            .collect();
        let book = PriceBook::new(rates).unwrap();
        let plan = SpotMarket::new(1).eviction_plan(&book, &catalog, SimDuration::from_hours(8.0));
        assert!(plan.is_empty());
    }
}
