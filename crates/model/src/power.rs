//! Machine power models and electricity prices.
//!
//! The paper estimates total energy usage of a physical machine "by a
//! linear function of resource utilization" (Eq. 7):
//!
//! ```text
//! P(u) = E_idle,m + Σ_{r ∈ R} α_{mr} · u_r
//! ```
//!
//! where `E_idle,m` is the idle draw of a type-`m` machine and `α_{mr}` the
//! slope for resource `r`. The energy *cost* at time `t` further multiplies
//! by the run-time electricity price `p_t`.

use crate::{Resources, SimDuration, SimTime};

/// Linear utilization→power model for one machine type (Eq. 7).
///
/// # Examples
///
/// ```
/// use harmony_model::{PowerModel, Resources};
///
/// let model = PowerModel::new(100.0, Resources::new(150.0, 40.0));
/// assert_eq!(model.power_watts(Resources::ZERO), 100.0);
/// assert_eq!(model.power_watts(Resources::new(1.0, 0.5)), 270.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Idle draw `E_idle,m` in watts.
    pub idle_watts: f64,
    /// Per-resource slope `α_{mr}` in watts at 100% utilization of each
    /// dimension.
    pub alpha_watts: Resources,
}

impl PowerModel {
    /// Creates a linear power model from idle draw and per-resource slopes.
    pub fn new(idle_watts: f64, alpha_watts: Resources) -> Self {
        PowerModel { idle_watts, alpha_watts }
    }

    /// Instantaneous draw in watts at the given utilization vector
    /// (components in `[0, 1]`).
    pub fn power_watts(&self, utilization: Resources) -> f64 {
        self.idle_watts
            + self.alpha_watts.cpu * utilization.cpu
            + self.alpha_watts.mem * utilization.mem
    }

    /// Peak draw at 100% utilization of every resource.
    pub fn peak_watts(&self) -> f64 {
        self.power_watts(Resources::ONE)
    }

    /// Energy in watt-hours for holding `utilization` for `dt`.
    pub fn energy_wh(&self, utilization: Resources, dt: SimDuration) -> f64 {
        self.power_watts(utilization) * dt.as_hours()
    }

    /// Energy efficiency proxy used by the heterogeneity-oblivious baseline
    /// to order machines: normalized capacity delivered per peak watt.
    /// Larger is better.
    pub fn capacity_per_watt(&self, capacity: Resources) -> f64 {
        capacity.sum_components() / self.peak_watts().max(f64::MIN_POSITIVE)
    }
}

/// A run-time electricity price curve `p_t` in $/kWh.
///
/// The paper's formulation carries a time-varying price; its evaluation
/// does not publish the curve, so we support both a flat price and a
/// day/night time-of-use tariff.
#[derive(Debug, Clone, PartialEq)]
pub enum EnergyPrice {
    /// A constant price in $/kWh.
    Flat(f64),
    /// A two-level tariff that repeats daily: `peak` applies between
    /// `peak_start_hour` (inclusive) and `peak_end_hour` (exclusive) of
    /// each simulated day, `off_peak` otherwise.
    TimeOfUse {
        /// Price during peak hours in $/kWh.
        peak: f64,
        /// Price outside peak hours in $/kWh.
        off_peak: f64,
        /// Hour of day (0–24) when the peak period starts.
        peak_start_hour: f64,
        /// Hour of day (0–24) when the peak period ends.
        peak_end_hour: f64,
    },
}

impl EnergyPrice {
    /// The price in effect at instant `t`, in $/kWh.
    pub fn price_at(&self, t: SimTime) -> f64 {
        match *self {
            EnergyPrice::Flat(p) => p,
            EnergyPrice::TimeOfUse { peak, off_peak, peak_start_hour, peak_end_hour } => {
                let hour = t.as_hours() % 24.0;
                if hour >= peak_start_hour && hour < peak_end_hour {
                    peak
                } else {
                    off_peak
                }
            }
        }
    }

    /// Cost in dollars of consuming `wh` watt-hours at instant `t`.
    pub fn cost_of_wh(&self, wh: f64, t: SimTime) -> f64 {
        self.price_at(t) * wh / 1000.0
    }
}

impl Default for EnergyPrice {
    /// A flat $0.10/kWh tariff.
    fn default() -> Self {
        EnergyPrice::Flat(0.10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_power_model() {
        let m = PowerModel::new(50.0, Resources::new(100.0, 20.0));
        assert_eq!(m.power_watts(Resources::ZERO), 50.0);
        assert_eq!(m.power_watts(Resources::new(0.5, 0.5)), 110.0);
        assert_eq!(m.peak_watts(), 170.0);
    }

    #[test]
    fn energy_integrates_over_time() {
        let m = PowerModel::new(100.0, Resources::ZERO);
        let wh = m.energy_wh(Resources::ZERO, SimDuration::from_hours(2.0));
        assert!((wh - 200.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_per_watt_prefers_efficient_machines() {
        let small_efficient = PowerModel::new(30.0, Resources::new(30.0, 10.0));
        let big_hungry = PowerModel::new(500.0, Resources::new(300.0, 100.0));
        let cap_small = Resources::new(0.1, 0.1);
        let cap_big = Resources::new(1.0, 1.0);
        assert!(
            small_efficient.capacity_per_watt(cap_small)
                > big_hungry.capacity_per_watt(cap_big) / 2.0
        );
    }

    #[test]
    fn flat_price_is_time_invariant() {
        let p = EnergyPrice::Flat(0.08);
        assert_eq!(p.price_at(SimTime::ZERO), 0.08);
        assert_eq!(p.price_at(SimTime::from_hours(37.0)), 0.08);
        // 1 kWh at $0.08/kWh costs $0.08.
        assert!((p.cost_of_wh(1000.0, SimTime::ZERO) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn time_of_use_switches_daily() {
        let p = EnergyPrice::TimeOfUse {
            peak: 0.20,
            off_peak: 0.05,
            peak_start_hour: 8.0,
            peak_end_hour: 20.0,
        };
        assert_eq!(p.price_at(SimTime::from_hours(12.0)), 0.20);
        assert_eq!(p.price_at(SimTime::from_hours(2.0)), 0.05);
        assert_eq!(p.price_at(SimTime::from_hours(20.0)), 0.05);
        // Repeats the next day.
        assert_eq!(p.price_at(SimTime::from_hours(36.0)), 0.20);
    }

    #[test]
    fn default_price_is_flat() {
        assert_eq!(EnergyPrice::default(), EnergyPrice::Flat(0.10));
    }
}
