//! Monetary SLO-cost curves: what a container-hour of served demand is
//! worth, in dollars, per task class.

use harmony_model::PriorityGroup;
use serde::Serialize;

use crate::error::PricingError;

/// A two-segment concave dollars-per-container-hour curve for one class.
///
/// The first `critical_fraction` of a class's demand is worth
/// `critical_per_hour` $/container-hour — leaving it unserved breaches
/// the SLO outright. The remaining tail is worth the lower
/// `tail_per_hour` — elastic demand whose violation costs less. The
/// dollar objective prices it in the LP as the critical slope on every
/// assignment plus one excess column refunding `critical − tail` past
/// the head, where the energy objective uses its flat
/// `utility_per_container_hour`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloCostCurve {
    /// Fraction of demand in the critical segment, in `(0, 1]`.
    pub critical_fraction: f64,
    /// $/container-hour for the critical segment.
    pub critical_per_hour: f64,
    /// $/container-hour for the elastic tail (≤ critical).
    pub tail_per_hour: f64,
}

impl SloCostCurve {
    /// Builds a curve, validating concavity and finiteness.
    ///
    /// # Errors
    ///
    /// Rejects fractions outside `(0, 1]`, negative or non-finite
    /// dollars, and `tail > critical` (the curve must be concave).
    pub fn new(
        critical_fraction: f64,
        critical_per_hour: f64,
        tail_per_hour: f64,
    ) -> Result<Self, PricingError> {
        if !(critical_fraction > 0.0 && critical_fraction <= 1.0) {
            return Err(PricingError::InvalidCurve {
                reason: format!("critical_fraction {critical_fraction} not in (0, 1]"),
            });
        }
        for (what, v) in [("critical_per_hour", critical_per_hour), ("tail_per_hour", tail_per_hour)]
        {
            if !v.is_finite() || v < 0.0 {
                return Err(PricingError::InvalidCurve {
                    reason: format!("{what} {v} must be finite and non-negative"),
                });
            }
        }
        if tail_per_hour > critical_per_hour {
            return Err(PricingError::InvalidCurve {
                reason: format!(
                    "tail {tail_per_hour} exceeds critical {critical_per_hour}: not concave"
                ),
            });
        }
        Ok(SloCostCurve { critical_fraction, critical_per_hour, tail_per_hour })
    }

    /// Default curves per priority group, scaled from the energy
    /// objective's utilities: production violations are an order of
    /// magnitude costlier than gratis ones, and the critical segment
    /// grows with priority.
    #[expect(clippy::expect_used, reason = "Invariant: the literals below satisfy new()'s checks.")]
    pub fn default_for_group(group: PriorityGroup) -> Self {
        let (frac, critical, tail) = match group {
            PriorityGroup::Gratis => (0.50, 0.04, 0.01),
            PriorityGroup::Other => (0.70, 0.12, 0.04),
            // Production is priced high enough that holding headroom
            // beats shaving rental even on large fleets, where spot
            // evictions would otherwise erode the delay SLO.
            PriorityGroup::Production => (0.90, 1.50, 0.45),
        };
        SloCostCurve::new(frac, critical, tail).expect("default curves are statically valid")
    }

    /// Splits a demand of `width` containers into concave
    /// `(width, $/container-hour)` segments for the LP. Zero-width
    /// segments are dropped; an empty vector means zero demand.
    pub fn utility_segments(&self, width: f64) -> Vec<(f64, f64)> {
        if width <= 0.0 {
            return Vec::new();
        }
        let critical = width * self.critical_fraction;
        let tail = width - critical;
        let mut segs = Vec::with_capacity(2);
        if critical > 0.0 {
            segs.push((critical, self.critical_per_hour));
        }
        if tail > 0.0 {
            segs.push((tail, self.tail_per_hour));
        }
        segs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_by_priority() {
        let g = SloCostCurve::default_for_group(PriorityGroup::Gratis);
        let o = SloCostCurve::default_for_group(PriorityGroup::Other);
        let p = SloCostCurve::default_for_group(PriorityGroup::Production);
        assert!(g.critical_per_hour < o.critical_per_hour);
        assert!(o.critical_per_hour < p.critical_per_hour);
        assert!(g.critical_fraction < p.critical_fraction);
    }

    #[test]
    fn segments_cover_width_and_stay_concave() {
        let c = SloCostCurve::new(0.75, 0.4, 0.1).unwrap();
        let segs = c.utility_segments(8.0);
        assert_eq!(segs.len(), 2);
        let total: f64 = segs.iter().map(|(w, _)| w).sum();
        assert!((total - 8.0).abs() < 1e-12);
        assert!(segs[0].1 >= segs[1].1);
        // Full-critical curve collapses to one segment; zero width to none.
        let full = SloCostCurve::new(1.0, 0.4, 0.1).unwrap();
        assert_eq!(full.utility_segments(3.0), vec![(3.0, 0.4)]);
        assert!(c.utility_segments(0.0).is_empty());
    }

    #[test]
    fn validation_rejects_bad_curves() {
        assert!(SloCostCurve::new(0.0, 0.4, 0.1).is_err());
        assert!(SloCostCurve::new(1.5, 0.4, 0.1).is_err());
        assert!(SloCostCurve::new(0.5, 0.1, 0.4).is_err());
        assert!(SloCostCurve::new(0.5, f64::NAN, 0.1).is_err());
        assert!(SloCostCurve::new(0.5, 0.4, -0.1).is_err());
    }
}
