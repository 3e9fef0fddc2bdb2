//! Top-level HARMONY configuration.

use harmony_model::{PriorityGroup, SimDuration};
use serde::{Deserialize, Serialize};

use crate::HarmonyError;

/// Calibration of the HARMONY control loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarmonyConfig {
    /// Control period (the formulation's time-interval length).
    pub control_period: SimDuration,
    /// MPC horizon `W` in control periods.
    pub horizon: usize,
    /// Machine-capacity violation budget ε for container sizing (Eq. 3).
    pub epsilon: f64,
    /// Over-provisioning factor ω ≥ 1 compensating bin-packing
    /// inefficiency (Eq. 17).
    pub omega: f64,
    /// SLO: target mean scheduling delay (seconds) per priority group,
    /// indexed by [`PriorityGroup::index`].
    pub slo_delay_secs: [f64; 3],
    /// Scheduling utility in dollars per container-hour per priority
    /// group — the slope of the (linear-capped) `f_n`.
    pub utility_per_container_hour: [f64; 3],
    /// How many control periods of arrival history to keep for the
    /// predictor.
    pub history_len: usize,
    /// Minimum history before trusting the ARIMA predictor (falls back
    /// to a moving average below this).
    pub arima_min_history: usize,
    /// Safety margin multiplied onto predicted arrival rates.
    pub demand_margin: f64,
    /// Hard simplex pivot budget for one CBS-RELAX solve. A pathological
    /// instance hits [`harmony_lp::LpError::IterationLimit`] instead of
    /// stalling the control loop; the controller then walks its
    /// degradation ladder (previous plan → greedy sizing → hold).
    pub max_lp_pivots: usize,
    /// Has no effect: the control period runs on the caller's thread
    /// (DESIGN §10.3). Kept so configurations and checkpoints that set
    /// it still load; `Some(0)` is still rejected by
    /// [`HarmonyConfig::validate`], and a missing key loads as `None`.
    #[serde(default)]
    pub pipeline_workers: Option<usize>,
}

impl Default for HarmonyConfig {
    fn default() -> Self {
        HarmonyConfig {
            control_period: SimDuration::from_mins(10.0),
            horizon: 4,
            epsilon: 0.10,
            omega: 1.1,
            // Production wants near-immediate scheduling; gratis tolerates
            // queueing (Section III-B / Fig. 4).
            slo_delay_secs: [600.0, 120.0, 15.0],
            utility_per_container_hour: [0.02, 0.06, 0.25],
            history_len: 288,
            arima_min_history: 24,
            demand_margin: 1.25,
            max_lp_pivots: 20_000,
            pipeline_workers: None,
        }
    }
}

impl HarmonyConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HarmonyError::InvalidConfig`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), HarmonyError> {
        if self.control_period.as_secs() <= 0.0 {
            return Err(HarmonyError::InvalidConfig {
                reason: "control period must be positive".into(),
            });
        }
        if self.horizon == 0 {
            return Err(HarmonyError::InvalidConfig { reason: "horizon must be >= 1".into() });
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(HarmonyError::InvalidConfig {
                reason: format!("epsilon must be in (0,1), got {}", self.epsilon),
            });
        }
        if self.omega < 1.0 {
            return Err(HarmonyError::InvalidConfig {
                reason: format!("omega must be >= 1, got {}", self.omega),
            });
        }
        if self.slo_delay_secs.iter().any(|&d| d <= 0.0) {
            return Err(HarmonyError::InvalidConfig {
                reason: "SLO delays must be positive".into(),
            });
        }
        if self.utility_per_container_hour.iter().any(|&u| u <= 0.0) {
            return Err(HarmonyError::InvalidConfig {
                reason: "utilities must be positive".into(),
            });
        }
        if self.demand_margin < 1.0 {
            return Err(HarmonyError::InvalidConfig {
                reason: format!("demand margin must be >= 1, got {}", self.demand_margin),
            });
        }
        if self.max_lp_pivots == 0 {
            return Err(HarmonyError::InvalidConfig {
                reason: "max LP pivots must be >= 1".into(),
            });
        }
        if self.pipeline_workers == Some(0) {
            return Err(HarmonyError::InvalidConfig {
                reason: "pipeline workers must be >= 1 when set".into(),
            });
        }
        Ok(())
    }

    /// SLO delay target for a group.
    pub fn slo_for(&self, group: PriorityGroup) -> f64 {
        self.slo_delay_secs[group.index()]
    }

    /// Utility slope for a group, in dollars per container-hour.
    pub fn utility_for(&self, group: PriorityGroup) -> f64 {
        self.utility_per_container_hour[group.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_ordered() {
        let c = HarmonyConfig::default();
        c.validate().unwrap();
        // Production has the tightest SLO and the highest utility.
        assert!(c.slo_for(PriorityGroup::Production) < c.slo_for(PriorityGroup::Gratis));
        assert!(c.utility_for(PriorityGroup::Production) > c.utility_for(PriorityGroup::Gratis));
    }

    #[test]
    fn validation_catches_each_field() {
        let base = HarmonyConfig::default();
        let mut c = base.clone();
        c.horizon = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.epsilon = 1.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.omega = 0.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.slo_delay_secs[1] = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.utility_per_container_hour[0] = -1.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.demand_margin = 0.9;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.max_lp_pivots = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.pipeline_workers = Some(0);
        assert!(c.validate().is_err());
        c.pipeline_workers = Some(4);
        assert!(c.validate().is_ok());
        let mut c = base;
        c.control_period = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }
}
