//! Task-class identifiers and per-class statistics.
//!
//! A *task class* is the unit HARMONY provisions for: a cluster of tasks
//! with similar priority group, resource shape, and duration regime
//! (Section V). The clustering algorithm itself lives in `harmony-kmeans`;
//! this module only defines the stable identifier and the summary
//! statistics the queueing and provisioning layers consume.

use std::fmt;

use crate::{PriorityGroup, Resources, SimDuration};

/// Stable identifier of a task class (`n ∈ N` in the formulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TaskClassId(pub usize);

impl fmt::Display for TaskClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// Summary statistics of a task class, sufficient for container sizing
/// (Eq. 3) and the M/G/N delay model (Eq. 1).
///
/// # Examples
///
/// ```
/// use harmony_model::{ClassStats, PriorityGroup, Resources, SimDuration, TaskClassId};
///
/// let stats = ClassStats {
///     id: TaskClassId(0),
///     group: PriorityGroup::Production,
///     mean_demand: Resources::new(0.1, 0.05),
///     std_demand: Resources::new(0.02, 0.01),
///     mean_duration: SimDuration::from_secs(300.0),
///     cv2_duration: 1.5,
///     count: 1000,
/// };
/// // Eq. 3 container size with Z = 2: c = mu + Z * sigma.
/// let c = stats.container_size(2.0);
/// assert_eq!(c, Resources::new(0.14, 0.07));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// The class this summarizes.
    pub id: TaskClassId,
    /// Priority group of the member tasks.
    pub group: PriorityGroup,
    /// Mean resource demand `μ_n` per dimension.
    pub mean_demand: Resources,
    /// Demand standard deviation `σ_n` per dimension.
    pub std_demand: Resources,
    /// Mean task duration (`1/μ_i` service rate in Eq. 1 terms).
    pub mean_duration: SimDuration,
    /// Squared coefficient of variation of duration, `CV²_i` in Eq. 1.
    pub cv2_duration: f64,
    /// Number of member tasks observed when the class was formed.
    pub count: usize,
}

impl ClassStats {
    /// The container reservation from the Gaussian statistical-multiplexing
    /// argument of Section VII-A: `c_nr = μ_nr + Z·σ_nr`, clamped to the
    /// normalized machine range `[0, 1]`.
    pub fn container_size(&self, z: f64) -> Resources {
        (self.mean_demand + self.std_demand * z).clamp_components(1.0)
    }

    /// Mean service rate `μ_i` in tasks per second (reciprocal of mean
    /// duration), or `f64::INFINITY` for an all-instantaneous class.
    pub fn service_rate(&self) -> f64 {
        let d = self.mean_duration.as_secs();
        if d > 0.0 {
            1.0 / d
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ClassStats {
        ClassStats {
            id: TaskClassId(3),
            group: PriorityGroup::Other,
            mean_demand: Resources::new(0.2, 0.1),
            std_demand: Resources::new(0.05, 0.02),
            mean_duration: SimDuration::from_secs(200.0),
            cv2_duration: 2.0,
            count: 42,
        }
    }

    #[test]
    fn container_size_is_mean_plus_z_sigma() {
        let s = stats();
        assert_eq!(s.container_size(0.0), s.mean_demand);
        let c = s.container_size(1.0);
        assert!((c.cpu - 0.25).abs() < 1e-12);
        assert!((c.mem - 0.12).abs() < 1e-12);
    }

    #[test]
    fn container_size_clamps_to_unit_machine() {
        let mut s = stats();
        s.mean_demand = Resources::new(0.9, 0.9);
        s.std_demand = Resources::new(0.5, 0.5);
        assert_eq!(s.container_size(3.0), Resources::ONE);
    }

    #[test]
    fn service_rate_is_reciprocal_duration() {
        let s = stats();
        assert!((s.service_rate() - 0.005).abs() < 1e-12);
        let mut zero = s;
        zero.mean_duration = SimDuration::ZERO;
        assert!(zero.service_rate().is_infinite());
    }

    #[test]
    fn display_id() {
        assert_eq!(format!("{}", TaskClassId(9)), "class#9");
    }
}
