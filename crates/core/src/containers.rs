//! The container manager (Section VI): how many containers of each
//! class, and how big each one is.

use harmony_model::{Resources, TaskClassId};
use harmony_queueing::{ContainerSizer, MgnQueue, QueueingError};

use crate::classify::TaskClassifier;
use crate::{HarmonyConfig, HarmonyError};

/// Computes per-class container demands from predicted arrival rates.
#[derive(Debug, Clone)]
pub struct ContainerManager {
    sizer: ContainerSizer,
    /// Per-class container size, fixed at fit time.
    sizes: Vec<Resources>,
    /// Per-class service rate μ (1/mean duration).
    service_rates: Vec<f64>,
    /// Per-class squared coefficient of variation of duration.
    cv2: Vec<f64>,
    /// Per-class SLO mean-delay target (seconds).
    slo: Vec<f64>,
    margin: f64,
}

impl ContainerManager {
    /// Builds the manager from a fitted classifier and the HARMONY
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HarmonyError::Queueing`] if ε is out of range.
    pub fn new(classifier: &TaskClassifier, config: &HarmonyConfig) -> Result<Self, HarmonyError> {
        let sizer = ContainerSizer::new(config.epsilon)?;
        let mut sizes = Vec::new();
        let mut service_rates = Vec::new();
        let mut cv2 = Vec::new();
        let mut slo = Vec::new();
        for class in classifier.classes() {
            let size = sizer.container_size(&class.stats);
            // A container must reserve something; floor at the class mean
            // or a tiny epsilon so capacity math stays meaningful.
            sizes.push(size.max(Resources::splat(1e-4)));
            service_rates.push(class.stats.service_rate().min(1.0)); // ≥1s durations
            cv2.push(class.stats.cv2_duration.max(0.0));
            slo.push(config.slo_for(class.group));
        }
        Ok(ContainerManager { sizer, sizes, service_rates, cv2, slo, margin: config.demand_margin })
    }

    /// Number of classes managed.
    pub fn n_classes(&self) -> usize {
        self.sizes.len()
    }

    /// The fixed container size of a class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn container_size(&self, class: TaskClassId) -> Resources {
        self.sizes[class.0]
    }

    /// The container sizer (exposes ε and Z).
    pub fn sizer(&self) -> &ContainerSizer {
        &self.sizer
    }

    /// Container counts for one class at one predicted arrival rate
    /// (tasks/second), per Eq. (1): the smallest `N` with `ρ < 1` and
    /// mean wait `≤` the class SLO.
    ///
    /// # Errors
    ///
    /// Returns [`HarmonyError::Queueing`] if the queueing solve fails
    /// (e.g. an absurd rate).
    pub fn containers_for_rate(
        &self,
        class: TaskClassId,
        rate: f64,
    ) -> Result<usize, HarmonyError> {
        let rate = (rate * self.margin).max(0.0);
        if rate == 0.0 {
            return Ok(0);
        }
        let mu = self.service_rates[class.0];
        let queue = MgnQueue::new(rate, mu, self.cv2[class.0])?;
        match queue.min_servers(self.slo[class.0]) {
            Ok(n) => Ok(n),
            // An unreachable SLO degenerates to "provision for stability
            // plus headroom" rather than failing the control loop.
            Err(QueueingError::TargetUnreachable { .. }) => {
                Ok((queue.offered_load().ceil() as usize) * 2)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Container counts for every class across a whole forecast horizon,
    /// by [`ContainerManager::containers_for_rate`] in class order.
    /// `workers` is ignored; it is kept for callers that still pass a
    /// worker count.
    ///
    /// `rates[class][t]` is the predicted rate of `class` in horizon
    /// period `t`; the result is `counts[class][t]` as `f64` (the LP's
    /// demand unit).
    ///
    /// # Errors
    ///
    /// Propagates the first queueing failure (by class order).
    ///
    /// # Panics
    ///
    /// Panics if `rates.len()` differs from [`ContainerManager::n_classes`].
    pub fn containers_for_rates(
        &self,
        rates: &[Vec<f64>],
        _workers: usize,
    ) -> Result<Vec<Vec<f64>>, HarmonyError> {
        assert_eq!(rates.len(), self.n_classes(), "one rate series per class required");
        rates
            .iter()
            .enumerate()
            .map(|(n, series)| {
                series
                    .iter()
                    .map(|&rate| Ok(self.containers_for_rate(TaskClassId(n), rate)? as f64))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{ClassifierConfig, TaskClassifier};
    use harmony_model::PriorityGroup;
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn manager() -> (ContainerManager, TaskClassifier) {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(13)).generate();
        let classifier = TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default()).unwrap();
        let manager = ContainerManager::new(&classifier, &HarmonyConfig::default()).unwrap();
        (manager, classifier)
    }

    #[test]
    fn sizes_cover_every_class_and_exceed_means() {
        let (m, c) = manager();
        assert_eq!(m.n_classes(), c.classes().len());
        for class in c.classes() {
            let size = m.container_size(class.id);
            assert!(size.cpu >= class.stats.mean_demand.cpu - 1e-12);
            assert!(size.mem >= class.stats.mean_demand.mem - 1e-12);
            assert!(size.cpu <= 1.0 && size.mem <= 1.0);
        }
    }

    #[test]
    fn zero_rate_needs_zero_containers() {
        let (m, _) = manager();
        assert_eq!(m.containers_for_rate(TaskClassId(0), 0.0).unwrap(), 0);
    }

    #[test]
    fn counts_scale_with_rate() {
        let (m, _) = manager();
        let low = m.containers_for_rate(TaskClassId(0), 0.01).unwrap();
        let high = m.containers_for_rate(TaskClassId(0), 1.0).unwrap();
        assert!(high > low, "more arrivals need more containers: {low} vs {high}");
    }

    #[test]
    fn production_gets_relatively_more_headroom() {
        // Same arrival rate: a tighter SLO cannot need fewer containers
        // than a looser one for the same service-time distribution. We
        // verify within the model rather than across heterogeneous
        // classes: shrink the SLO and recompute.
        let (m, c) = manager();
        let class = c.classes().iter().find(|cl| cl.group == PriorityGroup::Gratis).unwrap();
        let mut tight = m.clone();
        tight.slo[class.id.0] = 1.0;
        let loose_n = m.containers_for_rate(class.id, 0.5).unwrap();
        let tight_n = tight.containers_for_rate(class.id, 0.5).unwrap();
        assert!(tight_n >= loose_n);
    }

    #[test]
    #[should_panic(expected = "one rate series per class")]
    fn misaligned_rates_panic() {
        let (m, _) = manager();
        let _ = m.containers_for_rates(&[vec![0.1]], 1);
    }

    #[test]
    fn slo_respected_by_queueing_model() {
        let (m, c) = manager();
        let config = HarmonyConfig::default();
        for class in c.classes().iter().take(4) {
            let rate: f64 = 0.2;
            let n = m.containers_for_rate(class.id, rate).unwrap();
            if n == 0 {
                continue;
            }
            let queue = MgnQueue::new(
                rate * config.demand_margin,
                class.stats.service_rate().min(1.0),
                class.stats.cv2_duration,
            )
            .unwrap();
            if let Ok(wait) = queue.mean_wait(n) {
                assert!(
                    wait <= config.slo_for(class.group) + 1e-9,
                    "class {:?}: wait {wait} > slo",
                    class.id
                );
            }
        }
    }
}
