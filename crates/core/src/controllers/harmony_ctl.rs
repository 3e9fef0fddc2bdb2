//! The two HARMONY controllers for the simulator, adapters over
//! `ControlLoop` (`control_loop.rs`).
//!
//! * **CBS** (Container-Based Scheduling, Section VII): provisioning and
//!   scheduling are coordinated — the controller publishes container
//!   quotas to a [`super::QuotaScheduler`].
//! * **CBP** (Container-Based Provisioning, Section VIII-B): the same
//!   provisioning pipeline, but the cluster's existing scheduler keeps
//!   running unmodified — "simplicity and practicality ... however, due
//!   to lack of control of the scheduler, CBP does not provide
//!   performance guarantee in terms of task scheduling delay."

use std::cell::RefCell;
use std::rc::Rc;

use harmony_model::{EnergyPrice, SimDuration};
use harmony_sim::{ControlDecision, Controller, DegradationEvent, Observation};

use crate::classify::TaskClassifier;
use crate::control_loop::{ControlLoop, PeriodInputs};
use crate::rounding::IntegerPlan;
use crate::{HarmonyConfig, HarmonyError};

use super::quota::QuotaState;

/// The CBP controller: HARMONY provisioning with the stock scheduler.
///
/// The simulator's adapter over `ControlLoop`, which CBS builds on: it
/// reads the period's inputs off the [`Observation`] and, when the
/// ladder ends without a plan, leaves the cluster unchanged.
#[derive(Debug)]
pub struct CbpController {
    /// Shared with the [`super::QuotaScheduler`] under CBS.
    classifier: Rc<TaskClassifier>,
    control: ControlLoop,
}

impl CbpController {
    /// Builds the CBP controller; pair it with any stock
    /// [`harmony_sim::Scheduler`] (the paper's deployable configuration).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and container-sizing errors.
    pub fn new(
        classifier: Rc<TaskClassifier>,
        config: HarmonyConfig,
        price: EnergyPrice,
    ) -> Result<Self, HarmonyError> {
        let control = ControlLoop::new(&classifier, config, price)?;
        Ok(CbpController { classifier, control })
    }

    /// Running tasks per class. Labels use measured running time,
    /// exercising the short→long relabeling path of Section V.
    fn occupied_per_class(&self, observation: &Observation<'_>) -> Vec<f64> {
        let mut occupied = vec![0.0f64; self.control.manager().n_classes()];
        for task in observation.running {
            let running_for = observation.now.saturating_since(task.arrival);
            occupied[self.classifier.relabel(task, running_for).0] += 1.0;
        }
        occupied
    }

    /// One period's plan (`ControlLoop::run_period`, `None` to hold) and
    /// the per-class occupancy it was made against.
    fn plan(&mut self, observation: &Observation<'_>) -> (Option<IntegerPlan>, Vec<f64>) {
        let active = observation.cluster.active_per_type();
        let inputs = PeriodInputs {
            now: observation.now,
            classifier: &self.classifier,
            catalog: observation.cluster.catalog(),
            arrived: observation.arrived_last_period,
            pending: observation.pending,
            initial_active: active.into_iter().map(|n| n as f64).collect(),
            occupied: self.occupied_per_class(observation),
        };
        let plan = self.control.run_period(&inputs);
        (plan, inputs.occupied)
    }
}

impl Controller for CbpController {
    fn control_period(&self) -> SimDuration {
        self.control.config().control_period
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        match self.plan(observation).0 {
            Some(plan) => ControlDecision::targets(plan.machines),
            None => ControlDecision::unchanged(observation.cluster),
        }
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        std::mem::take(&mut self.control.degradations)
    }
}

/// The CBS controller: CBP's provisioning + quota-coordinated
/// scheduling.
#[derive(Debug)]
pub struct CbsController {
    provisioner: CbpController,
    quota: Rc<RefCell<QuotaState>>,
}

impl CbsController {
    /// Builds the CBS controller; pair it with a
    /// [`super::QuotaScheduler`] sharing `quota` and the same
    /// classifier.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and container-sizing errors.
    pub fn new(
        classifier: Rc<TaskClassifier>,
        config: HarmonyConfig,
        price: EnergyPrice,
        quota: Rc<RefCell<QuotaState>>,
    ) -> Result<Self, HarmonyError> {
        Ok(CbsController { provisioner: CbpController::new(classifier, config, price)?, quota })
    }
}

impl Controller for CbsController {
    fn control_period(&self) -> SimDuration {
        self.provisioner.control_period()
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        let (plan, occupied) = self.provisioner.plan(observation);
        let Some(plan) = plan else { return ControlDecision::unchanged(observation.cluster) };
        let orders = self.provisioner.control.type_orders(observation.cluster.catalog());
        // The occupancy the plan's demand was counted against (with
        // short→long relabeling) keeps the ledger consistent with it.
        self.quota.borrow_mut().refresh(plan.quotas, orders, &occupied);
        // CBS owns the scheduler, so it may also re-pack running
        // containers to drain machines (Algorithm 1, lines 10-11).
        ControlDecision::targets_with_repack(plan.machines)
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        self.provisioner.take_degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::{MachineCatalog, SimTime, Task};
    use harmony_sim::{Cluster, DegradationKind, TaskView};

    fn fixture() -> (Rc<TaskClassifier>, harmony_trace::Trace, HarmonyConfig) {
        let (classifier, trace, config) = crate::control_loop::small_fixture();
        (Rc::new(classifier), trace, config)
    }

    /// `tasks` as both the last period's arrivals and the backlog, with
    /// nothing running, at the start of 10-minute period `period`.
    fn observe<'a>(cluster: &'a Cluster, tasks: &'a [Task], period: usize) -> Observation<'a> {
        Observation {
            now: SimTime::from_secs(600.0 * period as f64),
            cluster,
            pending: TaskView::dense(tasks),
            arrived_last_period: TaskView::dense(tasks),
            running: TaskView::default(),
        }
    }

    #[test]
    fn cbp_decides_capacity_for_arrivals() {
        let (classifier, trace, config) = fixture();
        let mut ctl = CbpController::new(classifier, config, EnergyPrice::default()).unwrap();
        let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        let arrived = &trace.tasks()[..300];
        let decision = ctl.decide(&observe(&cluster, arrived, 0));
        assert_eq!(decision.target_active.len(), 4);
        let total: usize = decision.target_active.iter().sum();
        assert!(total > 0, "pending demand must bring machines up: {decision:?}");
        assert_eq!(ctl.control.errors, 0);
    }

    #[test]
    fn cbs_publishes_quotas() {
        let (classifier, trace, config) = fixture();
        let quota = Rc::new(RefCell::new(QuotaState::default()));
        let mut ctl =
            CbsController::new(classifier.clone(), config, EnergyPrice::default(), quota.clone())
                .unwrap();
        let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        let arrived = &trace.tasks()[..300];
        let decision = ctl.decide(&observe(&cluster, arrived, 0));
        assert!(decision.repack, "CBS owns the scheduler and may re-pack");
        // Some class has quota somewhere.
        let state = quota.borrow();
        let any = (0..classifier.classes().len()).any(|n| state.remaining(n) > 0.0);
        assert!(any, "CBS must publish nonzero quotas");
    }

    #[test]
    fn lp_failure_walks_degradation_ladder() {
        let (classifier, trace, mut config) = fixture();
        // A one-pivot budget makes every real instance hit the
        // iteration limit, forcing the ladder.
        config.max_lp_pivots = 1;
        let mut ctl = CbpController::new(classifier, config, EnergyPrice::default()).unwrap();
        let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
        let arrived = &trace.tasks()[..300];
        // No previous plan: greedy per-class sizing.
        let decision = ctl.decide(&observe(&cluster, arrived, 0));
        let degradations = ctl.take_degradations();
        assert!(
            degradations.iter().any(|d| matches!(d.kind, DegradationKind::LpGreedyFallback)),
            "expected a greedy fallback, got {degradations:?}"
        );
        let total: usize = decision.target_active.iter().sum();
        assert!(total > 0, "greedy fallback must still provision for backlog");
        assert!(ctl.control.errors >= 1);
        // Drained: a second take returns nothing new without a decide.
        assert!(ctl.take_degradations().is_empty());
    }

    #[test]
    fn control_period_is_config_driven() {
        let (classifier, _, config) = fixture();
        let ctl =
            CbpController::new(classifier.clone(), config.clone(), EnergyPrice::default()).unwrap();
        assert_eq!(ctl.control_period(), config.control_period);
        let quota = Rc::new(RefCell::new(QuotaState::default()));
        let cbs =
            CbsController::new(classifier, config.clone(), EnergyPrice::default(), quota).unwrap();
        assert_eq!(cbs.control_period(), config.control_period);
    }
}
