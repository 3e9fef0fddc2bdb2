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

use harmony_model::{
    EnergyPrice, MachineCatalog, MachineTypeId, Resources, SimDuration, TaskClassId,
};
use harmony_sim::{ControlDecision, Controller, DegradationEvent, DegradationKind, Observation};

use crate::classify::TaskClassifier;
use crate::control_loop::{ControlLoop, PeriodInputs};
use crate::rounding::IntegerPlan;
use crate::{HarmonyConfig, HarmonyError};

use super::quota::QuotaState;

/// The CBP controller: HARMONY provisioning with the stock scheduler.
///
/// The simulator's adapter over `ControlLoop`, which CBS builds on: it
/// reads the period's inputs off the [`Observation`] and supplies the
/// ladder's last rungs (greedy sizing, then hold).
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

    /// Containers currently occupied per class. Labels use measured
    /// running time, exercising the short→long relabeling path of
    /// Section V.
    fn occupied_per_class(&self, observation: &Observation<'_>) -> Vec<f64> {
        let mut occupied = vec![0.0f64; self.control.manager().n_classes()];
        for task in observation.running {
            let running_for = observation.now.saturating_since(task.arrival);
            occupied[self.classifier.relabel(task, running_for).0] += 1.0;
        }
        occupied
    }

    /// Machine-type preference order per class: compatible types sorted
    /// by the marginal energy cost of hosting one container.
    fn type_orders(&self, catalog: &MachineCatalog) -> Vec<Vec<MachineTypeId>> {
        (0..self.control.manager().n_classes())
            .map(|n| {
                let size = self.control.manager().container_size(TaskClassId(n));
                let mut types: Vec<(MachineTypeId, f64)> = catalog
                    .iter()
                    .filter(|ty| size.fits_within(ty.capacity))
                    .map(|ty| {
                        let util = size.utilization_of(ty.capacity);
                        let watts = ty.power.alpha_watts.cpu * util.cpu
                            + ty.power.alpha_watts.mem * util.mem;
                        (ty.id, watts)
                    })
                    .collect();
                types.sort_by(|a, b| f64::total_cmp(&a.1, &b.1));
                types.into_iter().map(|(id, _)| id).collect()
            })
            .collect()
    }

    /// One period's plan, walking the degradation ladder on failure:
    /// full pipeline → previous plan (both `ControlLoop::run_period`) →
    /// greedy per-class sizing → hold (`None`). Also returns the
    /// per-class occupancy the plan was made against.
    fn plan(&mut self, observation: &Observation<'_>) -> (Option<IntegerPlan>, Vec<f64>) {
        let occupied = self.occupied_per_class(observation);
        // Tasks already executing keep their container (and their host
        // powered) until they finish. Their true demand is known (they
        // are placed), so they reserve at the class mean rather than the
        // Z-inflated container size: scale the occupied count by
        // mean/container per class.
        let reserved = occupied
            .iter()
            .enumerate()
            .map(|(n, &count)| {
                let class = &self.classifier.classes()[n];
                let c = self.control.manager().container_size(TaskClassId(n));
                let ratio = (class.stats.mean_demand.cpu / c.cpu.max(1e-12))
                    .max(class.stats.mean_demand.mem / c.mem.max(1e-12))
                    .clamp(0.0, 1.0);
                count * ratio
            })
            .collect();
        let active = observation.cluster.active_per_type();
        let period = self.control.run_period(&PeriodInputs {
            now: observation.now,
            classifier: &self.classifier,
            catalog: observation.cluster.catalog(),
            arrived: observation.arrived_last_period,
            pending: observation.pending,
            initial_active: active.into_iter().map(|n| n as f64).collect(),
            occupied: reserved,
        });
        let plan = match period {
            Ok(plan) => Some(plan),
            Err(err) => {
                let greedy = self.greedy_plan(observation, &occupied);
                let rung = match greedy {
                    Some(_) => DegradationKind::LpGreedyFallback,
                    None => DegradationKind::ControlHold,
                };
                self.control.degrade(observation.now, rung, &err);
                greedy
            }
        };
        (plan, occupied)
    }

    /// Emergency sizing for when the LP fails with no previous plan to
    /// reuse: count the containers each class needs *right now* (pending
    /// backlog plus running occupancy) and First-Fit them onto the
    /// population, opening machines lazily — cheapest compatible type
    /// first, most-constrained classes first so flexible small
    /// containers cannot starve the classes that only fit the big
    /// machines. Crude — no horizon, no optimality — but total and
    /// safe: the cluster stays provisioned while the optimizer is down.
    ///
    /// Returns `None` (→ hold) only when some class with demand cannot
    /// be hosted at all.
    fn greedy_plan(
        &self,
        observation: &Observation<'_>,
        occupied: &[f64],
    ) -> Option<IntegerPlan> {
        let catalog = observation.cluster.catalog();
        let n_classes = self.control.manager().n_classes();
        // `occupied` holds whole-task counts.
        let mut need: Vec<usize> = occupied.iter().map(|&count| count as usize).collect();
        for task in observation.pending {
            need[self.classifier.initial_label(task).0] += 1;
        }
        let orders = self.type_orders(catalog);
        // Most-constrained classes first; within a constraint level,
        // biggest containers first (First-Fit-Decreasing).
        let mut class_order: Vec<usize> = (0..n_classes).collect();
        class_order.sort_by(|&a, &b| {
            orders[a].len().cmp(&orders[b].len()).then(f64::total_cmp(
                &self.control.manager().container_size(TaskClassId(b)).sum_components(),
                &self.control.manager().container_size(TaskClassId(a)).sum_components(),
            ))
        });
        // Free space of machines opened so far, per type.
        let mut open: Vec<Vec<Resources>> = vec![Vec::new(); catalog.len()];
        let mut quotas = vec![vec![0usize; n_classes]; catalog.len()];
        for &n in &class_order {
            if need[n] == 0 {
                continue;
            }
            let size = self.control.manager().container_size(TaskClassId(n));
            let mut remaining = need[n];
            'types: for &ty in &orders[n] {
                // Fill leftover room on machines other classes opened.
                for slot in open[ty.0].iter_mut() {
                    while remaining > 0 && size.fits_within(*slot) {
                        *slot -= size;
                        quotas[ty.0][n] += 1;
                        remaining -= 1;
                    }
                    if remaining == 0 {
                        break 'types;
                    }
                }
                // Open fresh machines up to the type's population.
                let mt = catalog.machine_type(ty);
                while remaining > 0 && open[ty.0].len() < mt.count {
                    let mut slot = mt.capacity;
                    let before = remaining;
                    while remaining > 0 && size.fits_within(slot) {
                        slot -= size;
                        quotas[ty.0][n] += 1;
                        remaining -= 1;
                    }
                    open[ty.0].push(slot);
                    if remaining == before {
                        break; // a fresh machine fits none: give up on ty
                    }
                }
                if remaining == 0 {
                    break;
                }
            }
        }
        // Only a complete failure (demand exists, nothing placed) falls
        // through to hold; a plan serving most classes beats freezing a
        // possibly powered-down cluster.
        let total_need: usize = need.iter().sum();
        let total_placed: usize = quotas.iter().flatten().sum();
        let machines: Vec<usize> = open.iter().map(Vec::len).collect();
        (total_need == 0 || total_placed > 0).then_some(IntegerPlan { machines, quotas })
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
        let orders = self.provisioner.type_orders(observation.cluster.catalog());
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
    use harmony_model::{SimTime, Task};
    use harmony_sim::{Cluster, TaskView};

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
        let mut ctl =
            CbpController::new(classifier, config, EnergyPrice::default()).unwrap();
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
        let mut ctl = CbsController::new(
            classifier.clone(),
            config,
            EnergyPrice::default(),
            quota.clone(),
        )
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
            degradations
                .iter()
                .any(|d| matches!(d.kind, DegradationKind::LpGreedyFallback)),
            "expected a greedy fallback, got {degradations:?}"
        );
        let total: usize = decision.target_active.iter().sum();
        assert!(total > 0, "greedy fallback must still provision for backlog");
        assert!(ctl.control.errors >= 1);
        // Drained: a second take returns nothing new without a decide.
        assert!(ctl.take_degradations().is_empty());
    }

    #[test]
    fn parallel_pipeline_plans_are_bit_identical_to_serial() {
        // Acceptance criterion for the parallel fan-out: the same
        // observation sequence must produce the same decisions for any
        // worker count, bit for bit.
        let (classifier, trace, config) = fixture();
        let run = |workers: Option<usize>| {
            let cfg = HarmonyConfig { pipeline_workers: workers, ..config.clone() };
            let mut ctl =
                CbpController::new(classifier.clone(), cfg, EnergyPrice::default()).unwrap();
            let cluster = Cluster::new(MachineCatalog::table2().scaled(100));
            let mut decisions = Vec::new();
            for i in 0..4 {
                let lo = (i * 150).min(trace.len());
                let hi = ((i + 1) * 150).min(trace.len());
                decisions.push(ctl.decide(&observe(&cluster, &trace.tasks()[lo..hi], i)));
            }
            assert_eq!(ctl.control.errors, 0);
            decisions
        };
        let serial = run(Some(1));
        for workers in [Some(2), Some(4), None] {
            assert_eq!(run(workers), serial, "workers={workers:?}");
        }
    }

    #[test]
    fn control_period_is_config_driven() {
        let (classifier, _, config) = fixture();
        let ctl = CbpController::new(classifier.clone(), config.clone(), EnergyPrice::default())
            .unwrap();
        assert_eq!(ctl.control_period(), config.control_period);
        let quota = Rc::new(RefCell::new(QuotaState::default()));
        let cbs = CbsController::new(classifier, config.clone(), EnergyPrice::default(), quota)
            .unwrap();
        assert_eq!(cbs.control_period(), config.control_period);
    }
}
