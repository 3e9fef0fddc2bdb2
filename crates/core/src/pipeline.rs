//! End-to-end experiment wiring: trace → classifier → controller →
//! simulator → report (the Section IX evaluation harness).

use std::cell::RefCell;
use std::rc::Rc;

use harmony_model::{EnergyPrice, MachineCatalog};
use harmony_sim::{
    Cluster, Controller, EnergyEfficientFirstFit, FaultPlan, Scheduler, SimReport, Simulation,
    SimulationConfig,
};
use harmony_trace::Trace;

use crate::classify::{ClassifierConfig, TaskClassifier};
use crate::controllers::{
    BaselineController, CbpController, CbsController, QuotaScheduler, QuotaState,
};
use crate::{HarmonyConfig, HarmonyError};

/// Which controller variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Heterogeneity-oblivious 80%-utilization baseline.
    Baseline,
    /// HARMONY with container-based scheduling (quota-coordinated).
    Cbs,
    /// HARMONY provisioning with the stock scheduler.
    Cbp,
}

impl Variant {
    /// All variants, in the paper's comparison order.
    pub const ALL: [Variant; 3] = [Variant::Baseline, Variant::Cbs, Variant::Cbp];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Cbs => "CBS",
            Variant::Cbp => "CBP",
        }
    }
}

/// Runs one controller variant over a trace on a catalog.
///
/// The classifier is fitted offline on the full trace (the paper
/// characterizes the workload from historical data before the controller
/// runs); a Baseline run fits none.
///
/// # Errors
///
/// Propagates classifier/controller construction failures.
pub fn run_variant(
    trace: &Trace,
    catalog: &MachineCatalog,
    harmony_config: &HarmonyConfig,
    classifier_config: &ClassifierConfig,
    variant: Variant,
) -> Result<SimReport, HarmonyError> {
    let classifier = match variant {
        Variant::Baseline => None,
        Variant::Cbs | Variant::Cbp => {
            Some(Rc::new(TaskClassifier::fit(trace.tasks(), classifier_config)?))
        }
    };
    let price = EnergyPrice::default();
    simulate(trace, catalog, harmony_config, classifier.as_ref(), variant, &price, None)
}

/// Runs all three variants and returns `(variant, report)` pairs — the
/// Fig. 21–26 comparison. CBS and CBP share one classifier fit.
///
/// # Errors
///
/// Propagates the first variant failure.
pub fn run_comparison(
    trace: &Trace,
    catalog: &MachineCatalog,
    harmony_config: &HarmonyConfig,
    classifier_config: &ClassifierConfig,
) -> Result<Vec<(Variant, SimReport)>, HarmonyError> {
    let classifier = Rc::new(TaskClassifier::fit(trace.tasks(), classifier_config)?);
    let price = EnergyPrice::default();
    Variant::ALL
        .into_iter()
        .map(|v| {
            simulate(trace, catalog, harmony_config, Some(&classifier), v, &price, None)
                .map(|r| (v, r))
        })
        .collect()
}

/// Wires one variant over a fitted classifier and runs it: the one place
/// a Section IX simulation is built. `price` is both what the sim bills
/// and what the controller's objective weighs; `faults`, if any, is
/// injected into the run. Sharing `classifier` across runs changes no
/// report, because a classifier is immutable once fitted.
///
/// The paper's Section IX evaluation charges queueing (scheduling delay)
/// rather than evicting running tasks, so preemption is off here (it is
/// on for the Section III trace analysis, where the real Google cluster
/// does evict).
///
/// # Errors
///
/// [`HarmonyError::InvalidConfig`] when CBS or CBP gets no classifier;
/// otherwise propagates controller construction failures.
pub fn simulate(
    trace: &Trace,
    catalog: &MachineCatalog,
    harmony_config: &HarmonyConfig,
    classifier: Option<&Rc<TaskClassifier>>,
    variant: Variant,
    price: &EnergyPrice,
    faults: Option<&FaultPlan>,
) -> Result<SimReport, HarmonyError> {
    let mut sim_config =
        SimulationConfig::new(catalog.clone()).price(price.clone()).without_preemption();
    if let Some(plan) = faults {
        sim_config = sim_config.with_faults(plan.clone());
    }
    // CBP keeps the cluster's existing scheduler (Section VIII-B) — the
    // same energy-greedy policy the baseline uses — and only changes how
    // machines are provisioned.
    let first_fit = || Box::new(EnergyEfficientFirstFit::new(&Cluster::new(catalog.clone())));
    let (scheduler, controller): (Box<dyn Scheduler>, Box<dyn Controller>) =
        match (variant, classifier) {
            (Variant::Baseline, _) => {
                (first_fit(), Box::new(BaselineController::new(harmony_config.control_period)))
            }
            (Variant::Cbs, Some(classifier)) => {
                let quota = Rc::new(RefCell::new(QuotaState::default()));
                let controller = CbsController::new(
                    classifier.clone(),
                    harmony_config.clone(),
                    price.clone(),
                    quota.clone(),
                )?;
                (Box::new(QuotaScheduler::new(classifier.clone(), quota)), Box::new(controller))
            }
            (Variant::Cbp, Some(classifier)) => {
                let controller =
                    CbpController::new(classifier.clone(), harmony_config.clone(), price.clone())?;
                (first_fit(), Box::new(controller))
            }
            (Variant::Cbs | Variant::Cbp, None) => {
                return Err(HarmonyError::InvalidConfig {
                    reason: format!("{} needs a fitted classifier", variant.name()),
                })
            }
        };
    Ok(Simulation::new(sim_config, trace, scheduler).with_controller(controller).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::SimDuration;
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn small_setup() -> (Trace, MachineCatalog, HarmonyConfig, ClassifierConfig) {
        let trace = TraceGenerator::new(TraceConfig::small().with_seed(44)).generate();
        let catalog = MachineCatalog::table2().scaled(100);
        let config = HarmonyConfig {
            horizon: 2,
            control_period: SimDuration::from_mins(15.0),
            ..Default::default()
        };
        let classifier_config =
            ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() };
        (trace, catalog, config, classifier_config)
    }

    #[test]
    fn baseline_runs_and_serves_tasks() {
        let (trace, catalog, config, cc) = small_setup();
        let report = run_variant(&trace, &catalog, &config, &cc, Variant::Baseline).unwrap();
        assert!(report.tasks_completed > 0, "{report:?}");
        assert!(report.total_energy_wh > 0.0);
    }

    #[test]
    fn cbp_runs_and_serves_tasks() {
        let (trace, catalog, config, cc) = small_setup();
        let report = run_variant(&trace, &catalog, &config, &cc, Variant::Cbp).unwrap();
        assert!(report.tasks_completed > 0);
        assert!(report.total_energy_wh > 0.0);
    }

    #[test]
    fn cbs_runs_and_serves_tasks() {
        let (trace, catalog, config, cc) = small_setup();
        let report = run_variant(&trace, &catalog, &config, &cc, Variant::Cbs).unwrap();
        assert!(report.tasks_completed > 0);
    }

    #[test]
    fn runs_on_a_shared_classifier_match_fresh_fits() {
        let (trace, catalog, config, cc) = small_setup();
        let json = |r: &SimReport| serde_json::to_string(r).unwrap();
        let fresh = [Variant::Cbs, Variant::Cbp]
            .map(|v| json(&run_variant(&trace, &catalog, &config, &cc, v).unwrap()));
        let classifier = Rc::new(TaskClassifier::fit(trace.tasks(), &cc).unwrap());
        let price = EnergyPrice::default();
        // Each variant twice, interleaved: a run that leaves state in the
        // shared classifier moves every report after it.
        for _ in 0..2 {
            for (v, expected) in [Variant::Cbs, Variant::Cbp].into_iter().zip(&fresh) {
                let report =
                    simulate(&trace, &catalog, &config, Some(&classifier), v, &price, None)
                        .unwrap();
                assert_eq!(&json(&report), expected, "{}", v.name());
            }
        }
    }

    #[test]
    fn controllers_need_a_classifier() {
        let (trace, catalog, config, _) = small_setup();
        let price = EnergyPrice::default();
        for v in [Variant::Cbs, Variant::Cbp] {
            let err = simulate(&trace, &catalog, &config, None, v, &price, None).unwrap_err();
            assert!(matches!(err, HarmonyError::InvalidConfig { .. }), "{err}");
        }
    }

    #[test]
    fn variant_names() {
        assert_eq!(Variant::Baseline.name(), "baseline");
        assert_eq!(Variant::Cbs.name(), "CBS");
        assert_eq!(Variant::Cbp.name(), "CBP");
        assert_eq!(Variant::ALL.len(), 3);
    }
}
