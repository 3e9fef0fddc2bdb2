//! End-to-end experiment wiring: trace → classifier → controller →
//! simulator → report (the Section IX evaluation harness).

use std::cell::RefCell;
use std::rc::Rc;

use harmony_model::{EnergyPrice, MachineCatalog};
use harmony_sim::{EnergyEfficientFirstFit, FaultPlan, SimReport, Simulation, SimulationConfig};
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
/// runs).
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
    run_variant_with_faults(trace, catalog, harmony_config, classifier_config, variant, None)
}

/// Like [`run_variant`], but optionally injecting a fault plan into the
/// simulation — the robustness-evaluation entry point (`replay --faults`
/// and the `fault_scenarios` bench).
///
/// # Errors
///
/// Propagates classifier/controller construction failures.
pub fn run_variant_with_faults(
    trace: &Trace,
    catalog: &MachineCatalog,
    harmony_config: &HarmonyConfig,
    classifier_config: &ClassifierConfig,
    variant: Variant,
    faults: Option<&FaultPlan>,
) -> Result<SimReport, HarmonyError> {
    let price = EnergyPrice::default();
    // The paper's Section IX evaluation charges queueing (scheduling
    // delay) rather than evicting running tasks; preemption stays off in
    // the controller comparison (it is on for the Section III trace
    // analysis, where the real Google cluster does evict).
    let mut sim_config =
        SimulationConfig::new(catalog.clone()).price(price.clone()).without_preemption();
    if let Some(plan) = faults {
        sim_config = sim_config.with_faults(plan.clone());
    }
    let report = match variant {
        Variant::Baseline => {
            let controller = BaselineController::new(harmony_config.control_period);
            let scheduler =
                EnergyEfficientFirstFit::new(&harmony_sim::Cluster::new(catalog.clone()));
            Simulation::new(sim_config, trace, Box::new(scheduler))
                .with_controller(Box::new(controller))
                .run()
        }
        Variant::Cbs => {
            let classifier =
                Rc::new(TaskClassifier::fit(trace.tasks(), classifier_config)?);
            let quota = Rc::new(RefCell::new(QuotaState::default()));
            let controller = CbsController::new(
                classifier.clone(),
                harmony_config.clone(),
                price,
                quota.clone(),
            )?;
            let scheduler = QuotaScheduler::new(classifier, quota);
            Simulation::new(sim_config, trace, Box::new(scheduler))
                .with_controller(Box::new(controller))
                .run()
        }
        Variant::Cbp => {
            // CBP keeps the cluster's existing scheduler (Section VIII-B)
            // — the same energy-greedy policy the baseline uses — and
            // only changes how machines are provisioned.
            let classifier =
                Rc::new(TaskClassifier::fit(trace.tasks(), classifier_config)?);
            let controller = CbpController::new(classifier, harmony_config.clone(), price)?;
            let scheduler = EnergyEfficientFirstFit::new(&harmony_sim::Cluster::new(catalog.clone()));
            Simulation::new(sim_config, trace, Box::new(scheduler))
                .with_controller(Box::new(controller))
                .run()
        }
    };
    Ok(report)
}

/// Runs all three variants and returns `(variant, report)` pairs — the
/// Fig. 21–26 comparison.
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
    Variant::ALL
        .iter()
        .map(|&v| run_variant(trace, catalog, harmony_config, classifier_config, v).map(|r| (v, r)))
        .collect()
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
    fn variant_names() {
        assert_eq!(Variant::Baseline.name(), "baseline");
        assert_eq!(Variant::Cbs.name(), "CBS");
        assert_eq!(Variant::Cbp.name(), "CBP");
        assert_eq!(Variant::ALL.len(), 3);
    }
}
