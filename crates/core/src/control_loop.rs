//! The one HARMONY control period (Fig. 8): monitor → ARIMA forecast →
//! container sizing (Eq. 1–3) → CBS-RELAX (Eq. 14–16) → First-Fit
//! rounding, and the rungs of the degradation ladder every caller shares.
//!
//! [`ControlLoop`] owns what the loop carries between periods and
//! [`ControlLoop::run_period`] is the only place the stages are chained.
//! The simulator controllers and the daemon's `OnlinePipeline` are
//! adapters: each fills a [`PeriodInputs`], actuates the plan, and
//! supplies the ladder's last rung when there is no previous plan.

use harmony_model::{EnergyPrice, MachineCatalog, Resources, SimTime, TaskClassId};
use harmony_sim::{DegradationEvent, DegradationKind, TaskView};
use harmony_telemetry::keys;

use crate::cbs::{solve_cbs_relax_warm, CbsInputs};
use crate::classify::TaskClassifier;
use crate::containers::ContainerManager;
use crate::monitor::ArrivalMonitor;
use crate::rounding::{round_first_step, IntegerPlan};
use crate::{HarmonyConfig, HarmonyError};

/// What one control period observes — all that the callers of
/// [`ControlLoop::run_period`] differ in.
#[derive(Debug)]
pub struct PeriodInputs<'a> {
    /// Start of the period being planned.
    pub now: SimTime,
    /// The classifier the loop was built from.
    pub classifier: &'a TaskClassifier,
    /// The machine population to provision.
    pub catalog: &'a MachineCatalog,
    /// Tasks that arrived during the last period (the monitor's input).
    pub arrived: TaskView<'a>,
    /// Unserved backlog: needs capacity now, on top of the forecast.
    pub pending: TaskView<'a>,
    /// Machines active per type now — the switching-cost baseline.
    pub initial_active: Vec<f64>,
    /// Containers per class held by running tasks. Their hosts cannot
    /// power down, so they add to every horizon step's demand.
    pub occupied: Vec<f64>,
}

/// The state of the control loop across periods.
#[derive(Debug)]
pub struct ControlLoop {
    config: HarmonyConfig,
    manager: ContainerManager,
    monitor: ArrivalMonitor,
    price: EnergyPrice,
    /// Periods that failed the full pipeline and took a degradation rung.
    pub(crate) errors: usize,
    /// The last successfully-solved plan, re-actuated when a period fails.
    pub(crate) last_plan: Option<IntegerPlan>,
    /// The previous period's optimal simplex basis; warm-starts the next
    /// solve. Dropped on failure so a stale one never outlives a period.
    pub(crate) lp_basis: Option<harmony_lp::Basis>,
    /// Degradations accumulated since an adapter last drained them.
    pub(crate) degradations: Vec<DegradationEvent>,
}

impl ControlLoop {
    /// Builds the loop for a fitted classifier.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and container-sizing errors.
    pub fn new(
        classifier: &TaskClassifier,
        config: HarmonyConfig,
        price: EnergyPrice,
    ) -> Result<Self, HarmonyError> {
        config.validate()?;
        let manager = ContainerManager::new(classifier, &config)?;
        let monitor = ArrivalMonitor::new(
            classifier.classes().len(),
            config.control_period,
            config.history_len,
            config.arima_min_history,
        );
        Ok(ControlLoop {
            config,
            manager,
            monitor,
            price,
            errors: 0,
            last_plan: None,
            lp_basis: None,
            degradations: Vec::new(),
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HarmonyConfig {
        &self.config
    }

    /// The per-class container sizes and counts (Eq. 1–3).
    pub fn manager(&self) -> &ContainerManager {
        &self.manager
    }

    /// The per-class arrival histories and their forecasts.
    pub fn monitor(&self) -> &ArrivalMonitor {
        &self.monitor
    }

    /// Records a degradation rung taken because of `err`.
    pub fn degrade(&mut self, at: SimTime, kind: DegradationKind, err: &HarmonyError) {
        self.degradations.push(DegradationEvent { at, kind, detail: err.to_string() });
    }

    /// Replaces the arrival histories with checkpointed ones; fails when
    /// they do not match this loop's class count or history bound.
    pub fn restore_histories(&mut self, histories: Vec<Vec<f64>>) -> Result<(), HarmonyError> {
        self.monitor.restore_histories(histories)
    }

    /// One control period: records the arrivals, forecasts over the MPC
    /// horizon, sizes containers, solves CBS-RELAX from the carried
    /// basis, and rounds the first step into the integer plan to
    /// actuate. A failing stage is counted,
    /// drops the carried basis (it may be stale relative to whatever
    /// failed), and re-actuates the previous plan.
    ///
    /// # Errors
    ///
    /// The stage's error when there is no previous plan; the caller takes
    /// its own last rung and records it with [`ControlLoop::degrade`].
    pub fn run_period(&mut self, inputs: &PeriodInputs<'_>) -> Result<IntegerPlan, HarmonyError> {
        let registry = harmony_telemetry::global();
        registry.counter(keys::PIPELINE_TICKS).inc();
        // The guard records the whole period even when a stage errors out.
        let _period_span = registry.timer(keys::PIPELINE_PERIOD_SECONDS);
        let span = registry.timer(keys::PIPELINE_CLASSIFY_SECONDS);
        self.monitor.record_period(inputs.arrived, inputs.classifier);
        drop(span);
        match self.plan(inputs) {
            Ok(plan) => {
                self.last_plan = Some(plan.clone());
                Ok(plan)
            }
            Err(err) => {
                self.errors += 1;
                self.lp_basis = None;
                registry.counter(keys::PIPELINE_ERRORS).inc();
                let Some(plan) = self.last_plan.clone() else { return Err(err) };
                self.degrade(inputs.now, DegradationKind::LpReusedPreviousPlan, &err);
                Ok(plan)
            }
        }
    }

    /// The fallible stages of [`ControlLoop::run_period`].
    fn plan(&mut self, inputs: &PeriodInputs<'_>) -> Result<IntegerPlan, HarmonyError> {
        let registry = harmony_telemetry::global();
        let n_classes = self.manager.n_classes();
        // Per-class forecast and sizing fan out over scoped workers;
        // plans stay bit-identical for any worker count.
        let workers = crate::par::effective_workers(self.config.pipeline_workers, n_classes);
        registry.gauge(keys::PIPELINE_WORKERS).set(workers as f64);

        let span = registry.timer(keys::PIPELINE_FORECAST_SECONDS);
        let tiered = self.monitor.forecast_tiered_with_workers(self.config.horizon, workers);
        drop(span);
        for (n, class_fc) in tiered.iter().enumerate() {
            if let Some(reason) = &class_fc.degraded {
                self.degradations.push(DegradationEvent {
                    at: inputs.now,
                    kind: DegradationKind::ForecastFallback { class: n, tier: class_fc.tier },
                    detail: reason.clone(),
                });
            }
        }
        let rates: Vec<Vec<f64>> = tiered.into_iter().map(|c| c.rates).collect();

        let sizing_span = registry.timer(keys::PIPELINE_SIZING_SECONDS);
        let mut backlog = vec![0.0f64; n_classes];
        for task in inputs.pending {
            backlog[inputs.classifier.initial_label(task).0] += 1.0;
        }
        let counts = self.manager.containers_for_rates(&rates, workers)?;
        let mut demand = vec![vec![0.0f64; n_classes]; self.config.horizon];
        for n in 0..n_classes {
            for (t, row) in demand.iter_mut().enumerate() {
                row[n] = counts[n][t] + inputs.occupied[n] + backlog[n];
            }
        }
        drop(sizing_span);

        let container_sizes: Vec<Resources> =
            (0..n_classes).map(|n| self.manager.container_size(TaskClassId(n))).collect();
        let utility: Vec<f64> = inputs
            .classifier
            .classes()
            .iter()
            .map(|c| self.config.utility_for(c.group))
            .collect();
        let lp_span = registry.timer(keys::PIPELINE_LP_SECONDS);
        let solve = solve_cbs_relax_warm(
            &CbsInputs {
                catalog: inputs.catalog,
                container_sizes: &container_sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &inputs.initial_active,
                price: &self.price,
                now: inputs.now,
            },
            &self.config,
            self.lp_basis.as_ref(),
        )?;
        drop(lp_span);
        self.lp_basis = Some(solve.basis);
        let fractional = solve.plan;
        Ok(registry.time(keys::PIPELINE_ROUNDING_SECONDS, || {
            round_first_step(&fractional, inputs.catalog, &container_sizes)
        }))
    }
}

/// What the adapters' unit tests build from: a small trace, its six
/// classes, and a two-step horizon of 10-minute periods.
#[cfg(test)]
pub(crate) fn small_fixture() -> (TaskClassifier, harmony_trace::Trace, HarmonyConfig) {
    use crate::classify::ClassifierConfig;
    use harmony_trace::{TraceConfig, TraceGenerator};

    let trace = TraceGenerator::new(TraceConfig::small().with_seed(33)).generate();
    let classifier_config = ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() };
    let classifier = TaskClassifier::fit(trace.tasks(), &classifier_config).unwrap();
    let config = HarmonyConfig {
        horizon: 2,
        control_period: harmony_model::SimDuration::from_mins(10.0),
        ..Default::default()
    };
    (classifier, trace, config)
}
