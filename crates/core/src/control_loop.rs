//! The one HARMONY control period (Fig. 8): monitor → ARIMA forecast →
//! container sizing (Eq. 1–3) → CBS-RELAX (Eq. 14–16) → First-Fit
//! rounding, and the degradation ladder every caller shares.
//!
//! [`ControlLoop`] owns what the loop carries between periods and
//! [`ControlLoop::run_period`] is the only place the stages are chained.
//! The simulator controllers and the daemon's `OnlinePipeline` are
//! adapters: each fills a [`PeriodInputs`], actuates the plan, and
//! holds in its own way when the ladder ends without one.

use harmony_model::{EnergyPrice, MachineCatalog, MachineTypeId, Resources, SimTime, TaskClassId};
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
    /// Running tasks per class, as whole-task counts. Their hosts cannot
    /// power down, so the loop reserves them on every horizon step, at
    /// the class mean demand rather than the Z-inflated container size.
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

    /// Machine-type preference order per class: compatible types sorted
    /// by the marginal energy cost of hosting one container.
    pub fn type_orders(&self, catalog: &MachineCatalog) -> Vec<Vec<MachineTypeId>> {
        (0..self.manager.n_classes())
            .map(|n| {
                let size = self.manager.container_size(TaskClassId(n));
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

    /// Replaces the arrival histories with checkpointed ones; fails when
    /// they do not match this loop's class count or history bound.
    pub fn restore_histories(&mut self, histories: Vec<Vec<f64>>) -> Result<(), HarmonyError> {
        self.monitor.restore_histories(histories)
    }

    /// One control period: records the arrivals, forecasts over the MPC
    /// horizon, sizes containers, solves CBS-RELAX from the carried
    /// basis, and rounds the first step into the integer plan to
    /// actuate.
    ///
    /// A failing stage is counted and drops the carried basis (it may be
    /// stale relative to whatever failed); then the ladder re-actuates
    /// the previous plan, or, lacking one, sizes greedily (`greedy_plan`).
    /// Each rung taken is recorded as a [`DegradationEvent`].
    ///
    /// Returns `None`, recorded as [`DegradationKind::ControlHold`], only
    /// when the greedy rung places nothing; the caller then holds.
    pub fn run_period(&mut self, inputs: &PeriodInputs<'_>) -> Option<IntegerPlan> {
        let registry = harmony_telemetry::global();
        registry.counter(keys::PIPELINE_TICKS).inc();
        // The guard records the whole period even when a stage errors out.
        let _period_span = registry.timer(keys::PIPELINE_PERIOD_SECONDS);
        let span = registry.timer(keys::PIPELINE_CLASSIFY_SECONDS);
        self.monitor.record_period(inputs.arrived, inputs.classifier);
        drop(span);
        let err = match self.plan(inputs) {
            Ok(plan) => {
                self.last_plan = Some(plan.clone());
                return Some(plan);
            }
            Err(err) => err,
        };
        self.errors += 1;
        self.lp_basis = None;
        registry.counter(keys::PIPELINE_ERRORS).inc();
        let (plan, kind) = match self.last_plan.clone() {
            Some(plan) => (Some(plan), DegradationKind::LpReusedPreviousPlan),
            None => match self.greedy_plan(inputs) {
                Some(plan) => (Some(plan), DegradationKind::LpGreedyFallback),
                None => (None, DegradationKind::ControlHold),
            },
        };
        self.degradations.push(DegradationEvent { at: inputs.now, kind, detail: err.to_string() });
        plan
    }

    /// The fallible stages of [`ControlLoop::run_period`].
    fn plan(&mut self, inputs: &PeriodInputs<'_>) -> Result<IntegerPlan, HarmonyError> {
        let registry = harmony_telemetry::global();
        let n_classes = self.manager.n_classes();

        let span = registry.timer(keys::PIPELINE_FORECAST_SECONDS);
        let tiered = self.monitor.forecast_tiered(self.config.horizon);
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
        // Running tasks' true demand is known (they are placed), so they
        // reserve at the class mean: scale the occupied count by
        // mean/container per class.
        let reserved: Vec<f64> = inputs
            .occupied
            .iter()
            .enumerate()
            .map(|(n, &count)| {
                let class = &inputs.classifier.classes()[n];
                let c = self.manager.container_size(TaskClassId(n));
                let ratio = (class.stats.mean_demand.cpu / c.cpu.max(1e-12))
                    .max(class.stats.mean_demand.mem / c.mem.max(1e-12))
                    .clamp(0.0, 1.0);
                count * ratio
            })
            .collect();
        let counts = self.manager.containers_for_rates(&rates, 1)?;
        let mut demand = vec![vec![0.0f64; n_classes]; self.config.horizon];
        for n in 0..n_classes {
            for (t, row) in demand.iter_mut().enumerate() {
                row[n] = counts[n][t] + reserved[n] + backlog[n];
            }
        }
        drop(sizing_span);

        let container_sizes: Vec<Resources> =
            (0..n_classes).map(|n| self.manager.container_size(TaskClassId(n))).collect();
        let utility: Vec<f64> =
            inputs.classifier.classes().iter().map(|c| self.config.utility_for(c.group)).collect();
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

    /// The ladder's rung when the LP fails with no previous plan to
    /// reuse: count the containers each class needs *right now* (pending
    /// backlog plus running tasks) and First-Fit them onto the
    /// population, opening machines lazily — cheapest compatible type
    /// first, most-constrained classes first so flexible small
    /// containers cannot starve the classes that only fit the big
    /// machines. Crude — no horizon, no optimality — but total and
    /// safe: the cluster stays provisioned while the optimizer is down.
    ///
    /// Returns `None` (→ hold) only when demand exists and nothing can
    /// be placed.
    fn greedy_plan(&self, inputs: &PeriodInputs<'_>) -> Option<IntegerPlan> {
        let catalog = inputs.catalog;
        let n_classes = self.manager.n_classes();
        let mut need: Vec<usize> = inputs.occupied.iter().map(|&count| count as usize).collect();
        for task in inputs.pending {
            need[inputs.classifier.initial_label(task).0] += 1;
        }
        let orders = self.type_orders(catalog);
        // Most-constrained classes first; within a constraint level,
        // biggest containers first (First-Fit-Decreasing).
        let mut class_order: Vec<usize> = (0..n_classes).collect();
        class_order.sort_by(|&a, &b| {
            orders[a].len().cmp(&orders[b].len()).then(f64::total_cmp(
                &self.manager.container_size(TaskClassId(b)).sum_components(),
                &self.manager.container_size(TaskClassId(a)).sum_components(),
            ))
        });
        // Free space of machines opened so far, per type.
        let mut open: Vec<Vec<Resources>> = vec![Vec::new(); catalog.len()];
        let mut quotas = vec![vec![0usize; n_classes]; catalog.len()];
        for &n in &class_order {
            if need[n] == 0 {
                continue;
            }
            let size = self.manager.container_size(TaskClassId(n));
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
