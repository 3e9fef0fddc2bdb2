//! The incremental (online) HARMONY pipeline behind `harmonyd`.
//!
//! [`crate::pipeline`] wires the controllers into the discrete-event
//! simulator for batch replays; this module feeds the same
//! `ControlLoop` (`control_loop.rs`) one control period of
//! observations at a time — the shape a real cluster manager (or the
//! provisioning daemon) consumes. Unlike the simulator controllers it
//! holds no cluster reference: the previous integer plan stands in for
//! "machines currently active", which is exactly what the daemon
//! actuated last period.
//!
//! The pipeline's mutable state is small and fully serializable
//! ([`OnlineState`]): arrival histories, the previous plan, the tick
//! counter, the error count, and any degradation events not yet drained
//! by a client. [`OnlinePipeline::state`] / [`OnlinePipeline::restore`]
//! are the daemon's checkpoint/restore hooks; restoring a state into a
//! freshly-built pipeline (same trace-fitted classifier, same config)
//! reproduces the exact plan sequence an uninterrupted pipeline would
//! have produced, which the server crate's end-to-end test asserts
//! through a `kill -9`.

use harmony_model::{EnergyPrice, MachineCatalog, SimTime, Task};
use harmony_sim::{DegradationEvent, TaskView};
use serde::{Deserialize, Serialize};

use crate::classify::TaskClassifier;
use crate::control_loop::{ControlLoop, PeriodInputs};
use crate::monitor::ClassForecast;
use crate::rounding::IntegerPlan;
use crate::{HarmonyConfig, HarmonyError};

/// The serializable mutable state of an [`OnlinePipeline`] — everything
/// a checkpoint must carry so a restored pipeline continues the exact
/// decision sequence. The immutable parts (classifier, catalog, config)
/// are rebuilt deterministically from their sources and are not part of
/// this snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineState {
    /// Control ticks completed so far.
    pub ticks: u64,
    /// Ticks that failed the full pipeline and took a degradation rung.
    pub errors: usize,
    /// Per-class arrival-rate history (tasks/second).
    pub histories: Vec<Vec<f64>>,
    /// The last successfully-solved integer plan.
    pub last_plan: Option<IntegerPlan>,
    /// Degradation events not yet drained by a client.
    pub pending_events: Vec<DegradationEvent>,
    /// The previous period's optimal simplex basis. Checkpointed so a
    /// restored pipeline takes the same warm/cold solve path as an
    /// uninterrupted one — warm and cold solves may land on different
    /// (equal-objective) vertices, so dropping the basis across a
    /// restore would break bit-identical plan reproduction. Checkpoints
    /// from before warm starts load as `None`.
    #[serde(default)]
    pub lp_basis: Option<harmony_lp::Basis>,
}

/// The long-lived online control pipeline: one [`OnlinePipeline::tick`]
/// per control period. The daemon's adapter over `ControlLoop`: it owns
/// the classifier and catalog and keeps the clock.
#[derive(Debug)]
pub struct OnlinePipeline {
    classifier: TaskClassifier,
    catalog: MachineCatalog,
    control: ControlLoop,
    ticks: u64,
    /// Machines per type of the plan `tick` last returned, whichever
    /// rung made it: what the daemon actuated, so the next tick's
    /// switching-cost baseline. Not checkpointed; a restored pipeline
    /// starts from its last solved plan.
    actuated: Vec<f64>,
}

impl OnlinePipeline {
    /// Builds the pipeline from a fitted classifier and a machine
    /// catalog.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and container-sizing errors.
    pub fn new(
        classifier: TaskClassifier,
        catalog: MachineCatalog,
        config: HarmonyConfig,
        price: EnergyPrice,
    ) -> Result<Self, HarmonyError> {
        let control = ControlLoop::new(&classifier, config, price)?;
        let actuated = vec![0.0; catalog.len()];
        Ok(OnlinePipeline { classifier, catalog, control, ticks: 0, actuated })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HarmonyConfig {
        self.control.config()
    }

    /// The machine catalog provisioned against.
    pub fn catalog(&self) -> &MachineCatalog {
        &self.catalog
    }

    /// The fitted classifier.
    pub fn classifier(&self) -> &TaskClassifier {
        &self.classifier
    }

    /// Number of task classes in the pipeline.
    pub fn n_classes(&self) -> usize {
        self.control.manager().n_classes()
    }

    /// Control ticks completed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ticks that failed the full pipeline and degraded instead.
    pub fn error_count(&self) -> usize {
        self.control.errors
    }

    /// The logical clock: control periods completed × period length.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.ticks as f64 * self.config().control_period.as_secs())
    }

    /// The last successfully-solved plan, if any.
    pub fn last_plan(&self) -> Option<&IntegerPlan> {
        self.control.last_plan.as_ref()
    }

    /// Degradation events accumulated and not yet drained.
    pub fn pending_degradations(&self) -> &[DegradationEvent] {
        &self.control.degradations
    }

    /// Drains the degradation events accumulated since the last call.
    pub fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        std::mem::take(&mut self.control.degradations)
    }

    /// Per-class tiered forecast from the current histories (does not
    /// advance the clock or record events).
    pub fn forecast_tiered(&self, horizon: usize) -> Vec<ClassForecast> {
        self.control.monitor().forecast_tiered(horizon)
    }

    /// One control period (`ControlLoop::run_period`) over `arrived`
    /// and the unserved backlog `pending`, which must be provisioned for
    /// immediately, on top of the forecast. The plan the last tick
    /// returned — solved, reused, greedy or an all-zero hold — is what
    /// the daemon actuated, so it is the switching-cost baseline; the
    /// daemon sees no running tasks.
    ///
    /// Never fails: on a pipeline error the loop's ladder re-actuates the
    /// previous plan or sizes greedily; when that places nothing, zero
    /// capacity is held ([`harmony_sim::DegradationKind::ControlHold`]).
    pub fn tick(&mut self, arrived: &[Task], pending: &[Task]) -> IntegerPlan {
        let plan = self.control.run_period(&PeriodInputs {
            now: self.now(),
            classifier: &self.classifier,
            catalog: &self.catalog,
            arrived: TaskView::dense(arrived),
            pending: TaskView::dense(pending),
            initial_active: self.actuated.clone(),
            occupied: vec![0.0; self.control.manager().n_classes()],
        });
        self.ticks += 1;
        let plan = plan.unwrap_or_else(|| IntegerPlan {
            machines: vec![0; self.catalog.len()],
            quotas: vec![vec![0; self.n_classes()]; self.catalog.len()],
        });
        self.actuated = plan.machines.iter().map(|&m| m as f64).collect();
        plan
    }

    /// Snapshots the pipeline's mutable state for a checkpoint.
    pub fn state(&self) -> OnlineState {
        OnlineState {
            ticks: self.ticks,
            errors: self.control.errors,
            histories: self.control.monitor().histories().to_vec(),
            last_plan: self.control.last_plan.clone(),
            pending_events: self.control.degradations.clone(),
            lp_basis: self.control.lp_basis.clone(),
        }
    }

    /// Restores a checkpointed state into this (freshly-built) pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`HarmonyError::InvalidConfig`] when the snapshot's shape
    /// does not match this pipeline (class count, history bound, or plan
    /// dimensions) — a checkpoint from a different configuration must
    /// not be silently accepted.
    pub fn restore(&mut self, state: OnlineState) -> Result<(), HarmonyError> {
        if let Some(plan) = &state.last_plan {
            if plan.machines.len() != self.catalog.len() {
                return Err(HarmonyError::InvalidConfig {
                    reason: format!(
                        "checkpoint plan has {} machine types, catalog has {}",
                        plan.machines.len(),
                        self.catalog.len()
                    ),
                });
            }
            if plan.quotas.len() != self.catalog.len()
                || plan.quotas.iter().any(|q| q.len() != self.n_classes())
            {
                return Err(HarmonyError::InvalidConfig {
                    reason: "checkpoint plan quota dimensions do not match".into(),
                });
            }
        }
        self.control.restore_histories(state.histories)?;
        self.actuated = match &state.last_plan {
            Some(plan) => plan.machines.iter().map(|&m| m as f64).collect(),
            None => vec![0.0; self.catalog.len()],
        };
        self.control.errors = state.errors;
        self.control.last_plan = state.last_plan;
        self.control.lp_basis = state.lp_basis;
        self.control.degradations = state.pending_events;
        self.ticks = state.ticks;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_sim::DegradationKind;
    use serde::Value;

    fn fixture() -> (OnlinePipeline, harmony_trace::Trace) {
        fixture_with_pivots(HarmonyConfig::default().max_lp_pivots)
    }

    /// A pipeline whose LP budget is `max_lp_pivots`; one pivot makes
    /// every real solve hit the iteration limit.
    fn fixture_with_pivots(max_lp_pivots: usize) -> (OnlinePipeline, harmony_trace::Trace) {
        fixture_on(MachineCatalog::table2().scaled(100), max_lp_pivots)
    }

    fn fixture_on(
        catalog: MachineCatalog,
        max_lp_pivots: usize,
    ) -> (OnlinePipeline, harmony_trace::Trace) {
        let (classifier, trace, config) = crate::control_loop::small_fixture();
        let pipeline = OnlinePipeline::new(
            classifier,
            catalog,
            HarmonyConfig { max_lp_pivots, ..config },
            EnergyPrice::default(),
        )
        .unwrap();
        (pipeline, trace)
    }

    /// Feed the trace's fixed-size `chunks`, collecting each tick's plan.
    fn drive(
        pipeline: &mut OnlinePipeline,
        trace: &harmony_trace::Trace,
        chunks: std::ops::Range<usize>,
    ) -> Vec<IntegerPlan> {
        chunks
            .map(|i| {
                let lo = (i * 150).min(trace.len());
                let hi = ((i + 1) * 150).min(trace.len());
                let chunk = &trace.tasks()[lo..hi];
                pipeline.tick(chunk, chunk)
            })
            .collect()
    }

    #[test]
    fn tick_provisions_for_demand_and_advances_clock() {
        let (mut pipeline, trace) = fixture();
        assert_eq!(pipeline.now(), SimTime::ZERO);
        let plans = drive(&mut pipeline, &trace, 0..3);
        assert_eq!(pipeline.ticks(), 3);
        assert_eq!(pipeline.now(), SimTime::from_secs(3.0 * 600.0));
        assert_eq!(pipeline.error_count(), 0);
        let total: usize = plans[0].machines.iter().sum();
        assert!(total > 0, "arrivals must bring machines up: {plans:?}");
        assert!(pipeline.last_plan().is_some());
    }

    #[test]
    fn empty_ticks_scale_down() {
        let (mut pipeline, trace) = fixture();
        drive(&mut pipeline, &trace, 0..2);
        // Enough empty periods to flush the moving-average window (6).
        let mut last_total = usize::MAX;
        for _ in 0..8 {
            let plan = pipeline.tick(&[], &[]);
            last_total = plan.machines.iter().sum();
        }
        assert!(last_total <= 2, "idle pipeline should power down, got {last_total}");
    }

    #[test]
    fn restore_reproduces_plan_sequence() {
        let (mut uninterrupted, trace) = fixture();
        let full = drive(&mut uninterrupted, &trace, 0..6);

        // Run 3 ticks, checkpoint, rebuild, restore, run 3 more.
        let (mut first_half, _) = fixture();
        let mut prefix = drive(&mut first_half, &trace, 0..3);
        let snapshot = first_half.state();
        let text = serde_json::to_string(&snapshot).unwrap();
        let state: OnlineState = serde_json::from_str(&text).unwrap();
        assert_eq!(state, snapshot);

        let (mut second_half, _) = fixture();
        second_half.restore(state).unwrap();
        assert_eq!(second_half.ticks(), 3);
        prefix.extend(drive(&mut second_half, &trace, 3..6));
        assert_eq!(prefix, full, "restored pipeline must reproduce the plan sequence");
    }

    #[test]
    fn failure_without_previous_plan_sizes_greedily() {
        let (mut pipeline, trace) = fixture_with_pivots(1);
        let chunk = &trace.tasks()[..150];
        let plan = pipeline.tick(chunk, chunk);
        assert!(plan.machines.iter().sum::<usize>() > 0, "greedy rung provisions: {plan:?}");
        let placed: usize = plan.quotas.iter().flatten().sum();
        assert!(0 < placed && placed <= chunk.len(), "at most one container per task: {placed}");
        assert_eq!(pipeline.error_count(), 1);
        assert_eq!(pipeline.last_plan(), None, "a greedy plan is not a solved one");
        let kinds: Vec<_> = pipeline.take_degradations().into_iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DegradationKind::LpGreedyFallback), "{kinds:?}");
        assert!(!kinds.contains(&DegradationKind::ControlHold), "{kinds:?}");
        assert!(pipeline.take_degradations().is_empty());
    }

    #[test]
    fn the_tick_after_a_greedy_one_switches_from_its_plan() {
        // The greedy rung's plan was actuated, so the next tick prices
        // switching from its machines, not from a powered-off cluster.
        let (mut pipeline, trace) = fixture_with_pivots(1);
        let first = &trace.tasks()[..150];
        let greedy = pipeline.tick(first, first);
        assert_eq!(pipeline.last_plan(), None);
        let state = pipeline.state();
        // Heal the solver: the same loop state under the default budget.
        let (mut healed, _) = fixture();
        healed.restore(state.clone()).unwrap();
        std::mem::swap(&mut pipeline.control, &mut healed.control);
        let second = &trace.tasks()[150..300];
        let plan = pipeline.tick(second, second);

        // The same period run by the loop itself from either baseline.
        let from = |initial_active: Vec<f64>| {
            let (mut reference, _) = fixture();
            reference.restore(state.clone()).unwrap();
            let n_classes = reference.n_classes();
            reference.control.run_period(&PeriodInputs {
                now: reference.now(),
                classifier: &reference.classifier,
                catalog: &reference.catalog,
                arrived: TaskView::dense(second),
                pending: TaskView::dense(second),
                initial_active,
                occupied: vec![0.0; n_classes],
            })
        };
        let zeros = from(vec![0.0; greedy.machines.len()]);
        let actuated = from(greedy.machines.iter().map(|&m| m as f64).collect());
        assert_ne!(zeros, actuated, "the baseline must matter for this test to say anything");
        assert_eq!(Some(plan), actuated);
    }

    #[test]
    fn failure_with_nothing_placeable_holds_at_zero() {
        // One machine type too small for any container: the greedy rung
        // places nothing, so the tick holds at zero machines.
        let mut tiny = MachineCatalog::table2().scaled(100).iter().next().unwrap().clone();
        tiny.capacity = harmony_model::Resources::splat(1e-5);
        let (mut pipeline, trace) = fixture_on(MachineCatalog::new(vec![tiny]).unwrap(), 1);
        let chunk = &trace.tasks()[..150];
        let plan = pipeline.tick(chunk, chunk);
        assert_eq!(
            plan,
            IntegerPlan { machines: vec![0], quotas: vec![vec![0; pipeline.n_classes()]] }
        );
        assert_eq!(pipeline.error_count(), 1);
        let events = pipeline.take_degradations();
        assert!(events.iter().any(|d| matches!(d.kind, DegradationKind::ControlHold)));
    }

    #[test]
    fn failure_with_previous_plan_reuses_it() {
        let (mut pipeline, trace) = fixture();
        let chunk = &trace.tasks()[..150];
        let first = pipeline.tick(chunk, chunk);
        let (mut crippled, _) = fixture_with_pivots(1);
        crippled.restore(pipeline.state()).unwrap();
        let second = crippled.tick(chunk, chunk);
        assert_eq!(second, first, "reused plan re-actuates");
        assert_eq!(crippled.error_count(), 1);
        let events = crippled.take_degradations();
        assert!(events.iter().any(|d| matches!(d.kind, DegradationKind::LpReusedPreviousPlan)));
    }

    #[test]
    fn restore_rejects_mismatched_plan_shape() {
        let (mut pipeline, _) = fixture();
        let empty = pipeline.state();
        let bad_plan = Some(IntegerPlan { machines: vec![1], quotas: vec![vec![0]] });
        assert!(pipeline.restore(OnlineState { last_plan: bad_plan, ..empty.clone() }).is_err());
        let bad_classes = OnlineState { histories: vec![Vec::new()], ..empty };
        assert!(pipeline.restore(bad_classes).is_err());
    }

    /// A two-tick state's JSON form, as a checkpoint would hold it.
    fn two_tick_state() -> Value {
        let (mut pipeline, trace) = fixture();
        drive(&mut pipeline, &trace, 0..2);
        pipeline.state().to_value()
    }

    #[test]
    fn checkpoint_without_lp_basis_field_still_loads() {
        // Written before warm starts existed: loads with a cold basis.
        let mut v = two_tick_state();
        if let Value::Object(map) = &mut v {
            map.remove("lp_basis");
        }
        let state = OnlineState::from_value(&v).unwrap();
        assert_eq!(state.lp_basis, None);
        assert_eq!(state.ticks, 2);
    }

    #[test]
    fn checkpoint_with_retired_cost_dollars_field_still_loads() {
        // Written while the state still carried the rental spend of the
        // retired dollar objective: the key is ignored.
        let v = two_tick_state();
        let expected = OnlineState::from_value(&v).unwrap();
        let mut with_spend = v;
        if let Value::Object(map) = &mut with_spend {
            map.insert("cost_dollars".into(), Value::from(12.5));
        }
        assert_eq!(OnlineState::from_value(&with_spend).unwrap(), expected);
    }

    #[test]
    fn checkpoint_carries_the_warm_basis() {
        let (mut pipeline, trace) = fixture();
        assert_eq!(pipeline.state().lp_basis, None);
        drive(&mut pipeline, &trace, 0..2);
        let state = pipeline.state();
        assert!(state.lp_basis.is_some(), "a ticked pipeline must checkpoint its basis");
        let text = serde_json::to_string(&state).unwrap();
        let back: OnlineState = serde_json::from_str(&text).unwrap();
        assert_eq!(back, state);

        // Swap in a stale basis from an unrelated tiny LP under a
        // crippled pivot budget: the warm install rejects the mismatched
        // shape, the cold fallback hits the budget and fails, and the
        // failure must drop the carried basis, not keep the stale one.
        let mut tiny = harmony_lp::Problem::new(harmony_lp::Sense::Minimize);
        let x = tiny.add_var(0.0, f64::INFINITY, 1.0);
        tiny.add_ge(vec![(x, 1.0)], 1.0);
        let stale = tiny.solve().unwrap().basis().clone();
        let (mut crippled, _) = fixture_with_pivots(1);
        crippled.restore(OnlineState { lp_basis: Some(stale), ..state }).unwrap();
        crippled.tick(&[], &[]);
        assert_eq!(crippled.error_count(), 1);
        assert_eq!(crippled.state().lp_basis, None, "a failed solve must drop the basis");
    }
}
