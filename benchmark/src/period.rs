//! The `period_cold` and `period_chain` workloads: consecutive
//! `OnlinePipeline::tick` calls on the shared `table2-660` instance
//! (Table II's 10,000 machines, ≈ 660 task classes, horizon 4).
//!
//! The traced run re-executes every tick stage by stage from the public
//! functions `OnlinePipeline::step` calls, in its order, with a span
//! around each; the real `tick()` runs beside it and the two plans must
//! agree, or the stage split is void.

use std::time::Instant;

use harmony::cbs::{solve_cbs_relax_warm, CbsInputs};
use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::containers::ContainerManager;
use harmony::monitor::ArrivalMonitor;
use harmony::rounding::{round_first_step, IntegerPlan};
use harmony::{HarmonyConfig, HarmonyError, OnlinePipeline, WarmOutcome};
use harmony_model::{
    EnergyPrice, MachineCatalog, MachineTypeId, Resources, SimDuration, SimTime, Task, TaskClassId,
};
use harmony_sim::{DegradationEvent, DegradationKind, ForecastTier};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

use crate::digest::Digest;
use crate::spans::Tracer;
use crate::stats;
use crate::{Layers, RunOutput};

/// The control period of the instance.
const PERIOD_SECS: f64 = 900.0;

/// What happens to the simplex basis between ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisPolicy {
    /// Dropped before every tick: the period after a restart, a
    /// class-set change or a structural warm-start fallback.
    Dropped,
    /// Threaded from tick to tick, as harmonyd runs it.
    Threaded,
}

/// Instance sizes. `full` is frozen by the workload definition; `smoke`
/// only has to exercise the same code in a second or two.
#[derive(Debug, Clone, Copy)]
pub struct PeriodSize {
    /// Multiplier on every `paper_scale` arrival rate. ×8 grows the plan
    /// from ≈ 400 to ≈ 2,500 machines over the window, so the DL585 and
    /// DL385 capacity rows bind.
    rate_multiplier: f64,
    /// Clusters per priority group; the duration split about doubles it.
    k_per_group: usize,
    /// The classifier is fitted on about this many tasks, every k-th of
    /// the trace (fitting all ≈ 485k takes minutes).
    fit_sample: usize,
    catalog_divisor: usize,
    /// Periods fed to the monitor in set-up, so ARIMA is live from the
    /// first timed tick.
    seeded_periods: usize,
}

impl PeriodSize {
    pub fn full() -> Self {
        PeriodSize {
            rate_multiplier: 8.0,
            k_per_group: 110,
            fit_sample: 60_000,
            catalog_divisor: 1,
            seeded_periods: 24,
        }
    }

    pub fn smoke() -> Self {
        PeriodSize {
            rate_multiplier: 0.08,
            k_per_group: 5,
            fit_sample: 6_000,
            catalog_divisor: 100,
            seeded_periods: 24,
        }
    }
}

/// The built instance: the trace and a pipeline with seeded histories.
struct Instance {
    trace: Trace,
    pipeline: OnlinePipeline,
    generate_s: f64,
    fit_s: f64,
}

fn build(size: &PeriodSize, seed: u64) -> Result<Instance, HarmonyError> {
    let started = Instant::now();
    let mut trace_config = TraceConfig::paper_scale()
        .with_span(SimDuration::from_hours(36.0))
        .with_seed(seed);
    for arrivals in &mut trace_config.arrivals {
        arrivals.base_jobs_per_sec *= size.rate_multiplier;
    }
    let trace = TraceGenerator::new(trace_config).generate();
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let stride = (trace.len() / size.fit_sample).max(1);
    let sample: Vec<Task> = trace.tasks().iter().step_by(stride).cloned().collect();
    let classifier = TaskClassifier::fit(
        &sample,
        &ClassifierConfig {
            k_per_group: Some([size.k_per_group; 3]),
            ..Default::default()
        },
    )?;
    let fit_s = started.elapsed().as_secs_f64();

    let config = HarmonyConfig {
        control_period: SimDuration::from_secs(PERIOD_SECS),
        horizon: 4,
        ..Default::default()
    };
    let mut pipeline = OnlinePipeline::new(
        classifier,
        MachineCatalog::table2().scaled(size.catalog_divisor),
        config,
        EnergyPrice::default(),
    )?;
    let mut monitor = new_monitor(&pipeline);
    for period in 0..size.seeded_periods {
        monitor.record_period(arrived_in(&trace, period), pipeline.classifier());
    }
    let mut state = pipeline.state();
    state.histories = monitor.histories().to_vec();
    state.ticks = size.seeded_periods as u64;
    pipeline.restore(state)?;
    Ok(Instance {
        trace,
        pipeline,
        generate_s,
        fit_s,
    })
}

fn new_monitor(pipeline: &OnlinePipeline) -> ArrivalMonitor {
    let config = pipeline.config();
    ArrivalMonitor::new(
        pipeline.n_classes(),
        config.control_period,
        config.history_len,
        config.arima_min_history,
    )
}

/// Tasks arriving in control period `period`, a sub-slice of the
/// arrival-sorted trace.
fn arrived_in(trace: &Trace, period: usize) -> &[Task] {
    let tasks = trace.tasks();
    let lo = PERIOD_SECS * period as f64;
    let from = tasks.partition_point(|t| t.arrival.as_secs() < lo);
    let to = tasks.partition_point(|t| t.arrival.as_secs() < lo + PERIOD_SECS);
    &tasks[from..to]
}

/// Tasks that arrived before `period` begins and are still running then:
/// the occupancy the closed loop adds to the forecast. Without it the
/// plan powers ~100 of 10,000 machines and no capacity row binds.
fn pending_at(trace: &Trace, period: usize) -> Vec<Task> {
    let lo = PERIOD_SECS * period as f64;
    trace
        .tasks()
        .iter()
        .take_while(|t| t.arrival.as_secs() < lo)
        .filter(|t| t.arrival.as_secs() + t.duration.as_secs() > lo)
        .cloned()
        .collect()
}

fn drop_basis(pipeline: &mut OnlinePipeline) -> Result<(), HarmonyError> {
    let mut state = pipeline.state();
    state.lp_basis = None;
    pipeline.restore(state)
}

/// The `ops_failed_ratio` rule for one tick: it outlasted its own
/// control period, the pipeline counted an error, took a plan-reuse or
/// hold rung of the degradation ladder, or returned a plan that powers
/// more machines of a type than exist.
pub fn tick_failed(
    tick_s: f64,
    errors_before: usize,
    errors_after: usize,
    degradations: &[DegradationEvent],
    plan: &IntegerPlan,
    catalog: &MachineCatalog,
) -> bool {
    tick_s >= PERIOD_SECS
        || errors_after > errors_before
        || degradations.iter().any(|d| {
            matches!(
                d.kind,
                DegradationKind::LpReusedPreviousPlan | DegradationKind::ControlHold
            )
        })
        || plan.machines.len() != catalog.len()
        || plan
            .machines
            .iter()
            .enumerate()
            .any(|(m, &on)| on > catalog.machine_type(MachineTypeId(m)).count)
}

/// Runs `ticks` consecutive ticks and returns the samples, the checks
/// and, when `tracer` is given, the per-layer numbers.
pub fn run(
    policy: BasisPolicy,
    size: &PeriodSize,
    seed: u64,
    ticks: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<RunOutput, String> {
    let (instance, setup_s) = crate::timed_setup(|| build(size, seed).map_err(|e| e.to_string()))?;
    let Instance {
        trace,
        mut pipeline,
        generate_s,
        fit_s,
    } = instance;
    let mut replica = match tracer {
        Some(_) => Some(Replica::of(&pipeline).map_err(|e| e.to_string())?),
        None => None,
    };

    let first = pipeline.ticks() as usize;
    let mut out = RunOutput {
        setup_s,
        ..Default::default()
    };
    let mut digest = Digest::default();
    let mut tally = Tally::default();
    let mut real_wall = 0.0;
    for (op, period) in (first..first + ticks).enumerate() {
        let arrived = arrived_in(&trace, period);
        let pending = pending_at(&trace, period);

        // Alternate which side runs first, so neither always finds the
        // caches warmed by the other.
        let replica_first = op % 2 == 0;
        let mut replica_plan = None;
        if let (Some(replica), Some(tracer), true) = (&mut replica, &mut tracer, replica_first) {
            replica_plan =
                Some(replica.tick(tracer, &mut tally, op as u32, policy, arrived, &pending)?);
        }

        if policy == BasisPolicy::Dropped {
            drop_basis(&mut pipeline).map_err(|e| e.to_string())?;
        }
        let errors_before = pipeline.error_count();
        let started = Instant::now();
        let plan = pipeline.tick(arrived, &pending);
        let tick_s = started.elapsed().as_secs_f64();
        real_wall += tick_s;
        let degradations = pipeline.take_degradations();
        tally.degradations += degradations.len() as u64;
        out.attempted += 1;
        if tick_failed(
            tick_s,
            errors_before,
            pipeline.error_count(),
            &degradations,
            &plan,
            pipeline.catalog(),
        ) {
            out.failed += 1;
        }
        digest.update_json(&plan);

        if let (Some(replica), Some(tracer), false) = (&mut replica, &mut tracer, replica_first) {
            replica_plan =
                Some(replica.tick(tracer, &mut tally, op as u32, policy, arrived, &pending)?);
        }
        if let Some(replica_plan) = replica_plan {
            tally.replica_matches += u64::from(replica_plan == plan);
        } else {
            out.op_times.push(tick_s);
            out.op_tasks.push((arrived.len() + pending.len()) as f64);
        }
        eprintln!(
            "  tick {period}: {tick_s:.3} s, {} arrived, {} running, machines {:?}",
            arrived.len(),
            pending.len(),
            plan.machines
        );
    }
    out.digest = digest.hex();
    out.correct = out.failed == 0;

    if let Some(tracer) = tracer {
        let layers = &mut out.layers;
        layers.set("trace.generate_s", generate_s);
        layers.set("trace.tasks", trace.len() as f64);
        layers.set("classify.fit_s", fit_s);
        layers.set("classify.classes", pipeline.n_classes() as f64);
        tally.report(tracer, layers, real_wall);
        if tally.replica_matches != ticks as u64 {
            eprintln!(
                "warning: the stage-by-stage replica matched tick() on {} of {ticks} ticks; \
                 the replica is stale and the period split is void",
                tally.replica_matches
            );
        }
    }
    Ok(out)
}

/// Exact counts gathered at the layer boundaries of the traced ticks.
#[derive(Debug, Default)]
struct Tally {
    tasks_labeled: u64,
    class_forecasts: u64,
    arima_forecasts: u64,
    degraded_forecasts: u64,
    solves: u64,
    lp_vars: usize,
    lp_rows: usize,
    pivots: u64,
    phase1_pivots: u64,
    cold: u64,
    hits: u64,
    repair_fallbacks: u64,
    structural_fallbacks: u64,
    containers: u64,
    machines_on: u64,
    replica_matches: u64,
    /// Degradation events the real `tick()` calls recorded.
    degradations: u64,
}

impl Tally {
    fn report(&self, tracer: &Tracer, layers: &mut Layers, real_wall: f64) {
        let tick_times: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "online.tick")
            .map(|s| s.busy)
            .collect();
        let ticks = tick_times.len() as f64;
        let wall = tracer.busy("online.tick");
        layers.set("classify.label_busy_s", tracer.busy("classify.label"));
        layers.set("classify.tasks_labeled", self.tasks_labeled as f64);
        layers.set("forecast.busy_s", tracer.busy("forecast"));
        layers.set("forecast.calls", tracer.calls("forecast") as f64);
        layers.set("forecast.class_forecasts", self.class_forecasts as f64);
        layers.set(
            "forecast.arima_ratio",
            stats::ratio(self.arima_forecasts as f64, self.class_forecasts as f64),
        );
        layers.set("forecast.degraded", self.degraded_forecasts as f64);
        layers.set("containers.busy_s", tracer.busy("containers"));
        layers.set("containers.calls", tracer.calls("containers") as f64);
        layers.set("cbs.busy_s", tracer.busy("cbs"));
        layers.set("cbs.solves", self.solves as f64);
        layers.set("cbs.lp_vars", self.lp_vars as f64);
        layers.set("cbs.lp_rows", self.lp_rows as f64);
        layers.set("lp.pivots", self.pivots as f64);
        layers.set("lp.phase1_pivots", self.phase1_pivots as f64);
        layers.set(
            "lp.us_per_pivot",
            stats::ratio(1e6 * tracer.busy("cbs"), self.pivots as f64),
        );
        layers.set("lp.cold_solves", self.cold as f64);
        layers.set("lp.warm_hits", self.hits as f64);
        layers.set("lp.warm_repair_fallbacks", self.repair_fallbacks as f64);
        layers.set(
            "lp.warm_structural_fallbacks",
            self.structural_fallbacks as f64,
        );
        layers.set(
            "lp.warm_hit_ratio",
            stats::ratio(self.hits as f64, (self.solves - self.cold) as f64),
        );
        layers.set("rounding.busy_s", tracer.busy("rounding"));
        layers.set("rounding.calls", tracer.calls("rounding") as f64);
        layers.set("rounding.containers", self.containers as f64);
        layers.set("rounding.machines_on", self.machines_on as f64);
        layers.set("online.ticks", ticks);
        layers.set("online.wall_s", wall);
        layers.set("online.self_s", tracer.self_time("online.tick"));
        let sorted_times = stats::sorted(&tick_times);
        layers.set("online.period_p90_s", stats::percentile(&sorted_times, 0.9));
        layers.set("online.period_max_s", stats::percentile(&sorted_times, 1.0));
        layers.set("online.degradations", self.degradations as f64);
        layers.set(
            "online.replica_match_ratio",
            self.replica_matches as f64 / ticks,
        );
        layers.set("tracing.overhead_ratio", wall / real_wall - 1.0);
    }
}

/// `OnlinePipeline::step`, rebuilt from the public functions it calls so
/// that a span can sit around each stage. It owns copies of the
/// pipeline's immutable parts and threads its own monitor, basis and
/// last plan.
struct Replica {
    classifier: TaskClassifier,
    catalog: MachineCatalog,
    config: HarmonyConfig,
    price: EnergyPrice,
    manager: ContainerManager,
    monitor: ArrivalMonitor,
    last_plan: Option<IntegerPlan>,
    basis: Option<harmony_lp::Basis>,
    ticks: u64,
}

impl Replica {
    fn of(pipeline: &OnlinePipeline) -> Result<Self, HarmonyError> {
        let classifier = pipeline.classifier().clone();
        let config = pipeline.config().clone();
        let manager = ContainerManager::new(&classifier, &config)?;
        let mut monitor = new_monitor(pipeline);
        monitor.restore_histories(pipeline.state().histories)?;
        Ok(Replica {
            classifier,
            catalog: pipeline.catalog().clone(),
            config,
            price: EnergyPrice::default(),
            manager,
            monitor,
            last_plan: pipeline.last_plan().cloned(),
            basis: None,
            ticks: pipeline.ticks(),
        })
    }

    fn tick(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        op: u32,
        policy: BasisPolicy,
        arrived: &[Task],
        pending: &[Task],
    ) -> Result<IntegerPlan, String> {
        let phase1_counter = harmony_telemetry::global().counter("lp.phase1_pivots");
        let n_classes = self.manager.n_classes();
        let now = SimTime::from_secs(self.ticks as f64 * self.config.control_period.as_secs());
        let tick = tracer.enter("online.tick", op);

        tracer.span("classify.label", op, || {
            self.monitor.record_period(arrived, &self.classifier)
        });
        let workers = harmony::par::effective_workers(self.config.pipeline_workers, n_classes);
        let tiered = tracer.span("forecast", op, || {
            self.monitor
                .forecast_tiered_with_workers(self.config.horizon, workers)
        });
        tally.tasks_labeled += (arrived.len() + pending.len()) as u64;
        tally.class_forecasts += tiered.len() as u64;
        tally.arima_forecasts += tiered
            .iter()
            .filter(|c| c.tier == ForecastTier::Arima)
            .count() as u64;
        tally.degraded_forecasts += tiered.iter().filter(|c| c.degraded.is_some()).count() as u64;

        let backlog = tracer.span("classify.label", op, || {
            let mut backlog = vec![0.0f64; n_classes];
            for task in pending {
                backlog[self.classifier.initial_label(task).0] += 1.0;
            }
            backlog
        });
        let rates: Vec<Vec<f64>> = tiered.into_iter().map(|c| c.rates).collect();
        let demand = tracer
            .span("containers", op, || {
                let counts = self.manager.containers_for_rates(&rates, workers)?;
                let mut demand = vec![vec![0.0f64; n_classes]; self.config.horizon];
                for n in 0..n_classes {
                    for (t, row) in demand.iter_mut().enumerate() {
                        row[n] = counts[n][t] + backlog[n];
                    }
                }
                Ok::<_, HarmonyError>(demand)
            })
            .map_err(|e| format!("traced tick {op}: sizing failed: {e}"))?;

        let container_sizes: Vec<Resources> = (0..n_classes)
            .map(|n| self.manager.container_size(TaskClassId(n)))
            .collect();
        let utility: Vec<f64> = self
            .classifier
            .classes()
            .iter()
            .map(|c| self.config.utility_for(c.group))
            .collect();
        let initial: Vec<f64> = match &self.last_plan {
            Some(plan) => plan.machines.iter().map(|&m| m as f64).collect(),
            None => vec![0.0; self.catalog.len()],
        };
        let warm = match policy {
            BasisPolicy::Dropped => None,
            BasisPolicy::Threaded => self.basis.as_ref(),
        };
        let phase1_before = phase1_counter.get();
        let solve = tracer
            .span("cbs", op, || {
                solve_cbs_relax_warm(
                    &CbsInputs {
                        catalog: &self.catalog,
                        container_sizes: &container_sizes,
                        utility_per_hour: &utility,
                        demand: &demand,
                        initial_active: &initial,
                        price: &self.price,
                        now,
                    },
                    &self.config,
                    warm,
                )
            })
            .map_err(|e| format!("traced tick {op}: CBS-RELAX failed: {e}"))?;
        tally.solves += 1;
        tally.lp_vars = solve.lp_vars;
        tally.lp_rows = solve.lp_constraints;
        tally.pivots += solve.pivots as u64;
        tally.phase1_pivots += phase1_counter.get() - phase1_before;
        match solve.warm_outcome {
            WarmOutcome::Cold => tally.cold += 1,
            WarmOutcome::Hit => tally.hits += 1,
            WarmOutcome::RepairFallback => tally.repair_fallbacks += 1,
            WarmOutcome::StructuralFallback => tally.structural_fallbacks += 1,
        }

        let plan = tracer.span("rounding", op, || {
            round_first_step(&solve.plan, &self.catalog, &container_sizes)
        });
        tracer.exit(tick);
        tally.containers += plan.quotas.iter().flatten().sum::<usize>() as u64;
        tally.machines_on += plan.machines.iter().sum::<usize>() as u64;
        self.basis = Some(solve.basis);
        self.last_plan = Some(plan.clone());
        self.ticks += 1;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(machines: Vec<usize>) -> IntegerPlan {
        IntegerPlan {
            quotas: vec![vec![0]; machines.len()],
            machines,
        }
    }

    fn event(kind: DegradationKind) -> DegradationEvent {
        DegradationEvent {
            at: SimTime::ZERO,
            kind,
            detail: String::new(),
        }
    }

    #[test]
    fn tick_failure_rules() {
        let catalog = MachineCatalog::table2().scaled(100); // 70 / 15 / 10 / 5
        let ok = plan(vec![70, 0, 10, 5]);
        let failed = |tick_s: f64, errors: (usize, usize), events: &[DegradationEvent], plan| {
            tick_failed(tick_s, errors.0, errors.1, events, plan, &catalog)
        };
        assert!(!failed(5.0, (0, 0), &[], &ok));
        assert!(failed(900.0, (0, 0), &[], &ok), "outlasted the period");
        // A forecast fallback is a degradation, but the tick still planned.
        let fallback = event(DegradationKind::ForecastFallback {
            class: 3,
            tier: ForecastTier::MovingAverage,
        });
        assert!(!failed(5.0, (2, 2), &[fallback], &ok));
        assert!(failed(5.0, (2, 3), &[], &ok), "error count rose");
        let reused = event(DegradationKind::LpReusedPreviousPlan);
        assert!(failed(5.0, (0, 0), &[reused], &ok));
        assert!(failed(
            5.0,
            (0, 0),
            &[event(DegradationKind::ControlHold)],
            &ok
        ));
        let crowded = plan(vec![71, 0, 0, 0]);
        assert!(failed(5.0, (0, 0), &[], &crowded), "over population");
        assert!(failed(5.0, (0, 0), &[], &plan(vec![1, 1])), "wrong shape");
    }

    #[test]
    fn windows_partition_the_trace() {
        let trace = TraceGenerator::new(
            TraceConfig::small()
                .with_span(SimDuration::from_hours(1.0))
                .with_seed(5),
        )
        .generate();
        let total: usize = (0..4).map(|p| arrived_in(&trace, p).len()).sum();
        assert_eq!(total, trace.len());
        assert!(pending_at(&trace, 0).is_empty());
        let running = pending_at(&trace, 2);
        assert!(!running.is_empty());
        assert!(running
            .iter()
            .all(|t| t.arrival.as_secs() < 1800.0
                && t.arrival.as_secs() + t.duration.as_secs() > 1800.0));
    }

    #[test]
    fn smoke_replica_matches_tick_on_both_policies() {
        for policy in [BasisPolicy::Dropped, BasisPolicy::Threaded] {
            let mut tracer = Tracer::default();
            let out = run(policy, &PeriodSize::smoke(), 7, 3, Some(&mut tracer)).unwrap();
            assert!(out.correct, "{policy:?}");
            assert_eq!(
                out.layers.get("online.replica_match_ratio"),
                Some(1.0),
                "{policy:?}"
            );
            assert_eq!(out.layers.get("cbs.solves"), Some(3.0));
            let untraced = run(policy, &PeriodSize::smoke(), 7, 3, None).unwrap();
            assert_eq!(
                untraced.digest, out.digest,
                "tracing must not change a plan"
            );
            assert_eq!(untraced.op_times.len(), 3);
        }
    }
}
