//! The `sim_replay` and `sim_closed_loop` workloads: whole replays of
//! one trace through `Simulation::run`, several passes over the same
//! inputs.
//!
//! The traced run wraps the scheduler and the controller in types that
//! time the calls the engine makes into them; the engine's own time is
//! what is left of the run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::controllers::{CbsController, QuotaScheduler, QuotaState};
use harmony::pipeline::{run_variant, Variant};
use harmony::HarmonyConfig;
use harmony_model::{EnergyPrice, MachineCatalog, SimDuration, Task};
use harmony_sim::{
    Cluster, ControlDecision, Controller, DegradationEvent, EngineMode, FirstFit, MachineId,
    Observation, Scheduler, SimReport, Simulation, SimulationConfig,
};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

use crate::spans::{Clock, Span, Tracer};
use crate::{digest, stats};
use crate::{Layers, RunOutput};

/// Which replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// The 10,000-machine calibration point of `sim_scale`: every
    /// machine on, first-fit over the index, no controller.
    Replay,
    /// The Section IX closed loop, CBS variant.
    ClosedLoop,
}

/// Instance sizes; `full` is frozen by the workload definition.
#[derive(Debug, Clone, Copy)]
pub struct SimSize {
    replay_rate_multiplier: f64,
    replay_span_hours: f64,
    replay_divisor: usize,
    loop_span_hours: f64,
    loop_divisor: usize,
}

impl SimSize {
    pub fn full() -> Self {
        SimSize {
            replay_rate_multiplier: 400.0,
            // `sim_scale` replays 1.5 h, which sits on the saturation knee:
            // long-tailed tasks pile up, some seeds end with a pending queue
            // that every drain retries in full, and a pass takes 2.8 s
            // (seed 2013) to 73 s (seed 2). At 1 h no seed of 23 tried
            // leaves a task pending.
            replay_span_hours: 1.0,
            replay_divisor: 1,
            loop_span_hours: 72.0,
            loop_divisor: 7,
        }
    }

    /// The closed loop keeps two hours (twelve control ticks) rather than
    /// twenty minutes, so that the check against `run_variant` sees warm
    /// starts and quota refreshes.
    pub fn smoke() -> Self {
        SimSize {
            replay_rate_multiplier: 4.0,
            replay_span_hours: 1.0 / 3.0,
            replay_divisor: 100,
            loop_span_hours: 2.0,
            loop_divisor: 100,
        }
    }
}

/// The closed loop's controller calibration (Section IX: 10-minute
/// control period, horizon 4).
fn loop_config() -> HarmonyConfig {
    HarmonyConfig {
        control_period: SimDuration::from_mins(10.0),
        horizon: 4,
        ..Default::default()
    }
}

struct Instance {
    trace: Trace,
    catalog: MachineCatalog,
    /// Fitted in set-up for the closed loop; the replay has none.
    classifier: Option<Rc<TaskClassifier>>,
    generate_s: f64,
    fit_s: f64,
}

fn build(kind: SimKind, size: &SimSize, seed: u64) -> Result<Instance, String> {
    let started = Instant::now();
    let (config, divisor) = match kind {
        SimKind::Replay => {
            let mut c = TraceConfig::google_like()
                .with_span(SimDuration::from_hours(size.replay_span_hours))
                .with_seed(seed + 10_000);
            for arrivals in &mut c.arrivals {
                arrivals.base_jobs_per_sec *= size.replay_rate_multiplier;
            }
            c.bin = SimDuration::from_mins(2.0);
            (c, size.replay_divisor)
        }
        SimKind::ClosedLoop => (
            TraceConfig::evaluation()
                .with_span(SimDuration::from_hours(size.loop_span_hours))
                .with_seed(seed),
            size.loop_divisor,
        ),
    };
    let trace = TraceGenerator::new(config).generate();
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let classifier = match kind {
        SimKind::Replay => None,
        SimKind::ClosedLoop => Some(Rc::new(
            TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default())
                .map_err(|e| e.to_string())?,
        )),
    };
    let fit_s = started.elapsed().as_secs_f64();
    let catalog = MachineCatalog::table2().scaled(divisor);
    Ok(Instance {
        trace,
        catalog,
        classifier,
        generate_s,
        fit_s,
    })
}

/// One replay. With `timing`, the scheduler and the controller are
/// wrapped; the wrappers forward every call unchanged.
fn pass(instance: &Instance, timing: Option<&Timing>) -> Result<SimReport, String> {
    let wrap_scheduler = |s: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        match timing {
            Some(t) => Box::new(TimedScheduler {
                inner: s,
                calls: SchedulerCalls::default(),
                shared: t.calls.clone(),
                lcg: 1,
            }),
            None => s,
        }
    };
    match &instance.classifier {
        None => {
            let config = SimulationConfig::new(instance.catalog.clone())
                .all_machines_on()
                .engine_mode(EngineMode::Indexed);
            Ok(Simulation::new(config, &instance.trace, wrap_scheduler(Box::new(FirstFit))).run())
        }
        // Built exactly as `pipeline::run_variant_priced` builds the CBS
        // variant; `check_against_run_variant` holds it to that.
        Some(classifier) => {
            let price = EnergyPrice::default();
            let config = SimulationConfig::new(instance.catalog.clone())
                .price(price.clone())
                .without_preemption();
            let quota = Rc::new(RefCell::new(QuotaState::default()));
            let controller =
                CbsController::new(classifier.clone(), loop_config(), price, quota.clone())
                    .map_err(|e| e.to_string())?;
            let scheduler = QuotaScheduler::new(classifier.clone(), quota);
            let controller: Box<dyn Controller> = match timing {
                Some(t) => Box::new(TimedController {
                    inner: Box::new(controller),
                    clock: t.clock,
                    decides: t.decides.clone(),
                }),
                None => Box::new(controller),
            };
            Ok(
                Simulation::new(config, &instance.trace, wrap_scheduler(Box::new(scheduler)))
                    .with_controller(controller)
                    .run(),
            )
        }
    }
}

/// Task conservation: every task of the trace ends the replay in exactly
/// one state.
pub fn conserved(report: &SimReport, tasks: usize) -> bool {
    report.tasks_completed
        + report.tasks_running_at_end
        + report.tasks_pending_at_end
        + report.tasks_unschedulable
        + report.tasks_failed
        == tasks
}

/// The `ops_failed_ratio` numerator of one replay.
pub fn tasks_failed(report: &SimReport) -> u64 {
    (report.tasks_unschedulable + report.tasks_failed) as u64
}

/// Holds the hand-built closed loop to the program's own wiring: at
/// smoke size its report must serialize byte-identically to
/// `pipeline::run_variant(.., Variant::Cbs)`.
fn check_against_run_variant(seed: u64) -> Result<(), String> {
    let instance = build(SimKind::ClosedLoop, &SimSize::smoke(), seed)?;
    let mine = serde_json::to_string(&pass(&instance, None)?).map_err(|e| e.to_string())?;
    let theirs = run_variant(
        &instance.trace,
        &instance.catalog,
        &loop_config(),
        &ClassifierConfig::default(),
        Variant::Cbs,
    )
    .map_err(|e| e.to_string())?;
    if mine == serde_json::to_string(&theirs).map_err(|e| e.to_string())? {
        Ok(())
    } else {
        Err("the benchmark's closed loop diverges from pipeline::run_variant(Variant::Cbs)".into())
    }
}

/// Runs `passes` replays of one trace. The traced run alternates
/// unwrapped and wrapped passes, `passes` of each.
pub fn run(
    kind: SimKind,
    size: &SimSize,
    seed: u64,
    passes: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<RunOutput, String> {
    let (instance, setup_s) = crate::timed_setup(|| build(kind, size, seed))?;
    let tasks = instance.trace.len();
    let mut out = RunOutput {
        setup_s,
        correct: true,
        ..Default::default()
    };
    let mut timing = tracer.as_ref().map(|t| Timing::new(t.clock()));
    let registry = harmony_telemetry::global();
    let mut untraced_wall = 0.0;
    let mut last_report = None;

    for op in 0..passes {
        let started = Instant::now();
        let report = pass(&instance, None)?;
        let pass_s = started.elapsed().as_secs_f64();
        untraced_wall += pass_s;
        check_report(&report, tasks, &mut out)?;
        if tracer.is_none() {
            out.op_times.push(pass_s);
            out.op_tasks.push(tasks as f64);
        }
        eprintln!(
            "  pass {op}: {pass_s:.3} s, {} of {tasks} tasks completed, {} pending, {:.1} kWh",
            report.tasks_completed,
            report.tasks_pending_at_end,
            report.total_energy_wh / 1000.0
        );
        last_report = Some(report);

        if let (Some(tracer), Some(timing)) = (&mut tracer, &mut timing) {
            // The program-reported numbers cover the traced passes only.
            let before = registry.snapshot();
            let run = tracer.enter("sim.run", op as u32);
            let traced = pass(&instance, Some(&*timing))?;
            tracer.exit(run);
            timing.flush(tracer, run, op as u32);
            check_report(&traced, tasks, &mut out)?;
            timing.keep_telemetry(&before, &registry.snapshot());
        }
    }
    if kind == SimKind::ClosedLoop {
        check_against_run_variant(seed)?;
    }

    let report = last_report.expect("at least one pass");
    let completed = report.tasks_completed.max(1) as f64;
    out.exact = vec![
        ("energy_wh_per_task", report.total_energy_wh / completed),
        ("sched_delay_mean_s", report.delay_stats_overall().mean),
    ];
    if let (Some(tracer), Some(timing)) = (tracer, timing) {
        let layers = &mut out.layers;
        layers.set("trace.generate_s", instance.generate_s);
        layers.set("trace.tasks", tasks as f64);
        layers.set("classify.fit_s", instance.fit_s);
        layers.set(
            "classify.classes",
            instance
                .classifier
                .as_ref()
                .map_or(0.0, |c| c.classes().len() as f64),
        );
        layers.set("sim.tasks_completed", report.tasks_completed as f64);
        layers.set("sim.tasks_pending_end", report.tasks_pending_at_end as f64);
        layers.set("sim.energy_kwh", report.total_energy_wh / 1000.0);
        layers.set("sim.switches", report.switch_count as f64);
        for (name, value) in &out.exact {
            layers.set(&format!("sim.{name}"), *value);
        }
        layers.set("controllers.degradations", report.degradations.len() as f64);
        timing.report(tracer, layers);
        layers.set(
            "tracing.overhead_ratio",
            tracer.busy("sim.run") / untraced_wall - 1.0,
        );
    }
    Ok(out)
}

/// Conservation, failures and the across-pass digest of one report.
fn check_report(report: &SimReport, tasks: usize, out: &mut RunOutput) -> Result<(), String> {
    if !conserved(report, tasks) {
        return Err(format!(
            "task conservation violated: {} + {} + {} + {} + {} != {tasks}",
            report.tasks_completed,
            report.tasks_running_at_end,
            report.tasks_pending_at_end,
            report.tasks_unschedulable,
            report.tasks_failed
        ));
    }
    let digest = digest::of_json(report).hex();
    if out.digest.is_empty() {
        out.digest = digest;
    } else if out.digest != digest {
        return Err(format!(
            "SimReport digest {digest} differs from the first pass's {}",
            out.digest
        ));
    }
    out.attempted += tasks as u64;
    out.failed += tasks_failed(report);
    out.correct &= tasks_failed(report) == 0;
    Ok(())
}

/// Call counts and sampled call times of the scheduler wrapper.
#[derive(Debug, Default, Clone, Copy)]
struct SchedulerCalls {
    place_calls: u64,
    place_hits: u64,
    place_timed: u64,
    place_time: f64,
    callback_calls: u64,
    callback_timed: u64,
    callback_time: f64,
}

/// What the wrappers of the traced passes record, and the telemetry the
/// program itself reported during them.
struct Timing {
    clock: Clock,
    calls: Rc<RefCell<SchedulerCalls>>,
    /// `(start, end)` of every `decide` of the pass in flight.
    decides: Rc<RefCell<Vec<(f64, f64)>>>,
    /// Program-reported counters and timer sums, summed over the traced
    /// passes.
    telemetry: Layers,
    place_hits: u64,
}

impl Timing {
    fn new(clock: Clock) -> Self {
        Timing {
            clock,
            calls: Rc::default(),
            decides: Rc::default(),
            telemetry: Layers::default(),
            place_hits: 0,
        }
    }

    /// Moves the finished pass's records into the tracer as children of
    /// its `sim.run` span.
    fn flush(&mut self, tracer: &mut Tracer, run: usize, op: u32) {
        for (start, end) in self.decides.borrow_mut().drain(..) {
            tracer.push(Span {
                name: "controllers.decide",
                op,
                start,
                end,
                parent: Some(run),
                calls: 1,
                busy: end - start,
            });
        }
        let calls = std::mem::take(&mut *self.calls.borrow_mut());
        let end = tracer.spans()[run].end;
        // One call in sixteen is timed; the estimate scales the sampled
        // time to all calls.
        let estimate =
            |time: f64, timed: u64, all: u64| stats::ratio(time * all as f64, timed as f64);
        for (name, all, busy) in [
            (
                "scheduler.place",
                calls.place_calls,
                estimate(calls.place_time, calls.place_timed, calls.place_calls),
            ),
            (
                "scheduler.callback",
                calls.callback_calls,
                estimate(
                    calls.callback_time,
                    calls.callback_timed,
                    calls.callback_calls,
                ),
            ),
        ] {
            tracer.push(Span {
                name,
                op,
                start: end,
                end,
                parent: Some(run),
                calls: all,
                busy,
            });
        }
        self.place_hits += calls.place_hits;
    }

    /// Adds what the program's own telemetry counted between two
    /// snapshots.
    fn keep_telemetry(
        &mut self,
        before: &harmony_telemetry::Snapshot,
        after: &harmony_telemetry::Snapshot,
    ) {
        let kept = &mut self.telemetry;
        for (name, value) in &after.counters {
            kept.add(name, value.saturating_sub(before.counter(name)) as f64);
        }
        for h in &after.histograms {
            kept.add(
                &h.name,
                h.sum - before.histogram(&h.name).map_or(0.0, |b| b.sum),
            );
        }
    }

    fn report(&self, tracer: &Tracer, layers: &mut Layers) {
        let run_busy = tracer.busy("sim.run");
        let place_calls = tracer.calls("scheduler.place");
        layers.set("sim.passes", tracer.calls("sim.run") as f64);
        layers.set("sim.run_busy_s", run_busy);
        layers.set("sim.engine_self_s", tracer.self_time("sim.run"));
        layers.set("scheduler.place_busy_s", tracer.busy("scheduler.place"));
        layers.set("scheduler.place_calls", place_calls as f64);
        layers.set(
            "scheduler.place_hit_ratio",
            stats::ratio(self.place_hits as f64, place_calls as f64),
        );
        layers.set(
            "scheduler.callback_busy_s",
            tracer.busy("scheduler.callback"),
        );
        layers.set(
            "controllers.decide_busy_s",
            tracer.busy("controllers.decide"),
        );
        layers.set(
            "controllers.decide_calls",
            tracer.calls("controllers.decide") as f64,
        );

        // Program-reported: read from the telemetry the program already
        // keeps, because `HarmonyCore::step` is private. They read zero if
        // those names change.
        let get = |name: &str| self.telemetry.get(name).unwrap_or(0.0);
        let events: f64 = self.telemetry.sum_prefixed("sim.events.");
        layers.set("sim.events", events);
        layers.set("sim.events_per_s", stats::ratio(events, run_busy));
        layers.set("sim.us_per_event", stats::ratio(1e6 * run_busy, events));
        layers.set("controllers.forecast_s", get("pipeline.forecast_seconds"));
        layers.set("controllers.lp_s", get("pipeline.lp_seconds"));
        layers.set("controllers.rounding_s", get("pipeline.rounding_seconds"));
        layers.set("controllers.sizing_s", get("pipeline.sizing_seconds"));
        let solves = get("lp.solves");
        let hits = get("lp.warm_start_hits");
        let repair = get("lp.warm_start_repair_fallbacks");
        let structural = get("lp.warm_start_structural_fallbacks");
        let pivots = get("lp.pivots");
        layers.set("cbs.solves", solves);
        layers.set("lp.pivots", pivots);
        layers.set("lp.phase1_pivots", get("lp.phase1_pivots"));
        layers.set(
            "lp.us_per_pivot",
            stats::ratio(1e6 * get("pipeline.lp_seconds"), pivots),
        );
        layers.set("lp.warm_hits", hits);
        layers.set("lp.warm_repair_fallbacks", repair);
        layers.set("lp.warm_structural_fallbacks", structural);
        let warm = hits + repair + structural;
        layers.set("lp.cold_solves", solves - warm);
        layers.set("lp.warm_hit_ratio", stats::ratio(hits, warm));
        let arima = get("forecast.tier.arima");
        let forecasts =
            arima + get("forecast.tier.moving_average") + get("forecast.tier.last_observation");
        layers.set("forecast.class_forecasts", forecasts);
        layers.set("forecast.arima_ratio", stats::ratio(arima, forecasts));
        layers.set("forecast.degraded", get("forecast.degraded"));
    }
}

/// Forwards every scheduler call, counting all of them and timing one
/// in sixteen: two clock reads cost about as much as a first-fit descent,
/// so timing every call would be most of what it measured. The counts
/// stay in the wrapper and reach the shared record when the engine drops
/// its scheduler at the end of the run.
#[derive(Debug)]
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    calls: SchedulerCalls,
    shared: Rc<RefCell<SchedulerCalls>>,
    /// Chooses the timed calls; a generator rather than a stride, so the
    /// choice cannot fall in step with the engine's drain loop.
    lcg: u64,
}

impl TimedScheduler {
    fn sampled(&mut self) -> bool {
        self.lcg = self
            .lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.lcg >> 60 == 0
    }

    fn callback_done(&mut self, started: Option<Instant>) {
        if let Some(started) = started {
            self.calls.callback_time += started.elapsed().as_secs_f64();
            self.calls.callback_timed += 1;
        }
        self.calls.callback_calls += 1;
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        *self.shared.borrow_mut() = self.calls;
    }
}

impl Scheduler for TimedScheduler {
    fn place(&mut self, task: &Task, cluster: &Cluster) -> Option<MachineId> {
        let started = self.sampled().then(Instant::now);
        let placed = self.inner.place(task, cluster);
        if let Some(started) = started {
            self.calls.place_time += started.elapsed().as_secs_f64();
            self.calls.place_timed += 1;
        }
        self.calls.place_calls += 1;
        self.calls.place_hits += u64::from(placed.is_some());
        placed
    }

    fn on_placed(&mut self, task: &Task, machine: MachineId, cluster: &Cluster) {
        let started = self.sampled().then(Instant::now);
        self.inner.on_placed(task, machine, cluster);
        self.callback_done(started);
    }

    fn on_finished(&mut self, task: &Task, machine: MachineId, cluster: &Cluster) {
        let started = self.sampled().then(Instant::now);
        self.inner.on_finished(task, machine, cluster);
        self.callback_done(started);
    }
}

/// Forwards every controller call, timing each `decide`.
#[derive(Debug)]
struct TimedController {
    inner: Box<dyn Controller>,
    clock: Clock,
    decides: Rc<RefCell<Vec<(f64, f64)>>>,
}

impl Controller for TimedController {
    fn control_period(&self) -> SimDuration {
        self.inner.control_period()
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        let start = self.clock.now();
        let decision = self.inner.decide(observation);
        self.decides.borrow_mut().push((start, self.clock.now()));
        decision
    }

    fn take_degradations(&mut self) -> Vec<DegradationEvent> {
        self.inner.take_degradations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_and_failure_rules() {
        let instance = build(SimKind::Replay, &SimSize::smoke(), 3).unwrap();
        let mut report = pass(&instance, None).unwrap();
        assert!(conserved(&report, instance.trace.len()));
        assert_eq!(tasks_failed(&report), 0);
        report.tasks_unschedulable += 2;
        report.tasks_failed += 1;
        assert!(!conserved(&report, instance.trace.len()));
        assert_eq!(tasks_failed(&report), 3);
        report.tasks_completed -= 3;
        assert!(conserved(&report, instance.trace.len()));
    }

    #[test]
    fn wrappers_do_not_change_a_replay() {
        for kind in [SimKind::Replay, SimKind::ClosedLoop] {
            let mut tracer = Tracer::default();
            // `run` fails if any traced pass digests differently from the
            // untraced ones.
            let traced = run(kind, &SimSize::smoke(), 11, 1, Some(&mut tracer)).unwrap();
            let untraced = run(kind, &SimSize::smoke(), 11, 2, None).unwrap();
            assert_eq!(traced.digest, untraced.digest, "{kind:?}");
            assert_eq!(untraced.op_times.len(), 2);
            assert!(traced.layers.get("scheduler.place_calls").unwrap() > 0.0);
            let decides = traced.layers.get("controllers.decide_calls").unwrap();
            assert_eq!(decides > 0.0, kind == SimKind::ClosedLoop, "{kind:?}");
        }
    }

    #[test]
    fn closed_loop_is_wired_as_run_variant_wires_it() {
        check_against_run_variant(5).unwrap();
    }
}
