//! The one control period, through its three public adapters
//! (`CbsController`, `CbpController`, `OnlinePipeline`).
//!
//! Pinned outputs: every other determinism test compares two runs of
//! one build, so none can fail when a refactor changes a plan; these
//! compare against FNV-1a digests generated at commit 49683c3, before
//! the sim controllers and the daemon pipeline were folded into one
//! loop. A digest may change only with a change that means to alter
//! plans, and that change regenerates it (the failure message prints
//! the new value).
//!
//! Re-pinned once, by the change that writes each demand cap once (one
//! row per (class, step), utility slope on the `x` columns, no segment
//! variables or equality rows): only the two final-state digests moved
//! (energy `b0023cf720222b51`, dollars `13b99288753f2936`), because the
//! state carries `lp_basis`, whose dimensions shrank. Both plan digests
//! and the SimReports did not move.
//!
//! Adapters agree: from a cold start the three adapters hand the loop
//! the same inputs, so they must decide the same machines, and differ
//! only in the rung they take when the solve fails with no previous
//! plan.

use std::rc::Rc;

use harmony::cbs::{CbsObjective, DollarCosts};
use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::controllers::{CbpController, CbsController};
use harmony::pipeline::{run_variant, Variant};
use harmony::rounding::IntegerPlan;
use harmony::{HarmonyConfig, OnlinePipeline};
use harmony_model::{EnergyPrice, MachineCatalog, SimDuration, SimTime};
use harmony_pricing::MarketPolicy;
use harmony_sim::{Cluster, Controller, DegradationEvent, DegradationKind, Observation, TaskView};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

fn digest<T: serde::Serialize>(value: &T) -> String {
    format!("{:016x}", fnv1a64(serde_json::to_string(value).unwrap().as_bytes()))
}

fn small_trace() -> Trace {
    TraceGenerator::new(TraceConfig::small().with_seed(33)).generate()
}

/// What every adapter is built from: six classes on a 100th of Table II.
fn setup(
    trace: &Trace,
    dollars: bool,
    max_lp_pivots: usize,
) -> (TaskClassifier, MachineCatalog, HarmonyConfig, CbsObjective) {
    let classifier = TaskClassifier::fit(
        trace.tasks(),
        &ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() },
    )
    .unwrap();
    let catalog = MachineCatalog::table2().scaled(100);
    let groups: Vec<_> = classifier.classes().iter().map(|c| c.group).collect();
    let objective = if dollars {
        let market = MarketPolicy::SpotAware;
        CbsObjective::Dollars(DollarCosts::default_for(&catalog, &groups, market, 2013))
    } else {
        CbsObjective::Energy
    };
    let config = HarmonyConfig {
        horizon: 2,
        control_period: SimDuration::from_mins(10.0),
        max_lp_pivots,
        ..Default::default()
    };
    (classifier, catalog, config, objective)
}

fn pipeline(trace: &Trace, dollars: bool, max_lp_pivots: usize) -> OnlinePipeline {
    let (classifier, catalog, config, objective) = setup(trace, dollars, max_lp_pivots);
    OnlinePipeline::new(classifier, catalog, config, EnergyPrice::default())
        .unwrap()
        .with_objective(objective)
}

/// Eight ticks of 150 tasks each with the basis threaded; tick 3 runs on
/// a pipeline with a one-pivot LP budget, restored from the first's
/// state without its basis, so it fails and re-actuates tick 2's plan.
/// Returns the digest of the plan sequence and of the final state.
fn online_digests(dollars: bool) -> (String, String) {
    let trace = small_trace();
    let tick = |p: &mut OnlinePipeline, i: usize| {
        let chunk = &trace.tasks()[(i * 150).min(trace.len())..((i + 1) * 150).min(trace.len())];
        p.tick(chunk, chunk)
    };
    let mut healthy = pipeline(&trace, dollars, HarmonyConfig::default().max_lp_pivots);
    let mut plans: Vec<IntegerPlan> = (0..3).map(|i| tick(&mut healthy, i)).collect();

    let mut crippled = pipeline(&trace, dollars, 1);
    let mut state = healthy.state();
    state.lp_basis = None;
    crippled.restore(state).unwrap();
    plans.push(tick(&mut crippled, 3));
    assert_eq!(plans[3], plans[2], "the failed tick re-actuates the previous plan");
    assert!(crippled
        .pending_degradations()
        .iter()
        .any(|d| matches!(d.kind, DegradationKind::LpReusedPreviousPlan)));

    healthy.restore(crippled.state()).unwrap();
    plans.extend((4..8).map(|i| tick(&mut healthy, i)));
    assert_eq!(healthy.error_count(), 1);
    (digest(&plans), digest(&healthy.state()))
}

#[test]
fn online_plan_sequence_is_pinned() {
    let pinned = |plans: &str, state: &str| (plans.to_owned(), state.to_owned());
    assert_eq!(
        [online_digests(false), online_digests(true)],
        [
            pinned("68c8fdc3a64c45a3", "99cb0749cf756246"),
            pinned("46f597c1d4c25e07", "cb66988f9e852db3"),
        ],
        "(plans, final state) under [energy, dollars]"
    );
}

#[test]
fn sim_reports_are_pinned() {
    // `tests/end_to_end.rs`'s `tiny_setup`.
    let trace = TraceGenerator::new(
        TraceConfig::small().with_span(SimDuration::from_hours(1.0)).with_seed(5),
    )
    .generate();
    let catalog = MachineCatalog::table2().scaled(100);
    let config = HarmonyConfig {
        control_period: SimDuration::from_mins(15.0),
        horizon: 2,
        ..Default::default()
    };
    let cc = ClassifierConfig { k_per_group: Some([3, 3, 3]), ..Default::default() };
    let report =
        |variant| digest(&run_variant(&trace, &catalog, &config, &cc, variant).unwrap());
    assert_eq!(
        [report(Variant::Cbs), report(Variant::Cbp)],
        ["b8906cb5550aaa4f", "5ad6c46a0a73775e"],
        "SimReport under [CBS, CBP]"
    );
}

/// The first decision of `[CBP, CBS, OnlinePipeline]` for one slice of
/// arrivals, all of it still pending, on a cluster with nothing powered
/// on: the machines per type and the ladder rung taken, if any.
fn first_decisions(
    dollars: bool,
    max_lp_pivots: usize,
) -> [(Vec<usize>, Option<DegradationKind>); 3] {
    let trace = small_trace();
    let arrived = &trace.tasks()[..300];
    let (classifier, catalog, config, objective) = setup(&trace, dollars, max_lp_pivots);
    let cluster = Cluster::new(catalog.clone());
    let observation = Observation {
        now: SimTime::ZERO,
        cluster: &cluster,
        pending: TaskView::dense(arrived),
        arrived_last_period: TaskView::dense(arrived),
        running: TaskView::default(),
    };
    let shared = Rc::new(classifier.clone());
    let mut cbp = CbpController::new(shared.clone(), config.clone(), EnergyPrice::default())
        .unwrap()
        .with_objective(objective.clone());
    let mut cbs = CbsController::new(shared, config.clone(), EnergyPrice::default(), Rc::default())
        .unwrap()
        .with_objective(objective.clone());
    let mut online = OnlinePipeline::new(classifier, catalog, config, EnergyPrice::default())
        .unwrap()
        .with_objective(objective);
    let rung = |events: Vec<DegradationEvent>| {
        events
            .into_iter()
            .map(|e| e.kind)
            .find(|kind| !matches!(kind, DegradationKind::ForecastFallback { .. }))
    };
    [
        (cbp.decide(&observation).target_active, rung(cbp.take_degradations())),
        (cbs.decide(&observation).target_active, rung(cbs.take_degradations())),
        (online.tick(arrived, arrived).machines, rung(online.take_degradations())),
    ]
}

#[test]
fn adapters_agree_from_a_cold_start() {
    for dollars in [false, true] {
        let [cbp, cbs, online] = first_decisions(dollars, HarmonyConfig::default().max_lp_pivots);
        assert!(cbp.0.iter().sum::<usize>() > 0, "dollars={dollars}: {cbp:?}");
        assert_eq!(cbp.1, None, "dollars={dollars}");
        assert_eq!(cbs, cbp, "dollars={dollars}");
        assert_eq!(online, cbp, "dollars={dollars}");

        // The one documented difference: with the LP crippled and no
        // previous plan, the sim adapters size greedily and the daemon
        // adapter holds at zero machines.
        let [cbp, cbs, online] = first_decisions(dollars, 1);
        assert!(cbp.0.iter().sum::<usize>() > 0, "dollars={dollars}: {cbp:?}");
        assert_eq!(cbp.1, Some(DegradationKind::LpGreedyFallback), "dollars={dollars}");
        assert_eq!(cbs, cbp, "dollars={dollars}");
        assert_eq!(online, (vec![0; 4], Some(DegradationKind::ControlHold)), "dollars={dollars}");
    }
}
