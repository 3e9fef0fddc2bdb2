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
//! Re-pinned again by the change that retires the dollar objective: its
//! half of the pins went, and the energy final-state digest moved from
//! `99cb0749cf756246` to `85e1821b92dc1a01` only because `OnlineState`
//! lost its `cost_dollars` field — the new state with `"cost_dollars":0`
//! put back hashes to the old digest. The plan digest and the
//! SimReports did not move.
//!
//! One CBS-RELAX solve is pinned below the loop: a cold 72-class,
//! horizon-4 solve on the unscaled Table II catalog, long enough to pass
//! several refactorizations of the basis. Its digest covers the objective
//! bits, the pivot count (708) and the optimal basis, so it moves
//! whenever a change to the simplex engine moves a single pivot. It was
//! generated at commit 2fe3fe5, before pricing tracked its reduced costs.
//!
//! Adapters agree: from a cold start the three adapters hand the loop
//! the same inputs, so they must decide the same machines and take the
//! same rung, also when the solve fails with no previous plan.

use std::rc::Rc;

use harmony::cbs::{solve_cbs_relax_warm, CbsInputs, CbsSolve};
use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::controllers::{CbpController, CbsController};
use harmony::pipeline::{run_variant, Variant};
use harmony::rounding::IntegerPlan;
use harmony::{HarmonyConfig, OnlinePipeline};
use harmony_model::{EnergyPrice, MachineCatalog, Resources, SimDuration, SimTime, SplitMix64};
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
fn setup(trace: &Trace, max_lp_pivots: usize) -> (TaskClassifier, MachineCatalog, HarmonyConfig) {
    let classifier = TaskClassifier::fit(
        trace.tasks(),
        &ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() },
    )
    .unwrap();
    let catalog = MachineCatalog::table2().scaled(100);
    let config = HarmonyConfig {
        horizon: 2,
        control_period: SimDuration::from_mins(10.0),
        max_lp_pivots,
        ..Default::default()
    };
    (classifier, catalog, config)
}

fn pipeline(trace: &Trace, max_lp_pivots: usize) -> OnlinePipeline {
    let (classifier, catalog, config) = setup(trace, max_lp_pivots);
    OnlinePipeline::new(classifier, catalog, config, EnergyPrice::default()).unwrap()
}

/// Eight ticks of 150 tasks each with the basis threaded; tick 3 runs on
/// a pipeline with a one-pivot LP budget, restored from the first's
/// state without its basis, so it fails and re-actuates tick 2's plan.
/// Returns the digest of the plan sequence and of the final state.
fn online_digests() -> (String, String) {
    let trace = small_trace();
    let tick = |p: &mut OnlinePipeline, i: usize| {
        let chunk = &trace.tasks()[(i * 150).min(trace.len())..((i + 1) * 150).min(trace.len())];
        p.tick(chunk, chunk)
    };
    let mut healthy = pipeline(&trace, HarmonyConfig::default().max_lp_pivots);
    let mut plans: Vec<IntegerPlan> = (0..3).map(|i| tick(&mut healthy, i)).collect();

    let mut crippled = pipeline(&trace, 1);
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
    let (plans, state) = online_digests();
    assert_eq!(
        (plans.as_str(), state.as_str()),
        ("68c8fdc3a64c45a3", "85e1821b92dc1a01"),
        "(plans, final state)"
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
    let report = |variant| digest(&run_variant(&trace, &catalog, &config, &cc, variant).unwrap());
    assert_eq!(
        [report(Variant::Cbs), report(Variant::Cbp)],
        ["b8906cb5550aaa4f", "5ad6c46a0a73775e"],
        "SimReport under [CBS, CBP]"
    );
}

/// A cold CBS-RELAX solve at a tenth of the Table II instance's class
/// count: 72 classes with seeded container sizes and demands, horizon 4,
/// on the unscaled catalog.
fn mid_size_cold_solve() -> CbsSolve {
    const CLASSES: usize = 72;
    let mut rng = SplitMix64::new(44);
    let catalog = MachineCatalog::table2();
    let config = HarmonyConfig {
        horizon: 4,
        control_period: SimDuration::from_mins(15.0),
        ..Default::default()
    };
    let sizes: Vec<Resources> = (0..CLASSES)
        .map(|_| Resources::new(rng.range(0.002, 0.12), rng.range(0.002, 0.12)))
        .collect();
    let utility: Vec<f64> =
        (0..CLASSES).map(|n| config.utility_per_container_hour[n % 3]).collect();
    let demand: Vec<Vec<f64>> = (0..config.horizon)
        .map(|_| (0..CLASSES).map(|_| rng.range(0.0, 400.0).floor()).collect())
        .collect();
    let inputs = CbsInputs {
        catalog: &catalog,
        container_sizes: &sizes,
        utility_per_hour: &utility,
        demand: &demand,
        initial_active: &[300.0, 80.0, 40.0, 10.0],
        price: &EnergyPrice::default(),
        now: SimTime::ZERO,
    };
    solve_cbs_relax_warm(&inputs, &config, None).unwrap()
}

#[test]
fn mid_size_cbs_solve_is_pinned() {
    let solve = mid_size_cold_solve();
    assert!(solve.pivots >= 3 * 64, "too few pivots for three refactorizations: {}", solve.pivots);
    let mut bytes = solve.plan.objective.to_bits().to_le_bytes().to_vec();
    bytes.extend((solve.pivots as u64).to_le_bytes());
    for &col in solve.basis.columns() {
        bytes.extend((col as u64).to_le_bytes());
    }
    let digest = format!("{:016x}", fnv1a64(&bytes));
    assert_eq!(digest, "9a7331f08f992b44", "(objective bits, pivots, basis)");
}

/// The first decision of `[CBP, CBS, OnlinePipeline]` for one slice of
/// arrivals, all of it still pending, on a cluster with nothing powered
/// on: the machines per type and the ladder rung taken, if any.
fn first_decisions(max_lp_pivots: usize) -> [(Vec<usize>, Option<DegradationKind>); 3] {
    let trace = small_trace();
    let arrived = &trace.tasks()[..300];
    let (classifier, catalog, config) = setup(&trace, max_lp_pivots);
    let cluster = Cluster::new(catalog.clone());
    let observation = Observation {
        now: SimTime::ZERO,
        cluster: &cluster,
        pending: TaskView::dense(arrived),
        arrived_last_period: TaskView::dense(arrived),
        running: TaskView::default(),
    };
    let shared = Rc::new(classifier.clone());
    let mut cbp =
        CbpController::new(shared.clone(), config.clone(), EnergyPrice::default()).unwrap();
    let mut cbs =
        CbsController::new(shared, config.clone(), EnergyPrice::default(), Rc::default()).unwrap();
    let mut online =
        OnlinePipeline::new(classifier, catalog, config, EnergyPrice::default()).unwrap();
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
    let [cbp, cbs, online] = first_decisions(HarmonyConfig::default().max_lp_pivots);
    assert!(cbp.0.iter().sum::<usize>() > 0, "{cbp:?}");
    assert_eq!(cbp.1, None);
    assert_eq!(cbs, cbp);
    assert_eq!(online, cbp);

    // With the LP crippled and no previous plan, every adapter takes the
    // loop's greedy rung.
    let [cbp, cbs, online] = first_decisions(1);
    assert!(cbp.0.iter().sum::<usize>() > 0, "{cbp:?}");
    assert_eq!(cbp.1, Some(DegradationKind::LpGreedyFallback));
    assert_eq!(cbs, cbp);
    assert_eq!(online, cbp);
}
