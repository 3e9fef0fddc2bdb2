//! Property: the indexed engine (calendar event queue + free-capacity
//! segment trees, `EngineMode::Indexed`) is a pure acceleration of the
//! test-only reference engine (`BinaryHeap` + linear machine scans,
//! `EngineMode::Reference`, the seed behavior). For any seeded trace —
//! with or without a fault plan — the two must produce **byte-identical**
//! serialized `SimReport`s.
//!
//! The runs use a capacity-reactive controller whose decisions depend on
//! the *content* of every observation view (pending, arrived, running),
//! so a view that iterated the wrong tasks, the wrong order, or the
//! wrong count would cascade into different power decisions and a
//! different report — not just a different wall-clock.

use harmony_model::{MachineCatalog, SimDuration};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

use crate::{
    ControlDecision, Controller, EngineMode, FaultPlan, FirstFit, Observation, Simulation,
    SimulationConfig,
};

/// Sizes pool capacity from what it sees: total pending + arrived demand
/// per period, plus the running census. Every observation view feeds the
/// decision, so view-content bugs change the report bytes.
#[derive(Debug)]
struct ReactiveController {
    populations: Vec<usize>,
}

impl Controller for ReactiveController {
    fn control_period(&self) -> SimDuration {
        SimDuration::from_mins(20.0)
    }

    fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
        let pending_cpu: f64 = observation.pending.iter().map(|t| t.demand.cpu).sum();
        let arrived_cpu: f64 = observation.arrived_last_period.iter().map(|t| t.demand.cpu).sum();
        let running = observation.running.len();
        // Rough machines-worth of demand, spread over the types; the
        // exact shape does not matter, only that it is a deterministic
        // function of all three views.
        let want = ((pending_cpu + 2.0 * arrived_cpu) * 4.0).ceil() as usize + running / 8 + 1;
        let targets = self
            .populations
            .iter()
            .map(|&pop| want.min(pop))
            .collect();
        if running.is_multiple_of(2) {
            ControlDecision::targets(targets)
        } else {
            ControlDecision::targets_with_repack(targets)
        }
    }
}

fn run_once(trace: &Trace, divisor: usize, fault_seed: Option<u64>, mode: EngineMode) -> String {
    let catalog = MachineCatalog::table2().scaled(divisor);
    let mut config = SimulationConfig::new(catalog.clone())
        .all_machines_on()
        .engine_mode(mode);
    if let Some(seed) = fault_seed {
        let plan = FaultPlan::scenario("mixed", seed, trace.span()).expect("known scenario");
        config = config.with_faults(plan);
    }
    let populations: Vec<usize> =
        catalog.iter().map(|ty| ty.count).collect();
    let report = Simulation::new(config, trace, Box::new(FirstFit))
        .with_controller(Box::new(ReactiveController { populations }))
        .run();
    serde_json::to_string(&report).expect("report serializes")
}

/// One workload scale: a trace config plus a catalog divisor.
fn scales() -> Vec<(&'static str, TraceConfig, usize)> {
    vec![
        ("quick", TraceConfig::small(), 100),
        (
            "default",
            TraceConfig::small().with_span(SimDuration::from_hours(6.0)),
            50,
        ),
    ]
}

#[test]
fn engines_agree_without_faults() {
    for (name, config, divisor) in scales() {
        for seed in [7u64, 2013, 999_983] {
            let trace = TraceGenerator::new(config.clone().with_seed(seed)).generate();
            let reference = run_once(&trace, divisor, None, EngineMode::Reference);
            let indexed = run_once(&trace, divisor, None, EngineMode::Indexed);
            assert_eq!(
                reference, indexed,
                "engines diverged: scale {name}, seed {seed}, no faults"
            );
        }
    }
}

#[test]
fn engines_agree_under_fault_plans() {
    for (name, config, divisor) in scales() {
        for seed in [7u64, 2013, 999_983] {
            let trace = TraceGenerator::new(config.clone().with_seed(seed)).generate();
            let reference = run_once(&trace, divisor, Some(seed), EngineMode::Reference);
            let indexed = run_once(&trace, divisor, Some(seed), EngineMode::Indexed);
            assert_eq!(
                reference, indexed,
                "engines diverged: scale {name}, seed {seed}, fault scenario mixed"
            );
        }
    }
}

#[test]
fn default_mode_is_indexed() {
    // The accelerated engine is the default; `Reference` exists as the
    // oracle. A silent default flip would invalidate the scaling claims.
    let trace = TraceGenerator::new(TraceConfig::small().with_seed(3)).generate();
    let default_run = {
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(100)).all_machines_on();
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        serde_json::to_string(&report).expect("report serializes")
    };
    let indexed = {
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(100))
            .all_machines_on()
            .engine_mode(EngineMode::Indexed);
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        serde_json::to_string(&report).expect("report serializes")
    };
    assert_eq!(default_run, indexed);
}
