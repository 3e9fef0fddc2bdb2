//! Property-based and scenario tests for the fault-injection subsystem:
//! no fault plan may violate task conservation or crash the engine.

use harmony_model::{MachineCatalog, SimDuration, SimTime};
use harmony_sim::{
    FaultKind, FaultPlan, FaultRecordKind, FirstFit, SimReport, Simulation, SimulationConfig,
    SCENARIOS,
};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};
use proptest::prelude::*;

fn trace(seed: u64) -> Trace {
    TraceGenerator::new(
        TraceConfig::small().with_span(SimDuration::from_mins(40.0)).with_seed(seed),
    )
    .generate()
}

fn conserved(report: &SimReport, trace: &Trace) -> bool {
    report.tasks_completed
        + report.tasks_running_at_end
        + report.tasks_pending_at_end
        + report.tasks_unschedulable
        + report.tasks_failed
        == trace.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// `submitted == completed + running + pending + unschedulable +
    /// failed` under every named scenario and seed: faults may delay or
    /// drop tasks, never lose them.
    #[test]
    fn conservation_under_any_fault_plan(
        trace_seed in 0u64..5_000,
        fault_seed in 0u64..5_000,
        scenario in prop::sample::select(SCENARIOS.to_vec()),
        divisor in prop::sample::select(vec![60usize, 150, 400]),
    ) {
        let trace = trace(trace_seed);
        let plan = FaultPlan::scenario(scenario, fault_seed, trace.span())
            .expect("named scenario exists");
        let catalog = MachineCatalog::table2().scaled(divisor);
        let config = SimulationConfig::new(catalog).all_machines_on().with_faults(plan);
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        prop_assert!(
            conserved(&report, &trace),
            "conservation violated for {} (trace {}, faults {}): {} + {} + {} + {} + {} != {}",
            scenario, trace_seed, fault_seed,
            report.tasks_completed, report.tasks_running_at_end,
            report.tasks_pending_at_end, report.tasks_unschedulable,
            report.tasks_failed, trace.len()
        );
    }
}

/// A machine crash mid-run re-queues the tasks it was hosting (suspend/
/// resume) rather than dropping them: with a generous retry budget every
/// interrupted task is still accounted for as completed, running, or
/// pending — never failed.
#[test]
fn mid_run_crash_requeues_tasks() {
    let trace = trace(77);
    // One crash right in the thick of arrivals, long enough downtime to
    // matter, on a small cluster so the victim machine is busy.
    let plan = FaultPlan::new(5).with_event(
        SimTime::from_secs(900.0),
        FaultKind::MachineCrash { down: SimDuration::from_mins(10.0) },
    );
    let catalog = MachineCatalog::table2().scaled(150);
    let config =
        SimulationConfig::new(catalog).all_machines_on().with_faults(plan).max_task_retries(100);
    let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
    assert!(conserved(&report, &trace));
    let crash = report
        .faults
        .iter()
        .find_map(|f| match f.kind {
            FaultRecordKind::MachineCrash { evicted, failed, .. } => Some((evicted, failed)),
            _ => None,
        })
        .expect("the scheduled crash fired");
    assert_eq!(crash.1, 0, "a generous retry budget fails no task");
    assert!(crash.0 > 0, "the crashed machine was hosting tasks");
    assert_eq!(report.tasks_failed, 0);
    // The interrupted tasks were re-queued, not dropped: nothing is
    // missing, and the run still completes work after the crash.
    assert!(report.tasks_completed > 0);
}

/// The same fault plan twice gives byte-identical fault records —
/// injection is fully deterministic.
#[test]
fn scenarios_are_deterministic_across_runs() {
    let trace = trace(3);
    for scenario in SCENARIOS {
        let run = || {
            let plan = FaultPlan::scenario(scenario, 11, trace.span()).unwrap();
            let config = SimulationConfig::new(MachineCatalog::table2().scaled(150))
                .all_machines_on()
                .with_faults(plan);
            Simulation::new(config, &trace, Box::new(FirstFit)).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.faults, b.faults, "scenario {scenario} not deterministic");
        assert_eq!(a.tasks_completed, b.tasks_completed);
    }
}
