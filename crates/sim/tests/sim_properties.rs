//! Property-based tests for the discrete-event engine across random
//! traces and cluster scales.

use harmony_model::{MachineCatalog, SimDuration};
use harmony_sim::{FirstFit, Simulation, SimulationConfig};
use harmony_trace::{TraceConfig, TraceGenerator};
use proptest::prelude::*;

fn trace(seed: u64, minutes: f64) -> harmony_trace::Trace {
    TraceGenerator::new(
        TraceConfig::small().with_span(SimDuration::from_mins(minutes)).with_seed(seed),
    )
    .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Task conservation holds for any seed, scale, and preemption
    /// setting.
    #[test]
    fn conservation_universal(
        seed in 0u64..10_000,
        divisor in prop::sample::select(vec![60usize, 150, 400]),
        preemption in any::<bool>(),
    ) {
        let trace = trace(seed, 40.0);
        let catalog = MachineCatalog::table2().scaled(divisor);
        let mut config = SimulationConfig::new(catalog).all_machines_on();
        if !preemption {
            config = config.without_preemption();
        }
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        prop_assert_eq!(
            report.tasks_completed
                + report.tasks_running_at_end
                + report.tasks_pending_at_end
                + report.tasks_unschedulable,
            trace.len()
        );
        // Delay samples: at least one per completed/running task's first
        // placement; per-attempt recording may add more (evictions).
        let recorded: usize = report.delays_by_group.iter().map(Vec::len).sum();
        prop_assert!(recorded >= report.tasks_completed + report.tasks_running_at_end);
        // No preemption → no evictions.
        if !preemption {
            prop_assert_eq!(report.evictions, 0);
        }
        // Energy and cost are consistent (flat default tariff).
        prop_assert!(report.total_energy_wh >= 0.0);
        prop_assert!(
            (report.energy_cost_dollars - report.total_energy_wh * 0.1 / 1000.0).abs()
                < 1e-6 * (1.0 + report.energy_cost_dollars)
        );
    }

    /// A strictly larger always-on cluster never consumes less energy.
    #[test]
    fn energy_monotone_in_cluster_size(seed in 0u64..10_000) {
        let trace = trace(seed, 30.0);
        let small = Simulation::new(
            SimulationConfig::new(MachineCatalog::table2().scaled(200)).all_machines_on(),
            &trace,
            Box::new(FirstFit),
        )
        .run();
        let large = Simulation::new(
            SimulationConfig::new(MachineCatalog::table2().scaled(100)).all_machines_on(),
            &trace,
            Box::new(FirstFit),
        )
        .run();
        prop_assert!(large.total_energy_wh >= small.total_energy_wh);
        // More capacity never schedules fewer tasks.
        prop_assert!(large.tasks_completed >= small.tasks_completed);
    }

    /// Delays are non-negative and finite everywhere.
    #[test]
    fn delays_are_sane(seed in 0u64..10_000) {
        let trace = trace(seed, 40.0);
        let report = Simulation::new(
            SimulationConfig::new(MachineCatalog::table2().scaled(300)).all_machines_on(),
            &trace,
            Box::new(FirstFit),
        )
        .run();
        for group in &report.delays_by_group {
            for &d in group {
                prop_assert!(d.is_finite() && d >= 0.0);
                prop_assert!(d <= trace.span().as_secs());
            }
        }
    }
}
