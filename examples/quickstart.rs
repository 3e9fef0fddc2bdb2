//! Quickstart: generate a workload, run HARMONY against the
//! heterogeneity-oblivious baseline, and compare energy and delay.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use harmony::classify::ClassifierConfig;
use harmony::pipeline::run_comparison;
use harmony::HarmonyConfig;
use harmony_model::{MachineCatalog, SimDuration};
use harmony_sim::{FirstFit, Simulation, SimulationConfig};
use harmony_trace::{TraceConfig, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A two-hour synthetic Google-like trace (Section III shapes).
    let trace = TraceGenerator::new(TraceConfig::small().with_seed(7)).generate();
    println!(
        "trace: {} tasks over {:.1} h (gratis/other/production = {:?})",
        trace.len(),
        trace.span().as_hours(),
        trace.group_counts()
    );

    // 2. A 1/50-scale Table II cluster: 140 R210s, 30 R515s, 20 DL385s,
    //    10 DL585s.
    let catalog = MachineCatalog::table2().scaled(50);
    println!(
        "cluster: {} machines, total capacity {}",
        catalog.total_machines(),
        catalog.total_capacity()
    );

    // 3. Run the paper's three controllers over the same trace.
    let config = HarmonyConfig {
        control_period: SimDuration::from_mins(10.0),
        horizon: 3,
        ..Default::default()
    };
    let results = run_comparison(&trace, &catalog, &config, &ClassifierConfig::default())?;

    // Reference: the cluster as the paper found it — everything on.
    let always_on = Simulation::new(
        SimulationConfig::new(catalog.clone()).all_machines_on(),
        &trace,
        Box::new(FirstFit),
    )
    .run();

    println!(
        "\n{:<10} {:>12} {:>10} {:>12} {:>10}",
        "approach", "energy_kWh", "switches", "mean_delay_s", "completed"
    );
    println!(
        "{:<10} {:>12.2} {:>10} {:>12.1} {:>10}",
        "always-on",
        always_on.total_energy_wh / 1000.0,
        always_on.switch_count,
        always_on.delay_stats_overall().mean,
        always_on.tasks_completed,
    );
    for (variant, report) in &results {
        println!(
            "{:<10} {:>12.2} {:>10} {:>12.1} {:>10}",
            variant.name(),
            report.total_energy_wh / 1000.0,
            report.switch_count,
            report.delay_stats_overall().mean,
            report.tasks_completed,
        );
    }

    for (variant, report) in &results {
        println!(
            "{} saves {:.0}% vs always-on",
            variant.name(),
            (1.0 - report.total_energy_wh / always_on.total_energy_wh) * 100.0
        );
    }
    println!(
        "\n(two hours is a smoke test; the paper-scale comparison between the \
         three controllers is `HARMONY_SCALE=full cargo run --release -p \
         harmony-bench -- fig21_26_controllers`)"
    );
    Ok(())
}
