//! Bring your own hardware: define a custom machine catalog, plug it
//! into the simulator, and let HARMONY (CBP mode — stock scheduler)
//! provision it.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example custom_cluster
//! ```

use harmony::classify::ClassifierConfig;
use harmony::pipeline::{run_variant, Variant};
use harmony::HarmonyConfig;
use harmony_model::{
    MachineCatalog, MachineType, MachineTypeId, PowerModel, Resources, SimDuration,
};
use harmony_trace::{TraceConfig, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-tier cluster: ARM-style low-power nodes plus dual-socket
    // workhorses. Capacities are normalized to the workhorse.
    let catalog = MachineCatalog::new(vec![
        MachineType {
            id: MachineTypeId(0),
            name: "low-power-node".into(),
            platform_id: 10,
            capacity: Resources::new(0.2, 0.15),
            count: 120,
            power: PowerModel::new(18.0, Resources::new(45.0, 8.0)),
            boot_time: SimDuration::from_secs(30.0),
            switching_cost: 0.0005,
        },
        MachineType {
            id: MachineTypeId(1),
            name: "workhorse".into(),
            platform_id: 11,
            capacity: Resources::new(1.0, 1.0),
            count: 24,
            power: PowerModel::new(160.0, Resources::new(320.0, 55.0)),
            boot_time: SimDuration::from_secs(150.0),
            switching_cost: 0.005,
        },
    ])?;
    println!(
        "cluster: {} machines, capacity {}",
        catalog.total_machines(),
        catalog.total_capacity()
    );

    let trace = TraceGenerator::new(TraceConfig::small().with_seed(99)).generate();
    let config = HarmonyConfig {
        control_period: SimDuration::from_mins(10.0),
        horizon: 3,
        ..Default::default()
    };
    let report =
        run_variant(&trace, &catalog, &config, &ClassifierConfig::default(), Variant::Cbp)?;

    println!("completed: {} of {} tasks", report.tasks_completed, trace.len());
    println!(
        "energy: {:.2} kWh (${:.2})",
        report.total_energy_wh / 1000.0,
        report.energy_cost_dollars
    );
    println!("machine switches: {}", report.switch_count);
    println!("mean scheduling delay: {:.1} s", report.delay_stats_overall().mean);
    println!("unschedulable tasks (too big for any node): {}", report.tasks_unschedulable);

    println!("\nactive machines over time:");
    for point in report.series.iter().step_by(2) {
        let bars: String = "#".repeat(point.active_per_type.iter().sum::<usize>() / 2);
        println!(
            "  {:>5.1}h [{:>3} low, {:>2} big] {}",
            point.time.as_hours(),
            point.active_per_type[0],
            point.active_per_type[1],
            bars
        );
    }
    Ok(())
}
