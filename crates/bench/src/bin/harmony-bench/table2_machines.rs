//! Table II: the simulated machine configurations, plus the derived
//! normalized capacities and power-model constants (DESIGN.md §6).

use harmony_bench::{fmt, section, table};
use harmony_model::MachineCatalog;

pub fn run() {
    let catalog = MachineCatalog::table2();
    section("Table II: Machine Configurations");
    let rows: Vec<Vec<String>> = catalog
        .iter()
        .map(|ty| {
            vec![
                ty.name.clone(),
                fmt(ty.capacity.cpu * 48.0), // cores
                format!("{} GB", ty.capacity.mem * 64.0),
                ty.count.to_string(),
                fmt(ty.capacity.cpu),
                fmt(ty.capacity.mem),
                fmt(ty.power.idle_watts),
                fmt(ty.power.alpha_watts.cpu),
                fmt(ty.power.alpha_watts.mem),
                fmt(ty.switching_cost),
            ]
        })
        .collect();
    table(
        &[
            "model",
            "cores",
            "memory",
            "machines",
            "cpu_norm",
            "mem_norm",
            "idle_W",
            "alpha_cpu_W",
            "alpha_mem_W",
            "switch_cost_$",
        ],
        &rows,
    );
    println!(
        "\ntotal machines: {}  total capacity: {}",
        catalog.total_machines(),
        catalog.total_capacity()
    );
}
