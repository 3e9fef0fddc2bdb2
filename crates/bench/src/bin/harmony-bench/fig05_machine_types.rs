//! Fig. 5: machine heterogeneity in the compute cluster — ten machine
//! types with capacities, platform ids, and a heavily skewed population
//! (>50% type 1, ~30% type 2, two ~1000-machine types, six rare types).

use harmony_bench::{fmt, section, table};
use harmony_model::MachineCatalog;

pub fn run() {
    let catalog = MachineCatalog::google_ten_types();
    let total = catalog.total_machines() as f64;
    section("Fig. 5: machine types (capacity, platform, population)");
    let rows: Vec<Vec<String>> = catalog
        .iter()
        .map(|ty| {
            vec![
                ty.name.clone(),
                ty.platform_id.to_string(),
                fmt(ty.capacity.cpu),
                fmt(ty.capacity.mem),
                ty.count.to_string(),
                format!("{}%", fmt(ty.count as f64 / total * 100.0)),
            ]
        })
        .collect();
    table(&["type", "platform", "cpu", "mem", "count", "share"], &rows);
    println!("\ntotal machines: {}", catalog.total_machines());
}
