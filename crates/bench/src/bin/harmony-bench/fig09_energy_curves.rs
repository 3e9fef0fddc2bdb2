//! Fig. 9: machine energy consumption as a function of CPU usage.
//!
//! The paper's point: a 0.2-CPU container cannot run on a PowerEdge
//! R210, and while the bigger servers can host it, they draw much more
//! power at that load — picking the "right" machine type matters.

use harmony_bench::{fmt, section, table};
use harmony_model::{MachineCatalog, Resources};

pub fn run() {
    let catalog = MachineCatalog::table2();
    section("Fig. 9: power (W) vs absolute CPU usage (normalized units)");
    // Sweep absolute CPU usage in normalized units of the largest
    // machine; a machine out of range prints "-" (cannot host).
    let steps: Vec<f64> = (0..=20).map(|i| i as f64 * 0.05).collect();
    let mut rows = Vec::new();
    for &u in &steps {
        let mut row = vec![fmt(u)];
        for ty in catalog.iter() {
            if u <= ty.capacity.cpu + 1e-12 {
                let util = Resources::new(u / ty.capacity.cpu, 0.0);
                row.push(fmt(ty.power.power_watts(util)));
            } else {
                row.push("-".to_owned());
            }
        }
        rows.push(row);
    }
    let mut headers = vec!["cpu_usage"];
    let names: Vec<&str> = catalog.iter().map(|t| t.name.as_str()).collect();
    headers.extend(names);
    table(&headers, &rows);

    // The paper's worked example: a 0.2-CPU container.
    section("0.2-CPU container placement energy (paper's example)");
    for ty in catalog.iter() {
        if ty.capacity.cpu >= 0.2 {
            let util = Resources::new(0.2 / ty.capacity.cpu, 0.0);
            println!("{}: {} W", ty.name, fmt(ty.power.power_watts(util)));
        } else {
            println!("{}: cannot host (capacity {})", ty.name, fmt(ty.capacity.cpu));
        }
    }
}
