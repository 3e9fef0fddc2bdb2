//! Ablation: the electricity tariff the provisioning objective prices.
//!
//! The CBS-RELAX objective weights energy by the price at each horizon
//! step, so under a time-of-use tariff the controller should shift
//! optional capacity away from peak hours. Flat vs day/night tariffs of
//! increasing peak ratio at equal average price, over the same CBS
//! setup. The sweep lands in `results/BENCH_ablation_price.json`.

use std::rc::Rc;

use harmony::classify::TaskClassifier;
use harmony::pipeline::{simulate, Variant};
use harmony_bench::json::write_bench_json;
use harmony_bench::{evaluation_setup, fmt, section, seed_from_env, table, Scale};
use harmony_model::EnergyPrice;
use serde::value::Value;

pub fn run() {
    let (trace, catalog, config, cc) = evaluation_setup(Scale::Quick);
    let classifier = Rc::new(TaskClassifier::fit(trace.tasks(), &cc).expect("fit"));
    let mut json_rows = Vec::new();

    section("Ablation: electricity tariff (CBS, equal mean price)");
    let tariffs: Vec<(&str, EnergyPrice)> = vec![
        ("flat", EnergyPrice::Flat(0.10)),
        (
            "tou 1.5x",
            EnergyPrice::TimeOfUse {
                peak: 0.12,
                off_peak: 0.08,
                peak_start_hour: 8.0,
                peak_end_hour: 20.0,
            },
        ),
        (
            "tou 3x",
            EnergyPrice::TimeOfUse {
                peak: 0.15,
                off_peak: 0.05,
                peak_start_hour: 8.0,
                peak_end_hour: 20.0,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, price) in tariffs {
        let report =
            simulate(&trace, &catalog, &config, Some(&classifier), Variant::Cbs, &price, None)
                .expect("run");
        rows.push(vec![
            name.to_owned(),
            fmt(report.total_energy_wh / 1000.0),
            fmt(report.energy_cost_dollars),
            fmt(report.mean_active_machines()),
            fmt(report.delay_stats_overall().mean),
        ]);
        json_rows.push(Value::object(&[
            ("sweep", Value::String("tariff".to_owned())),
            ("setting", Value::String(name.to_owned())),
            ("energy_kwh", Value::Number(report.total_energy_wh / 1000.0)),
            ("energy_cost_dollars", Value::Number(report.energy_cost_dollars)),
            ("mean_active_machines", Value::Number(report.mean_active_machines())),
            ("mean_delay_s", Value::Number(report.delay_stats_overall().mean)),
        ]));
    }
    table(&["tariff", "energy_kWh", "energy_$", "mean_active", "mean_delay_s"], &rows);
    println!(
        "\n(the horizon sees price steps coming: under steeper tariffs the \
         controller defers optional capacity to off-peak periods)"
    );

    let payload = Value::object(&[
        ("name", Value::String("ablation_price".to_owned())),
        ("seed", Value::Number(seed_from_env() as f64)),
        ("rows", Value::Array(json_rows)),
    ]);
    match write_bench_json("ablation_price", &payload) {
        Ok(path) => println!("ablation written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_ablation_price.json: {e}"),
    }
}
