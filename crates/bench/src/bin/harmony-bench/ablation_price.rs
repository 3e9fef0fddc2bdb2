//! Ablation: what the provisioning objective prices.
//!
//! Two sweeps over the same CBS setup:
//!
//! 1. **Electricity tariff** — the CBS-RELAX objective weights energy
//!    by the price at each horizon step, so under a time-of-use tariff
//!    the controller should shift optional capacity away from peak
//!    hours. Flat vs day/night tariffs of increasing peak ratio at
//!    equal average price.
//! 2. **Machine market** — the dollar objective priced against an
//!    on-demand-only book vs a spot-aware one: same workload, same
//!    catalog, the only difference is whether the LP may bid on
//!    discounted evictable pools.
//!
//! Both sweeps land in `results/BENCH_ablation_price.json`.

use std::cell::RefCell;
use std::rc::Rc;

use harmony::classify::TaskClassifier;
use harmony::controllers::{CbsController, QuotaScheduler, QuotaState};
use harmony::{CbsObjective, DollarCosts};
use harmony_bench::json::write_bench_json;
use harmony_bench::{evaluation_setup, fmt, section, seed_from_env, table, Scale};
use harmony_model::{EnergyPrice, MachineCatalog, PriorityGroup};
use harmony_pricing::MarketPolicy;
use harmony_sim::{Simulation, SimulationConfig};
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
        let quota = Rc::new(RefCell::new(QuotaState::default()));
        let controller = CbsController::new(
            classifier.clone(),
            config.clone(),
            price.clone(),
            quota.clone(),
        )
        .expect("controller");
        let scheduler = QuotaScheduler::new(classifier.clone(), quota);
        let sim_config = SimulationConfig::new(catalog.clone())
            .price(price)
            .without_preemption();
        let report = Simulation::new(sim_config, &trace, Box::new(scheduler))
            .with_controller(Box::new(controller))
            .run();
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
    table(
        &[
            "tariff",
            "energy_kWh",
            "energy_$",
            "mean_active",
            "mean_delay_s",
        ],
        &rows,
    );
    println!(
        "\n(the horizon sees price steps coming: under steeper tariffs the \
         controller defers optional capacity to off-peak periods)"
    );

    // Sweep 2: the dollar objective's machine market. Same trace and
    // controller, but the catalog gains the accelerator pool and the
    // LP minimizes rental + SLO dollars instead of energy; the swept
    // knob is whether the price book may quote spot pools.
    section("Ablation: machine market (CBS dollar objective, spot+accel catalog)");
    // Divisor matches the quick-scale evaluation preset.
    let accel = MachineCatalog::table2_with_accel().scaled(50);
    let groups: Vec<PriorityGroup> = classifier.classes().iter().map(|c| c.group).collect();
    let price = EnergyPrice::Flat(0.10);
    let mut rows = Vec::new();
    for market in [MarketPolicy::OnDemandOnly, MarketPolicy::SpotAware] {
        let objective = CbsObjective::Dollars(DollarCosts::default_for(
            &accel,
            &groups,
            market,
            seed_from_env(),
        ));
        let quota = Rc::new(RefCell::new(QuotaState::default()));
        let controller = CbsController::new(
            classifier.clone(),
            config.clone(),
            price.clone(),
            quota.clone(),
        )
        .expect("controller")
        .with_objective(objective);
        let scheduler = QuotaScheduler::new(classifier.clone(), quota);
        let sim_config =
            SimulationConfig::new(accel.clone()).price(price.clone()).without_preemption();
        let report = Simulation::new(sim_config, &trace, Box::new(scheduler))
            .with_controller(Box::new(controller))
            .run();
        rows.push(vec![
            market.name().to_owned(),
            fmt(report.total_energy_wh / 1000.0),
            fmt(report.mean_active_machines()),
            fmt(report.delay_stats_overall().mean),
            fmt(report.delay_stats_overall().p95),
        ]);
        json_rows.push(Value::object(&[
            ("sweep", Value::String("market".to_owned())),
            ("setting", Value::String(market.name().to_owned())),
            ("energy_kwh", Value::Number(report.total_energy_wh / 1000.0)),
            ("mean_active_machines", Value::Number(report.mean_active_machines())),
            ("mean_delay_s", Value::Number(report.delay_stats_overall().mean)),
            ("p95_delay_s", Value::Number(report.delay_stats_overall().p95)),
        ]));
    }
    table(&["market", "energy_kWh", "mean_active", "mean_delay_s", "p95_delay_s"], &rows);
    println!(
        "\n(spot-aware pricing shifts the plan toward discounted evictable \
         pools; on-demand-only pays full rate for the same capacity)"
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
