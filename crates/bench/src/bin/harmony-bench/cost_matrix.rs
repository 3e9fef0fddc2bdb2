//! Cost matrix: scenario × variant × objective dollar comparison.
//!
//! Runs the closed-loop evaluation over a grid of scenarios (steady
//! Poisson arrivals, correlated batch arrivals, and a spot-market
//! cluster with an accelerator pool under reclaim faults), controller
//! variants (Baseline, CBS, CBP), and provisioning objectives (energy,
//! dollars on-demand-only, dollars spot-aware). Every run is billed
//! post hoc by one uniform cost model — machine-hours at the market
//! rate the objective was allowed to buy, plus scheduling-delay hours
//! at each priority group's SLO rate — so the grid compares what the
//! operator actually pays, not what the LP believed.
//!
//! Within a scenario the trace and fault plan are fixed: objectives
//! differ only in what the provisioning LP prices, never in the
//! workload or the faults it faces.
//!
//! Asserted in-process on the spot+accelerator scenario: the
//! spot-aware dollar objective must beat the energy objective on total
//! dollars for CBS while still attaining the production delay SLO —
//! P95 scheduling delay (the metric the fault-scenario bench also keys
//! on) within one control period, or within whatever the energy
//! objective itself manages if that is worse. Repeating a cell must
//! reproduce its report byte for byte.
//!
//! `--quick` (or `HARMONY_SCALE=quick`) shrinks the grid to CI-smoke
//! size. Honors `HARMONY_SEED`. Writes `results/BENCH_cost_matrix.json`
//! (see [`harmony_bench::json`]).

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::pipeline::{run_variant_priced, Variant};
use harmony::{CbsObjective, DollarCosts, HarmonyConfig};
use harmony_bench::json::write_bench_json;
use harmony_bench::{fmt, section, seed_from_env, table, Scale};
use harmony_model::{
    MachineCatalog, MachineTypeId, PriorityGroup, SimDuration,
};
use harmony_pricing::{MarketPolicy, PriceBook, SloCostCurve, SpotMarket};
use harmony_sim::{FaultPlan, SimReport};
use harmony_trace::{BatchArrivalConfig, Trace, TraceConfig, TraceGenerator};
use serde::value::Value;

/// The three objective columns of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Objective {
    Energy,
    DollarsOnDemand,
    DollarsSpot,
}

impl Objective {
    const ALL: [Objective; 3] =
        [Objective::Energy, Objective::DollarsOnDemand, Objective::DollarsSpot];

    fn name(self) -> &'static str {
        match self {
            Objective::Energy => "energy",
            Objective::DollarsOnDemand => "dollars-ondemand",
            Objective::DollarsSpot => "dollars-spot",
        }
    }

    /// What the operator is allowed to buy under this objective — the
    /// billing policy of the uniform cost model.
    fn billing(self) -> MarketPolicy {
        match self {
            // An energy-minimizing operator has no spot program.
            Objective::Energy | Objective::DollarsOnDemand => MarketPolicy::OnDemandOnly,
            Objective::DollarsSpot => MarketPolicy::SpotAware,
        }
    }

    fn build(
        self,
        catalog: &MachineCatalog,
        groups: &[PriorityGroup],
        seed: u64,
    ) -> CbsObjective {
        match self {
            Objective::Energy => CbsObjective::Energy,
            Objective::DollarsOnDemand => CbsObjective::Dollars(DollarCosts::default_for(
                catalog,
                groups,
                MarketPolicy::OnDemandOnly,
                seed,
            )),
            Objective::DollarsSpot => CbsObjective::Dollars(DollarCosts::default_for(
                catalog,
                groups,
                MarketPolicy::SpotAware,
                seed,
            )),
        }
    }
}

struct Scenario {
    name: &'static str,
    trace: Trace,
    catalog: MachineCatalog,
    faults: Option<FaultPlan>,
}

/// The evaluation grid. Span and catalog divisor mirror
/// `harmony_bench::evaluation_setup_seeded` so the steady scenario is
/// the familiar Fig. 21–26 workload.
fn scenarios(scale: Scale, seed: u64, price_seed: u64) -> Vec<Scenario> {
    let (span, divisor) = match scale {
        Scale::Quick => (SimDuration::from_hours(4.0), 50),
        Scale::Default => (SimDuration::from_days(1.0), 10),
        Scale::Full => (SimDuration::from_days(3.0), 7),
    };
    let base = TraceConfig::evaluation().with_span(span).with_seed(seed);
    let steady = TraceGenerator::new(base.clone()).generate();
    let batch = TraceGenerator::new(base.with_batches(BatchArrivalConfig::gratis_default()))
        .generate();
    let table2 = MachineCatalog::table2().scaled(divisor);
    let accel = MachineCatalog::table2_with_accel().scaled(divisor);
    let book = PriceBook::default_for(&accel, price_seed);
    let reclaims = SpotMarket::new(price_seed).eviction_plan(&book, &accel, span);
    vec![
        Scenario { name: "steady", trace: steady.clone(), catalog: table2.clone(), faults: None },
        Scenario { name: "batch-arrivals", trace: batch, catalog: table2, faults: None },
        Scenario { name: "spot-accel", trace: steady, catalog: accel, faults: Some(reclaims) },
    ]
}

/// One run's post-hoc bill.
struct Bill {
    rental_dollars: f64,
    spot_rental_dollars: f64,
    slo_dollars: f64,
    prod_attainment: f64,
    prod_p95_delay_s: f64,
}

impl Bill {
    fn total(&self) -> f64 {
        self.rental_dollars + self.slo_dollars
    }
}

/// Bills a finished run: active machine-hours at the market rate the
/// objective could buy, integrated over the sampled series, plus
/// delay-hours at each group's critical SLO rate. Identical across
/// variants and objectives except for the billing policy, so rows are
/// comparable.
fn account(report: &SimReport, book: &PriceBook, billing: MarketPolicy) -> Bill {
    let mut rental = 0.0;
    let mut spot_rental = 0.0;
    for w in report.series.windows(2) {
        let dt_hours = (w[1].time.as_secs() - w[0].time.as_secs()) / 3600.0;
        for (m, &count) in w[0].active_per_type.iter().enumerate() {
            let ty = MachineTypeId(m);
            let rate = book.market_rate(ty, w[0].time, billing);
            let cost = count as f64 * rate * dt_hours;
            rental += cost;
            if billing == MarketPolicy::SpotAware && rate < book.on_demand_rate(ty) {
                spot_rental += cost;
            }
        }
    }
    let mut slo = 0.0;
    for group in PriorityGroup::ALL {
        let curve = SloCostCurve::default_for_group(group);
        let delay_hours: f64 =
            report.delays_by_group[group.index()].iter().sum::<f64>() / 3600.0;
        slo += delay_hours * curve.critical_per_hour;
    }
    let prod = report.delay_stats(PriorityGroup::Production);
    Bill {
        rental_dollars: rental,
        spot_rental_dollars: spot_rental,
        slo_dollars: slo,
        prod_attainment: prod.immediate_fraction,
        prod_p95_delay_s: prod.p95,
    }
}

pub fn run(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::from_env() };
    let seed = seed_from_env();
    let price_seed = seed;
    let classifier_config = ClassifierConfig::default();
    let control_mins = match scale {
        Scale::Quick | Scale::Default => 15.0,
        Scale::Full => 10.0,
    };
    let config = HarmonyConfig {
        control_period: SimDuration::from_mins(control_mins),
        horizon: 4,
        ..Default::default()
    };

    let mut json_rows = Vec::new();
    // (total dollars, production p95 delay) for the CBS cells of the
    // spot-accel scenario, by objective — the asserted comparison.
    let mut cbs_spot_cells: Vec<(Objective, f64, f64)> = Vec::new();

    for scenario in scenarios(scale, seed, price_seed) {
        let book = PriceBook::default_for(&scenario.catalog, price_seed);
        let classifier = TaskClassifier::fit(scenario.trace.tasks(), &classifier_config)
            .expect("classifier fit");
        let groups: Vec<PriorityGroup> =
            classifier.classes().iter().map(|c| c.group).collect();
        section(&format!(
            "scenario: {} ({} tasks, {} machines{})",
            scenario.name,
            scenario.trace.len(),
            scenario.catalog.total_machines(),
            scenario
                .faults
                .as_ref()
                .map(|p| format!(", {} reclaim events", p.events().len()))
                .unwrap_or_default(),
        ));
        let mut rows = Vec::new();
        for variant in Variant::ALL {
            // The baseline has no provisioning LP: it is objective-blind,
            // so one energy-billed row represents it.
            let objectives: &[Objective] =
                if variant == Variant::Baseline { &[Objective::Energy] } else { &Objective::ALL };
            for &objective in objectives {
                let built = objective.build(&scenario.catalog, &groups, price_seed);
                let report = run_variant_priced(
                    &scenario.trace,
                    &scenario.catalog,
                    &config,
                    &classifier_config,
                    variant,
                    scenario.faults.as_ref(),
                    &built,
                )
                .unwrap_or_else(|e| {
                    panic!("{}/{}/{}: {e}", scenario.name, variant.name(), objective.name())
                });
                let bill = account(&report, &book, objective.billing());
                if scenario.name == "spot-accel" && variant == Variant::Cbs {
                    cbs_spot_cells.push((objective, bill.total(), bill.prod_p95_delay_s));
                }
                rows.push(vec![
                    variant.name().to_owned(),
                    objective.name().to_owned(),
                    fmt(bill.rental_dollars),
                    fmt(bill.slo_dollars),
                    fmt(bill.total()),
                    fmt(if bill.rental_dollars > 0.0 {
                        bill.spot_rental_dollars / bill.rental_dollars
                    } else {
                        0.0
                    }),
                    fmt(bill.prod_attainment),
                    fmt(report.total_energy_wh / 1000.0),
                ]);
                json_rows.push(Value::object(&[
                    ("scenario", Value::String(scenario.name.to_owned())),
                    ("variant", Value::String(variant.name().to_owned())),
                    ("objective", Value::String(objective.name().to_owned())),
                    ("rental_dollars", Value::Number(bill.rental_dollars)),
                    ("spot_rental_dollars", Value::Number(bill.spot_rental_dollars)),
                    ("slo_dollars", Value::Number(bill.slo_dollars)),
                    ("total_dollars", Value::Number(bill.total())),
                    ("prod_immediate_fraction", Value::Number(bill.prod_attainment)),
                    ("prod_p95_delay_s", Value::Number(bill.prod_p95_delay_s)),
                    ("energy_kwh", Value::Number(report.total_energy_wh / 1000.0)),
                    ("energy_cost_dollars", Value::Number(report.energy_cost_dollars)),
                    ("tasks_completed", Value::Number(report.tasks_completed as f64)),
                    ("tasks_failed", Value::Number(report.tasks_failed as f64)),
                ]));
            }
        }
        table(
            &[
                "variant",
                "objective",
                "rental_$",
                "slo_$",
                "total_$",
                "spot_share",
                "prod_attain",
                "energy_kWh",
            ],
            &rows,
        );
    }

    // The headline claim: on the spot+accelerator scenario, pricing the
    // LP in dollars must beat pricing it in energy — strictly cheaper,
    // without sacrificing production SLO attainment.
    let cell = |objective: Objective| {
        cbs_spot_cells
            .iter()
            .find(|(o, _, _)| *o == objective)
            .copied()
            .unwrap_or_else(|| panic!("missing CBS spot-accel cell for {}", objective.name()))
    };
    let (_, energy_total, energy_p95) = cell(Objective::Energy);
    let (_, spot_total, spot_p95) = cell(Objective::DollarsSpot);
    assert!(
        spot_total < energy_total,
        "dollar objective must beat energy on total cost: ${spot_total:.2} vs ${energy_total:.2}"
    );
    // SLO attainment is the production tail delay — the same P95
    // scheduling-delay metric the fault-scenario bench keys on. The
    // delay target is one control period: the controller only places
    // capacity at period boundaries, so sub-period P95 means production
    // demand is absorbed by the very next plan. The dollar objective
    // must attain whatever the energy objective attains — a fleet that
    // costs 4-5x as much in rental is allowed to shave seconds inside
    // the target, but not to define the bar.
    let slo_target_s = SimDuration::from_mins(control_mins).as_secs();
    let p95_bound = energy_p95.max(slo_target_s);
    assert!(
        spot_p95 <= p95_bound + 1e-9,
        "dollar objective may not sacrifice the production delay SLO: \
         p95 {spot_p95:.1}s vs bound {p95_bound:.1}s (energy {energy_p95:.1}s, \
         target {slo_target_s:.0}s)"
    );
    println!(
        "\nspot-accel CBS: dollars-spot ${spot_total:.2} < energy ${energy_total:.2} \
         at production p95 delay {spot_p95:.1}s (energy {energy_p95:.1}s, \
         SLO target {slo_target_s:.0}s)"
    );

    // Reproducibility: re-running one priced cell must give a byte-identical
    // report (fixed seeds end to end — trace, classifier, market, LP).
    {
        let scenario = scenarios(scale, seed, price_seed).pop().expect("spot-accel");
        let classifier = TaskClassifier::fit(scenario.trace.tasks(), &classifier_config)
            .expect("classifier fit");
        let groups: Vec<PriorityGroup> =
            classifier.classes().iter().map(|c| c.group).collect();
        let objective = Objective::DollarsSpot.build(&scenario.catalog, &groups, price_seed);
        let run = || {
            run_variant_priced(
                &scenario.trace,
                &scenario.catalog,
                &config,
                &classifier_config,
                Variant::Cbs,
                scenario.faults.as_ref(),
                &objective,
            )
            .expect("repro run")
        };
        let a = serde_json::to_string(&run()).expect("serialize");
        let b = serde_json::to_string(&run()).expect("serialize");
        assert_eq!(a, b, "fixed-seed cost-matrix cells must be byte-reproducible");
        println!("repro check OK: spot-accel/CBS/dollars-spot is byte-identical across runs");
    }

    let payload = Value::object(&[
        ("name", Value::String("cost_matrix".to_owned())),
        ("scale", Value::String(scale.name().to_owned())),
        ("seed", Value::Number(seed as f64)),
        ("price_seed", Value::Number(price_seed as f64)),
        ("rows", Value::Array(json_rows)),
    ]);
    match write_bench_json("cost_matrix", &payload) {
        Ok(path) => println!("cost matrix written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_cost_matrix.json: {e}"),
    }
}
