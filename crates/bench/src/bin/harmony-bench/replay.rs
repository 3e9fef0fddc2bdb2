//! `replay` — run a HARMONY controller over a trace file.
//!
//! Usage:
//!
//! ```sh
//! replay [<trace-file>] [--controller baseline|cbs|cbp|none] \
//!        [--catalog table2|google10] [--scale <divisor>|paper] \
//!        [--format jsonl|google-csv] [--period-mins <f64>] \
//!        [--faults <scenario>] [--fault-seed <u64>] [--metrics]
//! ```
//!
//! `--controller none` replays on a fully-on cluster (no DCP). Trace
//! files come from [`harmony_trace::Trace::write_jsonl`], from
//! [`harmony_trace::google_csv::write_task_events`], or from the real
//! Google cluster-data v1 `task_events` tables.
//!
//! `--faults <scenario>` switches to robustness mode: all three
//! controller variants run under the named fault scenario (one of
//! `crash-storm`, `slow-boot`, `eviction-wave`, `arrival-burst`,
//! `mixed`) and the report lists every injected fault and degradation
//! event. The trace file is optional in this mode — omitting it replays
//! the synthetic evaluation trace.
//!
//! `--metrics` resets the global telemetry registry before the run and
//! writes the post-run snapshot (per-stage control-loop timings, simplex
//! pivot counters, forecast tier counts, simulator event tallies) to
//! `results/BENCH_telemetry.json` via the atomic artifact writer.

use std::fs::File;
use std::io::BufReader;
use std::process::exit;

use harmony::classify::ClassifierConfig;
use harmony::pipeline::{run_variant, Variant};
use harmony::HarmonyConfig;
use harmony_bench::{evaluation_setup, fmt, run_fault_comparison, section, table, Scale};
use harmony_model::{wire, MachineCatalog, PriorityGroup, SimDuration};
use harmony_sim::{
    DegradationKind, FaultPlan, FaultRecordKind, FirstFit, SimReport, Simulation,
    SimulationConfig, SCENARIOS,
};
use harmony_telemetry::keys;
use harmony_trace::{google_csv, Trace, TraceConfig, TraceGenerator};

fn usage() -> ! {
    eprintln!(
        "usage: replay [<trace-file>] [--controller baseline|cbs|cbp|none] \
         [--catalog table2|google10] [--scale <divisor>|paper] \
         [--format jsonl|google-csv] [--period-mins <f64>] \
         [--faults <scenario>] [--fault-seed <u64>] [--metrics]\n\
         fault scenarios: {}",
        SCENARIOS.join(", ")
    );
    exit(2);
}

pub fn run(args: &[String]) {
    let mut path: Option<String> = None;
    let mut controller = "cbp".to_owned();
    let mut catalog_name = "table2".to_owned();
    let mut scale = 50usize;
    let mut paper = false;
    let mut format = "jsonl".to_owned();
    let mut period_mins = 15.0f64;
    let mut fault_scenario: Option<String> = None;
    let mut fault_seed = 2013u64;
    let mut metrics = false;

    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--controller" => controller = grab("--controller"),
            "--catalog" => catalog_name = grab("--catalog"),
            "--scale" => {
                let value = grab("--scale");
                if value == "paper" {
                    // The paper preset: Table II unscaled (10,000
                    // machines); without a trace file the paper-scale
                    // synthetic workload (>1M tasks) is generated.
                    paper = true;
                    scale = 1;
                } else {
                    scale = value.parse().unwrap_or_else(|_| usage());
                }
            }
            "--format" => format = grab("--format"),
            "--period-mins" => {
                let value = grab("--period-mins");
                period_mins = value
                    .parse()
                    .ok()
                    .filter(|mins: &f64| mins.is_finite() && *mins > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--period-mins: `{value}` is not a finite number above 0");
                        usage()
                    });
            }
            "--faults" => fault_scenario = Some(grab("--faults")),
            "--fault-seed" => {
                fault_seed = wire::parse_seed(&grab("--fault-seed")).unwrap_or_else(|e| {
                    eprintln!("--fault-seed {e}");
                    usage()
                });
            }
            "--metrics" => metrics = true,
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    if let Some(scenario) = &fault_scenario {
        if !SCENARIOS.contains(&scenario.as_str()) {
            eprintln!("unknown fault scenario `{scenario}`");
            usage();
        }
    }
    if metrics {
        // Clean measurement window: only this run's instrumentation
        // lands in the artifact, not counts from earlier activity.
        harmony_telemetry::global().reset();
    }

    // Without a trace file, fault mode replays the synthetic evaluation
    // setup and the plain replay needs `--scale paper`.
    let (trace, catalog, config, classifier_config) = match (&path, &fault_scenario, paper) {
        (None, Some(_), _) => evaluation_setup(Scale::from_env()),
        (None, None, false) => usage(),
        (path, _, _) => {
            let trace = match path {
                Some(p) => load_trace(p, &format),
                None => {
                    eprintln!("generating paper-scale synthetic trace (29 days, >1M tasks)...");
                    TraceGenerator::new(TraceConfig::paper_scale()).generate()
                }
            };
            let catalog = parse_catalog(&catalog_name).scaled(scale.max(1));
            let config = HarmonyConfig {
                control_period: SimDuration::from_mins(period_mins),
                ..Default::default()
            };
            (trace, catalog, config, ClassifierConfig::default())
        }
    };

    #[expect(clippy::disallowed_methods, reason = "measures the replay's events/sec")]
    let started = std::time::Instant::now();
    match &fault_scenario {
        Some(scenario) => {
            fault_mode(&trace, &catalog, &config, &classifier_config, scenario, fault_seed)
        }
        None => {
            eprintln!(
                "replaying {} tasks over {:.1} h on {} machines ({catalog_name}/{scale}), controller {controller}",
                trace.len(),
                trace.span().as_hours(),
                catalog.total_machines(),
            );
            replay_mode(&trace, catalog, &config, &classifier_config, &controller);
        }
    }
    record_events_per_sec(started);
    if metrics {
        write_metrics_artifact();
    }
}

/// One controller (or none: a fully-on cluster) over the trace; prints
/// the outcome, the per-group scheduling delays and SLO attainment.
fn replay_mode(
    trace: &Trace,
    catalog: MachineCatalog,
    config: &HarmonyConfig,
    classifier_config: &ClassifierConfig,
    controller: &str,
) {
    let report = match controller {
        "none" => {
            let sim_config = SimulationConfig::new(catalog).all_machines_on();
            Simulation::new(sim_config, trace, Box::new(FirstFit)).run()
        }
        name => {
            let variant = match name {
                "baseline" => Variant::Baseline,
                "cbs" => Variant::Cbs,
                "cbp" => Variant::Cbp,
                other => {
                    eprintln!("unknown controller {other}");
                    usage();
                }
            };
            run_variant(trace, &catalog, config, classifier_config, variant).unwrap_or_else(|e| {
                eprintln!("controller failed: {e}");
                exit(1);
            })
        }
    };

    section("replay report");
    println!("tasks completed:      {}", report.tasks_completed);
    println!("tasks running at end: {}", report.tasks_running_at_end);
    println!("tasks pending at end: {}", report.tasks_pending_at_end);
    println!("tasks unschedulable:  {}", report.tasks_unschedulable);
    println!(
        "energy:               {} kWh (${})",
        fmt(report.total_energy_wh / 1000.0),
        fmt(report.energy_cost_dollars)
    );
    println!(
        "machine switches:     {} (${})",
        report.switch_count,
        fmt(report.switch_cost_dollars)
    );
    println!(
        "migrations/evictions: {} / {}",
        report.migrations, report.evictions
    );

    section("scheduling delay per priority group (seconds)");
    let attainment = report.slo_attainment(config.slo_delay_secs);
    let rows: Vec<Vec<String>> = PriorityGroup::ALL
        .iter()
        .map(|&g| {
            let s = report.delay_stats(g);
            vec![
                g.to_string(),
                s.count.to_string(),
                fmt(s.immediate_fraction),
                fmt(s.mean),
                fmt(s.p50),
                fmt(s.p90),
                fmt(s.p99),
                fmt(s.max),
                fmt(config.slo_delay_secs[g.index()]),
                fmt(attainment[g.index()]),
            ]
        })
        .collect();
    table(
        &[
            "group",
            "placements",
            "immediate",
            "mean",
            "p50",
            "p90",
            "p99",
            "max",
            "slo",
            "attained",
        ],
        &rows,
    );
    println!(
        "SLO attainment overall: {}",
        fmt(report.slo_attainment_overall(config.slo_delay_secs))
    );
}

/// Computes simulator event throughput over the elapsed wall clock and
/// records it as the `sim.events_per_sec` gauge. The simulator counts
/// events but cannot read wall clocks (the root `clippy.toml` bans them
/// in library code), so the rate is derived here, outside the engine.
fn record_events_per_sec(started: std::time::Instant) {
    let elapsed = started.elapsed().as_secs_f64();
    let events: u64 = harmony_telemetry::global()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("sim.events."))
        .map(|(_, v)| *v)
        .sum();
    if elapsed > 0.0 && events > 0 {
        harmony_telemetry::global().gauge(keys::SIM_EVENTS_PER_SEC).set(events as f64 / elapsed);
        eprintln!(
            "processed {events} events in {elapsed:.2}s wall ({:.0} events/sec)",
            events as f64 / elapsed
        );
    }
}

/// Snapshots the global telemetry registry, prints a per-stage timing
/// table plus the simplex pivot counters, and writes the full snapshot
/// to `results/BENCH_telemetry.json` (atomic tmp+rename).
fn write_metrics_artifact() {
    use harmony_bench::json::write_bench_json;
    use serde::value::Value;

    let snapshot = harmony_telemetry::global().snapshot();

    section("telemetry: control-loop stage timings");
    let stages = [
        ("classify", keys::PIPELINE_CLASSIFY_SECONDS),
        ("forecast", keys::PIPELINE_FORECAST_SECONDS),
        ("sizing", keys::PIPELINE_SIZING_SECONDS),
        ("lp", keys::PIPELINE_LP_SECONDS),
        ("rounding", keys::PIPELINE_ROUNDING_SECONDS),
        ("whole period", keys::PIPELINE_PERIOD_SECONDS),
    ];
    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|&(label, name)| match snapshot.histogram(name) {
            Some(h) => vec![
                label.to_owned(),
                h.count.to_string(),
                fmt(h.sum),
                fmt(h.mean()),
                fmt(h.quantile(0.50)),
                fmt(h.quantile(0.99)),
            ],
            None => {
                let mut row = vec![label.to_owned()];
                row.resize(6, "-".to_owned());
                row
            }
        })
        .collect();
    table(
        &["stage", "periods", "total s", "mean s", "p50 s", "p99 s"],
        &rows,
    );
    println!(
        "simplex: {} solves, {} pivots ({} in phase 1), {} failures",
        snapshot.counter(keys::LP_SOLVES),
        snapshot.counter(keys::LP_PIVOTS),
        snapshot.counter(keys::LP_PHASE1_PIVOTS),
        snapshot.counter(keys::LP_FAILURES),
    );

    let counters = Value::Object(
        snapshot
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), Value::Number(*v as f64)))
            .collect(),
    );
    let gauges = Value::Object(
        snapshot
            .gauges
            .iter()
            .map(|(name, v)| (name.clone(), Value::Number(*v)))
            .collect(),
    );
    let histograms = Value::Array(
        snapshot
            .histograms
            .iter()
            .map(|h| {
                Value::object(&[
                    ("name", Value::String(h.name.clone())),
                    ("count", Value::Number(h.count as f64)),
                    ("sum_seconds", Value::Number(h.sum)),
                    ("mean_seconds", Value::Number(h.mean())),
                    ("p50_seconds", Value::Number(h.quantile(0.50))),
                    ("p99_seconds", Value::Number(h.quantile(0.99))),
                ])
            })
            .collect(),
    );
    let payload = Value::object(&[
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ]);
    match write_bench_json("telemetry", &payload) {
        Ok(path) => eprintln!("telemetry snapshot written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write telemetry artifact: {e}");
            exit(1);
        }
    }
}

fn load_trace(path: &str, format: &str) -> Trace {
    let file = File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1);
    });
    let reader = BufReader::new(file);
    match format {
        "jsonl" => Trace::read_jsonl(reader),
        "google-csv" => google_csv::read_task_events(reader),
        other => {
            eprintln!("unknown format {other}");
            usage();
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    })
}

fn parse_catalog(name: &str) -> MachineCatalog {
    match name {
        "table2" => MachineCatalog::table2(),
        "google10" => MachineCatalog::google_ten_types(),
        other => {
            eprintln!("unknown catalog {other}");
            usage();
        }
    }
}

/// Robustness mode: all three controller variants run under one named
/// fault scenario; the output lists every injected fault, every
/// degradation event, and a cross-variant comparison.
fn fault_mode(
    trace: &Trace,
    catalog: &MachineCatalog,
    config: &HarmonyConfig,
    classifier_config: &ClassifierConfig,
    scenario: &str,
    fault_seed: u64,
) {
    let plan =
        FaultPlan::scenario(scenario, fault_seed, trace.span()).unwrap_or_else(|| usage());
    eprintln!(
        "fault replay: {} tasks over {:.1} h, scenario {scenario} ({} events, seed {fault_seed})",
        trace.len(),
        trace.span().as_hours(),
        plan.events().len(),
    );
    let reports =
        run_fault_comparison(trace, catalog, config, classifier_config, scenario, &plan)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1);
            });
    for (variant, report) in &reports {
        section(&format!("{} under {scenario}", variant.name()));
        // `run_fault_comparison` asserted that the five outcomes add up
        // to the trace's task count.
        println!(
            "completed {} / running {} / pending {} / unschedulable {} / failed {}  (conserved: {} of {})",
            report.tasks_completed,
            report.tasks_running_at_end,
            report.tasks_pending_at_end,
            report.tasks_unschedulable,
            report.tasks_failed,
            trace.len(),
            trace.len(),
        );
        print_faults(report);
        print_degradations(report);
    }

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(variant, report)| {
            let p95 = report.delay_stats(PriorityGroup::Production).p95;
            vec![
                variant.name().to_owned(),
                fmt(report.total_energy_wh / 1000.0),
                fmt(report.energy_cost_dollars),
                report.tasks_failed.to_string(),
                fmt(p95),
                report.faults.len().to_string(),
                report.degradations.len().to_string(),
            ]
        })
        .collect();
    section(&format!("comparison under {scenario}"));
    table(
        &[
            "variant",
            "energy kWh",
            "energy $",
            "failed",
            "prod p95 delay s",
            "faults",
            "degradations",
        ],
        &rows,
    );
}

fn print_faults(report: &SimReport) {
    println!("injected faults ({}):", report.faults.len());
    for f in &report.faults {
        let at = f.at.as_hours();
        match &f.kind {
            FaultRecordKind::MachineCrash {
                machine,
                evicted,
                failed,
            } => {
                println!("  {at:7.2} h  crash {machine:?}: {evicted} evicted, {failed} failed")
            }
            FaultRecordKind::MachineRecovered { machine } => {
                println!("  {at:7.2} h  recovered {machine:?}")
            }
            FaultRecordKind::SlowBootStart { factor } => {
                println!("  {at:7.2} h  slow-boot starts (boot time x{factor})")
            }
            FaultRecordKind::SlowBootEnd => println!("  {at:7.2} h  slow-boot ends"),
            FaultRecordKind::TaskEviction { evicted, failed } => {
                println!("  {at:7.2} h  eviction wave: {evicted} evicted, {failed} failed")
            }
            FaultRecordKind::ArrivalBurst { tasks_warped } => {
                println!("  {at:7.2} h  arrival burst: {tasks_warped} tasks warped")
            }
        }
    }
}

fn print_degradations(report: &SimReport) {
    println!("degradation events ({}):", report.degradations.len());
    for (shown, d) in report.degradations.iter().enumerate() {
        if shown == 12 {
            println!("  ... {} more", report.degradations.len() - shown);
            break;
        }
        let kind = match &d.kind {
            DegradationKind::ForecastFallback { class, tier } => {
                format!("forecast fallback (class {class}, tier {tier:?})")
            }
            DegradationKind::LpReusedPreviousPlan => "LP failed; reused previous plan".to_owned(),
            DegradationKind::LpGreedyFallback => "LP failed; greedy sizing".to_owned(),
            DegradationKind::ControlHold => "control held previous state".to_owned(),
        };
        println!("  {:7.2} h  {kind}: {}", d.at.as_hours(), d.detail);
    }
}
