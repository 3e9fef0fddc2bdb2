//! `replay` — run a HARMONY controller over a trace file.
//!
//! Usage:
//!
//! ```sh
//! replay <trace-file> [--controller baseline|cbs|cbp|none] \
//!        [--catalog table2|google10] [--scale <divisor>] \
//!        [--format jsonl|google-csv] [--period-mins <f64>] \
//!        [--faults <scenario>] [--fault-seed <u64>]
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
//! Fault mode is resumable: `--snapshot <path>` checkpoints the run
//! after every finished variant (atomic tmp+rename), `--resume <path>`
//! picks an interrupted run back up with bit-identical results, and
//! `--stop-after <n>` exits deliberately after `n` variants (the hook
//! the resume test uses to simulate an interruption).
//!
//! `--metrics` resets the global telemetry registry before the run and
//! writes the post-run snapshot (per-stage control-loop timings, simplex
//! pivot counters, forecast tier counts, simulator event tallies) to
//! `results/BENCH_telemetry.json` via the atomic artifact writer.

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::process::exit;

use harmony::classify::ClassifierConfig;
use harmony::pipeline::{run_variant, Variant};
use harmony::HarmonyConfig;
use harmony_bench::checkpoint::{self, ReplayInputs, ResumableRun};
use harmony_bench::{fmt, section, seed_from_env, table, Scale};
use harmony_model::{MachineCatalog, PriorityGroup, SimDuration};
use harmony_sim::{
    DegradationKind, FaultRecordKind, FirstFit, SimReport, Simulation, SimulationConfig, SCENARIOS,
};
use harmony_trace::{google_csv, Trace, TraceConfig, TraceGenerator};

fn usage() -> ! {
    eprintln!(
        "usage: replay [<trace-file>] [--controller baseline|cbs|cbp|none] \
         [--catalog table2|google10] [--scale <divisor>|paper] \
         [--format jsonl|google-csv] [--period-mins <f64>] \
         [--faults <scenario>] [--fault-seed <u64>] \
         [--snapshot <path>] [--resume <path>] [--stop-after <n>] [--metrics]\n\
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
    let mut snapshot: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut stop_after: Option<usize> = None;
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
                period_mins = grab("--period-mins").parse().unwrap_or_else(|_| usage());
            }
            "--faults" => fault_scenario = Some(grab("--faults")),
            "--fault-seed" => {
                fault_seed = grab("--fault-seed").parse().unwrap_or_else(|_| usage());
            }
            "--snapshot" => snapshot = Some(PathBuf::from(grab("--snapshot"))),
            "--resume" => resume = Some(PathBuf::from(grab("--resume"))),
            "--stop-after" => {
                stop_after = Some(grab("--stop-after").parse().unwrap_or_else(|_| usage()));
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
    if metrics {
        // Clean measurement window: only this run's instrumentation
        // lands in the artifact, not counts from earlier activity.
        harmony_telemetry::global().reset();
    }
    if let Some(resume_path) = resume {
        // The checkpoint records the full setup; workload flags on the
        // command line are ignored on resume.
        let loaded = checkpoint::load(&resume_path).unwrap_or_else(|e| {
            eprintln!("cannot load checkpoint {}: {e}", resume_path.display());
            exit(1);
        });
        let run = ResumableRun::from_checkpoint(loaded).unwrap_or_else(|e| {
            eprintln!("cannot resume: {e}");
            exit(1);
        });
        let started = std::time::Instant::now();
        fault_mode(run, snapshot.or(Some(resume_path)), stop_after);
        record_events_per_sec(started);
        if metrics {
            write_metrics_artifact();
        }
        return;
    }
    if let Some(scenario) = fault_scenario {
        if !SCENARIOS.contains(&scenario.as_str()) {
            eprintln!("unknown fault scenario `{scenario}`");
            usage();
        }
        let inputs = ReplayInputs {
            scenario,
            fault_seed,
            trace_path: path.clone(),
            trace_format: format.clone(),
            trace_hash: None,
            scale: Scale::from_env().name().to_owned(),
            workload_seed: seed_from_env(),
            catalog: catalog_name.clone(),
            catalog_scale: scale,
            period_mins,
        };
        let run = ResumableRun::from_inputs(inputs).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1);
        });
        let started = std::time::Instant::now();
        fault_mode(run, snapshot, stop_after);
        record_events_per_sec(started);
        if metrics {
            write_metrics_artifact();
        }
        return;
    }

    let trace = match (&path, paper) {
        (Some(p), _) => load_trace(p, &format),
        (None, true) => {
            eprintln!("generating paper-scale synthetic trace (29 days, >1M tasks)...");
            TraceGenerator::new(TraceConfig::paper_scale()).generate()
        }
        (None, false) => usage(),
    };
    let catalog = parse_catalog(&catalog_name).scaled(scale.max(1));

    eprintln!(
        "replaying {} tasks over {:.1} h on {} machines ({catalog_name}/{scale}), controller {controller}",
        trace.len(),
        trace.span().as_hours(),
        catalog.total_machines(),
    );

    let config = HarmonyConfig {
        control_period: SimDuration::from_mins(period_mins),
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let report = match controller.as_str() {
        "none" => {
            let sim_config = SimulationConfig::new(catalog).all_machines_on();
            Simulation::new(sim_config, &trace, Box::new(FirstFit)).run()
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
            run_variant(
                &trace,
                &catalog,
                &config,
                &ClassifierConfig::default(),
                variant,
            )
            .unwrap_or_else(|e| {
                eprintln!("controller failed: {e}");
                exit(1);
            })
        }
    };
    record_events_per_sec(started);

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
        ],
        &rows,
    );

    if metrics {
        write_metrics_artifact();
    }
}

/// Computes simulator event throughput over the elapsed wall clock and
/// records it as the `sim.events_per_sec` gauge. The simulator counts
/// events but cannot read wall clocks (the `wall-clock` lint bans them
/// in `crates/sim`), so the rate is derived here, outside the engine.
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
        harmony_telemetry::global()
            .gauge("sim.events_per_sec")
            .set(events as f64 / elapsed);
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
        ("classify", "pipeline.classify_seconds"),
        ("forecast", "pipeline.forecast_seconds"),
        ("sizing", "pipeline.sizing_seconds"),
        ("lp", "pipeline.lp_seconds"),
        ("rounding", "pipeline.rounding_seconds"),
        ("whole period", "pipeline.period_seconds"),
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
        snapshot.counter("lp.solves"),
        snapshot.counter("lp.pivots"),
        snapshot.counter("lp.phase1_pivots"),
        snapshot.counter("lp.failures"),
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
/// degradation event, and a cross-variant comparison. With a snapshot
/// path the run checkpoints after every variant; `stop_after` exits
/// deliberately partway through (for the resume test).
fn fault_mode(mut run: ResumableRun, snapshot: Option<PathBuf>, stop_after: Option<usize>) {
    let scenario = run.inputs().scenario.clone();
    eprintln!(
        "fault replay: {} tasks over {:.1} h, scenario {scenario} ({} events, seed {})",
        run.trace().len(),
        run.trace().span().as_hours(),
        run.plan().events().len(),
        run.inputs().fault_seed,
    );
    if !run.completed().is_empty() {
        eprintln!(
            "resumed from checkpoint: {} of {} variants already complete",
            run.completed().len(),
            Variant::ALL.len(),
        );
    }

    let save = |run: &ResumableRun, path: &PathBuf| {
        checkpoint::save_atomic(&run.checkpoint(), path).unwrap_or_else(|e| {
            eprintln!("cannot write checkpoint {}: {e}", path.display());
            exit(1);
        });
    };

    while !run.is_done() {
        if let Some(limit) = stop_after {
            if run.completed().len() >= limit {
                let Some(path) = &snapshot else {
                    eprintln!("--stop-after requires --snapshot");
                    exit(2);
                };
                save(&run, path);
                eprintln!(
                    "stopped after {} variant(s); resume with --resume {}",
                    run.completed().len(),
                    path.display(),
                );
                return;
            }
        }
        let variant = match run.run_next() {
            Ok((variant, _)) => variant,
            Err(e) => {
                eprintln!("{e}");
                exit(1);
            }
        };
        if let Some(path) = &snapshot {
            save(&run, path);
        }
        let (_, report) = run.completed().last().expect("variant just completed");

        let accounted = report.tasks_completed
            + report.tasks_running_at_end
            + report.tasks_pending_at_end
            + report.tasks_unschedulable
            + report.tasks_failed;
        assert_eq!(
            accounted,
            run.trace().len(),
            "{}: task conservation violated under {scenario}",
            variant.name()
        );

        section(&format!("{} under {scenario}", variant.name()));
        println!(
            "completed {} / running {} / pending {} / unschedulable {} / failed {}  (conserved: {} of {})",
            report.tasks_completed,
            report.tasks_running_at_end,
            report.tasks_pending_at_end,
            report.tasks_unschedulable,
            report.tasks_failed,
            accounted,
            run.trace().len(),
        );
        print_faults(report);
        print_degradations(report);
    }

    let rows: Vec<Vec<String>> = run
        .completed()
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
            FaultRecordKind::SpotEviction { machine_type, machines, evicted, failed } => {
                println!(
                    "  {at:7.2} h  spot reclaim {machine_type:?}: {machines} machines, \
                     {evicted} evicted, {failed} failed"
                )
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
