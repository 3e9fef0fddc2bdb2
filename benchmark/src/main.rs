//! The repo benchmark: one control period at Table-II scale and whole
//! simulator replays, end to end and layer by layer.
//!
//! ```text
//! harmony-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! harmony-benchmark all [--seed n] [--seconds s] [--runs n] [--sets k] [--traced] [--smoke] [--allow-dirty]
//! harmony-benchmark compare <a> <b>
//! harmony-benchmark manifest
//! ```
//!
//! The first form is one run of one workload and ends with one JSON
//! line; `all` makes such runs in child processes, prints the table,
//! and appends to `benchmark/results/history.jsonl`; `compare` judges
//! two sets of that history; `manifest` prints `BENCHMARK.json` from the
//! tables below. See `benchmark/README.md`.

mod digest;
mod period;
mod sim;
mod spans;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::value::Value;

use period::{BasisPolicy, PeriodSize};
use sim::{SimKind, SimSize};
use spans::Tracer;

/// `run_seconds` of `BENCHMARK.json`: the measuring time the nominal
/// operation counts below are sized for on a 2-core box.
pub const NOMINAL_SECONDS: f64 = 20.0;

/// A workload: its name, why it exists, and how many operations one run
/// times at [`NOMINAL_SECONDS`] (and at least).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    runner: Runner,
    nominal_ops: usize,
    min_ops: usize,
}

/// Which code runs a workload.
enum Runner {
    Period(BasisPolicy),
    Sim(SimKind),
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "period_cold",
        why: "ticks on table2-660 with the basis dropped: one large cold LP solve, cbs+lp do ~all the work",
        runner: Runner::Period(BasisPolicy::Dropped),
        nominal_ops: 3,
        min_ops: 2,
    },
    Workload {
        name: "period_chain",
        why: "ticks on table2-660 with the basis threaded: warm restarts, so per-solve overhead, rounding and forecast show",
        runner: Runner::Period(BasisPolicy::Threaded),
        nominal_ops: 32,
        min_ops: 8,
    },
    Workload {
        name: "sim_replay",
        why: "10k-machine first-fit replay with no controller: sim+scheduler only, an LP change must not move it",
        runner: Runner::Sim(SimKind::Replay),
        nominal_ops: 12,
        min_ops: 3,
    },
    Workload {
        name: "sim_closed_loop",
        why: "Section IX CBS closed loop: many small LP solves, forecast and the quota scheduler set the pace",
        runner: Runner::Sim(SimKind::ClosedLoop),
        nominal_ops: 3,
        min_ops: 2,
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before it is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_typical_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// The per-layer metrics of the traced run: name, unit, direction. A
/// layer a workload does not enter reads zero.
pub const PER_LAYER: [(&str, &str, Better); 63] = [
    ("trace.generate_s", "s", Better::Lower),
    ("trace.tasks", "count", Better::Higher),
    ("classify.fit_s", "s", Better::Lower),
    ("classify.classes", "count", Better::Higher),
    ("classify.label_busy_s", "s", Better::Lower),
    ("classify.tasks_labeled", "count", Better::Higher),
    ("forecast.busy_s", "s", Better::Lower),
    ("forecast.calls", "count", Better::Lower),
    ("forecast.class_forecasts", "count", Better::Lower),
    ("forecast.arima_ratio", "ratio", Better::Higher),
    ("forecast.degraded", "count", Better::Lower),
    ("containers.busy_s", "s", Better::Lower),
    ("containers.calls", "count", Better::Lower),
    ("cbs.busy_s", "s", Better::Lower),
    ("cbs.solves", "count", Better::Lower),
    ("cbs.lp_vars", "count", Better::Lower),
    ("cbs.lp_rows", "count", Better::Lower),
    ("lp.pivots", "count", Better::Lower),
    ("lp.phase1_pivots", "count", Better::Lower),
    ("lp.us_per_pivot", "us", Better::Lower),
    ("lp.cold_solves", "count", Better::Lower),
    ("lp.warm_hits", "count", Better::Higher),
    ("lp.warm_repair_fallbacks", "count", Better::Lower),
    ("lp.warm_structural_fallbacks", "count", Better::Lower),
    ("lp.warm_hit_ratio", "ratio", Better::Higher),
    ("rounding.busy_s", "s", Better::Lower),
    ("rounding.calls", "count", Better::Lower),
    ("rounding.containers", "count", Better::Higher),
    ("rounding.machines_on", "count", Better::Lower),
    ("online.ticks", "count", Better::Higher),
    ("online.wall_s", "s", Better::Lower),
    ("online.self_s", "s", Better::Lower),
    ("online.period_p90_s", "s", Better::Lower),
    ("online.period_max_s", "s", Better::Lower),
    ("online.degradations", "count", Better::Lower),
    ("online.replica_match_ratio", "ratio", Better::Higher),
    ("sim.passes", "count", Better::Higher),
    ("sim.run_busy_s", "s", Better::Lower),
    ("sim.engine_self_s", "s", Better::Lower),
    ("sim.events", "count", Better::Lower),
    ("sim.events_per_s", "1/s", Better::Higher),
    ("sim.us_per_event", "us", Better::Lower),
    ("sim.tasks_completed", "count", Better::Higher),
    ("sim.tasks_pending_end", "count", Better::Lower),
    ("sim.energy_kwh", "kWh", Better::Lower),
    ("sim.switches", "count", Better::Lower),
    ("sim.energy_wh_per_task", "Wh", Better::Lower),
    ("sim.sched_delay_mean_s", "s", Better::Lower),
    ("scheduler.place_busy_s", "s", Better::Lower),
    ("scheduler.place_calls", "count", Better::Lower),
    ("scheduler.place_hit_ratio", "ratio", Better::Higher),
    ("scheduler.callback_busy_s", "s", Better::Lower),
    ("controllers.decide_busy_s", "s", Better::Lower),
    ("controllers.decide_calls", "count", Better::Lower),
    ("controllers.degradations", "count", Better::Lower),
    ("controllers.forecast_s", "s", Better::Lower),
    ("controllers.lp_s", "s", Better::Lower),
    ("controllers.rounding_s", "s", Better::Lower),
    ("controllers.sizing_s", "s", Better::Lower),
    ("tracing.overhead_ratio", "ratio", Better::Lower),
    ("tracing.spans", "count", Better::Lower),
    ("host.nproc", "count", Better::Higher),
    ("host.peak_rss_mb", "MB", Better::Lower),
];

/// Named numbers of one run, keyed by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn sum_prefixed(&self, prefix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// What one run of a workload hands back to be turned into metrics.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Median wall-clock of building the inputs, before the first timed
    /// operation.
    pub setup_s: f64,
    /// Wall-clock of each timed operation (untraced run only).
    pub op_times: Vec<f64>,
    /// Tasks each timed operation handled.
    pub op_tasks: Vec<f64>,
    /// Operations attempted and failed, by the workload's own rule.
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Digest of everything the operations produced.
    pub digest: String,
    /// Model statistics that repeat exactly for one seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Per-layer numbers (traced run only).
    pub layers: Layers,
}

/// Builds a workload's inputs and times it. Cheap set-ups are repeated,
/// until five builds or two seconds, and the median is reported, so that
/// a sub-second set-up is not one noisy sample; each build is dropped
/// before the next so the repeats do not raise peak memory.
///
/// # Errors
///
/// Propagates the first build failure.
pub fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while times.len() < 5 && (times.is_empty() || started.elapsed().as_secs_f64() < 2.0) {
        drop(built.take());
        let build_started = Instant::now();
        built = Some(build()?);
        times.push(build_started.elapsed().as_secs_f64());
    }
    Ok((
        built.expect("at least one build"),
        stats::median(&stats::sorted(&times)),
    ))
}

/// Operations one run times: the nominal count scaled by the measuring
/// time asked for.
fn ops_for(workload: &Workload, seconds: f64) -> usize {
    let scaled = (workload.nominal_ops as f64 * seconds / NOMINAL_SECONDS).round() as usize;
    scaled.max(workload.min_ops)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where runs leave their files: `benchmark/results/`.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// One run's arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Runs one workload once and prints its metrics; the last line of
/// standard output is the result object.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut tracer = args.traced.then(Tracer::default);
    let full_ops = ops_for(workload, args.seconds);
    eprintln!(
        "{} seed {} {}{}",
        workload.name,
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        if args.smoke { " smoke" } else { "" }
    );
    let mut out = match workload.runner {
        Runner::Period(policy) => {
            let (size, ticks) = if args.smoke {
                (PeriodSize::smoke(), 4)
            } else {
                (PeriodSize::full(), full_ops)
            };
            period::run(policy, &size, args.seed, ticks, tracer.as_mut())
        }
        Runner::Sim(kind) => {
            let size = if args.smoke {
                SimSize::smoke()
            } else {
                SimSize::full()
            };
            // The traced run alternates plain and wrapped passes, two of each.
            let passes = if args.smoke || args.traced {
                2
            } else {
                full_ops
            };
            sim::run(kind, &size, args.seed, passes, tracer.as_mut())
        }
    }?;

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut detail = BTreeMap::new();
    if let Some(tracer) = &tracer {
        out.layers.set("tracing.spans", tracer.spans().len() as f64);
        out.layers.set("host.nproc", nproc() as f64);
        out.layers.set("host.peak_rss_mb", peak_rss_mb()?);
        for (name, unit, _) in PER_LAYER {
            metrics.push((name, unit, out.layers.get(name).unwrap_or(0.0)));
        }
        let path = results_dir().join(format!("spans-{}-{}.jsonl", workload.name, args.seed));
        std::fs::create_dir_all(results_dir()).map_err(|e| e.to_string())?;
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        tracer
            .write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        eprintln!(
            "  {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        let typical = stats::typical(&out.op_times);
        let keep = |values: &[f64]| -> Vec<f64> {
            values
                .iter()
                .zip(&typical)
                .filter(|(_, keep)| **keep)
                .map(|(v, _)| *v)
                .collect()
        };
        let times = keep(&out.op_times);
        let summary = stats::Summary::of(&times).ok_or("no operation was timed")?;
        let typical_s = times.iter().sum::<f64>() / times.len() as f64;
        let tasks_per_s = keep(&out.op_tasks).iter().sum::<f64>() / times.iter().sum::<f64>();
        let values = [out.setup_s, typical_s, tasks_per_s, peak_rss_mb()?];
        for (metric, value) in END_TO_END.iter().zip(values) {
            metrics.push((metric.name, metric.unit, value));
        }
        detail.insert("ops".to_owned(), Value::Number(out.op_times.len() as f64));
        detail.insert("samples".to_owned(), Value::Number(summary.n as f64));
        detail.insert("op_median_s".to_owned(), Value::Number(summary.median));
        detail.insert("op_q1_s".to_owned(), Value::Number(summary.q1));
        detail.insert("op_q3_s".to_owned(), Value::Number(summary.q3));
        detail.insert("op_mad_s".to_owned(), Value::Number(summary.mad));
        let max = out.op_times.iter().copied().fold(0.0, f64::max);
        detail.insert("op_max_s".to_owned(), Value::Number(max));
    }

    for (name, unit, value) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "checks: {} of {} operations failed; digest {}; {}",
        out.failed,
        out.attempted,
        out.digest,
        if out.correct {
            "all output checks passed"
        } else {
            "OUTPUT CHECK FAILED"
        }
    );
    detail.insert("digest".to_owned(), Value::String(out.digest.clone()));
    detail.insert(
        "exact".to_owned(),
        Value::Object(
            out.exact
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Value::Number(*v)))
                .collect(),
        ),
    );
    println!(
        "detail {}",
        serde_json::to_string(&Value::Object(detail)).map_err(|e| e.to_string())?
    );

    let metrics_value = metrics
        .iter()
        .map(|(name, unit, value)| {
            let entry = BTreeMap::from([
                ("value".to_owned(), Value::Number(*value)),
                ("unit".to_owned(), Value::String((*unit).to_owned())),
            ]);
            ((*name).to_owned(), Value::Object(entry))
        })
        .collect();
    let result = BTreeMap::from([
        ("correct".to_owned(), Value::Bool(out.correct)),
        ("attempted".to_owned(), Value::Number(out.attempted as f64)),
        ("failed".to_owned(), Value::Number(out.failed as f64)),
        ("metrics".to_owned(), Value::Object(metrics_value)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).map_err(|e| e.to_string())?
    );
    Ok(out.correct)
}

/// `BENCHMARK.json`, the contract the driver reads, from the tables
/// above: one entry a line. The names, units and reasons are plain text
/// that needs no JSON escaping.
fn manifest() -> String {
    let lines = |entries: Vec<String>| entries.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                r#"{{"name": "{name}", "unit": "{unit}", "better": "{}"}}"#,
                better.name()
            )
        })
        .collect();
    format!(
        r#"{{
  "command": ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"],
  "paths": ["benchmark"],
  "run_seconds": {NOMINAL_SECONDS},
  "workloads": [
    {}
  ],
  "end_to_end": [
    {}
  ],
  "per_layer": [
    {}
  ]
}}"#,
        lines(workloads),
        lines(end_to_end),
        lines(per_layer)
    )
}

const USAGE: &str = "usage:
  harmony-benchmark --workload <period_cold|period_chain|sim_replay|sim_closed_loop>
                    [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  harmony-benchmark all [--seed <n>] [--seconds <s>] [--runs <n>] [--sets <k>]
                        [--traced] [--smoke] [--allow-dirty]
  harmony-benchmark compare <a> <b>     (a, b: <rev-prefix>[#<set>] of results/history.jsonl)
  harmony-benchmark manifest            (prints BENCHMARK.json)";

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run(RunArgs),
    All(suite::SuiteArgs),
    Compare(String, String),
    Manifest,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut positional = Vec::new();
    let mut run = RunArgs {
        workload: String::new(),
        seed: 2013,
        seconds: NOMINAL_SECONDS,
        traced: false,
        smoke: false,
    };
    let (mut runs, mut sets, mut allow_dirty) = (1usize, 1usize, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => run.workload = value("a workload name")?.clone(),
            "--seed" => run.seed = number(value("a number")?)?,
            "--seconds" => run.seconds = number(value("a number")?)?,
            "--trace" => {
                run.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => run.traced = true,
            "--smoke" => run.smoke = true,
            "--runs" => runs = number(value("a number")?)?,
            "--sets" => sets = number(value("a number")?)?,
            "--allow-dirty" => allow_dirty = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => positional.push(arg.clone()),
        }
    }
    if !(run.seconds > 0.0 && run.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    match positional.as_slice() {
        [] if !run.workload.is_empty() => Ok(Command::Run(run)),
        [all] if all == "all" && run.workload.is_empty() && runs > 0 && sets > 0 => {
            Ok(Command::All(suite::SuiteArgs {
                run,
                runs,
                sets,
                allow_dirty,
            }))
        }
        [compare, a, b] if compare == "compare" => Ok(Command::Compare(a.clone(), b.clone())),
        [manifest] if manifest == "manifest" => Ok(Command::Manifest),
        _ => Err("expected --workload <name>, `all` or `compare <a> <b>`".into()),
    }
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not a valid number"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Command::Run(run)) => run_one(&run),
        Ok(Command::All(suite)) => suite::run_all(&suite),
        Ok(Command::Compare(a, b)) => suite::compare_history(&a, &b),
        Ok(Command::Manifest) => {
            println!("{}", manifest());
            Ok(true)
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("harmony-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = parse(&strings(&[
            "--workload",
            "sim_replay",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            Command::Run(RunArgs {
                workload: "sim_replay".into(),
                seed: 7,
                seconds: 10.0,
                traced: true,
                smoke: false,
            })
        );
        assert!(parse(&strings(&["--workload", "x", "--trace", "2"])).is_err());
        assert!(parse(&strings(&["--workload"])).is_err());
        assert!(parse(&strings(&["--seed", "7"])).is_err());
        assert!(parse(&strings(&["all", "--bogus"])).is_err());
        assert!(matches!(
            parse(&strings(&["all", "--sets", "2"])),
            Ok(Command::All(_))
        ));
        assert!(matches!(
            parse(&strings(&["compare", "a", "b"])),
            Ok(Command::Compare(..))
        ));
    }

    #[test]
    fn operation_counts_scale_with_the_measuring_time() {
        let chain = &WORKLOADS[1];
        assert_eq!(ops_for(chain, NOMINAL_SECONDS), 32);
        assert_eq!(ops_for(chain, 10.0), 16);
        assert_eq!(ops_for(chain, 1.0), 8, "never below the floor");
        assert_eq!(ops_for(&WORKLOADS[0], 60.0), 9);
    }

    #[test]
    fn timed_setup_repeats_a_cheap_build_and_not_a_slow_one() {
        let mut builds = 0;
        let (value, secs) = timed_setup(|| {
            builds += 1;
            Ok(builds)
        })
        .unwrap();
        assert_eq!((value, builds), (5, 5));
        assert!(secs < 0.1);
        assert!(timed_setup::<()>(|| Err("boom".into())).is_err());
    }

    /// `BENCHMARK.json` at the repo root is the contract the driver
    /// reads; it must be exactly what `manifest` prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk.trim_end(),
            manifest(),
            "regenerate it with `manifest`"
        );
        let parsed: Value = serde_json::from_str(&on_disk).unwrap();
        assert_eq!(
            parsed.get("run_seconds").and_then(Value::as_f64),
            Some(NOMINAL_SECONDS)
        );
    }
}
