//! `harmonyd` — the HARMONY online provisioning daemon.
//!
//! Boots a classifier (from a trace file or the synthetic evaluation
//! workload), binds a TCP listener, and serves the newline-delimited
//! JSON protocol until a `shutdown` request arrives. With `--snapshot`
//! the controller state is checkpointed crash-safely; `--resume` picks
//! a previous run back up bit-identically.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::{HarmonyConfig, OnlinePipeline};
use harmony_model::{wire, SimDuration};
use harmony_server::state::{self, CatalogSpec};
use harmony_server::{net, Service};

const USAGE: &str = "\
harmonyd — HARMONY online provisioning daemon

USAGE:
  harmonyd [OPTIONS]

OPTIONS:
  --listen ADDR            bind address (default 127.0.0.1:0; the bound
                           address is printed on stdout)
  --snapshot PATH          checkpoint controller state to PATH (atomic
                           tmp+rename) after every tick and on shutdown
  --resume PATH            restore from a checkpoint written by a prior
                           run; also becomes the snapshot path unless
                           --snapshot overrides it
  --trace PATH             fit the classifier from this trace file
  --format FMT             trace format: jsonl | google-csv (default jsonl)
  --synthetic-seed N       synthetic workload seed (default 2013)
  --synthetic-span-hours H synthetic workload span (default 24)
  --catalog NAME           machine catalog: table2 | google10
                           (default table2)
  --scale N                catalog population divisor (default 100)
  --period-mins M          control period override in minutes
  --tick-secs S            wall-clock seconds between automatic control
                           ticks; 0 = manual ticks only (default 0)
  --read-timeout-ms N      per-frame read deadline / connection idle
                           budget in ms (default 30000)
  --write-timeout-ms N     socket write deadline in ms (default 10000)
  --max-inflight N         admission-control high-water mark: expensive
                           verbs past N concurrent requests are shed
                           with a typed overloaded response (default 16)
  --max-connections N      hard cap on concurrent connections; excess
                           connections get a typed overloaded response
                           and are closed (default 64)
  --retry-after-ms N       retry hint attached to overloaded responses
                           (default 100)
  --watchdog-deadline-multiple N
                           a tick running longer than N control periods
                           is superseded by the watchdog (default 4)
  --chaos-tick-panic-every N
                           chaos testing: panic on every Nth tick
  --chaos-tick-stall-every N
                           chaos testing: stall on every Nth tick
  --chaos-tick-stall-ms N  chaos testing: stall duration in ms
                           (default 1000)
  --help                   show this help
";

struct Args {
    listen: String,
    snapshot: Option<PathBuf>,
    resume: Option<PathBuf>,
    trace: Option<String>,
    format: String,
    synthetic_seed: u64,
    synthetic_span_hours: f64,
    catalog: String,
    scale: usize,
    period_mins: Option<f64>,
    tick_secs: f64,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    max_inflight: usize,
    max_connections: usize,
    retry_after_ms: u64,
    watchdog_deadline_multiple: u32,
    chaos_tick_panic_every: Option<u64>,
    chaos_tick_stall_every: Option<u64>,
    chaos_tick_stall_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".to_owned(),
        snapshot: None,
        resume: None,
        trace: None,
        format: "jsonl".to_owned(),
        synthetic_seed: 2013,
        synthetic_span_hours: 24.0,
        catalog: "table2".to_owned(),
        scale: 100,
        period_mins: None,
        tick_secs: 0.0,
        read_timeout_ms: 30_000,
        write_timeout_ms: 10_000,
        max_inflight: 16,
        max_connections: net::MAX_CONNECTIONS,
        retry_after_ms: 100,
        watchdog_deadline_multiple: 4,
        chaos_tick_panic_every: None,
        chaos_tick_stall_every: None,
        chaos_tick_stall_ms: 1000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--listen" => args.listen = grab("--listen")?,
            "--snapshot" => args.snapshot = Some(PathBuf::from(grab("--snapshot")?)),
            "--resume" => args.resume = Some(PathBuf::from(grab("--resume")?)),
            "--trace" => args.trace = Some(grab("--trace")?),
            "--format" => args.format = grab("--format")?,
            "--synthetic-seed" => {
                args.synthetic_seed = wire::parse_seed(&grab("--synthetic-seed")?)
                    .map_err(|e| format!("--synthetic-seed: {e}"))?;
            }
            "--synthetic-span-hours" => {
                args.synthetic_span_hours =
                    positive_finite("--synthetic-span-hours", &grab("--synthetic-span-hours")?)?;
            }
            "--catalog" => args.catalog = grab("--catalog")?,
            "--scale" => {
                args.scale =
                    grab("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?;
            }
            "--period-mins" => {
                args.period_mins = Some(positive_finite("--period-mins", &grab("--period-mins")?)?);
            }
            "--tick-secs" => {
                args.tick_secs =
                    grab("--tick-secs")?.parse().map_err(|e| format!("--tick-secs: {e}"))?;
            }
            "--read-timeout-ms" => {
                args.read_timeout_ms = grab("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?;
            }
            "--write-timeout-ms" => {
                args.write_timeout_ms = grab("--write-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?;
            }
            "--max-inflight" => {
                args.max_inflight = grab("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?;
            }
            "--max-connections" => {
                args.max_connections = grab("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
            }
            "--retry-after-ms" => {
                args.retry_after_ms = grab("--retry-after-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-after-ms: {e}"))?;
            }
            "--watchdog-deadline-multiple" => {
                args.watchdog_deadline_multiple = grab("--watchdog-deadline-multiple")?
                    .parse()
                    .map_err(|e| format!("--watchdog-deadline-multiple: {e}"))?;
            }
            "--chaos-tick-panic-every" => {
                args.chaos_tick_panic_every = Some(
                    grab("--chaos-tick-panic-every")?
                        .parse()
                        .map_err(|e| format!("--chaos-tick-panic-every: {e}"))?,
                );
            }
            "--chaos-tick-stall-every" => {
                args.chaos_tick_stall_every = Some(
                    grab("--chaos-tick-stall-every")?
                        .parse()
                        .map_err(|e| format!("--chaos-tick-stall-every: {e}"))?,
                );
            }
            "--chaos-tick-stall-ms" => {
                args.chaos_tick_stall_ms = grab("--chaos-tick-stall-ms")?
                    .parse()
                    .map_err(|e| format!("--chaos-tick-stall-ms: {e}"))?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Parses a duration flag's value: a finite number above zero (a
/// negative, zero, NaN or infinite span cannot drive the control loop).
fn positive_finite(name: &str, value: &str) -> Result<f64, String> {
    let parsed: f64 = value.parse().map_err(|e| format!("{name}: {e}"))?;
    if parsed.is_finite() && parsed > 0.0 {
        Ok(parsed)
    } else {
        Err(format!("{name}: `{value}` is not a finite number above 0"))
    }
}

fn build_service(args: &Args) -> Result<Service, String> {
    let snapshot = args.snapshot.clone().or_else(|| args.resume.clone());
    if let Some(resume) = &args.resume {
        let (checkpoint, recovery) = state::load_with_recovery(resume)
            .map_err(|e| format!("cannot load checkpoint {}: {e}", resume.display()))?;
        for event in &recovery {
            eprintln!("harmonyd: checkpoint recovery: {event}");
        }
        let service = Service::from_checkpoint(checkpoint, snapshot)?;
        eprintln!(
            "harmonyd: resumed from {} at tick {}",
            resume.display(),
            service.pipeline().ticks()
        );
        return Ok(service);
    }

    let span = SimDuration::from_secs(args.synthetic_span_hours * 3600.0);
    let (trace, source) = state::load_source(
        args.trace.as_deref(),
        &args.format,
        args.synthetic_seed,
        span,
        None,
    )?;
    let classifier_config = ClassifierConfig::default();
    let classifier = TaskClassifier::fit(trace.tasks(), &classifier_config)
        .map_err(|e| format!("classifier fit failed: {e}"))?;
    let catalog_spec = CatalogSpec { name: args.catalog.clone(), divisor: args.scale.max(1) };
    let catalog = catalog_spec.build()?;
    let mut config = HarmonyConfig::default();
    if let Some(mins) = args.period_mins {
        config.control_period = SimDuration::from_mins(mins);
    }
    let pipeline = OnlinePipeline::new(classifier, catalog, config, Default::default())
        .map_err(|e| format!("pipeline construction failed: {e}"))?;
    Ok(Service::new(pipeline, classifier_config, source, catalog_spec, snapshot))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let service = build_service(&args)?;
    let listener = TcpListener::bind(&args.listen)
        .map_err(|e| format!("cannot bind {}: {e}", args.listen))?;
    let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    // The e2e harness and smoke script parse this exact line.
    println!("harmonyd listening on {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();

    let tick_period = (args.tick_secs > 0.0)
        .then(|| Duration::from_millis((args.tick_secs * 1000.0).max(1.0) as u64));
    let options = net::ServeOptions {
        tick_period,
        limits: net::ConnectionLimits {
            max_connections: args.max_connections.max(1),
            max_inflight: args.max_inflight.max(1),
            read_timeout: Duration::from_millis(args.read_timeout_ms.max(1)),
            write_timeout: Duration::from_millis(args.write_timeout_ms.max(1)),
            retry_after_ms: args.retry_after_ms,
        },
        watchdog: net::WatchdogPolicy {
            deadline_multiple: args.watchdog_deadline_multiple.max(1),
            ..net::WatchdogPolicy::default()
        },
        chaos: net::TickerChaos {
            panic_every: args.chaos_tick_panic_every,
            stall_every: args.chaos_tick_stall_every,
            stall: Duration::from_millis(args.chaos_tick_stall_ms),
        },
    };
    net::serve(listener, Arc::new(RwLock::new(service)), options)
        .map_err(|e| format!("server error: {e}"))?;
    eprintln!("harmonyd: shut down cleanly");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("harmonyd: {message}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
