//! `harmonyctl` — CLI client for `harmonyd`.
//!
//! Sends one protocol verb per invocation and prints the daemon's JSON
//! response on stdout (also writing it to `--output` when given).
//! Exits non-zero when the daemon answers with an error.

use std::fs;
use std::process::ExitCode;

use harmony_model::{wire, Task};
use harmony_server::protocol::{Request, Response};
use harmony_server::{Client, RetryPolicy};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};
use serde::Serialize;

const USAGE: &str = "\
harmonyctl — client for the harmonyd provisioning daemon

USAGE:
  harmonyctl --addr HOST:PORT [--output PATH] VERB [verb options]

VERBS:
  submit-observations      submit task observations for the next tick
      --file PATH            read tasks from a JSONL trace file
      --count N --seed S     or generate N synthetic tasks (default 100 / 2013)
  get-plan                 fetch the current integer provisioning plan
  get-forecast [--horizon N] per-class arrival forecasts
  status                   daemon status summary
  metrics                  live telemetry snapshot (counters, gauges, timings)
  tick                     force one control period now
  drain-events             drain accumulated degradation events
  snapshot                 force a checkpoint to the daemon's snapshot path
  shutdown                 graceful shutdown (final checkpoint included)

OPTIONS:
  --addr HOST:PORT         daemon address (required)
  --output PATH            also write the raw JSON response to PATH
  --retries N              retry connect failures and typed overloaded
                           responses up to N times with capped,
                           deterministically jittered exponential
                           backoff (default 0 = no retries)
  --retry-seed S           jitter seed for the retry schedule (default 0)
";

fn load_tasks(file: Option<&str>, count: usize, seed: u64) -> Result<Vec<Task>, String> {
    match file {
        Some(path) => {
            let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let trace =
                Trace::read_jsonl(&bytes[..]).map_err(|e| format!("cannot parse {path}: {e}"))?;
            Ok(trace.tasks().to_vec())
        }
        None => {
            let trace = TraceGenerator::new(TraceConfig::small().with_seed(seed)).generate();
            Ok(trace.tasks().iter().take(count).cloned().collect())
        }
    }
}

fn run() -> Result<bool, String> {
    let mut addr: Option<String> = None;
    let mut output: Option<String> = None;
    let mut verb: Option<String> = None;
    let mut file: Option<String> = None;
    let mut count: usize = 100;
    let mut seed: u64 = 2013;
    let mut horizon: Option<usize> = None;
    let mut retries: u32 = 0;
    let mut retry_seed: u64 = 0;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => addr = Some(grab("--addr")?),
            "--output" => output = Some(grab("--output")?),
            "--file" => file = Some(grab("--file")?),
            "--count" => {
                count = grab("--count")?.parse().map_err(|e| format!("--count: {e}"))?;
            }
            "--seed" => {
                seed = wire::parse_seed(&grab("--seed")?).map_err(|e| format!("--seed: {e}"))?;
            }
            "--horizon" => {
                horizon = Some(grab("--horizon")?.parse().map_err(|e| format!("--horizon: {e}"))?);
            }
            "--retries" => {
                retries = grab("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?;
            }
            "--retry-seed" => {
                retry_seed =
                    grab("--retry-seed")?.parse().map_err(|e| format!("--retry-seed: {e}"))?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(true);
            }
            other if verb.is_none() && !other.starts_with("--") => {
                verb = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let verb = verb.ok_or_else(|| "no verb given".to_owned())?;
    let request = match verb.as_str() {
        "submit-observations" => {
            Request::SubmitObservations { tasks: load_tasks(file.as_deref(), count, seed)? }
        }
        "get-plan" => Request::GetPlan,
        "get-forecast" => Request::GetForecast { horizon },
        "status" => Request::Status,
        "metrics" => Request::Metrics,
        "tick" => Request::Tick,
        "drain-events" => Request::DrainEvents,
        "snapshot" => Request::Snapshot,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown verb `{other}`")),
    };

    let addr = addr.ok_or_else(|| "--addr is required".to_owned())?;
    let policy = RetryPolicy {
        attempts: retries.saturating_add(1),
        seed: retry_seed,
        ..RetryPolicy::default()
    };
    let mut client = Client::connect_with_retry(&addr, &policy)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let response =
        client.request_with_retry(&request, &policy).map_err(|e| format!("request failed: {e}"))?;

    let text = serde_json::to_string_pretty(&response.to_value())
        .map_err(|e| format!("render failed: {e}"))?;
    println!("{text}");
    if let Some(path) = output {
        let line = serde_json::to_string(&response.to_value())
            .map_err(|e| format!("render failed: {e}"))?;
        fs::write(&path, format!("{line}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(!matches!(response, Response::Error { .. }))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("harmonyctl: {message}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
