//! Drives the `harmony-bench` binary: `list` names the subcommands,
//! every `fig*`/`table*` one runs to completion at quick scale, an
//! unknown name is refused with the list, a closed stdout ends a run
//! without a panic, `replay` runs a fault comparison over a trace file
//! and refuses bad flag values, and `replay --metrics` reports the
//! drain's work.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use harmony_telemetry::keys;
use harmony_trace::{TraceConfig, TraceGenerator};

fn harmony_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harmony-bench"))
        .args(args)
        .env("HARMONY_SCALE", "quick")
        .output()
        .expect("spawn harmony-bench")
}

#[test]
fn every_figure_and_table_subcommand_runs_at_quick_scale() {
    let list = harmony_bench(&["list"]);
    assert!(list.status.success());
    let list = String::from_utf8(list.stdout).expect("utf-8 list");
    assert_eq!(String::from_utf8_lossy(&harmony_bench(&[]).stdout), list, "no argument = list");

    let figures: Vec<&str> =
        list.lines().filter(|n| n.starts_with("fig") || n.starts_with("table")).collect();
    assert_eq!(figures.len(), 12, "{list}");
    for name in figures {
        let out = harmony_bench(&[name]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(
            stdout.lines().any(|l| l.starts_with("== ") && l.ends_with(" ==")),
            "{name} printed no section header:\n{stdout}"
        );
    }

    let unknown = harmony_bench(&["fig99_nonesuch"]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains(&list));
}

#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    // The read end closes before the subcommand prints its first line,
    // so every write it makes meets a broken pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_harmony-bench"))
        .arg("fig07_task_sizes")
        .env("HARMONY_SCALE", "quick")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn harmony-bench");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for harmony-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(141), "{stderr}");
}

/// Writes a small synthetic trace to a fresh JSONL file.
fn trace_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harmony-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.jsonl");
    let trace = TraceGenerator::new(TraceConfig::small().with_seed(5)).generate();
    trace
        .write_jsonl(std::fs::File::create(&path).expect("create trace file"))
        .expect("write trace");
    path
}

#[test]
fn fault_replay_over_a_trace_file_is_deterministic() {
    let path = trace_file("faults");
    let trace_arg = path.to_str().expect("utf-8 path");
    let args = ["replay", trace_arg, "--faults", "mixed", "--fault-seed", "7", "--scale", "100"];
    let first = harmony_bench(&args);
    let second = harmony_bench(&args);
    std::fs::remove_dir_all(path.parent().expect("temp dir")).expect("cleanup");

    for out in [&first, &second] {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let stdout = String::from_utf8(first.stdout).expect("utf-8 stdout");
    for section in [
        "== baseline under mixed ==",
        "== CBS under mixed ==",
        "== CBP under mixed ==",
        "== comparison under mixed ==",
    ] {
        assert!(stdout.contains(section), "missing {section:?}:\n{stdout}");
    }
    assert_eq!(stdout.as_bytes(), second.stdout, "same inputs, same report");
}

#[test]
fn replay_metrics_count_the_logical_drain_walk() {
    // A process of its own: the counters live in its global registry, so
    // no other test's run can add to them.
    let path = trace_file("metrics");
    let dir = path.parent().expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_harmony-bench"))
        .args(["replay", path.to_str().expect("utf-8 path"), "--controller", "cbs", "--metrics"])
        .env("HARMONY_RESULTS_DIR", dir)
        .output()
        .expect("spawn harmony-bench");
    let telemetry = std::fs::read_to_string(dir.join("BENCH_telemetry.json"));
    std::fs::remove_dir_all(dir).expect("cleanup");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let telemetry: serde_json::Value =
        serde_json::from_str(&telemetry.expect("telemetry artifact")).expect("telemetry JSON");
    let counter = |name: &str| {
        telemetry.get("counters").and_then(|c| c.get(name)).and_then(serde_json::Value::as_f64)
    };
    assert!(counter(keys::SIM_DRAIN_REPLAYS).is_some_and(|n| n > 0.0), "{telemetry:?}");
    // The walk every pass would have made, replayed or not: these are
    // the counts of an engine that walks every pass.
    assert_eq!(
        [keys::SIM_DRAIN_PASSES, keys::SIM_DRAIN_VISITS, keys::SIM_DRAIN_LIMIT_HITS].map(counter),
        [Some(3_082.0), Some(602_380.0), Some(773.0)],
        "sim.drain_{{passes,visits,limit_hits}}"
    );
}

#[test]
fn replay_refuses_an_unknown_fault_scenario() {
    let unknown = harmony_bench(&["replay", "--faults", "meteor-strike"]);
    assert_eq!(unknown.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(stderr.contains("unknown fault scenario `meteor-strike`"), "{stderr}");
}

#[test]
fn replay_refuses_a_period_that_is_not_finite_and_positive() {
    let path = trace_file("period");
    let trace_arg = path.to_str().expect("utf-8 path");
    let mut outs = Vec::new();
    for bad in ["-5", "nan", "inf", "0"] {
        outs.push((bad, harmony_bench(&["replay", trace_arg, "--period-mins", bad])));
    }
    std::fs::remove_dir_all(path.parent().expect("temp dir")).expect("cleanup");

    for (bad, out) in outs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--period-mins {bad}: {stderr}");
        assert!(stderr.contains("--period-mins"), "{stderr}");
        assert!(stderr.contains("usage: replay"), "{stderr}");
    }
}

#[test]
fn fault_seed_a_checkpoint_cannot_store_exactly_is_refused() {
    // `--fault-seed` goes through `wire::parse_seed`, the parser of
    // every seed flag, which refuses a seed that a JSON number (an f64)
    // cannot hold exactly: 2^53 + 1 would read back as 2^53.
    let out =
        harmony_bench(&["replay", "--faults", "crash-storm", "--fault-seed", "9007199254740993"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--fault-seed `9007199254740993` is above"), "{stderr}");
}
