//! Drives the `harmony-bench` binary: `list` names the subcommands,
//! every `fig*`/`table*` one runs to completion at quick scale, an
//! unknown name is refused with the list, and `replay` runs a fault
//! comparison over a trace file and refuses bad flag values.

use std::path::PathBuf;
use std::process::{Command, Output};

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
    assert_eq!(
        String::from_utf8_lossy(&harmony_bench(&[]).stdout),
        list,
        "no argument = list"
    );

    let figures: Vec<&str> = list
        .lines()
        .filter(|n| n.starts_with("fig") || n.starts_with("table"))
        .collect();
    assert_eq!(figures.len(), 12, "{list}");
    for name in figures {
        let out = harmony_bench(&[name]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with("== ") && l.ends_with(" ==")),
            "{name} printed no section header:\n{stdout}"
        );
    }

    let unknown = harmony_bench(&["fig99_nonesuch"]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains(&list));
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
    let out = harmony_bench(&["replay", "--faults", "crash-storm", "--fault-seed", "9007199254740993"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--fault-seed `9007199254740993` is above"), "{stderr}");
}
