//! Drives the `harmony-bench` binary: `list` names the subcommands,
//! every `fig*`/`table*` one runs to completion at quick scale, and an
//! unknown name is refused with the list.

use std::process::{Command, Output};

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

#[test]
fn fault_seed_a_checkpoint_cannot_store_exactly_is_refused() {
    // 2^53 + 1 would round to 2^53 in a replay checkpoint.
    let out = harmony_bench(&["replay", "--faults", "crash-storm", "--fault-seed", "9007199254740993"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--fault-seed `9007199254740993` is above"), "{stderr}");
}
