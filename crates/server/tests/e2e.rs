//! End-to-end tests: boot the real `harmonyd` binary on an ephemeral
//! port, drive it through the client library, kill it without warning,
//! and verify that `--resume` picks the session back up with the exact
//! same provisioning plans an uninterrupted daemon would have produced.

mod util;

use std::path::PathBuf;

use harmony::rounding::IntegerPlan;
use util::{assert_no_tmp_files, observation_chunks, temp_dir, Daemon};

#[test]
fn scripted_session_covers_every_verb() {
    let dir = temp_dir("session");
    let snapshot = dir.join("session.ckpt.json");
    let daemon = Daemon::spawn(&["--snapshot", snapshot.to_str().expect("utf-8 path")]);
    let mut client = daemon.client();

    let status = client.status().expect("status");
    assert_eq!(status.ticks, 0);
    assert!(!status.has_plan);
    assert!(status.n_classes > 0);

    let chunks = observation_chunks();
    let (buffered, total) = client.submit(chunks[0].clone()).expect("submit");
    assert_eq!(buffered, chunks[0].len());
    assert_eq!(total, chunks[0].len() as u64);

    let (tick, plan) = client.tick().expect("tick");
    assert_eq!(tick, 1);
    assert!(plan.machines.iter().sum::<usize>() > 0, "plan powers machines on");

    let (tick, fetched) = client.get_plan().expect("get-plan");
    assert_eq!(tick, 1);
    assert_eq!(fetched.as_ref(), Some(&plan), "get-plan returns the tick's plan");

    let forecast = client.get_forecast(Some(3)).expect("get-forecast");
    assert_eq!(forecast.len(), status.n_classes);
    assert!(forecast.iter().all(|f| f.rates.len() == 3));

    let _events = client.drain_events().expect("drain-events");

    let (path, bytes) = client.snapshot().expect("snapshot");
    assert_eq!(PathBuf::from(path), snapshot);
    assert!(bytes > 0);
    assert!(snapshot.exists(), "checkpoint on disk");

    client.shutdown().expect("shutdown");
    daemon.wait_clean();
    assert_no_tmp_files(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn kill_nine_then_resume_reproduces_the_plan_sequence() {
    let chunks = observation_chunks();

    // Reference run: one daemon, never interrupted.
    let reference = Daemon::spawn(&[]);
    let mut client = reference.client();
    let mut expected: Vec<IntegerPlan> = Vec::new();
    for chunk in &chunks {
        client.submit(chunk.clone()).expect("submit");
        let (_, plan) = client.tick().expect("tick");
        expected.push(plan);
    }
    client.shutdown().expect("shutdown");
    reference.wait_clean();

    // Interrupted run: same session, but SIGKILLed after two ticks.
    let dir = temp_dir("resume");
    let snapshot = dir.join("resume.ckpt.json");
    let snapshot_arg = snapshot.to_str().expect("utf-8 path");
    let victim = Daemon::spawn(&["--snapshot", snapshot_arg]);
    let mut client = victim.client();
    let mut actual: Vec<IntegerPlan> = Vec::new();
    for chunk in &chunks[..2] {
        client.submit(chunk.clone()).expect("submit");
        let (_, plan) = client.tick().expect("tick");
        actual.push(plan);
    }
    victim.kill();
    assert!(snapshot.exists(), "auto-checkpoint survived the kill");

    let resumed = Daemon::spawn(&["--resume", snapshot_arg]);
    let mut client = resumed.client();
    let status = client.status().expect("status");
    assert_eq!(status.ticks, 2, "resume restores the tick counter");
    assert_eq!(
        status.total_observations,
        (chunks[0].len() + chunks[1].len()) as u64,
        "resume restores lifetime counters"
    );
    let (_, plan) = client.get_plan().expect("get-plan");
    assert_eq!(plan.as_ref(), Some(&actual[1]), "resume restores the last plan");

    for chunk in &chunks[2..] {
        client.submit(chunk.clone()).expect("submit");
        let (_, plan) = client.tick().expect("tick");
        actual.push(plan);
    }
    client.shutdown().expect("shutdown");
    resumed.wait_clean();

    assert_eq!(actual, expected, "interrupted + resumed run must match the reference run");
    assert_no_tmp_files(&dir);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn harmonyctl_refuses_a_seed_beyond_exact_json_range() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_harmonyctl"))
        .args(["submit-observations", "--addr", "127.0.0.1:1", "--seed", "9007199254740992"])
        .output()
        .expect("spawn harmonyctl");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed: `9007199254740992` is above"), "{stderr}");
}

#[test]
fn harmonyd_refuses_out_of_range_numeric_flags() {
    // A daemon that took one of these would serve until killed, so each
    // run gets ten seconds to exit before the test kills it. A seed
    // above 2^53 - 1 would be written to the checkpoint rounded, and
    // `--resume` would then refuse that checkpoint. A `--tick-secs` of
    // `inf` would be a ticker that never fires, and a negative or NaN one
    // would silently mean manual ticks.
    for (flag, bad) in [
        ("--period-mins", "-5"),
        ("--synthetic-span-hours", "nan"),
        ("--period-mins", "inf"),
        ("--period-mins", "0"),
        ("--synthetic-span-hours", "-1"),
        ("--synthetic-seed", "9007199254740993"),
        ("--tick-secs", "inf"),
        ("--tick-secs", "-1"),
        ("--tick-secs", "nan"),
    ] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_harmonyd"))
            .args(["--listen", "127.0.0.1:0", "--synthetic-seed", util::SEED])
            .args(["--synthetic-span-hours", util::SPAN_HOURS, flag, bad])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn harmonyd");
        for _ in 0..100 {
            if child.try_wait().expect("poll harmonyd").is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        let _ = child.kill();
        let out = child.wait_with_output().expect("reap harmonyd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {stderr}");
        assert!(stderr.contains(&format!("harmonyd: {flag}: `{bad}`")), "{stderr}");
        assert!(stderr.contains("USAGE:"), "{stderr}");
    }
}
