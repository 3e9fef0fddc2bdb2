//! Shared harness for the `harmonyd` integration tests: boots the real
//! daemon binary on an ephemeral port, hands out connected clients, and
//! provides the deterministic observation workload every test drives.

#![allow(dead_code)] // each test binary uses a different subset

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use harmony_model::Task;
use harmony_server::Client;
use harmony_trace::{TraceConfig, TraceGenerator};

/// The synthetic workload every daemon fits its classifier from.
pub const SEED: &str = "33";
pub const SPAN_HOURS: &str = "2";

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Boots `harmonyd` on an ephemeral port and parses the bound
    /// address from its stdout banner.
    pub fn spawn(extra: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_harmonyd"));
        cmd.args([
            "--listen",
            "127.0.0.1:0",
            "--synthetic-seed",
            SEED,
            "--synthetic-span-hours",
            SPAN_HOURS,
            "--scale",
            "100",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn harmonyd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().expect("daemon printed a banner").expect("banner readable");
        let addr = banner
            .strip_prefix("harmonyd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .parse()
            .expect("parseable address");
        Daemon { child, addr }
    }

    pub fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect to daemon")
    }

    /// SIGKILL — no shutdown handshake, no final checkpoint.
    pub fn kill(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
    }

    /// Waits for a voluntary exit and asserts it was clean.
    pub fn wait_clean(mut self) {
        let status = self.child.wait().expect("reap daemon");
        assert!(status.success(), "daemon exited with {status}");
    }
}

pub fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harmonyd-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Three batches of observations, the same for every daemon in a test.
pub fn observation_chunks() -> Vec<Vec<Task>> {
    let trace = TraceGenerator::new(TraceConfig::small().with_seed(77)).generate();
    let tasks: Vec<Task> = trace.tasks().iter().take(240).cloned().collect();
    tasks.chunks(80).map(<[Task]>::to_vec).collect()
}

pub fn assert_no_tmp_files(dir: &Path) {
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("read temp dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "leftover checkpoint temp files: {leftovers:?}");
}
