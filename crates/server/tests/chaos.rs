//! Chaos e2e: the daemon under a seeded fault storm.
//!
//! Three attack surfaces, each replayed for three seeds:
//!
//! 1. **Network** — a connection flood through the chaos proxy
//!    (dribbled bytes, torn frames, mid-frame disconnects) plus a
//!    deterministic slow-loris client. The daemon must shed with typed
//!    `overloaded`, time out with typed `timeout`, and keep answering
//!    `status`/`metrics` throughout.
//! 2. **Filesystem** — kill-9 cycles with a bit-flipped and a truncated
//!    checkpoint between them. The daemon must fall back to the
//!    surviving generation and reproduce the exact plan sequence an
//!    uninterrupted daemon computes.
//! 3. **Control loop** — chaos-injected tick panics and stalls. The
//!    watchdog must restart/supersede the ticker and surface the
//!    restarts via `status` and `server.ticker_restarts`.
//!
//! Assertions are timing-independent (typed errors, counters, plan
//! equality) per the determinism contract in DESIGN.md §13.

mod chaos_harness;
mod util;

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use chaos_harness::{flip_bit, flood, truncate_to, ChaosConfig, ChaosProxy};
use harmony::rounding::IntegerPlan;
use harmony_server::protocol::{read_line, ErrorKind, Request, Response};
use harmony_server::Client;
use harmony_telemetry::keys;
use util::{assert_no_tmp_files, observation_chunks, temp_dir, Daemon};

const SEEDS: [u64; 3] = [1, 2, 3];

fn counter(client: &mut Client, name: &str) -> u64 {
    match client.request(&Request::Metrics).expect("metrics") {
        Response::Metrics(body) => body.counters.get(name).copied().unwrap_or(0),
        other => panic!("expected Metrics, got {other:?}"),
    }
}

/// Deterministic slow-loris: sends half a frame, then goes silent past
/// the daemon's read deadline. The daemon must answer a typed timeout
/// (or close) rather than pin the worker thread.
fn slow_loris(addr: std::net::SocketAddr) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(b"{\"verb\":\"sta").expect("half frame");
    thread::sleep(Duration::from_millis(700));
    let clone = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(clone);
    match read_line(&mut reader) {
        Ok(Some(line)) => Some(serde_json::from_str(&line).expect("typed response")),
        Ok(None) | Err(_) => None,
    }
}

#[test]
fn flood_and_deadlines_keep_the_daemon_responsive() {
    for &seed in &SEEDS {
        // Tight limits so the chaos actually bites: 400ms frame
        // deadline, one expensive request in flight at a time.
        let daemon = Daemon::spawn(&["--read-timeout-ms", "400", "--max-inflight", "1"]);

        // Storm the daemon directly: every connection must get a typed
        // answer — shed, error, or result — never a hang.
        let report = flood(daemon.addr, 48, seed);
        assert_eq!(report.errors, 0, "seed {seed}: {report:?}");
        assert_eq!(
            report.responded, report.connected,
            "seed {seed}: every surviving connection gets a response: {report:?}"
        );

        // Same storm through the fault-injecting proxy: torn frames and
        // dribbles now hit the daemon; it must survive (responses are
        // best-effort — cut connections legitimately get none).
        let mut proxy = ChaosProxy::start(daemon.addr, ChaosConfig::seeded(seed)).expect("proxy");
        let _ = flood(proxy.addr(), 24, seed.wrapping_add(100));
        proxy.stop();

        // Deterministic timeout: half a frame, then silence past the
        // 400ms deadline.
        match slow_loris(daemon.addr) {
            Some(Response::Error { kind: ErrorKind::Timeout, .. }) | None => {}
            Some(other) => panic!("seed {seed}: expected typed timeout, got {other:?}"),
        }

        // After all of that, the daemon still answers cheap verbs and
        // the timeout counter moved.
        let mut client = daemon.client();
        let status = client.status().expect("status after chaos");
        assert_eq!(status.ticks, 0);
        assert!(counter(&mut client, keys::SERVER_TIMEOUT_TOTAL) >= 1, "seed {seed}");
        client.shutdown().expect("clean shutdown after chaos");
        daemon.wait_clean();
    }
}

/// Overload shedding, deterministically: fill the connection cap with
/// live clients (each proven admitted by a `status` round-trip), then
/// the next connection MUST be shed at accept with a typed `overloaded`
/// carrying the configured retry hint. No timing races — the cap is a
/// hard count, not a window. (The in-flight high-water mark shares the
/// same shed path; its arithmetic is unit-tested in `net::admit`.)
#[test]
fn connection_cap_sheds_with_a_typed_overloaded_response() {
    let daemon = Daemon::spawn(&[
        "--max-connections",
        "2",
        "--retry-after-ms",
        "250",
        "--read-timeout-ms",
        "5000",
    ]);

    let mut holders = vec![daemon.client(), daemon.client()];
    for holder in &mut holders {
        holder.status().expect("holder connection is live");
    }

    let stream = TcpStream::connect(daemon.addr).expect("connect past the cap");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut reader = std::io::BufReader::new(stream);
    let line = read_line(&mut reader)
        .expect("read shed response")
        .expect("daemon answers before closing a shed connection");
    let response: Response = serde_json::from_str(&line).expect("typed response");
    match response {
        Response::Error { kind: ErrorKind::Overloaded { retry_after_ms }, message } => {
            assert_eq!(retry_after_ms, 250, "retry hint is the configured one");
            assert!(message.contains("connection limit"), "got {message:?}");
        }
        other => panic!("expected typed overloaded, got {other:?}"),
    }

    assert!(counter(&mut holders[0], keys::SERVER_SHED_TOTAL) >= 1);
    holders[0].shutdown().expect("shutdown");
    daemon.wait_clean();
}

#[test]
fn checkpoint_torture_resumes_the_exact_plan_sequence() {
    let chunks = observation_chunks();

    // Reference: one uninterrupted daemon.
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

    for &seed in &SEEDS {
        let dir = temp_dir(&format!("torture-{seed}"));
        let snapshot = dir.join("torture.ckpt.json");
        let snapshot_arg = snapshot.to_str().expect("utf-8 path");

        // Phase A: drive two periods while read-only chaos traffic
        // hammers the daemon through the proxy, then kill -9.
        let victim = Daemon::spawn(&["--snapshot", snapshot_arg]);
        let mut proxy = ChaosProxy::start(victim.addr, ChaosConfig::seeded(seed)).expect("proxy");
        let proxy_addr = proxy.addr();
        let noise = thread::spawn(move || flood(proxy_addr, 12, seed));
        let mut client = victim.client();
        let mut actual: Vec<IntegerPlan> = Vec::new();
        for chunk in &chunks[..2] {
            client.submit(chunk.clone()).expect("submit");
            let (_, plan) = client.tick().expect("tick");
            actual.push(plan);
        }
        let _ = noise.join();
        proxy.stop();
        victim.kill();

        // Torture 1: flip a bit in the primary. The CRC must reject it
        // and the resume must fall back to the previous generation
        // (tick 1, chunk 1 still buffered) and re-derive plan 2.
        flip_bit(&snapshot, 200, 3).expect("flip a checkpoint bit");
        let resumed = Daemon::spawn(&["--resume", snapshot_arg]);
        let mut client = resumed.client();
        let status = client.status().expect("status");
        assert_eq!(
            status.ticks, 1,
            "seed {seed}: bit-flipped primary must fall back to generation .1"
        );
        assert_eq!(status.buffered, chunks[1].len(), "generation still buffers chunk 1");
        let (_, plan) = client.tick().expect("re-tick");
        assert_eq!(plan, expected[1], "seed {seed}: replayed tick matches the reference");
        actual[1] = plan;

        // Phase B: buffer chunk 2 (autosave), then kill -9 again.
        client.submit(chunks[2].clone()).expect("submit");
        resumed.kill();

        // Torture 2: truncate the primary mid-payload. Fallback lands
        // on the post-tick-2 generation (empty buffer), so we re-submit
        // and re-tick to reproduce plan 3.
        let len = std::fs::metadata(&snapshot).expect("checkpoint metadata").len();
        truncate_to(&snapshot, len / 2).expect("truncate checkpoint");
        let resumed = Daemon::spawn(&["--resume", snapshot_arg]);
        let mut client = resumed.client();
        let status = client.status().expect("status");
        assert_eq!(status.ticks, 2, "seed {seed}: truncated primary must fall back");
        assert_eq!(status.buffered, 0, "fallback generation has an empty buffer");
        client.submit(chunks[2].clone()).expect("re-submit");
        let (_, plan) = client.tick().expect("tick");
        actual.push(plan);

        client.shutdown().expect("shutdown");
        resumed.wait_clean();

        assert_eq!(
            actual, expected,
            "seed {seed}: torture cycle must reproduce the reference plan sequence"
        );
        assert_no_tmp_files(&dir);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

fn wait_for_restarts(daemon: &Daemon, want: u64, deadline: Duration) -> u64 {
    #[expect(clippy::disallowed_methods, reason = "the test waits on a live daemon in real time")]
    let start = Instant::now();
    let mut seen = 0;
    while start.elapsed() < deadline {
        let mut client = daemon.client();
        seen = counter(&mut client, keys::SERVER_TICKER_RESTARTS);
        if seen >= want {
            return seen;
        }
        thread::sleep(Duration::from_millis(100));
    }
    seen
}

#[test]
fn watchdog_restarts_a_panicking_ticker() {
    let daemon = Daemon::spawn(&["--tick-secs", "0.05", "--chaos-tick-panic-every", "2"]);
    let restarts = wait_for_restarts(&daemon, 2, Duration::from_secs(30));
    assert!(restarts >= 2, "watchdog must keep restarting the ticker, saw {restarts}");

    let mut client = daemon.client();
    let status = client.status().expect("status");
    assert!(status.ticker_restarts >= 1, "restarts surface in status");
    let why = status.ticker_last_error.expect("last error surfaces in status");
    assert!(why.contains("chaos: injected tick panic"), "got {why:?}");
    assert!(status.ticks >= 1, "non-panicking ticks still run");

    client.shutdown().expect("shutdown");
    daemon.wait_clean();
}

#[test]
fn watchdog_supersedes_a_stalled_ticker() {
    let daemon = Daemon::spawn(&[
        "--tick-secs",
        "0.1",
        "--chaos-tick-stall-every",
        "2",
        "--chaos-tick-stall-ms",
        "2000",
        "--watchdog-deadline-multiple",
        "3",
    ]);
    // Deadline = 0.1s × 3 = 300ms < the 2s stall, so the watchdog must
    // declare the tick wedged and supersede it.
    let restarts = wait_for_restarts(&daemon, 1, Duration::from_secs(30));
    assert!(restarts >= 1, "watchdog must supersede a stalled tick, saw {restarts}");

    let mut client = daemon.client();
    let status = client.status().expect("status");
    let why = status.ticker_last_error.expect("last error surfaces in status");
    assert!(why.contains("superseding"), "got {why:?}");

    client.shutdown().expect("shutdown");
    daemon.wait_clean();
}
