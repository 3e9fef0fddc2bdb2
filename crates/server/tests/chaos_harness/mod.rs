//! Seeded network-chaos harness for `harmonyd`.
//!
//! An in-process TCP proxy that forwards client ↔ daemon traffic while
//! injecting the failure modes a hostile network produces: partial
//! writes, byte-dribbled slow reads, and mid-frame disconnects — plus a
//! [`flood`] helper that storms a daemon with concurrent connections to
//! exercise admission control.
//!
//! # Determinism contract
//!
//! Every fault decision is drawn from a [`SplitMix64`] stream derived
//! from `(config.seed, connection index)`, so a given seed replays an
//! identical *set* of fault plans. Which client lands on which plan
//! still depends on accept order, so chaos tests assert
//! timing-independent properties (typed errors, no panics, plan-
//! sequence equality) rather than exact per-connection outcomes — see
//! DESIGN.md §13.
//!
//! Filesystem torture: [`flip_bit`] and [`truncate_to`] corrupt a
//! checkpoint file at rest.

use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use harmony_model::SplitMix64;

use harmony_server::protocol::{read_line, write_line, ErrorKind, Request, Response};

/// Mixes a connection index into the base seed (the splitmix64 golden
/// increment keeps neighbouring indices' streams uncorrelated).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fault-injection probabilities and shapes for a [`ChaosProxy`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Base seed for every per-connection fault plan.
    pub seed: u64,
    /// Probability a pump direction dribbles bytes instead of
    /// forwarding whole reads.
    pub dribble_prob: f64,
    /// Bytes per dribbled write.
    pub dribble_chunk: usize,
    /// Sleep between dribbled writes.
    pub dribble_delay: Duration,
    /// Probability a pump direction cuts the connection mid-stream.
    pub disconnect_prob: f64,
    /// A cut, when drawn, lands after `1..=disconnect_window` forwarded
    /// bytes — early enough to tear a frame.
    pub disconnect_window: usize,
}

impl ChaosConfig {
    /// The default fault mix under a specific seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            dribble_prob: 0.3,
            dribble_chunk: 3,
            dribble_delay: Duration::from_millis(5),
            disconnect_prob: 0.2,
            disconnect_window: 64,
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::seeded(0)
    }
}

/// One pump direction's predetermined faults.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultPlan {
    dribble: bool,
    cut_after: Option<usize>,
}

fn draw_plan(rng: &mut SplitMix64, config: &ChaosConfig) -> FaultPlan {
    let dribble = rng.chance(config.dribble_prob);
    let cut = rng.chance(config.disconnect_prob);
    FaultPlan { dribble, cut_after: cut.then(|| rng.below(config.disconnect_window.max(1)) + 1) }
}

/// A seeded fault-injecting TCP proxy in front of a daemon.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts forwarding every
    /// accepted connection to `upstream` under `config`'s fault plans.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_handle =
            thread::spawn(move || accept_loop(&listener, upstream, &config, &accept_stop));
        Ok(ChaosProxy { addr, stop, accept_handle: Some(accept_handle) })
    }

    /// Where chaos clients should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and winds down the pump threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    config: &ChaosConfig,
    stop: &Arc<AtomicBool>,
) {
    let mut conn_id: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let mut rng = SplitMix64::new(config.seed ^ conn_id.wrapping_mul(SEED_STRIDE));
                conn_id += 1;
                let inbound = draw_plan(&mut rng, config);
                let outbound = draw_plan(&mut rng, config);
                match TcpStream::connect(upstream) {
                    Ok(server) => {
                        start_pumps(client, server, inbound, outbound, config, stop);
                    }
                    Err(_) => {
                        let _ = client.shutdown(Shutdown::Both);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn start_pumps(
    client: TcpStream,
    server: TcpStream,
    inbound: FaultPlan,
    outbound: FaultPlan,
    config: &ChaosConfig,
    stop: &Arc<AtomicBool>,
) {
    let (Ok(client_rx), Ok(server_rx)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    // Pump threads are detached: they poll the proxy's stop flag on a
    // 50ms read timeout, so they drain promptly after `stop()`.
    let config_in = config.clone();
    let stop_in = Arc::clone(stop);
    thread::spawn(move || pump(client_rx, server, &inbound, &config_in, &stop_in));
    let config_out = config.clone();
    let stop_out = Arc::clone(stop);
    thread::spawn(move || pump(server_rx, client, &outbound, &config_out, &stop_out));
}

/// Forwards `from` → `to` under one direction's fault plan until EOF,
/// an error, a planned cut, or proxy stop.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    plan: &FaultPlan,
    config: &ChaosConfig,
    stop: &AtomicBool,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    let mut forwarded: usize = 0;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                // Half-close propagation: the peer finished sending, so
                // finish our write side but leave the reverse pump alone.
                let _ = to.shutdown(Shutdown::Write);
                let _ = from.shutdown(Shutdown::Read);
                return;
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => break,
        };
        let Some(chunk) = buf.get(..n) else { break };
        if let Some(cut) = plan.cut_after {
            if forwarded + chunk.len() >= cut {
                // Mid-frame disconnect: forward a prefix, then sever.
                let keep = cut.saturating_sub(forwarded);
                let _ = forward(&mut to, chunk.get(..keep).unwrap_or(chunk), plan, config);
                break;
            }
        }
        if forward(&mut to, chunk, plan, config).is_err() {
            break;
        }
        forwarded += n;
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

fn forward(
    to: &mut TcpStream,
    chunk: &[u8],
    plan: &FaultPlan,
    config: &ChaosConfig,
) -> io::Result<()> {
    if plan.dribble {
        for piece in chunk.chunks(config.dribble_chunk.max(1)) {
            to.write_all(piece)?;
            thread::sleep(config.dribble_delay);
        }
        Ok(())
    } else {
        to.write_all(chunk)
    }
}

/// What a [`flood`] run observed, aggregated over every connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FloodReport {
    /// Connections attempted.
    pub attempted: usize,
    /// TCP connects that succeeded.
    pub connected: usize,
    /// Connections that got any response frame back.
    pub responded: usize,
    /// Typed `overloaded` responses (admission control working).
    pub overloaded: usize,
    /// Typed `timeout` responses (deadline enforcement working).
    pub timeouts: usize,
    /// Connect or I/O failures.
    pub errors: usize,
}

impl FloodReport {
    fn absorb(&mut self, other: &FloodReport) {
        self.connected += other.connected;
        self.responded += other.responded;
        self.overloaded += other.overloaded;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
    }
}

/// Storms `addr` with `connections` concurrent clients sending a seeded
/// mix of read-only requests, garbage frames, and partial-then-complete
/// frames, and reports what came back. Never sends a state-mutating
/// verb, so a flood cannot perturb the daemon's plan sequence.
pub fn flood(addr: SocketAddr, connections: usize, seed: u64) -> FloodReport {
    let handles: Vec<_> = (0..connections)
        .map(|i| {
            let seed = seed ^ (i as u64).wrapping_mul(SEED_STRIDE);
            thread::spawn(move || flood_one(addr, seed))
        })
        .collect();
    let mut report = FloodReport { attempted: connections, ..FloodReport::default() };
    for handle in handles {
        if let Ok(one) = handle.join() {
            report.absorb(&one);
        } else {
            report.errors += 1;
        }
    }
    report
}

fn render(request: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    let _ = write_line(&mut wire, request);
    wire
}

fn flood_one(addr: SocketAddr, seed: u64) -> FloodReport {
    let mut rng = SplitMix64::new(seed);
    let mut report = FloodReport::default();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        report.errors = 1;
        return report;
    };
    report.connected = 1;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let (first, rest): (Vec<u8>, Option<Vec<u8>>) = match rng.below(4) {
        0 => (render(&Request::GetForecast { horizon: Some(2) }), None),
        1 => (render(&Request::GetPlan), None),
        2 => (b"!!! not json at all\n".to_vec(), None),
        _ => {
            // A frame torn across two writes — the daemon must
            // reassemble it, not hang or mis-frame.
            let full = render(&Request::Status);
            let (head, tail) = full.split_at(full.len() / 2);
            (head.to_vec(), Some(tail.to_vec()))
        }
    };
    if stream.write_all(&first).is_err() {
        report.errors = 1;
        return report;
    }
    if let Some(rest) = rest {
        thread::sleep(Duration::from_millis(20));
        if stream.write_all(&rest).is_err() {
            report.errors = 1;
            return report;
        }
    }
    let Ok(clone) = stream.try_clone() else {
        report.errors = 1;
        return report;
    };
    let mut reader = BufReader::new(clone);
    match read_line(&mut reader) {
        Ok(Some(line)) => {
            report.responded = 1;
            if let Ok(response) = serde_json::from_str::<Response>(&line) {
                match response {
                    Response::Error { kind: ErrorKind::Overloaded { .. }, .. } => {
                        report.overloaded = 1;
                    }
                    Response::Error { kind: ErrorKind::Timeout, .. } => report.timeouts = 1,
                    _ => {}
                }
            }
        }
        Ok(None) => {}
        Err(_) => report.errors = 1,
    }
    report
}

/// Truncates a checkpoint file to `len` bytes, simulating a torn write.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn truncate_to(path: &Path, len: u64) -> io::Result<()> {
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

/// Flips one bit of a checkpoint file (`byte_index` wraps modulo the
/// file length), simulating bit rot.
///
/// # Errors
///
/// Propagates I/O failures; flipping a bit of an empty file is an
/// [`io::ErrorKind::InvalidInput`] error.
pub fn flip_bit(path: &Path, byte_index: u64, bit: u8) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cannot flip a bit of an empty file",
        ));
    }
    let idx = (byte_index % bytes.len() as u64) as usize;
    if let Some(byte) = bytes.get_mut(idx) {
        *byte ^= 1 << (bit % 8);
    }
    fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_replay_for_a_seed() {
        let config = ChaosConfig::seeded(9);
        let draw_pair = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            (draw_plan(&mut rng, &config), draw_plan(&mut rng, &config))
        };
        assert_eq!(draw_pair(1), draw_pair(1), "same seed, same plans");
        let plans: Vec<_> =
            (0..32u64).map(|i| draw_pair(config.seed ^ i.wrapping_mul(SEED_STRIDE))).collect();
        assert!(plans.iter().any(|p| p != &plans[0]), "plans vary across connections");
    }

    fn echo_upstream() -> SocketAddr {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            while let Ok((mut socket, _)) = listener.accept() {
                let Ok(clone) = socket.try_clone() else { continue };
                let mut reader = BufReader::new(clone);
                while let Ok(Some(line)) = read_line(&mut reader) {
                    let mut out = line.into_bytes();
                    out.push(b'\n');
                    if socket.write_all(&out).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn dribbling_proxy_preserves_bytes() {
        let upstream = echo_upstream();
        let config =
            ChaosConfig { dribble_prob: 1.0, disconnect_prob: 0.0, ..ChaosConfig::seeded(5) };
        let mut proxy = ChaosProxy::start(upstream, config).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let payload = r#"{"verb":"get-plan"}"#;
        stream.write_all(format!("{payload}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let line = read_line(&mut reader).unwrap().expect("echoed line");
        assert_eq!(line, payload, "dribbling reorders timing, never bytes");
        proxy.stop();
    }

    #[test]
    fn disconnecting_proxy_tears_the_stream() {
        let upstream = echo_upstream();
        let config = ChaosConfig {
            dribble_prob: 0.0,
            disconnect_prob: 1.0,
            disconnect_window: 4,
            ..ChaosConfig::seeded(6)
        };
        let mut proxy = ChaosProxy::start(upstream, config).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Long frame: the proxy cuts within the first 4 bytes, so the
        // echo can never complete.
        let payload = format!("{}\n", "x".repeat(256));
        let _ = stream.write_all(payload.as_bytes());
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        if let Ok(Some(line)) = read_line(&mut reader) {
            panic!("torn frame must not echo, got {line:?}");
        }
        proxy.stop();
    }
}
