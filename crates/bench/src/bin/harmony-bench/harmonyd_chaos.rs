//! Chaos benchmark: `harmonyd`'s resilience machinery measured end to
//! end, in process.
//!
//! Five phases, each against a dedicated in-process daemon (the real
//! `net::serve` loop on an ephemeral port) or the checkpoint layer
//! directly:
//!
//! 1. **flood** — a seeded connection storm (well-formed, malformed,
//!    and torn frames) straight at the daemon; every connection must
//!    get a typed answer.
//! 2. **shed** — the connection cap is filled with live clients, then
//!    excess connections are counted as they are shed with typed
//!    `overloaded` responses.
//! 3. **proxy + slow loris** — the same storm through the seeded
//!    fault-injecting proxy (dribbled bytes, mid-frame cuts), plus
//!    deliberate half-frame clients that must trip the read deadline.
//! 4. **recovery** — checkpoint generations are corrupted (bit flip,
//!    truncation) and the fallback load + service rebuild is timed.
//! 5. **watchdog** — chaos-injected tick panics; measures how fast the
//!    supervisor restarts the ticker under capped backoff.
//!
//! Honors `--quick` (smaller storms, fewer seeds) and writes
//! `results/BENCH_harmonyd_chaos.json` with the shed / timeout /
//! restart / recovery numbers (see [`harmony_bench::json`]).

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::{HarmonyConfig, OnlinePipeline};
use harmony_bench::json;
use harmony_bench::section;
use harmony_model::SimDuration;
use harmony_server::chaos::{flood, ChaosConfig, ChaosProxy};
use harmony_server::net::{self, ConnectionLimits, ServeOptions, TickerChaos, WatchdogPolicy};
use harmony_server::protocol::read_line;
use harmony_server::state::{self, CatalogSpec};
use harmony_server::{Client, Service};
use harmony_telemetry::{self as telemetry, keys};
use serde::value::Value;

const SEEDS_FULL: &[u64] = &[1, 2, 3];
const SEEDS_QUICK: &[u64] = &[1];

fn build_service(snapshot: Option<PathBuf>) -> Service {
    let span = SimDuration::from_secs(2.0 * 3600.0);
    let (trace, source) =
        state::load_source(None, "jsonl", 33, span, None).expect("synthetic trace");
    let classifier_config = ClassifierConfig::default();
    let classifier =
        TaskClassifier::fit(trace.tasks(), &classifier_config).expect("classifier fit");
    let catalog_spec = CatalogSpec { name: "table2".to_owned(), divisor: 100 };
    let catalog = catalog_spec.build().expect("catalog");
    let pipeline =
        OnlinePipeline::new(classifier, catalog, HarmonyConfig::default(), Default::default())
            .expect("pipeline");
    Service::new(pipeline, classifier_config, source, catalog_spec, snapshot)
}

/// The real serve loop on an ephemeral port, in a background thread.
struct InProcess {
    addr: std::net::SocketAddr,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

fn start_daemon(service: Service, options: ServeOptions) -> InProcess {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let service = Arc::new(RwLock::new(service));
    let handle = thread::spawn(move || net::serve(listener, service, options));
    InProcess { addr, handle }
}

impl InProcess {
    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect to in-process daemon")
    }

    fn shutdown(self) {
        self.client().shutdown().expect("clean shutdown");
        self.handle.join().expect("serve thread").expect("serve result");
    }
}

fn counter(name: &str) -> u64 {
    telemetry::global().snapshot().counter(name)
}

/// Half a frame, then silence past the daemon's read deadline.
fn slow_loris(addr: std::net::SocketAddr, silence: Duration) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(b"{\"verb\":\"sta").expect("half frame");
    thread::sleep(silence);
    let mut reader = std::io::BufReader::new(stream);
    let _ = read_line(&mut reader);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[expect(
    clippy::disallowed_methods,
    reason = "the chaos bench times each phase against a live daemon in real time"
)]
pub fn run(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = if quick { SEEDS_QUICK } else { SEEDS_FULL };
    let flood_size = if quick { 16 } else { 48 };
    eprintln!(
        "harmonyd chaos bench: {} seeds, {flood_size}-way floods{}",
        seeds.len(),
        if quick { " (--quick)" } else { "" }
    );

    let limits = ConnectionLimits {
        max_connections: 8,
        max_inflight: 2,
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_secs(5),
        retry_after_ms: 100,
    };

    // Phase 1+2+3: one daemon under the storm limits.
    let daemon = start_daemon(
        build_service(None),
        ServeOptions { limits: limits.clone(), ..ServeOptions::default() },
    );

    section("phase 1: direct flood");
    let shed0 = counter(keys::SERVER_SHED_TOTAL);
    let t = Instant::now();
    let (mut attempted, mut connected, mut responded, mut overloaded, mut errors) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for &seed in seeds {
        let report = flood(daemon.addr, flood_size, seed);
        attempted += report.attempted as u64;
        connected += report.connected as u64;
        responded += report.responded as u64;
        overloaded += report.overloaded as u64;
        errors += report.errors as u64;
    }
    let flood_elapsed = t.elapsed();
    println!(
        "flood: {attempted} attempted, {connected} connected, {responded} responded, \
         {overloaded} overloaded, {errors} errors in {:.0} ms",
        ms(flood_elapsed)
    );

    section("phase 2: deterministic connection-cap shed");
    let t = Instant::now();
    let mut holders: Vec<Client> = (0..limits.max_connections).map(|_| daemon.client()).collect();
    for holder in &mut holders {
        holder.status().expect("holder connection is live");
    }
    let extra = if quick { 4 } else { 16 };
    let mut cap_shed = 0u64;
    for _ in 0..extra {
        let stream = TcpStream::connect(daemon.addr).expect("connect past the cap");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut reader = std::io::BufReader::new(stream);
        if read_line(&mut reader).ok().flatten().is_some() {
            cap_shed += 1;
        }
    }
    drop(holders);
    let shed_elapsed = t.elapsed();
    let shed_total = counter(keys::SERVER_SHED_TOTAL) - shed0;
    assert!(shed_total >= extra as u64, "cap must shed every excess connection");
    println!(
        "shed: {cap_shed}/{extra} excess connections answered typed overloaded, \
         server.shed_total +{shed_total} in {:.0} ms",
        ms(shed_elapsed)
    );

    section("phase 3: chaos proxy + slow loris");
    let timeout0 = counter(keys::SERVER_TIMEOUT_TOTAL);
    let t = Instant::now();
    let (mut proxy_connected, mut proxy_responded) = (0u64, 0u64);
    for &seed in seeds {
        let mut proxy =
            ChaosProxy::start(daemon.addr, ChaosConfig::seeded(seed)).expect("proxy");
        let report = flood(proxy.addr(), flood_size / 2, seed.wrapping_add(100));
        proxy_connected += report.connected as u64;
        proxy_responded += report.responded as u64;
        proxy.stop();
    }
    let loris = if quick { 2 } else { 6 };
    for _ in 0..loris {
        slow_loris(daemon.addr, Duration::from_millis(500));
    }
    let proxy_elapsed = t.elapsed();
    let timeout_total = counter(keys::SERVER_TIMEOUT_TOTAL) - timeout0;
    assert!(timeout_total >= loris as u64, "every slow loris must trip the read deadline");
    println!(
        "proxy: {proxy_responded}/{proxy_connected} proxied connections answered; \
         {loris} slow-loris clients, server.timeout_total +{timeout_total} in {:.0} ms",
        ms(proxy_elapsed)
    );
    daemon.shutdown();

    section("phase 4: checkpoint corruption recovery");
    let dir = std::env::temp_dir().join(format!("harmonyd-chaos-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("ckpt.json");
    let mut svc = build_service(Some(ckpt.clone()));
    svc.save_checkpoint().expect("seed generation");
    svc.tick_once();
    svc.save_checkpoint().expect("rotate generation");

    state::flip_bit(&ckpt, 100, 1).expect("flip a checkpoint bit");
    let t = Instant::now();
    let (checkpoint, events) = state::load_with_recovery(&ckpt).expect("recover from bit flip");
    let bitflip_load = t.elapsed();
    let t = Instant::now();
    let restored =
        Service::from_checkpoint(checkpoint, Some(ckpt.clone())).expect("service rebuild");
    let bitflip_rebuild = t.elapsed();
    assert!(!events.is_empty(), "bit flip must surface a recovery event");
    let bitflip_events = events.len() as u64;
    // Two saves: the first rotates the *corrupt* primary into the
    // generation slot while writing a good primary; the second rotates
    // that good primary down, so both generations are valid again
    // before the truncation torture.
    restored.save_checkpoint().expect("repair primary");
    restored.save_checkpoint().expect("repair generation");

    let len = std::fs::metadata(&ckpt).expect("checkpoint metadata").len();
    state::truncate_to(&ckpt, len / 2).expect("truncate checkpoint");
    let t = Instant::now();
    let (checkpoint, events) = state::load_with_recovery(&ckpt).expect("recover from truncation");
    let truncated_load = t.elapsed();
    assert!(!events.is_empty(), "truncation must surface a recovery event");
    let truncated_events = events.len() as u64;
    drop(Service::from_checkpoint(checkpoint, None).expect("service rebuild"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
    println!(
        "recovery: bit flip {:.1} ms load + {:.1} ms rebuild ({bitflip_events} events); \
         truncation {:.1} ms load ({truncated_events} events)",
        ms(bitflip_load),
        ms(bitflip_rebuild),
        ms(truncated_load)
    );

    section("phase 5: ticker watchdog under injected panics");
    let restarts0 = counter(keys::SERVER_TICKER_RESTARTS);
    let want_restarts: u64 = if quick { 2 } else { 4 };
    let daemon = start_daemon(
        build_service(None),
        ServeOptions {
            tick_period: Some(Duration::from_millis(50)),
            limits: ConnectionLimits::default(),
            watchdog: WatchdogPolicy {
                deadline_multiple: 4,
                backoff_base: Duration::from_millis(25),
                backoff_cap: Duration::from_millis(100),
            },
            chaos: TickerChaos { panic_every: Some(2), ..TickerChaos::default() },
        },
    );
    let t = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut restarts = 0;
    while Instant::now() < deadline {
        restarts = counter(keys::SERVER_TICKER_RESTARTS) - restarts0;
        if restarts >= want_restarts {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    let watchdog_elapsed = t.elapsed();
    assert!(restarts >= want_restarts, "watchdog must keep restarting the ticker");
    let ticks = daemon.client().status().expect("status").ticks;
    daemon.shutdown();
    println!(
        "watchdog: {restarts} restarts ({ticks} surviving ticks) in {:.0} ms \
         — {:.1} ms mean time-to-restart",
        ms(watchdog_elapsed),
        ms(watchdog_elapsed) / restarts as f64
    );

    let payload = Value::object(&[
        ("name", Value::String("harmonyd_chaos".to_owned())),
        ("quick", Value::Bool(quick)),
        ("seeds", Value::Number(seeds.len() as f64)),
        (
            "flood",
            Value::object(&[
                ("attempted", Value::Number(attempted as f64)),
                ("connected", Value::Number(connected as f64)),
                ("responded", Value::Number(responded as f64)),
                ("overloaded", Value::Number(overloaded as f64)),
                ("errors", Value::Number(errors as f64)),
                ("elapsed_ms", Value::Number(ms(flood_elapsed))),
            ]),
        ),
        (
            "shed",
            Value::object(&[
                ("excess_connections", Value::Number(extra as f64)),
                ("typed_responses", Value::Number(cap_shed as f64)),
                ("shed_total", Value::Number(shed_total as f64)),
                ("elapsed_ms", Value::Number(ms(shed_elapsed))),
            ]),
        ),
        (
            "deadlines",
            Value::object(&[
                ("proxy_connected", Value::Number(proxy_connected as f64)),
                ("proxy_responded", Value::Number(proxy_responded as f64)),
                ("slow_loris_clients", Value::Number(loris as f64)),
                ("timeout_total", Value::Number(timeout_total as f64)),
                ("elapsed_ms", Value::Number(ms(proxy_elapsed))),
            ]),
        ),
        (
            "recovery",
            Value::object(&[
                ("bitflip_load_ms", Value::Number(ms(bitflip_load))),
                ("bitflip_rebuild_ms", Value::Number(ms(bitflip_rebuild))),
                ("bitflip_events", Value::Number(bitflip_events as f64)),
                ("truncated_load_ms", Value::Number(ms(truncated_load))),
                ("truncated_events", Value::Number(truncated_events as f64)),
            ]),
        ),
        (
            "watchdog",
            Value::object(&[
                ("restarts", Value::Number(restarts as f64)),
                ("surviving_ticks", Value::Number(ticks as f64)),
                ("elapsed_ms", Value::Number(ms(watchdog_elapsed))),
                (
                    "mean_time_to_restart_ms",
                    Value::Number(ms(watchdog_elapsed) / restarts as f64),
                ),
            ]),
        ),
    ]);
    let path = json::write_bench_json("harmonyd_chaos", &payload).expect("write artifact");
    eprintln!("wrote {}", path.display());
}
