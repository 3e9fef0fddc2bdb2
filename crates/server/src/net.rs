//! TCP server loop for `harmonyd`.
//!
//! Thread-per-connection over std-only primitives: the accept loop
//! spawns a handler per client, handlers share the [`Service`] behind
//! an `Arc<RwLock<_>>`, and an optional ticker thread runs the control
//! loop on a fixed cadence. Graceful shutdown (triggered by a
//! `shutdown` request) stops accepting, unblocks in-flight readers by
//! half-closing their sockets, joins every thread, and writes a final
//! checkpoint.
//!
//! # Resilience (DESIGN.md §13)
//!
//! * **Connection deadlines** — every socket carries read/write
//!   timeouts, and every frame read races a wall-clock deadline, so a
//!   slow-loris client dribbling bytes (which resets OS-level socket
//!   timeouts on each byte) still cannot pin a worker thread past the
//!   idle budget. Expiry answers a typed `Error{kind: timeout}` and
//!   closes the connection.
//! * **Admission control** — a bounded in-flight gauge sheds expensive
//!   verbs with a typed `Error{kind: overloaded, retry_after_ms}` past
//!   the high-water mark, while `status` / `metrics` (read-lock or
//!   lock-free) and `shutdown` always answer.
//! * **Ticker watchdog** — the background ticker runs under a
//!   supervisor that restarts it with capped exponential backoff after
//!   a panic, and supersedes it (by generation counter) when a tick
//!   overruns a deadline multiple of the control period. std threads
//!   cannot be killed, so a tick wedged *inside* the service lock can
//!   only be superseded once it releases the lock; the chaos hooks
//!   therefore inject stalls outside the lock.

use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use harmony_telemetry::{self as telemetry, keys};

use crate::protocol::{read_line_deadline, write_line, MetricsBody, Request, Response};
use crate::service::Service;

/// Default hard cap on concurrent client connections; excess
/// connections get a typed `overloaded` response and are closed
/// immediately.
pub const MAX_CONNECTIONS: usize = 64;

/// Per-connection socket budgets and the admission-control high-water
/// mark.
#[derive(Debug, Clone)]
pub struct ConnectionLimits {
    /// Hard cap on concurrent client connections.
    pub max_connections: usize,
    /// High-water mark for concurrently *executing* expensive verbs;
    /// past it, new expensive requests are shed with `overloaded`.
    pub max_inflight: usize,
    /// Per-frame read deadline, doubling as the connection idle budget.
    pub read_timeout: Duration,
    /// Socket write deadline (a client that stops draining responses
    /// cannot pin a handler).
    pub write_timeout: Duration,
    /// Retry hint attached to every `overloaded` response.
    pub retry_after_ms: u64,
}

impl Default for ConnectionLimits {
    fn default() -> Self {
        ConnectionLimits {
            max_connections: MAX_CONNECTIONS,
            max_inflight: 16,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            retry_after_ms: 100,
        }
    }
}

/// When the watchdog declares the background ticker dead and how it
/// restarts it.
#[derive(Debug, Clone)]
pub struct WatchdogPolicy {
    /// A tick running longer than `deadline_multiple × control period`
    /// is declared wedged and superseded.
    pub deadline_multiple: u32,
    /// First restart delay; doubles per consecutive restart.
    pub backoff_base: Duration,
    /// Ceiling on the restart delay.
    pub backoff_cap: Duration,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            deadline_multiple: 4,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// Deterministic fault injection into the ticker — wired to the
/// `--chaos-tick-*` flags, used only by the chaos harness.
#[derive(Debug, Clone, Default)]
pub struct TickerChaos {
    /// Panic on every Nth tick (exercises the restart path).
    pub panic_every: Option<u64>,
    /// Stall on every Nth tick, outside the service lock (exercises the
    /// supersession path).
    pub stall_every: Option<u64>,
    /// How long a chaos stall lasts.
    pub stall: Duration,
}

/// Everything [`serve`] needs beyond the listener and the service.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Background control-loop cadence (`None` = manual `tick` only).
    pub tick_period: Option<Duration>,
    /// Connection and admission limits.
    pub limits: ConnectionLimits,
    /// Ticker watchdog policy.
    pub watchdog: WatchdogPolicy,
    /// Ticker fault injection (defaults to none).
    pub chaos: TickerChaos,
}

/// Registry of live connection sockets so shutdown can unblock readers.
type Registry = Arc<Mutex<BTreeMap<u64, TcpStream>>>;

fn lock_write(service: &RwLock<Service>) -> std::sync::RwLockWriteGuard<'_, Service> {
    service.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_read(service: &RwLock<Service>) -> std::sync::RwLockReadGuard<'_, Service> {
    service.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Decrements the in-flight gauge on drop, so a panicking handler can
/// never leak an admission slot and wedge the daemon into permanent
/// shedding.
struct InflightSlot<'a>(&'a AtomicUsize);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Tries to claim an admission slot. `None` means the gauge is at the
/// high-water mark and the request must be shed with `overloaded`.
fn admit(inflight: &AtomicUsize, max_inflight: usize) -> Option<InflightSlot<'_>> {
    if inflight.fetch_add(1, Ordering::SeqCst) >= max_inflight {
        inflight.fetch_sub(1, Ordering::SeqCst);
        None
    } else {
        Some(InflightSlot(inflight))
    }
}

/// Runs the daemon: accepts connections on `listener`, serves requests
/// against `service` under the limits, watchdog, and (optional) ticker
/// cadence in `options` (checkpointing after each tick if a snapshot
/// path is configured). Returns after a graceful shutdown, once every
/// thread is joined and the final checkpoint is on disk.
///
/// # Errors
///
/// Propagates failures to resolve the listener's local address and
/// fatal accept-loop errors.
pub fn serve(
    listener: TcpListener,
    service: Arc<RwLock<Service>>,
    options: ServeOptions,
) -> io::Result<()> {
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let inflight = Arc::new(AtomicUsize::new(0));
    let registry: Registry = Arc::new(Mutex::new(BTreeMap::new()));

    // Pre-register the resilience counters so `metrics` reports them
    // (as zeros) even before the first shed / timeout / restart.
    let metrics = telemetry::global();
    metrics.counter(keys::SERVER_SHED_TOTAL).add(0);
    metrics.counter(keys::SERVER_TIMEOUT_TOTAL).add(0);
    metrics.counter(keys::SERVER_TICKER_RESTARTS).add(0);

    let ticker = options.tick_period.map(|period| {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let watchdog = options.watchdog.clone();
        let chaos = options.chaos.clone();
        thread::spawn(move || run_ticker_supervised(&service, &stop, period, &watchdog, &chaos))
    });

    let limits = options.limits;
    let mut handles = Vec::new();
    let mut next_id: u64 = 0;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        handles.retain(|h: &thread::JoinHandle<()>| !h.is_finished());
        if active.load(Ordering::SeqCst) >= limits.max_connections {
            telemetry::global().counter(keys::SERVER_SHED_TOTAL).inc();
            let mut stream = stream;
            let _ = write_line(
                &mut stream,
                &Response::overloaded(limits.retry_after_ms, "connection limit reached"),
            );
            continue;
        }
        let id = next_id;
        next_id += 1;
        if let (Ok(clone), Ok(mut reg)) = (stream.try_clone(), registry.lock()) {
            reg.insert(id, clone);
        }
        active.fetch_add(1, Ordering::SeqCst);
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let active = Arc::clone(&active);
        let registry = Arc::clone(&registry);
        let inflight = Arc::clone(&inflight);
        let limits = limits.clone();
        handles.push(thread::spawn(move || {
            handle_connection(stream, &service, &stop, &registry, local, &limits, &inflight);
            if let Ok(mut reg) = registry.lock() {
                reg.remove(&id);
            }
            active.fetch_sub(1, Ordering::SeqCst);
        }));
    }

    for handle in handles {
        let _ = handle.join();
    }
    if let Some(ticker) = ticker {
        let _ = ticker.join();
    }
    // Render under the read lock, write after releasing it: no thread
    // is still running here, but the final checkpoint follows the same
    // no-I/O-under-the-lock discipline as every other save.
    let save = lock_read(&service).pending_checkpoint();
    if let Some(save) = save {
        if let Err(e) = save.commit() {
            eprintln!("harmonyd: final checkpoint failed: {e}");
        }
    }
    Ok(())
}

/// Shared heartbeat between ticker incarnations and their supervisor.
/// Incarnations are identified by `generation`; bumping it supersedes
/// the current incarnation (it exits at its next check instead of
/// ticking again).
struct TickerShared {
    epoch: Instant,
    generation: AtomicU64,
    /// Milliseconds since `epoch` at which the in-progress tick started,
    /// or [`HEARTBEAT_IDLE`] between ticks.
    tick_started_ms: AtomicU64,
    /// Lifetime tick serial shared across incarnations, so chaos
    /// schedules (`panic_every`, `stall_every`) keep firing on the same
    /// cadence across restarts.
    serial: AtomicU64,
}

const HEARTBEAT_IDLE: u64 = u64::MAX;

/// The chaos harness's injected tick failure (`TickerChaos::panic_every`).
#[expect(
    clippy::panic,
    reason = "deliberate fault injection: the tick runs inside catch_unwind, and this panic exercises the watchdog restart path"
)]
fn injected_tick_panic(serial: u64) -> ! {
    panic!("chaos: injected tick panic #{serial}");
}

fn run_ticker_supervised(
    service: &Arc<RwLock<Service>>,
    stop: &Arc<AtomicBool>,
    period: Duration,
    watchdog: &WatchdogPolicy,
    chaos: &TickerChaos,
) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the watchdog's heartbeat is real time by definition: it detects a wedged ticker thread"
    )]
    let shared = Arc::new(TickerShared {
        epoch: Instant::now(),
        generation: AtomicU64::new(0),
        tick_started_ms: AtomicU64::new(HEARTBEAT_IDLE),
        serial: AtomicU64::new(0),
    });
    let deadline_ms = period.saturating_mul(watchdog.deadline_multiple.max(1)).as_millis() as u64;
    let mut restarts: u64 = 0;
    let mut handle = spawn_incarnation(service, stop, &shared, 0, period, chaos);
    loop {
        thread::sleep(Duration::from_millis(25));
        if stop.load(Ordering::SeqCst) {
            // Incarnations poll the stop flag between sleep slices, so
            // this join is prompt.
            let _ = handle.join();
            return;
        }
        if handle.is_finished() {
            let why = match handle.join() {
                // The current incarnation exits cleanly only on stop.
                Ok(Ok(())) => return,
                Ok(Err(message)) => message,
                Err(_) => "ticker thread died without a panic message".to_owned(),
            };
            restarts += 1;
            note_restart(service, &why);
            backoff_sleep(stop, backoff_delay(watchdog, restarts));
            if stop.load(Ordering::SeqCst) {
                return;
            }
            shared.tick_started_ms.store(HEARTBEAT_IDLE, Ordering::SeqCst);
            let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
            handle = spawn_incarnation(service, stop, &shared, generation, period, chaos);
            continue;
        }
        let started = shared.tick_started_ms.load(Ordering::SeqCst);
        if started != HEARTBEAT_IDLE {
            let now = shared.epoch.elapsed().as_millis() as u64;
            if now.saturating_sub(started) > deadline_ms {
                // Supersede the wedged incarnation: bump the generation
                // so it exits when (if) it comes back, detach its
                // handle, and start a fresh one. A tick wedged while
                // holding the service lock is only fully displaced once
                // it releases the lock — std cannot kill a thread.
                let why = format!(
                    "tick exceeded {}x the control period; superseding the wedged ticker",
                    watchdog.deadline_multiple
                );
                let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
                shared.tick_started_ms.store(HEARTBEAT_IDLE, Ordering::SeqCst);
                restarts += 1;
                note_restart(service, &why);
                backoff_sleep(stop, backoff_delay(watchdog, restarts));
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                handle = spawn_incarnation(service, stop, &shared, generation, period, chaos);
            }
        }
    }
}

/// Capped exponential backoff: `base × 2^(restarts−1)`, clamped to the
/// policy cap.
fn backoff_delay(watchdog: &WatchdogPolicy, restarts: u64) -> Duration {
    let exponent = restarts.saturating_sub(1).min(10) as u32;
    watchdog.backoff_base.saturating_mul(1u32 << exponent).min(watchdog.backoff_cap)
}

fn backoff_sleep(stop: &AtomicBool, delay: Duration) {
    let slice = Duration::from_millis(25);
    let mut waited = Duration::ZERO;
    while waited < delay && !stop.load(Ordering::SeqCst) {
        let step = slice.min(delay - waited);
        thread::sleep(step);
        waited += step;
    }
}

/// Counts a ticker restart and records it on the service for `status`.
/// Uses `try_write`, never `write`: a wedged tick may still hold the
/// write lock, and the watchdog must never block behind it.
fn note_restart(service: &RwLock<Service>, why: &str) {
    telemetry::global().counter(keys::SERVER_TICKER_RESTARTS).inc();
    eprintln!("harmonyd: ticker restart: {why}");
    match service.try_write() {
        Ok(mut svc) => svc.note_ticker_restart(why),
        Err(std::sync::TryLockError::Poisoned(poisoned)) => {
            poisoned.into_inner().note_ticker_restart(why);
        }
        Err(std::sync::TryLockError::WouldBlock) => {}
    }
}

fn spawn_incarnation(
    service: &Arc<RwLock<Service>>,
    stop: &Arc<AtomicBool>,
    shared: &Arc<TickerShared>,
    generation: u64,
    period: Duration,
    chaos: &TickerChaos,
) -> thread::JoinHandle<Result<(), String>> {
    let service = Arc::clone(service);
    let stop = Arc::clone(stop);
    let shared = Arc::clone(shared);
    let chaos = chaos.clone();
    thread::spawn(move || run_ticker(&service, &stop, &shared, generation, period, &chaos))
}

fn run_ticker(
    service: &RwLock<Service>,
    stop: &AtomicBool,
    shared: &TickerShared,
    generation: u64,
    period: Duration,
    chaos: &TickerChaos,
) -> Result<(), String> {
    let slice = Duration::from_millis(50);
    let superseded = || shared.generation.load(Ordering::SeqCst) != generation;
    loop {
        let mut waited = Duration::ZERO;
        while waited < period {
            if stop.load(Ordering::SeqCst) || superseded() {
                return Ok(());
            }
            let step = slice.min(period - waited);
            thread::sleep(step);
            waited += step;
        }
        let serial = shared.serial.fetch_add(1, Ordering::SeqCst) + 1;
        if superseded() {
            return Ok(());
        }
        // Heartbeat writes are generation-gated so a superseded
        // incarnation can never clobber its successor's heartbeat.
        shared.tick_started_ms.store(shared.epoch.elapsed().as_millis() as u64, Ordering::SeqCst);
        if let Some(every) = chaos.stall_every {
            if every > 0 && serial.is_multiple_of(every) {
                // Chaos stalls run OUTSIDE the service lock: the
                // watchdog supersedes a stalled tick, but std offers no
                // way to revoke a lock a truly wedged tick holds.
                let mut stalled = Duration::ZERO;
                while stalled < chaos.stall && !stop.load(Ordering::SeqCst) && !superseded() {
                    thread::sleep(Duration::from_millis(10));
                    stalled += Duration::from_millis(10);
                }
            }
        }
        if stop.load(Ordering::SeqCst) || superseded() {
            return Ok(());
        }
        let panic_now =
            chaos.panic_every.is_some_and(|every| every > 0 && serial.is_multiple_of(every));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if panic_now {
                injected_tick_panic(serial);
            }
            // Tick and render the checkpoint under the write lock;
            // commit the file write only after the guard drops, so a
            // slow disk never serializes request handlers behind it.
            let save = {
                let mut svc = lock_write(service);
                svc.tick_once();
                svc.pending_checkpoint()
            };
            if let Some(save) = save {
                if let Err(e) = save.commit() {
                    eprintln!("harmonyd: periodic checkpoint failed: {e}");
                }
            }
        }));
        if shared.generation.load(Ordering::SeqCst) == generation {
            shared.tick_started_ms.store(HEARTBEAT_IDLE, Ordering::SeqCst);
        }
        if let Err(payload) = outcome {
            return Err(panic_message(payload.as_ref()));
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "ticker panicked".to_owned()
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &RwLock<Service>,
    stop: &AtomicBool,
    registry: &Registry,
    local: SocketAddr,
    limits: &ConnectionLimits,
    inflight: &AtomicUsize,
) {
    // Socket-level deadlines back up the per-frame deadline: a client
    // that goes fully silent trips the OS timeout, while one that
    // dribbles bytes (resetting the OS timer each byte) trips the frame
    // deadline between chunks.
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        #[expect(
            clippy::disallowed_methods,
            reason = "a socket read deadline is real time; it bounds slow clients and never reaches a plan"
        )]
        let frame_deadline = Instant::now() + limits.read_timeout;
        let line = match read_line_deadline(&mut reader, frame_deadline) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                telemetry::global().counter(keys::SERVER_TIMEOUT_TOTAL).inc();
                let _ = write_line(&mut writer, &Response::timeout(e.to_string()));
                break;
            }
            Err(e) => {
                telemetry::global().counter(keys::SERVER_ERRORS).inc();
                let _ = write_line(&mut writer, &Response::bad_request(format!("bad frame: {e}")));
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request: Request = match serde_json::from_str(&line) {
            Ok(request) => request,
            Err(e) => {
                telemetry::global().counter(keys::SERVER_ERRORS).inc();
                let response = Response::bad_request(format!("bad request: {e}"));
                if write_line(&mut writer, &response).is_err() {
                    break;
                }
                continue;
            }
        };
        // Atomic counters: recorded here, before the service lock, so
        // concurrent connections never serialize on accounting.
        let metrics = telemetry::global();
        metrics.counter(keys::SERVER_REQUESTS).inc();
        metrics.counter(&format!("{}.{}", keys::SERVER_REQUESTS, request.verb())).inc();
        let is_shutdown = matches!(request, Request::Shutdown);
        let span = metrics.timer(keys::SERVER_REQUEST_SECONDS);
        let response = match request {
            // Cheap verbs answer even while the daemon sheds load:
            // `metrics` never touches the service lock, `status` only
            // takes the read lock, and `shutdown` must always land.
            Request::Metrics => Response::Metrics(MetricsBody::from(&metrics.snapshot())),
            Request::Status => Response::Status(lock_read(service).status_body()),
            Request::Shutdown => {
                let (response, save) = lock_write(service).handle_deferred(Request::Shutdown);
                commit_outside_lock(response, save)
            }
            request => match admit(inflight, limits.max_inflight) {
                None => {
                    metrics.counter(keys::SERVER_SHED_TOTAL).inc();
                    Response::overloaded(
                        limits.retry_after_ms,
                        format!("daemon at capacity ({} requests in flight)", limits.max_inflight),
                    )
                }
                Some(_slot) => {
                    // The write guard is a temporary: it drops at the
                    // end of this statement, before the checkpoint (if
                    // any) is committed to disk.
                    let (response, save) = lock_write(service).handle_deferred(request);
                    commit_outside_lock(response, save)
                }
            },
        };
        span.stop();
        if matches!(response, Response::Error { .. }) {
            metrics.counter(keys::SERVER_ERRORS).inc();
        }
        if write_line(&mut writer, &response).is_err() {
            break;
        }
        if is_shutdown {
            begin_shutdown(stop, registry, local);
            break;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Commits a deferred checkpoint (after the service guard has already
/// dropped — the guard is a temporary in the caller's statement) and
/// folds any write failure into the response.
fn commit_outside_lock(response: Response, save: Option<crate::service::PendingSave>) -> Response {
    match save {
        Some(save) => save.commit_into(response),
        None => response,
    }
}

/// Flips the stop flag, half-closes every registered socket so blocked
/// readers see EOF, and pokes the accept loop awake.
fn begin_shutdown(stop: &AtomicBool, registry: &Registry, local: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    // Snapshot the sockets under the registry lock, half-close them
    // after releasing it: shutdown() is syscall-cheap but still I/O,
    // and connection handlers take this lock on every connect/drop.
    let sockets: Vec<TcpStream> = match registry.lock() {
        Ok(reg) => reg.values().filter_map(|s| s.try_clone().ok()).collect(),
        Err(_) => Vec::new(),
    };
    for socket in &sockets {
        let _ = socket.shutdown(Shutdown::Both);
    }
    let _ = TcpStream::connect(local);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let policy = WatchdogPolicy {
            deadline_multiple: 4,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
        };
        assert_eq!(backoff_delay(&policy, 1), Duration::from_millis(250));
        assert_eq!(backoff_delay(&policy, 2), Duration::from_millis(500));
        assert_eq!(backoff_delay(&policy, 3), Duration::from_millis(1000));
        assert_eq!(backoff_delay(&policy, 6), Duration::from_secs(5), "capped");
        assert_eq!(backoff_delay(&policy, 60), Duration::from_secs(5), "exponent clamped");
    }

    #[test]
    fn panic_payloads_become_messages() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static str panic");
        assert_eq!(panic_message(boxed.as_ref()), "static str panic");
        let boxed: Box<dyn std::any::Any + Send> = Box::new("owned".to_owned());
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(boxed.as_ref()), "ticker panicked");
    }

    #[test]
    fn admission_sheds_at_the_high_water_mark_and_recovers() {
        let gauge = AtomicUsize::new(0);
        let first = admit(&gauge, 1).expect("first request admitted");
        assert!(admit(&gauge, 1).is_none(), "second concurrent request shed");
        drop(first);
        assert!(admit(&gauge, 1).is_some(), "slot freed on drop");
        assert_eq!(gauge.load(Ordering::SeqCst), 0, "rejected admits never leak");
    }

    #[test]
    fn default_limits_are_sane() {
        let limits = ConnectionLimits::default();
        assert_eq!(limits.max_connections, MAX_CONNECTIONS);
        assert!(limits.max_inflight >= 1);
        assert!(limits.read_timeout > Duration::ZERO);
        let options = ServeOptions::default();
        assert!(options.tick_period.is_none());
        assert!(options.chaos.panic_every.is_none());
    }
}
