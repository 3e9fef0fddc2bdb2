//! Blocking client library for `harmonyd`.
//!
//! One request/response round-trip per call, over the same
//! newline-delimited JSON frames the daemon speaks. `harmonyctl` and
//! the end-to-end tests are both built on [`Client`].
//!
//! When the daemon sheds load (`Error{kind: overloaded}`) or refuses a
//! connection, callers can retry under a [`RetryPolicy`]: capped
//! exponential backoff with *deterministic* decorrelated jitter, so a
//! thundering herd of clients spreads out yet any given seed replays an
//! identical schedule (the property the chaos harness asserts).

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use harmony::monitor::ClassForecast;
use harmony::rounding::IntegerPlan;
use harmony_model::{SplitMix64, Task};
use harmony_sim::DegradationEvent;

use crate::protocol::{read_line, write_line, ErrorKind, Request, Response, StatusBody};

/// Retry behavior for connecting and for `overloaded` responses.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// First backoff delay.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Jitter seed; a fixed seed yields a fixed schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The deterministic delay schedule this policy produces: one delay
    /// per retry (`attempts − 1` entries).
    pub fn schedule(&self) -> RetrySchedule {
        RetrySchedule {
            rng: SplitMix64::new(self.seed),
            prev: self.base,
            base: self.base,
            cap: self.cap,
            remaining: self.attempts.saturating_sub(1),
        }
    }
}

/// Iterator over a [`RetryPolicy`]'s backoff delays (decorrelated
/// jitter: `d = min(cap, base + U(0,1)·(3·prev − base))`).
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    rng: SplitMix64,
    prev: Duration,
    base: Duration,
    cap: Duration,
    remaining: u32,
}

impl Iterator for RetrySchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let spread = (self.prev.saturating_mul(3)).saturating_sub(self.base);
        let jittered = self.base + spread.mul_f64(self.rng.next_f64());
        let delay = jittered.min(self.cap);
        self.prev = delay;
        Some(delay)
    }
}

/// A connected `harmonyd` client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn unexpected(response: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        match response {
            Response::Error { kind, message } => {
                format!("daemon error ({}): {message}", kind.tag())
            }
            other => format!("unexpected response: {other:?}"),
        },
    )
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Connects to a daemon, retrying connection failures on the
    /// policy's deterministic backoff schedule.
    ///
    /// # Errors
    ///
    /// Returns the last connection error once every attempt is spent.
    pub fn connect_with_retry<A: ToSocketAddrs>(addr: A, policy: &RetryPolicy) -> io::Result<Self> {
        let mut schedule = policy.schedule();
        loop {
            match Client::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => match schedule.next() {
                    Some(delay) => std::thread::sleep(delay),
                    None => return Err(e),
                },
            }
        }
    }

    /// Sends one request, retrying typed `overloaded` responses on the
    /// policy's backoff schedule (honoring the daemon's `retry_after_ms`
    /// hint when it exceeds the jittered delay). Other errors — including
    /// other error kinds — return immediately: only shedding is known to
    /// happen *before* any state mutation, so only shedding is safe to
    /// blindly retry.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; returns the final `overloaded` response
    /// once every attempt is spent.
    pub fn request_with_retry(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
    ) -> io::Result<Response> {
        let mut schedule = policy.schedule();
        loop {
            let response = self.request(request)?;
            let retry_after_ms = match &response {
                Response::Error { kind: ErrorKind::Overloaded { retry_after_ms }, .. } => {
                    *retry_after_ms
                }
                _ => return Ok(response),
            };
            match schedule.next() {
                Some(delay) => {
                    std::thread::sleep(delay.max(Duration::from_millis(retry_after_ms)));
                }
                None => return Ok(response),
            }
        }
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a closed connection yields
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_line(&mut self.writer, request)?;
        let line = read_line(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })?;
        serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Submits observations; returns (buffered, lifetime total).
    ///
    /// # Errors
    ///
    /// I/O failures or a daemon-side error response.
    pub fn submit(&mut self, tasks: Vec<Task>) -> io::Result<(usize, u64)> {
        match self.request(&Request::SubmitObservations { tasks })? {
            Response::Submitted { buffered, total } => Ok((buffered, total)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the current plan (None before the first tick). Called by
    /// the server's end-to-end tests (`tests/e2e.rs`).
    ///
    /// # Errors
    ///
    /// I/O failures or a daemon-side error response.
    pub fn get_plan(&mut self) -> io::Result<(u64, Option<IntegerPlan>)> {
        match self.request(&Request::GetPlan)? {
            Response::Plan { tick, plan } => Ok((tick, plan)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches per-class forecasts over `horizon` periods (daemon
    /// default when `None`). Called by the server's end-to-end tests
    /// (`tests/e2e.rs`).
    ///
    /// # Errors
    ///
    /// I/O failures or a daemon-side error response.
    pub fn get_forecast(&mut self, horizon: Option<usize>) -> io::Result<Vec<ClassForecast>> {
        match self.request(&Request::GetForecast { horizon })? {
            Response::Forecast { classes, .. } => Ok(classes),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches daemon status.
    ///
    /// # Errors
    ///
    /// I/O failures or a daemon-side error response.
    pub fn status(&mut self) -> io::Result<StatusBody> {
        match self.request(&Request::Status)? {
            Response::Status(body) => Ok(body),
            other => Err(unexpected(&other)),
        }
    }

    /// Forces one control period now; returns (tick, actuated plan).
    ///
    /// # Errors
    ///
    /// I/O failures or a daemon-side error response.
    pub fn tick(&mut self) -> io::Result<(u64, IntegerPlan)> {
        match self.request(&Request::Tick)? {
            Response::Ticked { tick, plan } => Ok((tick, plan)),
            other => Err(unexpected(&other)),
        }
    }

    /// Drains accumulated degradation events. Called by the server's
    /// end-to-end tests (`tests/e2e.rs`).
    ///
    /// # Errors
    ///
    /// I/O failures or a daemon-side error response.
    pub fn drain_events(&mut self) -> io::Result<Vec<DegradationEvent>> {
        match self.request(&Request::DrainEvents)? {
            Response::Events { events } => Ok(events),
            other => Err(unexpected(&other)),
        }
    }

    /// Forces a checkpoint; returns (path, bytes written).
    ///
    /// # Errors
    ///
    /// I/O failures or a daemon-side error response (e.g. no snapshot
    /// path configured).
    pub fn snapshot(&mut self) -> io::Result<(String, u64)> {
        match self.request(&Request::Snapshot)? {
            Response::Snapshotted { path, bytes } => Ok((path, bytes)),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// I/O failures or a daemon-side error response.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_schedule_is_deterministic_for_a_seed() {
        let policy = RetryPolicy { attempts: 6, seed: 42, ..RetryPolicy::default() };
        let a: Vec<Duration> = policy.schedule().collect();
        let b: Vec<Duration> = policy.schedule().collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5, "attempts − 1 delays");
        let other = RetryPolicy { seed: 43, ..policy };
        let c: Vec<Duration> = other.schedule().collect();
        assert_ne!(a[..c.len().min(a.len())], c[..], "different seed, different jitter");
    }

    #[test]
    fn retry_schedule_respects_base_and_cap() {
        let policy = RetryPolicy {
            attempts: 32,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(400),
            seed: 7,
        };
        let delays: Vec<Duration> = policy.schedule().collect();
        assert_eq!(delays.len(), 31);
        for d in &delays {
            assert!(*d >= policy.base, "never below base: {d:?}");
            assert!(*d <= policy.cap, "never above cap: {d:?}");
        }
        // Decorrelated jitter must actually spread: with 31 draws the
        // odds of all delays landing identical are astronomically low.
        assert!(delays.windows(2).any(|w| w[0] != w[1]), "{delays:?}");
    }

    #[test]
    fn single_attempt_policy_never_sleeps() {
        let policy = RetryPolicy { attempts: 1, ..RetryPolicy::default() };
        assert_eq!(policy.schedule().count(), 0);
        let policy = RetryPolicy { attempts: 0, ..RetryPolicy::default() };
        assert_eq!(policy.schedule().count(), 0);
    }
}
