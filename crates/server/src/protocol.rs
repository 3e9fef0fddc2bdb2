//! The `harmonyd` wire protocol: newline-delimited JSON over TCP.
//!
//! Each request is one JSON object on one line, tagged by a `verb`
//! field; each response is one JSON object on one line with an `ok`
//! boolean — `{"ok":false,"error":"..."}` on failure, or
//! `{"ok":true,"type":"<tag>",...}` with a type-specific body on
//! success. Lines are capped at [`MAX_LINE_BYTES`]; an over-long line is
//! a protocol error and closes the connection.
//!
//! The grammar (see DESIGN.md §8 for the prose version):
//!
//! ```text
//! request  = submit | get-plan | get-forecast | status | metrics
//!          | tick | drain-events | snapshot | shutdown
//! submit   = {"verb":"submit-observations","tasks":[Task...]}
//! get-plan = {"verb":"get-plan"}
//! forecast = {"verb":"get-forecast","horizon":N?}     (null/absent → config horizon)
//! status   = {"verb":"status"}
//! metrics  = {"verb":"metrics"}
//! tick     = {"verb":"tick"}
//! drain    = {"verb":"drain-events"}
//! snapshot = {"verb":"snapshot"}
//! shutdown = {"verb":"shutdown"}
//! ```
//!
//! Checkpoints and the wire protocol share one schema: the payload
//! types ([`harmony_model::Task`], [`harmony::rounding::IntegerPlan`],
//! [`harmony_sim::DegradationEvent`], [`harmony::monitor::ClassForecast`])
//! serialize identically in both.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::time::Instant;

use harmony::monitor::ClassForecast;
use harmony::rounding::IntegerPlan;
use harmony_model::Task;
use harmony_sim::DegradationEvent;
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

/// Hard cap on one protocol line (request or response), in bytes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Feed tasks observed since the last submission; they buffer until
    /// the next control tick consumes them as arrivals + backlog.
    SubmitObservations {
        /// The observed tasks.
        tasks: Vec<Task>,
    },
    /// The most recent provisioning plan.
    GetPlan,
    /// A per-class arrival forecast over `horizon` periods (`None` →
    /// the configured MPC horizon).
    GetForecast {
        /// Number of control periods to forecast.
        horizon: Option<usize>,
    },
    /// Daemon status counters.
    Status,
    /// A snapshot of the live telemetry registry (counters, gauges,
    /// stage-timing histograms).
    Metrics,
    /// Run one control tick now (also available on the daemon's
    /// background ticker).
    Tick,
    /// Drain accumulated degradation events.
    DrainEvents,
    /// Write a checkpoint now.
    Snapshot,
    /// Graceful shutdown: stop accepting, finish in-flight work, write a
    /// final checkpoint.
    Shutdown,
}

impl Request {
    /// The wire verb for this request.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::SubmitObservations { .. } => "submit-observations",
            Request::GetPlan => "get-plan",
            Request::GetForecast { .. } => "get-forecast",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Tick => "tick",
            Request::DrainEvents => "drain-events",
            Request::Snapshot => "snapshot",
            Request::Shutdown => "shutdown",
        }
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("verb".to_owned(), self.verb().to_value());
        match self {
            Request::SubmitObservations { tasks } => {
                map.insert("tasks".to_owned(), tasks.to_value());
            }
            Request::GetForecast { horizon } => {
                map.insert("horizon".to_owned(), horizon.to_value());
            }
            _ => {}
        }
        Value::Object(map)
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let verb = String::from_value(v.field("verb")?)?;
        match verb.as_str() {
            "submit-observations" => {
                Ok(Request::SubmitObservations { tasks: Vec::from_value(v.field("tasks")?)? })
            }
            "get-plan" => Ok(Request::GetPlan),
            "get-forecast" => Ok(Request::GetForecast {
                horizon: match v.get("horizon") {
                    Some(h) => Option::from_value(h)?,
                    None => None,
                },
            }),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "tick" => Ok(Request::Tick),
            "drain-events" => Ok(Request::DrainEvents),
            "snapshot" => Ok(Request::Snapshot),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(DeError::new(format!("unknown verb `{other}`"))),
        }
    }
}

/// Daemon status counters (the `status` response body).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusBody {
    /// Control ticks completed.
    pub ticks: u64,
    /// The logical clock in seconds (ticks × control period).
    pub now_secs: f64,
    /// Ticks that degraded instead of completing the full pipeline.
    pub errors: usize,
    /// Observations buffered for the next tick.
    pub buffered: usize,
    /// Observations accepted over the daemon's lifetime.
    pub total_observations: u64,
    /// Task classes in the fitted classifier.
    pub n_classes: usize,
    /// Machine types in the catalog.
    pub machine_types: usize,
    /// Total machine population.
    pub total_machines: usize,
    /// Degradation events awaiting `drain-events`.
    pub pending_events: usize,
    /// Whether a provisioning plan has been computed yet.
    pub has_plan: bool,
    /// Checkpoint path, when checkpointing is enabled.
    pub snapshot_path: Option<String>,
    /// Background-ticker restarts forced by the watchdog (absent in
    /// pre-watchdog daemons' status bodies).
    #[serde(default)]
    pub ticker_restarts: u64,
    /// Why the ticker was last restarted, if it ever was.
    #[serde(default)]
    pub ticker_last_error: Option<String>,
}

/// One histogram's wire form: raw bucket state plus derived summary
/// stats (precomputed so dashboards need no bucket math).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBody {
    /// Metric name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Estimated median (bucket upper bound).
    pub p50: f64,
    /// Estimated 99th percentile (bucket upper bound).
    pub p99: f64,
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the last entry is the overflow bucket.
    pub buckets: Vec<u64>,
}

impl From<&harmony_telemetry::HistogramSnapshot> for HistogramBody {
    fn from(h: &harmony_telemetry::HistogramSnapshot) -> Self {
        HistogramBody {
            name: h.name.clone(),
            count: h.count,
            sum: h.sum,
            mean: h.mean(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
            bounds: h.bounds.clone(),
            buckets: h.buckets.clone(),
        }
    }
}

/// The `metrics` response body: a point-in-time view of the daemon's
/// telemetry registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states, ordered by name.
    pub histograms: Vec<HistogramBody>,
}

impl From<&harmony_telemetry::Snapshot> for MetricsBody {
    fn from(snap: &harmony_telemetry::Snapshot) -> Self {
        MetricsBody {
            counters: snap.counters.clone(),
            gauges: snap.gauges.clone(),
            histograms: snap.histograms.iter().map(HistogramBody::from).collect(),
        }
    }
}

/// Why a request failed — carried on the wire so clients can react
/// mechanically (retry after a shed, reconnect after a timeout) instead
/// of parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame or request was malformed; fix the request.
    BadRequest,
    /// A read or write deadline expired; the daemon closes the
    /// connection after sending this.
    Timeout,
    /// Admission control shed the request before it touched any state;
    /// it is safe to retry after `retry_after_ms`.
    Overloaded {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The request was valid but the daemon failed to execute it.
    Internal,
}

impl ErrorKind {
    /// The wire tag for this kind.
    pub fn tag(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded { .. } => "overloaded",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A daemon response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; unless the kind is [`ErrorKind::Timeout`],
    /// the connection stays usable.
    Error {
        /// Why it failed, typed.
        kind: ErrorKind,
        /// What went wrong, for humans.
        message: String,
    },
    /// Observations accepted.
    Submitted {
        /// Tasks now buffered for the next tick.
        buffered: usize,
        /// Lifetime observation count.
        total: u64,
    },
    /// The current plan (`None` before the first successful tick).
    Plan {
        /// Ticks completed when the plan was produced.
        tick: u64,
        /// The plan, if one exists.
        plan: Option<IntegerPlan>,
    },
    /// A per-class forecast.
    Forecast {
        /// Horizon actually used.
        horizon: usize,
        /// One forecast per task class.
        classes: Vec<ClassForecast>,
    },
    /// Status counters.
    Status(StatusBody),
    /// Live telemetry snapshot.
    Metrics(MetricsBody),
    /// A control tick ran.
    Ticked {
        /// Ticks completed after this one.
        tick: u64,
        /// The plan it produced.
        plan: IntegerPlan,
    },
    /// Drained degradation events.
    Events {
        /// The events, oldest first.
        events: Vec<DegradationEvent>,
    },
    /// A checkpoint was written.
    Snapshotted {
        /// Where it landed.
        path: String,
        /// Its size in bytes.
        bytes: u64,
    },
    /// The daemon acknowledged a graceful shutdown.
    ShuttingDown,
}

impl Response {
    /// A malformed-input error.
    pub fn bad_request(message: impl Into<String>) -> Response {
        Response::Error { kind: ErrorKind::BadRequest, message: message.into() }
    }

    /// A deadline-expiry error.
    pub fn timeout(message: impl Into<String>) -> Response {
        Response::Error { kind: ErrorKind::Timeout, message: message.into() }
    }

    /// A load-shedding error with a retry hint.
    pub fn overloaded(retry_after_ms: u64, message: impl Into<String>) -> Response {
        Response::Error { kind: ErrorKind::Overloaded { retry_after_ms }, message: message.into() }
    }

    /// A daemon-side execution failure.
    pub fn internal(message: impl Into<String>) -> Response {
        Response::Error { kind: ErrorKind::Internal, message: message.into() }
    }

    /// The wire type tag (`None` for errors, which carry no tag).
    pub fn tag(&self) -> Option<&'static str> {
        match self {
            Response::Error { .. } => None,
            Response::Submitted { .. } => Some("submitted"),
            Response::Plan { .. } => Some("plan"),
            Response::Forecast { .. } => Some("forecast"),
            Response::Status(_) => Some("status"),
            Response::Metrics(_) => Some("metrics"),
            Response::Ticked { .. } => Some("ticked"),
            Response::Events { .. } => Some("events"),
            Response::Snapshotted { .. } => Some("snapshotted"),
            Response::ShuttingDown => Some("shutting-down"),
        }
    }
}

impl Serialize for Response {
    #[expect(
        clippy::unreachable,
        reason = "The Error arm of the match below is unreachable: that variant returns early at the top of the fn."
    )]
    fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        if let Response::Error { kind, message } = self {
            map.insert("ok".to_owned(), false.to_value());
            map.insert("kind".to_owned(), kind.tag().to_value());
            map.insert("error".to_owned(), message.to_value());
            if let ErrorKind::Overloaded { retry_after_ms } = kind {
                map.insert("retry_after_ms".to_owned(), retry_after_ms.to_value());
            }
            return Value::Object(map);
        }
        map.insert("ok".to_owned(), true.to_value());
        map.insert("type".to_owned(), self.tag().unwrap_or_default().to_value());
        match self {
            Response::Error { .. } => unreachable!("handled above"),
            Response::Submitted { buffered, total } => {
                map.insert("buffered".to_owned(), buffered.to_value());
                map.insert("total".to_owned(), total.to_value());
            }
            Response::Plan { tick, plan } => {
                map.insert("tick".to_owned(), tick.to_value());
                map.insert("plan".to_owned(), plan.to_value());
            }
            Response::Forecast { horizon, classes } => {
                map.insert("horizon".to_owned(), horizon.to_value());
                map.insert("classes".to_owned(), classes.to_value());
            }
            Response::Status(body) => {
                if let Value::Object(fields) = body.to_value() {
                    map.extend(fields);
                }
            }
            Response::Metrics(body) => {
                if let Value::Object(fields) = body.to_value() {
                    map.extend(fields);
                }
            }
            Response::Ticked { tick, plan } => {
                map.insert("tick".to_owned(), tick.to_value());
                map.insert("plan".to_owned(), plan.to_value());
            }
            Response::Events { events } => {
                map.insert("events".to_owned(), events.to_value());
            }
            Response::Snapshotted { path, bytes } => {
                map.insert("path".to_owned(), path.to_value());
                map.insert("bytes".to_owned(), bytes.to_value());
            }
            Response::ShuttingDown => {}
        }
        Value::Object(map)
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !bool::from_value(v.field("ok")?)? {
            // `kind` is absent in pre-resilience responses; default to
            // Internal so old daemons stay parseable.
            let kind = match v.get("kind") {
                None | Some(Value::Null) => ErrorKind::Internal,
                Some(tag) => match String::from_value(tag)?.as_str() {
                    "bad-request" => ErrorKind::BadRequest,
                    "timeout" => ErrorKind::Timeout,
                    "overloaded" => ErrorKind::Overloaded {
                        retry_after_ms: match v.get("retry_after_ms") {
                            Some(ms) => u64::from_value(ms)?,
                            None => 0,
                        },
                    },
                    "internal" => ErrorKind::Internal,
                    other => return Err(DeError::new(format!("unknown error kind `{other}`"))),
                },
            };
            return Ok(Response::Error { kind, message: String::from_value(v.field("error")?)? });
        }
        let tag = String::from_value(v.field("type")?)?;
        match tag.as_str() {
            "submitted" => Ok(Response::Submitted {
                buffered: usize::from_value(v.field("buffered")?)?,
                total: u64::from_value(v.field("total")?)?,
            }),
            "plan" => Ok(Response::Plan {
                tick: u64::from_value(v.field("tick")?)?,
                plan: Option::from_value(v.field("plan")?)?,
            }),
            "forecast" => Ok(Response::Forecast {
                horizon: usize::from_value(v.field("horizon")?)?,
                classes: Vec::from_value(v.field("classes")?)?,
            }),
            "status" => Ok(Response::Status(StatusBody::from_value(v)?)),
            "metrics" => Ok(Response::Metrics(MetricsBody::from_value(v)?)),
            "ticked" => Ok(Response::Ticked {
                tick: u64::from_value(v.field("tick")?)?,
                plan: IntegerPlan::from_value(v.field("plan")?)?,
            }),
            "events" => Ok(Response::Events { events: Vec::from_value(v.field("events")?)? }),
            "snapshotted" => Ok(Response::Snapshotted {
                path: String::from_value(v.field("path")?)?,
                bytes: u64::from_value(v.field("bytes")?)?,
            }),
            "shutting-down" => Ok(Response::ShuttingDown),
            other => Err(DeError::new(format!("unknown response type `{other}`"))),
        }
    }
}

/// Writes one message as a JSON line and flushes.
///
/// # Errors
///
/// Propagates writer failures; rejects messages over [`MAX_LINE_BYTES`].
pub fn write_line<W: Write, T: Serialize>(writer: &mut W, message: &T) -> io::Result<()> {
    let text = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if text.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message of {} bytes exceeds the {MAX_LINE_BYTES}-byte line cap", text.len()),
        ));
    }
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Reads one line, enforcing [`MAX_LINE_BYTES`]. Returns `None` on a
/// clean EOF.
///
/// # Errors
///
/// Propagates reader failures; an over-long line yields
/// [`io::ErrorKind::InvalidData`].
pub fn read_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    read_frame(reader, None)
}

/// Reads one line like [`read_line`], but gives up once `deadline`
/// passes. The deadline is checked between buffered chunks, so it also
/// catches a byte-dribbling sender that never lets the socket-level
/// read timeout fire; for it to bound a *silent* peer, the underlying
/// stream must additionally carry a `set_read_timeout` no longer than
/// the deadline.
///
/// # Errors
///
/// An expired deadline (or a socket read timeout surfacing as
/// `WouldBlock`/`TimedOut`) yields [`io::ErrorKind::TimedOut`]; an
/// over-long or non-UTF-8 line yields [`io::ErrorKind::InvalidData`].
pub fn read_line_deadline<R: BufRead>(
    reader: &mut R,
    deadline: Instant,
) -> io::Result<Option<String>> {
    read_frame(reader, Some(deadline))
}

fn read_frame<R: BufRead>(reader: &mut R, deadline: Option<Instant>) -> io::Result<Option<String>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (done, used) = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        if buf.is_empty() {
                            "idle deadline expired while waiting for a frame"
                        } else {
                            "read deadline expired mid-frame"
                        },
                    ));
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF: a clean boundary with nothing buffered, or the
                // final unterminated line.
                if buf.is_empty() {
                    return Ok(None);
                }
                (true, 0)
            } else {
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        buf.extend(chunk.iter().take(pos));
                        (true, pos + 1)
                    }
                    None => {
                        let n = chunk.len();
                        buf.extend_from_slice(chunk);
                        (false, n)
                    }
                }
            }
        };
        reader.consume(used);
        // The cap applies to frame content (the newline is excluded),
        // matching write_line's accept condition exactly.
        if buf.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line exceeds the {MAX_LINE_BYTES}-byte cap"),
            ));
        }
        if done {
            break;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the frame deadline is real time; it bounds slow clients and never reaches a plan"
        )]
        let expired = deadline.is_some_and(|deadline| Instant::now() >= deadline);
        if expired {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "read deadline expired mid-frame"));
        }
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line is not valid UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_telemetry::keys;

    /// Asserts that `value` writes exactly `json` and reads back from it.
    fn pin<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, json: &str) {
        let text = serde_json::to_string(value).unwrap();
        assert_eq!(text, json);
        assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value);
    }

    #[test]
    fn bodies_are_pinned() {
        let status = StatusBody {
            ticks: 3,
            now_secs: 1800.0,
            errors: 0,
            buffered: 2,
            total_observations: 40,
            n_classes: 5,
            machine_types: 4,
            total_machines: 100,
            pending_events: 1,
            has_plan: true,
            snapshot_path: None,
            ticker_restarts: 2,
            ticker_last_error: Some("stalled".to_owned()),
        };
        pin(
            &status,
            r#"{"buffered":2,"errors":0,"has_plan":true,"machine_types":4,"n_classes":5,"now_secs":1800,"pending_events":1,"snapshot_path":null,"ticker_last_error":"stalled","ticker_restarts":2,"ticks":3,"total_machines":100,"total_observations":40}"#,
        );
        let histogram = HistogramBody {
            name: "period_s".to_owned(),
            count: 2,
            sum: 0.75,
            mean: 0.375,
            p50: 0.5,
            p99: 1.0,
            bounds: vec![0.5, 1.0],
            buckets: vec![1, 1, 0],
        };
        pin(
            &histogram,
            r#"{"bounds":[5e-1,1],"buckets":[1,1,0],"count":2,"mean":3.75e-1,"name":"period_s","p50":5e-1,"p99":1,"sum":7.5e-1}"#,
        );
        let metrics = MetricsBody {
            counters: BTreeMap::from([("ticks".to_owned(), 3)]),
            gauges: BTreeMap::from([("in_flight".to_owned(), 0.5)]),
            histograms: vec![histogram],
        };
        pin(
            &metrics,
            r#"{"counters":{"ticks":3},"gauges":{"in_flight":5e-1},"histograms":[{"bounds":[5e-1,1],"buckets":[1,1,0],"count":2,"mean":3.75e-1,"name":"period_s","p50":5e-1,"p99":1,"sum":7.5e-1}]}"#,
        );
    }

    #[test]
    fn verbs_roundtrip_via_text() {
        let requests = vec![
            Request::GetPlan,
            Request::GetForecast { horizon: Some(6) },
            Request::GetForecast { horizon: None },
            Request::Status,
            Request::Metrics,
            Request::Tick,
            Request::DrainEvents,
            Request::Snapshot,
            Request::Shutdown,
            Request::SubmitObservations { tasks: Vec::new() },
        ];
        for req in requests {
            let text = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&text).unwrap();
            assert_eq!(back, req, "wire text: {text}");
        }
    }

    #[test]
    fn error_response_shape() {
        let resp = Response::bad_request("bad verb");
        let text = serde_json::to_string(&resp).unwrap();
        assert!(text.contains("\"ok\":false"), "{text}");
        assert!(text.contains("\"kind\":\"bad-request\""), "{text}");
        let back: Response = serde_json::from_str(&text).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn error_kinds_roundtrip() {
        for resp in [
            Response::bad_request("x"),
            Response::timeout("deadline expired"),
            Response::overloaded(250, "shed"),
            Response::internal("boom"),
        ] {
            let text = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&text).unwrap();
            assert_eq!(back, resp, "wire text: {text}");
        }
        // Overloaded carries its retry hint on the wire.
        let text = serde_json::to_string(&Response::overloaded(250, "shed")).unwrap();
        assert!(text.contains("\"retry_after_ms\":250"), "{text}");
        // A pre-resilience error without a kind still parses.
        let back: Response =
            serde_json::from_str("{\"ok\":false,\"error\":\"old daemon\"}").unwrap();
        assert_eq!(
            back,
            Response::Error { kind: ErrorKind::Internal, message: "old daemon".to_owned() }
        );
    }

    #[test]
    fn line_framing_enforces_cap() {
        let mut out = Vec::new();
        write_line(&mut out, &Request::Status).unwrap();
        assert!(out.ends_with(b"\n"));
        let mut reader = io::BufReader::new(&out[..]);
        assert_eq!(read_line(&mut reader).unwrap().unwrap(), "{\"verb\":\"status\"}");
        assert!(read_line(&mut reader).unwrap().is_none(), "EOF after one line");

        let long = vec![b'x'; MAX_LINE_BYTES + 10];
        let mut reader = io::BufReader::new(&long[..]);
        assert_eq!(read_line(&mut reader).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn metrics_response_roundtrips() {
        let registry = harmony_telemetry::Registry::new();
        registry.counter(keys::SERVER_REQUESTS).add(7);
        registry.gauge(keys::SIM_PENDING_PEAK).set(12.0);
        registry.timer(keys::PIPELINE_LP_SECONDS).stop();
        let body = MetricsBody::from(&registry.snapshot());
        assert_eq!(body.counters.get(keys::SERVER_REQUESTS), Some(&7));
        assert_eq!(body.histograms.len(), 1);
        assert_eq!(body.histograms[0].count, 1);

        let resp = Response::Metrics(body);
        let text = serde_json::to_string(&resp).unwrap();
        assert!(text.contains("\"type\":\"metrics\""), "{text}");
        let back: Response = serde_json::from_str(&text).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn empty_metrics_body_roundtrips() {
        let resp = Response::Metrics(MetricsBody::default());
        let text = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&text).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn missing_verb_rejected() {
        assert!(serde_json::from_str::<Request>("{}").is_err());
        assert!(serde_json::from_str::<Request>("{\"verb\":\"frobnicate\"}").is_err());
    }

    // ------------------------------------------------------------------
    // Adversarial framing: every malformed input must yield a typed
    // error (or skippable empty frame), never a panic or a hang.
    // ------------------------------------------------------------------

    #[test]
    fn line_exactly_at_cap_is_accepted_just_past_is_rejected() {
        // Exactly MAX content bytes + newline: legal (write_line would
        // have produced it).
        let mut exact = vec![b'y'; MAX_LINE_BYTES];
        exact.push(b'\n');
        let mut reader = io::BufReader::new(&exact[..]);
        let line = read_line(&mut reader).unwrap().unwrap();
        assert_eq!(line.len(), MAX_LINE_BYTES);

        // One byte more: typed InvalidData, not a hang.
        let mut over = vec![b'y'; MAX_LINE_BYTES + 1];
        over.push(b'\n');
        let mut reader = io::BufReader::new(&over[..]);
        assert_eq!(read_line(&mut reader).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_lines_and_interleaved_garbage_keep_the_stream_parseable() {
        let mut stream = Vec::new();
        write_line(&mut stream, &Request::Status).unwrap();
        stream.extend_from_slice(b"\n");
        stream.extend_from_slice(b"%%% not json at all {{{\n");
        write_line(&mut stream, &Request::Tick).unwrap();
        let mut reader = io::BufReader::new(&stream[..]);

        assert_eq!(read_line(&mut reader).unwrap().unwrap(), "{\"verb\":\"status\"}");
        assert_eq!(read_line(&mut reader).unwrap().unwrap(), "");
        let garbage = read_line(&mut reader).unwrap().unwrap();
        assert!(serde_json::from_str::<Request>(&garbage).is_err(), "typed parse error");
        assert_eq!(read_line(&mut reader).unwrap().unwrap(), "{\"verb\":\"tick\"}");
        assert!(read_line(&mut reader).unwrap().is_none());
    }

    #[test]
    fn utf8_split_across_reads_reassembles() {
        // A 1-byte BufReader forces every multi-byte char to arrive
        // split across fill_buf calls.
        let text = "héterogénéité ⚙ über alles";
        let mut framed = text.as_bytes().to_vec();
        framed.push(b'\n');
        let mut reader = io::BufReader::with_capacity(1, &framed[..]);
        assert_eq!(read_line(&mut reader).unwrap().unwrap(), text);
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let bytes = b"\xff\xfe garbage\n";
        let mut reader = io::BufReader::new(&bytes[..]);
        assert_eq!(read_line(&mut reader).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unterminated_final_line_is_returned_at_eof() {
        let bytes = b"{\"verb\":\"status\"}";
        let mut reader = io::BufReader::new(&bytes[..]);
        assert_eq!(read_line(&mut reader).unwrap().unwrap(), "{\"verb\":\"status\"}");
        assert!(read_line(&mut reader).unwrap().is_none());
    }

    #[test]
    fn deadline_reader_times_out_on_a_dribbled_frame() {
        use std::io::Read;

        // A reader that yields one byte per call and never finishes the
        // frame: the deadline check between chunks must fire.
        struct Dribble;
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                std::thread::sleep(std::time::Duration::from_millis(2));
                buf[0] = b'x';
                Ok(1)
            }
        }
        let mut reader = io::BufReader::with_capacity(1, Dribble);
        #[expect(clippy::disallowed_methods, reason = "the test drives a real-time deadline")]
        let deadline = Instant::now() + std::time::Duration::from_millis(30);
        let err = read_line_deadline(&mut reader, deadline).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn deadline_reader_maps_socket_timeouts_to_timed_out() {
        use std::io::Read;

        // A reader standing in for a socket whose read timeout expired.
        struct Silent;
        impl Read for Silent {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "no bytes"))
            }
        }
        let mut reader = io::BufReader::new(Silent);
        #[expect(clippy::disallowed_methods, reason = "the test drives a real-time deadline")]
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let err = read_line_deadline(&mut reader, deadline).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
