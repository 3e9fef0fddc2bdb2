//! Property tests: every wire message round-trips through its JSON line
//! encoding — `parse(render(msg)) == msg` for all request and response
//! variants, with arbitrary payloads.

use harmony::monitor::ClassForecast;
use harmony::rounding::IntegerPlan;
use harmony_model::{
    JobId, Priority, Resources, SchedulingClass, SimDuration, SimTime, Task, TaskId,
};
use harmony_server::protocol::{
    ErrorKind, HistogramBody, MetricsBody, Request, Response, StatusBody,
};
use harmony_sim::{DegradationEvent, DegradationKind, ForecastTier};
use proptest::prelude::*;

fn arb_task() -> impl Strategy<Value = Task> {
    (
        (0u64..1 << 32, 0u64..1 << 32),
        (0.0f64..1e6, 0.0f64..1e5),
        (0.0f64..1.0, 0.0f64..1.0),
        (0u8..12, 0u8..4),
    )
        .prop_map(|((id, job), (arrival, duration), (cpu, mem), (priority, sched))| Task {
            id: TaskId(id),
            job: JobId(job),
            arrival: SimTime::from_secs(arrival),
            duration: SimDuration::from_secs(duration),
            demand: Resources::new(cpu, mem),
            priority: Priority::new(priority).expect("in range"),
            sched_class: SchedulingClass::new(sched).expect("in range"),
        })
}

fn arb_plan() -> impl Strategy<Value = IntegerPlan> {
    (1usize..4, 1usize..4).prop_flat_map(|(types, classes)| {
        (
            prop::collection::vec(0usize..50, types),
            prop::collection::vec(prop::collection::vec(0usize..20, classes), types),
        )
            .prop_map(|(machines, quotas)| IntegerPlan { machines, quotas })
    })
}

fn arb_tier() -> impl Strategy<Value = ForecastTier> {
    prop::sample::select(vec![
        ForecastTier::Arima,
        ForecastTier::MovingAverage,
        ForecastTier::LastObservation,
    ])
}

fn arb_string() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec![
            "",
            "ARIMA refused to converge",
            "line\nbreak \"quoted\" \\slash",
            "unicode: héterogénéité ⚙",
            "tab\tand control\u{1}",
        ]),
        0u64..1000,
    )
        .prop_map(|(base, n)| format!("{base}#{n}"))
}

fn arb_degradation() -> impl Strategy<Value = DegradationEvent> {
    (0.0f64..1e6, (0usize..8, arb_tier(), 0usize..4), arb_string()).prop_map(
        |(at, (class, tier, pick), detail)| {
            let kind = match pick {
                0 => DegradationKind::ForecastFallback { class, tier },
                1 => DegradationKind::LpReusedPreviousPlan,
                2 => DegradationKind::LpGreedyFallback,
                _ => DegradationKind::ControlHold,
            };
            DegradationEvent { at: SimTime::from_secs(at), kind, detail }
        },
    )
}

fn arb_forecast() -> impl Strategy<Value = ClassForecast> {
    (prop::collection::vec(0.0f64..10.0, 1..6), arb_tier(), (any::<bool>(), arb_string())).prop_map(
        |(rates, tier, (degraded, why))| ClassForecast {
            rates,
            tier,
            degraded: degraded.then_some(why),
        },
    )
}

fn arb_status() -> impl Strategy<Value = StatusBody> {
    (
        (0u64..1 << 32, 0.0f64..1e9, 0usize..100, 0usize..10_000),
        (0u64..1 << 40, 1usize..20, 1usize..11, 0usize..100_000),
        (0usize..50, any::<bool>(), any::<bool>(), arb_string()),
        (0u64..100, any::<bool>(), arb_string()),
    )
        .prop_map(
            |(
                (ticks, now_secs, errors, buffered),
                (total_observations, n_classes, machine_types, total_machines),
                (pending_events, has_plan, has_path, path),
                (ticker_restarts, has_ticker_error, ticker_error),
            )| StatusBody {
                ticks,
                now_secs,
                errors,
                buffered,
                total_observations,
                n_classes,
                machine_types,
                total_machines,
                pending_events,
                has_plan,
                snapshot_path: has_path.then_some(path),
                ticker_restarts,
                ticker_last_error: has_ticker_error.then_some(ticker_error),
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0usize..9, prop::collection::vec(arb_task(), 0..4), (any::<bool>(), 1usize..50)).prop_map(
        |(pick, tasks, (some_horizon, horizon))| match pick {
            0 => Request::SubmitObservations { tasks },
            1 => Request::GetPlan,
            2 => Request::GetForecast { horizon: some_horizon.then_some(horizon) },
            3 => Request::Status,
            4 => Request::Tick,
            5 => Request::DrainEvents,
            6 => Request::Snapshot,
            7 => Request::Metrics,
            _ => Request::Shutdown,
        },
    )
}

fn arb_histogram() -> impl Strategy<Value = HistogramBody> {
    ((arb_string(), 0u64..1 << 32, 0.0f64..1e6), (0.0f64..1e3, 0.0f64..1e3, 0.0f64..1e3), 1usize..6)
        .prop_flat_map(|((name, count, sum), (mean, p50, p99), n_bounds)| {
            (
                prop::collection::vec(0.0f64..100.0, n_bounds),
                prop::collection::vec(0u64..1 << 20, n_bounds + 1),
            )
                .prop_map(move |(mut bounds, buckets)| {
                    bounds.sort_by(f64::total_cmp);
                    HistogramBody {
                        name: name.clone(),
                        count,
                        sum,
                        mean,
                        p50,
                        p99,
                        bounds,
                        buckets,
                    }
                })
        })
}

fn arb_metrics() -> impl Strategy<Value = MetricsBody> {
    (
        prop::collection::vec((arb_string(), 0u64..1 << 40), 0..5),
        prop::collection::vec((arb_string(), 0.0f64..1e9), 0..5),
        prop::collection::vec(arb_histogram(), 0..3),
    )
        .prop_map(|(counters, gauges, histograms)| MetricsBody {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms,
        })
}

fn arb_error_kind() -> impl Strategy<Value = ErrorKind> {
    (0usize..4, 0u64..100_000).prop_map(|(pick, retry)| match pick {
        0 => ErrorKind::BadRequest,
        1 => ErrorKind::Timeout,
        2 => ErrorKind::Overloaded { retry_after_ms: retry },
        _ => ErrorKind::Internal,
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        (0usize..10, (arb_string(), arb_error_kind()), arb_status()),
        (0u64..1 << 32, any::<bool>(), arb_plan()),
        (1usize..50, prop::collection::vec(arb_forecast(), 0..4)),
        (prop::collection::vec(arb_degradation(), 0..4), 0u64..1 << 32),
        arb_metrics(),
    )
        .prop_map(
            |(
                (pick, (text, kind), status),
                (tick, has_plan, plan),
                (horizon, classes),
                (events, bytes),
                metrics,
            )| match pick {
                0 => Response::Error { kind, message: text },
                1 => Response::Submitted { buffered: horizon, total: tick },
                2 => Response::Plan { tick, plan: has_plan.then_some(plan) },
                3 => Response::Forecast { horizon, classes },
                4 => Response::Status(status),
                5 => Response::Ticked { tick, plan },
                6 => Response::Events { events },
                7 => Response::Snapshotted { path: text, bytes },
                8 => Response::Metrics(metrics),
                _ => Response::ShuttingDown,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_roundtrip(request in arb_request()) {
        let text = serde_json::to_string(&request).expect("render");
        prop_assert!(!text.contains('\n'), "one line: {text}");
        let back: Request = serde_json::from_str(&text).expect("parse");
        prop_assert_eq!(back, request);
    }

    #[test]
    fn responses_roundtrip(response in arb_response()) {
        let text = serde_json::to_string(&response).expect("render");
        prop_assert!(!text.contains('\n'), "one line: {text}");
        let back: Response = serde_json::from_str(&text).expect("parse");
        prop_assert_eq!(back, response);
    }

    #[test]
    fn responses_carry_the_ok_discriminator(response in arb_response()) {
        let text = serde_json::to_string(&response).expect("render");
        match response {
            Response::Error { .. } => prop_assert!(text.contains("\"ok\":false"), "{text}"),
            _ => prop_assert!(text.contains("\"ok\":true"), "{text}"),
        }
    }

    #[test]
    fn framed_messages_survive_the_wire(request in arb_request()) {
        let mut wire = Vec::new();
        harmony_server::protocol::write_line(&mut wire, &request).expect("frame");
        let mut reader = std::io::BufReader::new(&wire[..]);
        let line = harmony_server::protocol::read_line(&mut reader)
            .expect("read")
            .expect("one line");
        let back: Request = serde_json::from_str(&line).expect("parse");
        prop_assert_eq!(back, request);
    }
}
