//! Hand-written serde impls for the simulator types that cross a
//! serialization boundary: degradation/fault events (daemon wire
//! protocol + checkpoints), fault plans (replay checkpoints), and the
//! full [`SimReport`] (bit-identical resume verification, JSON bench
//! artifacts).
//!
//! The vendored `serde` stand-in has no derive machinery (its derive
//! macros are no-ops), so every type is implemented explicitly here.
//! Encodings follow what the upstream derives would produce: structs are
//! objects keyed by field name, unit enum variants are strings, and
//! data-carrying variants are externally tagged
//! (`{"VariantName": {fields...}}`).

use harmony_model::SimTime;
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

use crate::controller::{DegradationEvent, DegradationKind, ForecastTier};
use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultRecordKind};
use crate::machine::MachineId;
use crate::metrics::{DelayStats, SimReport, TimePoint};

impl Serialize for MachineId {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for MachineId {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        usize::from_value(v).map(MachineId)
    }
}

/// Builds an externally-tagged enum variant: `{"Tag": payload}`.
fn tagged(tag: &str, payload: Value) -> Value {
    Value::object(&[(tag, payload)])
}

/// Splits an externally-tagged variant into its tag and payload.
/// Unit variants arrive as plain strings and yield a `Null` payload.
fn untag(v: &Value) -> Result<(&str, &Value), DeError> {
    match v {
        Value::String(tag) => Ok((tag.as_str(), &Value::Null)),
        Value::Object(map) if map.len() == 1 => {
            let (tag, payload) = map
                .iter()
                .next()
                .ok_or_else(|| DeError::new("empty variant"))?;
            Ok((tag.as_str(), payload))
        }
        _ => Err(DeError::new(
            "expected an enum variant (string or single-key object)",
        )),
    }
}

impl Serialize for ForecastTier {
    fn to_value(&self) -> Value {
        match self {
            ForecastTier::Arima => "Arima",
            ForecastTier::MovingAverage => "MovingAverage",
            ForecastTier::LastObservation => "LastObservation",
        }
        .to_value()
    }
}

impl Deserialize for ForecastTier {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_str() {
            Some("Arima") => Ok(ForecastTier::Arima),
            Some("MovingAverage") => Ok(ForecastTier::MovingAverage),
            Some("LastObservation") => Ok(ForecastTier::LastObservation),
            _ => Err(DeError::new("unknown ForecastTier")),
        }
    }
}

impl Serialize for DegradationKind {
    fn to_value(&self) -> Value {
        match self {
            DegradationKind::ForecastFallback { class, tier } => tagged(
                "ForecastFallback",
                Value::object(&[("class", class.to_value()), ("tier", tier.to_value())]),
            ),
            DegradationKind::LpReusedPreviousPlan => "LpReusedPreviousPlan".to_value(),
            DegradationKind::LpGreedyFallback => "LpGreedyFallback".to_value(),
            DegradationKind::ControlHold => "ControlHold".to_value(),
        }
    }
}

impl Deserialize for DegradationKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (tag, payload) = untag(v)?;
        match tag {
            "ForecastFallback" => Ok(DegradationKind::ForecastFallback {
                class: usize::from_value(payload.field("class")?)?,
                tier: ForecastTier::from_value(payload.field("tier")?)?,
            }),
            "LpReusedPreviousPlan" => Ok(DegradationKind::LpReusedPreviousPlan),
            "LpGreedyFallback" => Ok(DegradationKind::LpGreedyFallback),
            "ControlHold" => Ok(DegradationKind::ControlHold),
            other => Err(DeError::new(format!("unknown DegradationKind `{other}`"))),
        }
    }
}

impl Serialize for DegradationEvent {
    fn to_value(&self) -> Value {
        Value::object(&[
            ("at", self.at.to_value()),
            ("kind", self.kind.to_value()),
            ("detail", self.detail.to_value()),
        ])
    }
}

impl Deserialize for DegradationEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(DegradationEvent {
            at: SimTime::from_value(v.field("at")?)?,
            kind: DegradationKind::from_value(v.field("kind")?)?,
            detail: String::from_value(v.field("detail")?)?,
        })
    }
}

impl Serialize for FaultKind {
    fn to_value(&self) -> Value {
        match self {
            FaultKind::MachineCrash { down } => {
                tagged("MachineCrash", Value::object(&[("down", down.to_value())]))
            }
            FaultKind::SlowBoot { factor, duration } => tagged(
                "SlowBoot",
                Value::object(&[
                    ("factor", factor.to_value()),
                    ("duration", duration.to_value()),
                ]),
            ),
            FaultKind::TaskEviction { count } => {
                tagged("TaskEviction", Value::object(&[("count", count.to_value())]))
            }
            FaultKind::ArrivalBurst { window } => {
                tagged("ArrivalBurst", Value::object(&[("window", window.to_value())]))
            }
            FaultKind::SpotEviction { machine_type, count, down } => tagged(
                "SpotEviction",
                Value::object(&[
                    ("machine_type", machine_type.to_value()),
                    ("count", count.to_value()),
                    ("down", down.to_value()),
                ]),
            ),
        }
    }
}

impl Deserialize for FaultKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (tag, payload) = untag(v)?;
        match tag {
            "MachineCrash" => Ok(FaultKind::MachineCrash {
                down: Deserialize::from_value(payload.field("down")?)?,
            }),
            "SlowBoot" => Ok(FaultKind::SlowBoot {
                factor: f64::from_value(payload.field("factor")?)?,
                duration: Deserialize::from_value(payload.field("duration")?)?,
            }),
            "TaskEviction" => Ok(FaultKind::TaskEviction {
                count: usize::from_value(payload.field("count")?)?,
            }),
            "ArrivalBurst" => Ok(FaultKind::ArrivalBurst {
                window: Deserialize::from_value(payload.field("window")?)?,
            }),
            "SpotEviction" => Ok(FaultKind::SpotEviction {
                machine_type: Deserialize::from_value(payload.field("machine_type")?)?,
                count: usize::from_value(payload.field("count")?)?,
                down: Deserialize::from_value(payload.field("down")?)?,
            }),
            other => Err(DeError::new(format!("unknown FaultKind `{other}`"))),
        }
    }
}

impl Serialize for FaultEvent {
    fn to_value(&self) -> Value {
        Value::object(&[("at", self.at.to_value()), ("kind", self.kind.to_value())])
    }
}

impl Deserialize for FaultEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(FaultEvent {
            at: SimTime::from_value(v.field("at")?)?,
            kind: FaultKind::from_value(v.field("kind")?)?,
        })
    }
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> Value {
        let events = Value::Array(self.events().iter().map(Serialize::to_value).collect());
        Value::object(&[("seed", self.seed().to_value()), ("events", events)])
    }
}

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let seed = u64::from_value(v.field("seed")?)?;
        let events = Vec::<FaultEvent>::from_value(v.field("events")?)?;
        let mut plan = FaultPlan::new(seed);
        for ev in events {
            plan = plan.with_event(ev.at, ev.kind);
        }
        Ok(plan)
    }
}

impl Serialize for FaultRecordKind {
    fn to_value(&self) -> Value {
        match self {
            FaultRecordKind::MachineCrash {
                machine,
                evicted,
                failed,
            } => tagged(
                "MachineCrash",
                Value::object(&[
                    ("machine", machine.to_value()),
                    ("evicted", evicted.to_value()),
                    ("failed", failed.to_value()),
                ]),
            ),
            FaultRecordKind::MachineRecovered { machine } => tagged(
                "MachineRecovered",
                Value::object(&[("machine", machine.to_value())]),
            ),
            FaultRecordKind::SlowBootStart { factor } => {
                tagged("SlowBootStart", Value::object(&[("factor", factor.to_value())]))
            }
            FaultRecordKind::SlowBootEnd => "SlowBootEnd".to_value(),
            FaultRecordKind::TaskEviction { evicted, failed } => tagged(
                "TaskEviction",
                Value::object(&[
                    ("evicted", evicted.to_value()),
                    ("failed", failed.to_value()),
                ]),
            ),
            FaultRecordKind::ArrivalBurst { tasks_warped } => tagged(
                "ArrivalBurst",
                Value::object(&[("tasks_warped", tasks_warped.to_value())]),
            ),
            FaultRecordKind::SpotEviction {
                machine_type,
                machines,
                evicted,
                failed,
            } => tagged(
                "SpotEviction",
                Value::object(&[
                    ("machine_type", machine_type.to_value()),
                    ("machines", machines.to_value()),
                    ("evicted", evicted.to_value()),
                    ("failed", failed.to_value()),
                ]),
            ),
        }
    }
}

impl Deserialize for FaultRecordKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (tag, payload) = untag(v)?;
        match tag {
            "MachineCrash" => Ok(FaultRecordKind::MachineCrash {
                machine: MachineId::from_value(payload.field("machine")?)?,
                evicted: usize::from_value(payload.field("evicted")?)?,
                failed: usize::from_value(payload.field("failed")?)?,
            }),
            "MachineRecovered" => Ok(FaultRecordKind::MachineRecovered {
                machine: MachineId::from_value(payload.field("machine")?)?,
            }),
            "SlowBootStart" => Ok(FaultRecordKind::SlowBootStart {
                factor: f64::from_value(payload.field("factor")?)?,
            }),
            "SlowBootEnd" => Ok(FaultRecordKind::SlowBootEnd),
            "TaskEviction" => Ok(FaultRecordKind::TaskEviction {
                evicted: usize::from_value(payload.field("evicted")?)?,
                failed: usize::from_value(payload.field("failed")?)?,
            }),
            "ArrivalBurst" => Ok(FaultRecordKind::ArrivalBurst {
                tasks_warped: usize::from_value(payload.field("tasks_warped")?)?,
            }),
            "SpotEviction" => Ok(FaultRecordKind::SpotEviction {
                machine_type: Deserialize::from_value(payload.field("machine_type")?)?,
                machines: usize::from_value(payload.field("machines")?)?,
                evicted: usize::from_value(payload.field("evicted")?)?,
                failed: usize::from_value(payload.field("failed")?)?,
            }),
            other => Err(DeError::new(format!("unknown FaultRecordKind `{other}`"))),
        }
    }
}

impl Serialize for FaultRecord {
    fn to_value(&self) -> Value {
        Value::object(&[("at", self.at.to_value()), ("kind", self.kind.to_value())])
    }
}

impl Deserialize for FaultRecord {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(FaultRecord {
            at: SimTime::from_value(v.field("at")?)?,
            kind: FaultRecordKind::from_value(v.field("kind")?)?,
        })
    }
}

impl Serialize for TimePoint {
    fn to_value(&self) -> Value {
        Value::object(&[
            ("time", self.time.to_value()),
            ("power_watts", self.power_watts.to_value()),
            ("active_per_type", self.active_per_type.to_value()),
            ("used_per_type", self.used_per_type.to_value()),
            ("pending_tasks", self.pending_tasks.to_value()),
        ])
    }
}

impl Deserialize for TimePoint {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(TimePoint {
            time: SimTime::from_value(v.field("time")?)?,
            power_watts: f64::from_value(v.field("power_watts")?)?,
            active_per_type: Vec::from_value(v.field("active_per_type")?)?,
            used_per_type: Vec::from_value(v.field("used_per_type")?)?,
            pending_tasks: usize::from_value(v.field("pending_tasks")?)?,
        })
    }
}

impl Serialize for DelayStats {
    fn to_value(&self) -> Value {
        Value::object(&[
            ("count", self.count.to_value()),
            ("mean", self.mean.to_value()),
            ("p50", self.p50.to_value()),
            ("p90", self.p90.to_value()),
            ("p95", self.p95.to_value()),
            ("p99", self.p99.to_value()),
            ("max", self.max.to_value()),
            ("immediate_fraction", self.immediate_fraction.to_value()),
        ])
    }
}

impl Deserialize for DelayStats {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(DelayStats {
            count: usize::from_value(v.field("count")?)?,
            mean: f64::from_value(v.field("mean")?)?,
            p50: f64::from_value(v.field("p50")?)?,
            p90: f64::from_value(v.field("p90")?)?,
            p95: f64::from_value(v.field("p95")?)?,
            p99: f64::from_value(v.field("p99")?)?,
            max: f64::from_value(v.field("max")?)?,
            immediate_fraction: f64::from_value(v.field("immediate_fraction")?)?,
        })
    }
}

impl Serialize for SimReport {
    fn to_value(&self) -> Value {
        Value::object(&[
            (
                "delays_by_group",
                Value::Array(
                    self.delays_by_group
                        .iter()
                        .map(Serialize::to_value)
                        .collect(),
                ),
            ),
            ("tasks_completed", self.tasks_completed.to_value()),
            ("tasks_running_at_end", self.tasks_running_at_end.to_value()),
            ("tasks_pending_at_end", self.tasks_pending_at_end.to_value()),
            ("tasks_unschedulable", self.tasks_unschedulable.to_value()),
            ("tasks_failed", self.tasks_failed.to_value()),
            ("total_energy_wh", self.total_energy_wh.to_value()),
            ("energy_cost_dollars", self.energy_cost_dollars.to_value()),
            ("switch_count", self.switch_count.to_value()),
            ("switch_cost_dollars", self.switch_cost_dollars.to_value()),
            ("migrations", self.migrations.to_value()),
            ("evictions", self.evictions.to_value()),
            ("faults", self.faults.to_value()),
            ("degradations", self.degradations.to_value()),
            ("series", self.series.to_value()),
        ])
    }
}

impl Deserialize for SimReport {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let groups = Vec::<Vec<f64>>::from_value(v.field("delays_by_group")?)?;
        let delays_by_group: [Vec<f64>; 3] = groups
            .try_into()
            .map_err(|_| DeError::new("delays_by_group must have exactly 3 groups"))?;
        Ok(SimReport {
            delays_by_group,
            tasks_completed: usize::from_value(v.field("tasks_completed")?)?,
            tasks_running_at_end: usize::from_value(v.field("tasks_running_at_end")?)?,
            tasks_pending_at_end: usize::from_value(v.field("tasks_pending_at_end")?)?,
            tasks_unschedulable: usize::from_value(v.field("tasks_unschedulable")?)?,
            tasks_failed: usize::from_value(v.field("tasks_failed")?)?,
            total_energy_wh: f64::from_value(v.field("total_energy_wh")?)?,
            energy_cost_dollars: f64::from_value(v.field("energy_cost_dollars")?)?,
            switch_count: usize::from_value(v.field("switch_count")?)?,
            switch_cost_dollars: f64::from_value(v.field("switch_cost_dollars")?)?,
            migrations: usize::from_value(v.field("migrations")?)?,
            evictions: usize::from_value(v.field("evictions")?)?,
            faults: Vec::from_value(v.field("faults")?)?,
            degradations: Vec::from_value(v.field("degradations")?)?,
            series: Vec::from_value(v.field("series")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::SimDuration;

    #[test]
    fn degradation_event_roundtrip() {
        let events = vec![
            DegradationEvent {
                at: SimTime::from_secs(600.0),
                kind: DegradationKind::ForecastFallback {
                    class: 3,
                    tier: ForecastTier::MovingAverage,
                },
                detail: "ARIMA failed: singular".to_owned(),
            },
            DegradationEvent {
                at: SimTime::ZERO,
                kind: DegradationKind::ControlHold,
                detail: String::new(),
            },
        ];
        for ev in &events {
            let back = DegradationEvent::from_value(&ev.to_value()).unwrap();
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn fault_plan_roundtrip_preserves_seed_and_events() {
        let plan = FaultPlan::scenario("mixed", 77, SimDuration::from_hours(4.0)).unwrap();
        let back = FaultPlan::from_value(&plan.to_value()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn spot_eviction_kind_roundtrips() {
        let kind = FaultKind::SpotEviction {
            machine_type: harmony_model::MachineTypeId(2),
            count: 3,
            down: SimDuration::from_secs(900.0),
        };
        let back = FaultKind::from_value(&kind.to_value()).unwrap();
        assert_eq!(back, kind);
    }

    #[test]
    fn fault_record_kinds_roundtrip() {
        let kinds = vec![
            FaultRecordKind::MachineCrash {
                machine: MachineId(7),
                evicted: 3,
                failed: 1,
            },
            FaultRecordKind::MachineRecovered {
                machine: MachineId(7),
            },
            FaultRecordKind::SlowBootStart { factor: 3.5 },
            FaultRecordKind::SlowBootEnd,
            FaultRecordKind::TaskEviction {
                evicted: 10,
                failed: 0,
            },
            FaultRecordKind::ArrivalBurst { tasks_warped: 42 },
            FaultRecordKind::SpotEviction {
                machine_type: harmony_model::MachineTypeId(4),
                machines: 2,
                evicted: 6,
                failed: 1,
            },
        ];
        for kind in kinds {
            let record = FaultRecord {
                at: SimTime::from_secs(1.5),
                kind,
            };
            let back = FaultRecord::from_value(&record.to_value()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn sim_report_roundtrips_bit_identically() {
        let report = SimReport {
            delays_by_group: [vec![0.0, 2.25, 1e-3], vec![4.0], vec![]],
            tasks_completed: 3,
            tasks_running_at_end: 1,
            tasks_pending_at_end: 2,
            tasks_unschedulable: 0,
            tasks_failed: 4,
            total_energy_wh: 123.456,
            energy_cost_dollars: 2.5,
            switch_count: 4,
            switch_cost_dollars: 0.125,
            migrations: 9,
            evictions: 1,
            faults: vec![FaultRecord {
                at: SimTime::from_secs(10.0),
                kind: FaultRecordKind::SlowBootEnd,
            }],
            degradations: vec![DegradationEvent {
                at: SimTime::from_secs(20.0),
                kind: DegradationKind::LpGreedyFallback,
                detail: "pivot budget".to_owned(),
            }],
            series: vec![TimePoint {
                time: SimTime::from_secs(60.0),
                power_watts: 17.5,
                active_per_type: vec![1, 2, 3],
                used_per_type: vec![0, 1, 2],
                pending_tasks: 5,
            }],
        };
        let text = serde_json::to_string(&report).unwrap();
        let back: SimReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn wrong_group_count_rejected() {
        let mut v = SimReport {
            delays_by_group: [vec![], vec![], vec![]],
            tasks_completed: 0,
            tasks_running_at_end: 0,
            tasks_pending_at_end: 0,
            tasks_unschedulable: 0,
            tasks_failed: 0,
            total_energy_wh: 0.0,
            energy_cost_dollars: 0.0,
            switch_count: 0,
            switch_cost_dollars: 0.0,
            migrations: 0,
            evictions: 0,
            faults: Vec::new(),
            degradations: Vec::new(),
            series: Vec::new(),
        }
        .to_value();
        if let Value::Object(map) = &mut v {
            map.insert(
                "delays_by_group".to_owned(),
                Value::Array(vec![Value::Array(vec![])]),
            );
        }
        assert!(SimReport::from_value(&v).is_err());
    }

    #[test]
    fn unknown_variant_rejected() {
        assert!(DegradationKind::from_value(&Value::String("Nope".into())).is_err());
        assert!(FaultKind::from_value(&Value::String("MachineCrash".into())).is_err());
    }
}
