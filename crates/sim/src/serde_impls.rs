//! Encoding tests for the simulator types that cross a serialization
//! boundary: degradation events (daemon wire protocol and checkpoints),
//! fault records and the full [`SimReport`] (replay checkpoints,
//! bit-identical resume checks, the benchmark digests), and fault plans.
//! All of them derive their impls; these tests pin the bytes.

use harmony_model::SimTime;
use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::controller::{DegradationEvent, DegradationKind, ForecastTier};
use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultRecordKind};
use crate::machine::MachineId;
use crate::metrics::{SimReport, TimePoint};

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
    fn fault_record_kinds_roundtrip() {
        let kinds = vec![
            FaultRecordKind::MachineCrash { machine: MachineId(7), evicted: 3, failed: 1 },
            FaultRecordKind::MachineRecovered { machine: MachineId(7) },
            FaultRecordKind::SlowBootStart { factor: 3.5 },
            FaultRecordKind::SlowBootEnd,
            FaultRecordKind::TaskEviction { evicted: 10, failed: 0 },
            FaultRecordKind::ArrivalBurst { tasks_warped: 42 },
        ];
        for kind in kinds {
            let record = FaultRecord { at: SimTime::from_secs(1.5), kind };
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
            map.insert("delays_by_group".to_owned(), Value::Array(vec![Value::Array(vec![])]));
        }
        assert!(SimReport::from_value(&v).is_err());
    }

    /// Asserts that `value` writes exactly `json` and reads back from it.
    fn pin<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, json: &str) {
        let text = serde_json::to_string(value).unwrap();
        assert_eq!(text, json);
        assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value);
    }

    #[test]
    fn encodings_are_pinned() {
        let down = SimDuration::from_secs(900.0);
        pin(&MachineId(7), "7");
        pin(&ForecastTier::LastObservation, r#""LastObservation""#);
        let fallback = DegradationKind::ForecastFallback { class: 3, tier: ForecastTier::Arima };
        pin(&fallback, r#"{"ForecastFallback":{"class":3,"tier":"Arima"}}"#);
        pin(&DegradationKind::ControlHold, r#""ControlHold""#);
        let event = DegradationEvent {
            at: SimTime::from_secs(600.0),
            kind: fallback,
            detail: "singular".to_owned(),
        };
        pin(
            &event,
            r#"{"at":600,"detail":"singular","kind":{"ForecastFallback":{"class":3,"tier":"Arima"}}}"#,
        );
        let kinds = [
            FaultKind::MachineCrash { down },
            FaultKind::SlowBoot { factor: 2.5, duration: down },
            FaultKind::TaskEviction { count: 4 },
            FaultKind::ArrivalBurst { window: down },
        ];
        for (kind, json) in kinds.iter().zip([
            r#"{"MachineCrash":{"down":900}}"#,
            r#"{"SlowBoot":{"duration":900,"factor":2.5e0}}"#,
            r#"{"TaskEviction":{"count":4}}"#,
            r#"{"ArrivalBurst":{"window":900}}"#,
        ]) {
            pin(kind, json);
        }
        let fault = FaultEvent { at: SimTime::from_secs(1.5), kind: kinds[1] };
        pin(&fault, r#"{"at":1.5e0,"kind":{"SlowBoot":{"duration":900,"factor":2.5e0}}}"#);
        pin(
            &FaultPlan::new(77).with_event(fault.at, fault.kind),
            r#"{"events":[{"at":1.5e0,"kind":{"SlowBoot":{"duration":900,"factor":2.5e0}}}],"seed":77}"#,
        );
        let records = [
            FaultRecordKind::MachineCrash { machine: MachineId(7), evicted: 3, failed: 1 },
            FaultRecordKind::MachineRecovered { machine: MachineId(7) },
            FaultRecordKind::SlowBootStart { factor: 3.5 },
            FaultRecordKind::SlowBootEnd,
            FaultRecordKind::TaskEviction { evicted: 10, failed: 0 },
            FaultRecordKind::ArrivalBurst { tasks_warped: 42 },
        ];
        for (kind, json) in records.iter().zip([
            r#"{"MachineCrash":{"evicted":3,"failed":1,"machine":7}}"#,
            r#"{"MachineRecovered":{"machine":7}}"#,
            r#"{"SlowBootStart":{"factor":3.5e0}}"#,
            r#""SlowBootEnd""#,
            r#"{"TaskEviction":{"evicted":10,"failed":0}}"#,
            r#"{"ArrivalBurst":{"tasks_warped":42}}"#,
        ]) {
            pin(kind, json);
        }
        let record = FaultRecord { at: SimTime::from_secs(10.0), kind: records[0].clone() };
        pin(&record, r#"{"at":10,"kind":{"MachineCrash":{"evicted":3,"failed":1,"machine":7}}}"#);
        let point = TimePoint {
            time: SimTime::from_secs(60.0),
            power_watts: 17.5,
            active_per_type: vec![1, 2],
            used_per_type: vec![0, 1],
            pending_tasks: 5,
        };
        pin(
            &point,
            r#"{"active_per_type":[1,2],"pending_tasks":5,"power_watts":1.75e1,"time":60,"used_per_type":[0,1]}"#,
        );
        let report = SimReport {
            delays_by_group: [vec![0.0, 2.25], vec![1e-3], vec![]],
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
            faults: vec![record],
            degradations: vec![event],
            series: vec![point],
        };
        pin(
            &report,
            r#"{"degradations":[{"at":600,"detail":"singular","kind":{"ForecastFallback":{"class":3,"tier":"Arima"}}}],"delays_by_group":[[0,2.25e0],[1e-3],[]],"energy_cost_dollars":2.5e0,"evictions":1,"faults":[{"at":10,"kind":{"MachineCrash":{"evicted":3,"failed":1,"machine":7}}}],"migrations":9,"series":[{"active_per_type":[1,2],"pending_tasks":5,"power_watts":1.75e1,"time":60,"used_per_type":[0,1]}],"switch_cost_dollars":1.25e-1,"switch_count":4,"tasks_completed":3,"tasks_failed":4,"tasks_pending_at_end":2,"tasks_running_at_end":1,"tasks_unschedulable":0,"total_energy_wh":1.23456e2}"#,
        );
    }

    #[test]
    fn unknown_variant_rejected() {
        assert!(DegradationKind::from_value(&Value::String("Nope".into())).is_err());
        assert!(FaultKind::from_value(&Value::String("MachineCrash".into())).is_err());
    }
}
