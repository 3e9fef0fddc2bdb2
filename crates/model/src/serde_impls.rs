//! Hand-written `Deserialize` impls for the model types whose reads
//! validate: a trace line or checkpoint cannot smuggle in a NaN time, a
//! negative duration, or an out-of-range priority or scheduling class.
//! These types derive `Serialize`.

use serde::value::{DeError, Value};
use serde::Deserialize;

use crate::{Priority, SchedulingClass, SimDuration, SimTime};

impl Deserialize for SimTime {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let secs = f64::from_value(v)?;
        if secs.is_nan() {
            return Err(DeError::new("SimTime must not be NaN"));
        }
        Ok(SimTime::from_secs(secs))
    }
}

impl Deserialize for SimDuration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let secs = f64::from_value(v)?;
        if secs.is_nan() || secs < 0.0 {
            return Err(DeError::new("SimDuration must be non-negative"));
        }
        Ok(SimDuration::from_secs(secs))
    }
}

impl Deserialize for Priority {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let level = u8::from_value(v)?;
        Priority::new(level).map_err(|e| DeError::new(e.to_string()))
    }
}

impl Deserialize for SchedulingClass {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let level = u8::from_value(v)?;
        SchedulingClass::new(level).map_err(|e| DeError::new(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobId, MachineTypeId, Resources, Task, TaskId};
    use serde::Serialize;

    /// Asserts that `value` writes exactly `json` and reads back from it.
    fn pin<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, json: &str) {
        let text = serde_json::to_string(value).unwrap();
        assert_eq!(text, json);
        assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value);
    }

    #[test]
    fn encodings_are_pinned() {
        pin(&TaskId(7), "7");
        pin(&JobId(3), "3");
        pin(&MachineTypeId(2), "2");
        pin(&Resources::new(0.1, 0.25), r#"{"cpu":1e-1,"mem":2.5e-1}"#);
        let task = Task {
            id: TaskId(7),
            job: JobId(3),
            arrival: SimTime::from_secs(12.0),
            duration: SimDuration::from_secs(100.0),
            demand: Resources::new(0.1, 0.2),
            priority: Priority::new(9).unwrap(),
            sched_class: SchedulingClass::new(2).unwrap(),
        };
        pin(
            &task,
            r#"{"arrival":12,"demand":{"cpu":1e-1,"mem":2e-1},"duration":100,"id":7,"job":3,"priority":9,"sched_class":2}"#,
        );
    }

    #[test]
    fn invalid_priority_rejected_on_read() {
        let v = Value::Number(15.0);
        assert!(Priority::from_value(&v).is_err());
    }

    #[test]
    fn negative_duration_rejected_on_read() {
        let v = Value::Number(-1.0);
        assert!(SimDuration::from_value(&v).is_err());
    }
}
