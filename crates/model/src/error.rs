//! Error type for domain-model validation.

use std::error::Error;
use std::fmt;

use crate::TaskId;

/// Errors returned by validating constructors in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A priority level above 11 was supplied.
    PriorityOutOfRange(u8),
    /// A scheduling class above 3 was supplied.
    SchedulingClassOutOfRange(u8),
    /// A task violated a structural invariant.
    InvalidTask {
        /// The offending task.
        id: TaskId,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// A machine catalog was constructed with no machine types.
    EmptyCatalog,
    /// A machine type violated a structural invariant.
    InvalidMachineType {
        /// The offending machine type's name.
        name: String,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::PriorityOutOfRange(p) => {
                write!(f, "priority level {p} is outside the trace range 0..=11")
            }
            ModelError::SchedulingClassOutOfRange(c) => {
                write!(f, "scheduling class {c} is outside the trace range 0..=3")
            }
            ModelError::InvalidTask { id, reason } => write!(f, "invalid {id}: {reason}"),
            ModelError::EmptyCatalog => {
                f.write_str("machine catalog must contain at least one type")
            }
            ModelError::InvalidMachineType { name, reason } => {
                write!(f, "invalid machine type {name:?}: {reason}")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_prose() {
        let e = ModelError::PriorityOutOfRange(13);
        assert_eq!(e.to_string(), "priority level 13 is outside the trace range 0..=11");
        let e = ModelError::InvalidTask { id: TaskId(2), reason: "x".into() };
        assert!(e.to_string().contains("task#2"));
        let e = ModelError::EmptyCatalog;
        assert!(e.to_string().contains("at least one"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ModelError>();
    }
}
