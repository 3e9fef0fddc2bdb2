//! The trace container and its (de)serialization.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use harmony_model::{PriorityGroup, SimDuration, Task};

/// An ordered workload trace: tasks sorted by arrival time plus the span
/// they cover.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    tasks: Vec<Task>,
    span: SimDuration,
}

/// Errors from trace I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An I/O failure while reading or writing.
    Io(std::io::Error),
    /// A malformed record at the given line.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The underlying parse error.
        source: serde_json::Error,
    },
    /// Tasks were not sorted by arrival time.
    Unsorted {
        /// Index of the first out-of-order task.
        index: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceError::Malformed { line, .. } => {
                write!(f, "malformed trace record at line {line}")
            }
            TraceError::Unsorted { index } => {
                write!(f, "trace tasks are not sorted by arrival (first violation at {index})")
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Malformed { source, .. } => Some(source),
            TraceError::Unsorted { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl Trace {
    /// Builds a trace from tasks already sorted by arrival.
    ///
    /// # Panics
    ///
    /// Panics if the tasks are not sorted by arrival time (generator
    /// output always is; use [`Trace::from_unsorted`] otherwise).
    #[expect(
        clippy::panic,
        reason = "The panic is this constructor's documented contract (see `# Panics` above); `from_unsorted` is the non-panicking path."
    )]
    pub fn new(tasks: Vec<Task>, span: SimDuration) -> Self {
        if let Some(i) = first_unsorted(&tasks) {
            panic!("tasks not sorted by arrival (violation at index {i})");
        }
        Trace { tasks, span }
    }

    /// Builds a trace from tasks in any order, sorting by arrival.
    pub fn from_unsorted(mut tasks: Vec<Task>, span: SimDuration) -> Self {
        tasks.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
        Trace { tasks, span }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the trace holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The covered span.
    pub fn span(&self) -> SimDuration {
        self.span
    }

    /// The tasks, sorted by arrival.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Tasks belonging to one priority group, in arrival order.
    pub fn tasks_in_group(&self, group: PriorityGroup) -> impl Iterator<Item = &Task> {
        self.tasks.iter().filter(move |t| t.priority.group() == group)
    }

    /// Task counts per priority group, indexed by
    /// [`PriorityGroup::index`].
    pub fn group_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for t in &self.tasks {
            counts[t.priority.group().index()] += 1;
        }
        counts
    }

    /// Writes the trace as JSON lines: one header record, then one task
    /// per line.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failures.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> Result<(), TraceError> {
        let header = serde_json::json!({ "span_secs": self.span.as_secs() });
        serde_json::to_writer(&mut writer, &header).map_err(io_err)?;
        writer.write_all(b"\n")?;
        for task in &self.tasks {
            serde_json::to_writer(&mut writer, task).map_err(io_err)?;
            writer.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Reads a trace written by [`Trace::write_jsonl`].
    ///
    /// # Errors
    ///
    /// * [`TraceError::Io`] on read failures.
    /// * [`TraceError::Malformed`] on parse failures (with line number).
    /// * [`TraceError::Unsorted`] if task records are out of order.
    pub fn read_jsonl<R: BufRead>(reader: R) -> Result<Self, TraceError> {
        let mut lines = reader.lines();
        let header_line = match lines.next() {
            Some(l) => l?,
            None => {
                return Ok(Trace { tasks: Vec::new(), span: SimDuration::ZERO });
            }
        };
        let header: serde_json::Value = serde_json::from_str(&header_line)
            .map_err(|source| TraceError::Malformed { line: 1, source })?;
        let span_secs =
            header.get("span_secs").and_then(serde_json::Value::as_f64).ok_or_else(|| {
                TraceError::Malformed {
                    line: 1,
                    source: serde_json::Error::io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "header is missing a numeric `span_secs` field",
                    )),
                }
            })?;
        let mut tasks = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let task: Task = serde_json::from_str(&line)
                .map_err(|source| TraceError::Malformed { line: i + 2, source })?;
            tasks.push(task);
        }
        if let Some(index) = first_unsorted(&tasks) {
            return Err(TraceError::Unsorted { index });
        }
        Ok(Trace { tasks, span: SimDuration::from_secs(span_secs) })
    }
}

fn first_unsorted(tasks: &[Task]) -> Option<usize> {
    tasks.windows(2).position(|w| w[0].arrival > w[1].arrival).map(|i| i + 1)
}

fn io_err(e: serde_json::Error) -> TraceError {
    TraceError::Io(std::io::Error::other(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::{JobId, Priority, Resources, SchedulingClass, SimTime, TaskId};

    fn task(id: u64, at: f64, level: u8) -> Task {
        Task {
            id: TaskId(id),
            job: JobId(id / 2),
            arrival: SimTime::from_secs(at),
            duration: SimDuration::from_secs(60.0),
            demand: Resources::new(0.01, 0.02),
            priority: Priority::new(level).unwrap(),
            sched_class: SchedulingClass::BATCH,
        }
    }

    #[test]
    fn construction_and_accessors() {
        let t = Trace::new(
            vec![task(0, 0.0, 0), task(1, 5.0, 5), task(2, 9.0, 10)],
            SimDuration::from_secs(10.0),
        );
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.span(), SimDuration::from_secs(10.0));
        assert_eq!(t.group_counts(), [1, 1, 1]);
        assert_eq!(t.tasks_in_group(PriorityGroup::Production).count(), 1);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn unsorted_panics() {
        let _ = Trace::new(vec![task(0, 5.0, 0), task(1, 1.0, 0)], SimDuration::from_secs(10.0));
    }

    #[test]
    fn from_unsorted_sorts() {
        let t = Trace::from_unsorted(
            vec![task(0, 5.0, 0), task(1, 1.0, 0)],
            SimDuration::from_secs(10.0),
        );
        assert_eq!(t.tasks()[0].id, TaskId(1));
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = Trace::new(vec![task(0, 0.0, 0), task(1, 5.0, 9)], SimDuration::from_secs(100.0));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn read_empty_input() {
        let t = Trace::read_jsonl(&b""[..]).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn read_rejects_garbage() {
        let err = Trace::read_jsonl(&b"{\"span_secs\": 10}\nnot json\n"[..]).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 2, .. }));
        assert!(err.source().is_some());
        let err2 = Trace::read_jsonl(&b"nope\n"[..]).unwrap_err();
        assert!(matches!(err2, TraceError::Malformed { line: 1, .. }));
    }

    #[test]
    fn read_rejects_unsorted_records() {
        let t = Trace::new(vec![task(0, 0.0, 0), task(1, 5.0, 0)], SimDuration::from_secs(10.0));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2);
        let swapped = lines.join("\n");
        let err = Trace::read_jsonl(swapped.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Unsorted { index: 1 }));
    }
}
