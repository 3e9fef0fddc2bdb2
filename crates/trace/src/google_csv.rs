//! Import from the Google cluster-data v1 `task_events` layout.
//!
//! The public `clusterdata-2011` trace the paper analyses ships task
//! events as headerless CSV with these columns:
//!
//! ```text
//! 0 timestamp (µs)   1 missing_info   2 job_id        3 task_index
//! 4 machine_id       5 event_type     6 user          7 scheduling_class
//! 8 priority         9 cpu_request   10 memory_request
//! 11 disk_request   12 different_machine_constraint
//! ```
//!
//! [`read_task_events`] reconstructs [`Task`]s by pairing each SUBMIT
//! (event 0) with the matching FINISH/FAIL/KILL/EVICT/LOST terminal
//! event of the same `(job_id, task_index)`; unterminated tasks are
//! truncated at the span end, mirroring the censoring in the real
//! trace.

use std::collections::BTreeMap;
use std::io::BufRead;

use harmony_model::{
    JobId, Priority, Resources, SchedulingClass, SimDuration, SimTime, Task, TaskId,
};

use crate::{Trace, TraceError};

/// `task_events` event types (v1 schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventType {
    Submit,
    Terminal,
    Other,
}

fn classify_event(code: u32) -> EventType {
    match code {
        0 => EventType::Submit,       // SUBMIT
        2..=6 => EventType::Terminal, // EVICT/FAIL/FINISH/KILL/LOST
        _ => EventType::Other,        // SCHEDULE, UPDATE_*
    }
}

/// Reads a `task_events`-format CSV into a [`Trace`].
///
/// Durations come from SUBMIT→terminal pairing; tasks with no terminal
/// event run to the end of the observed span. Priorities above 11 are
/// clamped (the v1 schema allows 0–11); scheduling classes above 3
/// likewise.
///
/// # Errors
///
/// * [`TraceError::Io`] on read failures.
/// * [`TraceError::Malformed`] for rows with missing/unparsable columns.
#[expect(
    clippy::expect_used,
    reason = "Invariant: priority and sched_class are clamped to their valid ranges (`.min(11)` / `.min(3)`) when the SUBMIT row is parsed, so the constructors at Task-build time cannot fail."
)]
pub fn read_task_events<R: BufRead>(reader: R) -> Result<Trace, TraceError> {
    struct Open {
        submit_us: u64,
        cpu: f64,
        mem: f64,
        sched_class: u8,
        priority: u8,
    }
    // Keyed in (job, task index) order, so tasks censored below get
    // their `TaskId`s in the same order on every read.
    let mut open: BTreeMap<(u64, u64), Open> = BTreeMap::new();
    let mut finished: Vec<(u64, u64, Open, u64)> = Vec::new(); // job, idx, record, end_us
    let mut max_us = 0u64;

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        let field = |i: usize| cols.get(i).copied().unwrap_or("");
        let parse_u64 = |i: usize| -> Result<u64, TraceError> {
            field(i).trim().parse().map_err(|_| malformed(line_no))
        };
        let parse_f64_or =
            |i: usize, default: f64| -> f64 { field(i).trim().parse().unwrap_or(default) };
        let ts = parse_u64(0)?;
        max_us = max_us.max(ts);
        let job = parse_u64(2)?;
        let idx = parse_u64(3)?;
        let event = parse_u64(5)? as u32;
        match classify_event(event) {
            EventType::Submit => {
                let sched_class = parse_u64(7).unwrap_or(0).min(3) as u8;
                let priority = parse_u64(8).unwrap_or(0).min(11) as u8;
                open.insert(
                    (job, idx),
                    Open {
                        submit_us: ts,
                        cpu: parse_f64_or(9, 0.0).clamp(0.0, 1.0),
                        mem: parse_f64_or(10, 0.0).clamp(0.0, 1.0),
                        sched_class,
                        priority,
                    },
                );
            }
            EventType::Terminal => {
                if let Some(o) = open.remove(&(job, idx)) {
                    let end = ts.max(o.submit_us);
                    finished.push((job, idx, o, end));
                }
            }
            EventType::Other => {}
        }
    }

    // Censor still-open tasks at the span end.
    for ((job, idx), o) in open {
        let end = max_us.max(o.submit_us);
        finished.push((job, idx, o, end));
    }

    let mut tasks: Vec<Task> = finished
        .into_iter()
        .enumerate()
        .map(|(i, (job, _idx, o, end_us))| Task {
            id: TaskId(i as u64),
            job: JobId(job),
            arrival: SimTime::from_secs(o.submit_us as f64 / 1e6),
            duration: SimDuration::from_secs(((end_us - o.submit_us) as f64 / 1e6).max(1.0)),
            demand: Resources::new(o.cpu.max(1e-4), o.mem.max(1e-4)),
            priority: Priority::new(o.priority).expect("clamped to 0..=11"),
            sched_class: SchedulingClass::new(o.sched_class).expect("clamped to 0..=3"),
        })
        .collect();
    tasks.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
    for (i, t) in tasks.iter_mut().enumerate() {
        t.id = TaskId(i as u64);
    }
    Ok(Trace::from_unsorted(tasks, SimDuration::from_secs(max_us as f64 / 1e6)))
}

fn malformed(line_no: usize) -> TraceError {
    TraceError::Malformed {
        line: line_no + 1,
        source: serde_json::Error::io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "unparsable task_events row",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::PriorityGroup;

    #[test]
    fn parses_minimal_event_stream() {
        let csv = "\
1000000,,42,0,,0,,2,9,0.25,0.125,,\n\
5000000,,42,0,,4,,2,9,0.25,0.125,,\n\
2000000,,42,1,,0,,0,0,0.01,0.02,,\n";
        let trace = read_task_events(csv.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        let t0 = &trace.tasks()[0];
        assert_eq!(t0.arrival, SimTime::from_secs(1.0));
        assert_eq!(t0.duration, SimDuration::from_secs(4.0));
        assert_eq!(t0.priority.group(), PriorityGroup::Production);
        assert_eq!(t0.demand, Resources::new(0.25, 0.125));
        // Unterminated task censored at the span end (5 s): 3 s run.
        let t1 = &trace.tasks()[1];
        assert_eq!(t1.duration, SimDuration::from_secs(3.0));
    }

    #[test]
    fn tied_open_tasks_read_in_key_order_every_time() {
        // Five tasks submitted at one instant and never terminated: all
        // are censored at the span end (set by the SCHEDULE row), so
        // their order and `TaskId`s come from the reader alone.
        let csv = "\
1000000,,9,1,,0,,0,0,0.1,0.1,,\n\
1000000,,3,1,,0,,0,0,0.2,0.1,,\n\
1000000,,7,2,,0,,0,0,0.3,0.1,,\n\
1000000,,3,0,,0,,0,0,0.4,0.1,,\n\
1000000,,5,0,,0,,0,0,0.5,0.1,,\n\
2000000,,1,0,,1,,0,0,0.1,0.1,,\n";
        let shape = |trace: &Trace| -> Vec<(u64, u64, u64)> {
            trace.tasks().iter().map(|t| (t.id.0, t.job.0, t.demand.cpu.to_bits())).collect()
        };
        let first = read_task_events(csv.as_bytes()).unwrap();
        for _ in 0..20 {
            assert_eq!(shape(&read_task_events(csv.as_bytes()).unwrap()), shape(&first));
        }
        let cpus: Vec<f64> = first.tasks().iter().map(|t| t.demand.cpu).collect();
        assert_eq!(cpus, [0.4, 0.2, 0.5, 0.3, 0.1], "censored tasks in (job, index) order");
    }

    #[test]
    fn non_submit_events_are_ignored() {
        // SCHEDULE (1) and UPDATE (7/8) rows must not create tasks.
        let csv = "\
1000000,,1,0,,1,,0,0,0.1,0.1,,\n\
2000000,,1,0,,7,,0,0,0.1,0.1,,\n";
        let trace = read_task_events(csv.as_bytes()).unwrap();
        assert!(trace.is_empty());
    }

    #[test]
    fn malformed_rows_error_with_line_number() {
        let csv = "not,numbers,at,all,,x,,0,0,,,\n";
        let err = read_task_events(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { line: 1, .. }));
    }

    #[test]
    fn clamps_out_of_range_fields() {
        let csv = "\
0,,7,0,,0,,9,99,2.5,-1.0,,\n\
1000000,,7,0,,4,,9,99,2.5,-1.0,,\n";
        let trace = read_task_events(csv.as_bytes()).unwrap();
        let t = &trace.tasks()[0];
        assert_eq!(t.priority.level(), 11);
        assert_eq!(t.sched_class.level(), 3);
        assert!(t.demand.cpu <= 1.0 && t.demand.mem >= 0.0);
    }

    #[test]
    fn roundtrip_through_task_events_format() {
        // One SUBMIT and one FINISH row per task, finishes interleaved
        // with later submits, one task from each priority group.
        let csv = "\
1500000,,10,0,,0,,1,0,0.0625,0.03125,,\n\
2250000,,11,0,,0,,3,11,0.5,0.25,,\n\
2500000,,12,3,,0,,2,4,0.125,0.375,,\n\
3000000,,10,0,,4,,1,0,0.0625,0.03125,,\n\
9250000,,12,3,,4,,2,4,0.125,0.375,,\n\
62250000,,11,0,,4,,3,11,0.5,0.25,,\n";
        let trace = read_task_events(csv.as_bytes()).unwrap();
        let got: Vec<_> = trace
            .tasks()
            .iter()
            .map(|t| {
                let shape = (t.job.0, t.priority.level(), t.sched_class.level(), t.demand);
                (t.arrival.as_secs(), t.duration.as_secs(), shape)
            })
            .collect();
        assert_eq!(
            got,
            [
                (1.5, 1.5, (10, 0, 1, Resources::new(0.0625, 0.03125))),
                (2.25, 60.0, (11, 11, 3, Resources::new(0.5, 0.25))),
                (2.5, 6.75, (12, 4, 2, Resources::new(0.125, 0.375))),
            ]
        );
        assert_eq!(trace.span(), SimDuration::from_secs(62.25));
        let groups: Vec<PriorityGroup> = trace.tasks().iter().map(|t| t.priority.group()).collect();
        assert_eq!(
            groups,
            [PriorityGroup::Gratis, PriorityGroup::Production, PriorityGroup::Other]
        );
    }
}
