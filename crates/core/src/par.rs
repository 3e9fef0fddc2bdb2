//! Deterministic fan-out over scoped threads.
//!
//! The per-class pipeline stages (forecast, container sizing) are
//! independent across task classes, so they parallelize trivially — but
//! the plans they feed must stay bit-identical to the serial path. The
//! helpers here guarantee that by construction: each job is a pure
//! function of its index, results are merged back in index order, and
//! error propagation picks the *lowest-index* failure, exactly as a
//! serial `for` loop would surface it. No work-stealing, no channels, no
//! nondeterministic reduction order.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

/// The number of workers a stage should use: the configured override if
/// present, otherwise [`std::thread::available_parallelism`], clamped to
/// `[1, jobs]` so tiny stages never spawn idle threads.
pub fn effective_workers(override_workers: Option<usize>, jobs: usize) -> usize {
    let detected = override_workers.unwrap_or_else(|| {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    });
    detected.max(1).min(jobs.max(1))
}

/// Deals `0..jobs` to `workers` (clamped to `[1, jobs]`) as contiguous
/// ranges, in order: the first `jobs % workers` get one extra job.
pub(crate) fn chunks(jobs: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let workers = workers.clamp(1, jobs.max(1));
    let (base, rem) = (jobs / workers, jobs % workers);
    (0..workers).map(move |w| {
        let start = w * base + w.min(rem);
        start..start + base + usize::from(w < rem)
    })
}

/// Runs `f(0..jobs)` across `workers` scoped threads and returns the
/// results in index order, or the error of the lowest failing index.
///
/// Jobs are dealt to workers as contiguous index chunks, so a worker's
/// cache footprint is a contiguous slice of the problem. With
/// `workers <= 1` (or a single job) the loop runs inline on the caller's
/// thread — the serial path is literally the same code, which is what
/// makes "parallel output equals serial output" true by construction
/// rather than by test alone.
pub fn map_indexed<T, E, F>(jobs: usize, workers: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(&f).collect();
    }
    let mut slots: Vec<Option<Result<T, E>>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);

    thread::scope(|scope| {
        let mut rest = slots.as_mut_slice();
        for range in chunks(jobs, workers) {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(f(range.start + offset));
                }
            });
        }
    });

    let mut out = Vec::with_capacity(jobs);
    for slot in slots {
        #[expect(
            clippy::expect_used,
            reason = "Invariant: the chunks above partition 0..jobs exactly, and thread::scope joins every worker before returning, so every slot has been written."
        )]
        let result = slot.expect("scoped worker wrote every slot in its chunk");
        out.push(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_output_for_all_worker_counts() {
        let f = |i: usize| Ok::<_, String>(i * i + 1);
        let serial: Vec<_> = (0..23).map(|i| i * i + 1).collect();
        for workers in 1..=8 {
            let got = map_indexed(23, workers, f).unwrap();
            assert_eq!(got, serial, "workers={workers}");
        }
    }

    #[test]
    fn chunks_partition_jobs_in_order() {
        for jobs in 0..12 {
            for workers in 0..6 {
                let ranges: Vec<_> = chunks(jobs, workers).collect();
                assert_eq!(ranges.len(), workers.clamp(1, jobs.max(1)));
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..jobs).collect::<Vec<_>>(), "jobs={jobs} workers={workers}");
                let (min, max) = ranges.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                    (lo.min(r.len()), hi.max(r.len()))
                });
                assert!(max - min <= 1, "balanced: {ranges:?}");
            }
        }
    }

    #[test]
    fn empty_and_single_job_run_inline() {
        assert_eq!(map_indexed(0, 4, Ok::<_, ()>).unwrap(), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 4, |i| Ok::<_, ()>(i + 7)).unwrap(), vec![7]);
    }

    #[test]
    fn first_error_by_index_wins() {
        // Indices 5 and 11 both fail; the reported error must be index
        // 5's regardless of which worker finishes first.
        for workers in 1..=6 {
            let err = map_indexed(16, workers, |i| {
                if i == 5 || i == 11 {
                    Err(format!("boom at {i}"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "boom at 5", "workers={workers}");
        }
    }

    #[test]
    fn effective_workers_clamps_to_jobs() {
        assert_eq!(effective_workers(Some(8), 3), 3);
        assert_eq!(effective_workers(Some(2), 100), 2);
        assert_eq!(effective_workers(Some(1), 0), 1);
        assert!(effective_workers(None, 64) >= 1);
    }
}
