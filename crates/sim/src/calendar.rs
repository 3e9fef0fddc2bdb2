//! A calendar (bucketed) event queue keyed by `(SimTime, seq)`.
//!
//! The test-only reference engine orders events with a global
//! `BinaryHeap`; at paper scale (millions of arrivals resident at once)
//! the O(log n) sift per operation and its cache behavior would dominate
//! the hot loop.
//! This queue hashes each event into `floor(time / width) mod buckets`
//! — amortized O(1) insert and pop for the steady state where event
//! density matches the bucket width.
//!
//! Determinism: the engine's event loop is *monotone* (nothing is ever
//! scheduled before the last popped time), so the queue walks bucket
//! windows strictly forward. Each bucket is kept sorted descending by
//! `(time, seq)` (min at the tail); the first bucket in window order
//! whose tail lies inside its own current window holds the global
//! minimum, and ties on time share a bucket, so the unique-`seq`
//! tie-break is honored. Pop order is therefore *identical* to the
//! `BinaryHeap`'s — the engines produce byte-identical reports.

use harmony_model::SimTime;

#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

/// The bucketed queue. Generic over the event payload; ordering uses
/// only `(time, seq)`.
#[derive(Debug, Clone)]
pub(crate) struct CalendarQueue<T> {
    /// Each bucket sorted descending by `(time, seq)`: min at the tail.
    buckets: Vec<Vec<Entry<T>>>,
    /// Power of two.
    nb: usize,
    /// Bucket width in seconds.
    width: f64,
    len: usize,
    peak: usize,
    /// Monotone floor: the last popped time (seconds).
    last: f64,
}

impl<T> CalendarQueue<T> {
    /// Sizes the calendar for roughly `expected` events spread over
    /// `span_secs`: the width targets one event per bucket per lap.
    pub(crate) fn new(span_secs: f64, expected: usize) -> Self {
        let nb = expected.next_power_of_two().clamp(16, 1 << 21);
        let span = if span_secs.is_finite() && span_secs > 0.0 { span_secs } else { 1.0 };
        let width = (span / expected.max(1) as f64).max(1e-6);
        CalendarQueue {
            buckets: (0..nb).map(|_| Vec::new()).collect(),
            nb,
            width,
            len: 0,
            peak: 0,
            last: 0.0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// High-watermark of resident events.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    #[inline]
    fn day_of(&self, secs: f64) -> u64 {
        // Far-future guard keeps the cast defined; such events would
        // sort last anyway.
        (secs / self.width).min(1e18) as u64
    }

    /// Inserts an event. `seq` must be unique per queue (the engine's
    /// monotone event counter).
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        // The event loop never schedules into the past; clamp defensively
        // so a zero-delay edge case cannot corrupt window ordering.
        let secs = time.as_secs().max(self.last);
        let b = (self.day_of(secs) as usize) & (self.nb - 1);
        let bucket = &mut self.buckets[b];
        let pos = bucket.partition_point(|e| (e.time, e.seq) > (time, seq));
        bucket.insert(pos, Entry { time, seq, payload });
        self.len += 1;
        self.peak = self.peak.max(self.len);
        if self.len > 2 * self.nb {
            self.resize(self.nb * 2);
        }
    }

    /// Removes and returns the event with the smallest `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.len == 0 {
            return None;
        }
        if self.len < self.nb / 4 && self.nb > 16 {
            self.resize(self.nb / 2);
        }
        let start_day = self.day_of(self.last);
        let mut found: Option<usize> = None;
        for k in 0..self.nb as u64 {
            let day = start_day + k;
            let b = (day as usize) & (self.nb - 1);
            if let Some(tail) = self.buckets[b].last() {
                if self.day_of(tail.time.as_secs()) == day {
                    found = Some(b);
                    break;
                }
            }
        }
        let b = match found {
            Some(b) => b,
            // A full lap without a hit: the next event is more than one
            // lap ahead (sparse phase). Direct-search the bucket tails
            // for the global minimum — each tail is its bucket's min.
            None => self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, bucket)| bucket.last().map(|e| (i, (e.time, e.seq))))
                .min_by_key(|&(_, key)| key)
                .map(|(i, _)| i)?,
        };
        // Non-empty by construction of `b`.
        let entry = self.buckets[b].pop()?;
        self.len -= 1;
        self.last = entry.time.as_secs();
        Some((entry.time, entry.payload))
    }

    fn resize(&mut self, new_nb: usize) {
        let old = std::mem::take(&mut self.buckets);
        self.nb = new_nb;
        self.buckets = (0..new_nb).map(|_| Vec::new()).collect();
        for bucket in old {
            for e in bucket {
                let secs = e.time.as_secs().max(self.last);
                let b = (self.day_of(secs) as usize) & (self.nb - 1);
                self.buckets[b].push(e);
            }
        }
        for bucket in &mut self.buckets {
            // Descending by (time, seq): min at the tail.
            bucket.sort_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Drives a calendar and a heap with the same monotone workload and
    /// asserts identical pop sequences.
    fn heap_equivalence(width_hint: (f64, usize), ops: &[(f64, u64)]) {
        let mut cal = CalendarQueue::new(width_hint.0, width_hint.1);
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
        // Interleave: push batches, pop one, push scheduled follow-ups.
        let mut it = ops.iter();
        for _ in 0..ops.len() {
            if let Some(&(t, seq)) = it.next() {
                cal.push(SimTime::from_secs(t), seq, seq);
                heap.push(std::cmp::Reverse((t.to_bits(), seq)));
            }
        }
        loop {
            let want = heap.pop();
            let got = cal.pop();
            match (want, got) {
                (None, None) => break,
                (Some(std::cmp::Reverse((tb, seq))), Some((time, payload))) => {
                    assert_eq!(time.as_secs().to_bits(), tb);
                    assert_eq!(payload, seq);
                }
                other => panic!("length mismatch: {other:?}"),
            }
        }
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let ops: Vec<(f64, u64)> =
            vec![(10.0, 1), (5.0, 2), (5.0, 3), (100.0, 4), (0.0, 5), (5.0, 6), (99.9, 7)];
        heap_equivalence((100.0, 8), &ops);
    }

    #[test]
    fn dense_and_sparse_phases_match_heap() {
        // Dense burst at t≈0..100, then a long gap, then a far cluster —
        // exercises the lap scan, the direct-search fallback, and both
        // resize directions.
        let mut ops = Vec::new();
        let mut seq = 0u64;
        for i in 0..500 {
            seq += 1;
            ops.push(((i % 100) as f64 * 0.37, seq));
        }
        for i in 0..20 {
            seq += 1;
            ops.push((1.0e6 + i as f64, seq));
        }
        heap_equivalence((100.0, 64), &ops);
    }

    #[test]
    fn interleaved_push_pop_stays_monotone() {
        let mut cal = CalendarQueue::new(1000.0, 16);
        let mut seq = 0u64;
        for i in 0..50 {
            seq += 1;
            cal.push(SimTime::from_secs(i as f64 * 10.0), seq, seq);
        }
        let mut last = -1.0;
        let mut popped = 0;
        while let Some((t, _)) = cal.pop() {
            assert!(t.as_secs() >= last);
            last = t.as_secs();
            popped += 1;
            // Schedule follow-up work relative to "now", like Finish
            // events.
            if popped <= 30 {
                seq += 1;
                cal.push(SimTime::from_secs(last + 3.5), seq, seq);
            }
        }
        assert_eq!(popped, 80);
        assert!(cal.peak() >= 50);
    }

    #[test]
    fn equal_times_break_ties_by_seq() {
        let mut cal = CalendarQueue::new(10.0, 4);
        for seq in [7u64, 3, 9, 1] {
            cal.push(SimTime::from_secs(42.0), seq, seq);
        }
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 3, 7, 9]);
    }
}
