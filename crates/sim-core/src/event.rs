//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence)`, where the sequence number
//! is assigned at scheduling time. Two events scheduled for the same instant
//! therefore fire in the order they were scheduled (FIFO tie-break), which
//! keeps the whole simulation deterministic.
//!
//! Events carry an arbitrary payload `E`. Nothing is ever cancelled, so the
//! queue is a plain binary heap: scheduling and popping are `O(log n)` and
//! peeking at the next fire time is one read.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifier of a scheduled event: its scheduling sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// Returns the raw sequence number behind this id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// An event stored in the queue.
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The id assigned at scheduling time.
    pub id: EventId,
    /// The caller-supplied payload.
    pub payload: E,
}

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timed events.
///
/// # Examples
///
/// ```
/// use sim_core::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "later");
/// q.schedule(SimTime::from_nanos(10), "sooner");
/// let ev = q.pop().unwrap();
/// assert_eq!(ev.payload, "sooner");
/// assert_eq!(ev.time, SimTime::from_nanos(10));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the fire time of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`EventQueue::now`]; scheduling into
    /// the past would break causality.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "scheduling into the past: {time:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, payload });
        EventId(seq)
    }

    /// Pops the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        Some(ScheduledEvent {
            time: entry.time,
            id: EventId(entry.seq),
            payload: entry.payload,
        })
    }

    /// Peeks at the fire time of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.time)
    }

    /// Number of events still queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_tiebreak_at_same_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(42));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(100), ());
        q.pop();
        q.schedule(t(50), ());
    }

    #[test]
    fn peek_time_names_the_next_pop_and_len_counts_the_rest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(20), ());
        q.schedule(t(10), ());
        assert_eq!((q.peek_time(), q.len()), (Some(t(10)), 2));
        assert_eq!(q.pop().unwrap().time, t(10));
        assert_eq!((q.peek_time(), q.len()), (Some(t(20)), 1));
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        let ev = q.pop().unwrap();
        assert_eq!(ev.payload, 1);
        // Scheduling relative to the advanced clock works.
        q.schedule(q.now() + crate::SimDuration::from_nanos(5), 2);
        assert_eq!(q.pop().unwrap().time, t(15));
    }
}
