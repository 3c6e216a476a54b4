//! Deterministic FIFO resource-timeline locks.
//!
//! Rather than modelling blocking and wakeups explicitly, a lock is a
//! *timeline*: acquiring it at time `t` for a hold of `h` returns the actual
//! start `max(t, free_at)` and advances `free_at` to `start + h`. Requests
//! are served in call order, which — because the simulation engine executes
//! operations in global time order — is FIFO in simulated time.
//!
//! This models the paper's observation precisely: when the paging daemon
//! holds a process's address-space lock while stealing a big batch of pages,
//! page faults for that address space cannot be serviced and the faulting
//! process accumulates "stalled for resources" time.

use sim_core::stats::Counter;
use sim_core::{SimDuration, SimTime};

sim_core::stats_struct! {
    /// Aggregate lock statistics.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LockStats {
        /// Number of acquisitions.
        pub acquisitions: Counter,
        /// Acquisitions that had to wait.
        pub contended: Counter,
        /// Total time spent waiting.
        pub total_wait: SimDuration,
        /// Total time the lock was held.
        pub total_hold: SimDuration,
    }
}

/// A FIFO timeline lock (see module docs).
#[derive(Clone, Debug, Default)]
pub struct TimelineLock {
    free_at: SimTime,
    stats: LockStats,
}

/// The outcome of a lock acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Acquisition {
    /// When the hold actually began.
    pub start: SimTime,
    /// When the hold ends (lock free again).
    pub end: SimTime,
    /// Time spent waiting before the hold began.
    pub wait: SimDuration,
}

impl TimelineLock {
    /// Creates a free lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the lock at `now` for a hold of `hold`.
    pub fn acquire(&mut self, now: SimTime, hold: SimDuration) -> Acquisition {
        let start = if self.free_at > now {
            self.stats.contended.bump();
            self.stats.total_wait += self.free_at.since(now);
            self.free_at
        } else {
            now
        };
        let end = start + hold;
        self.free_at = end;
        self.stats.acquisitions.bump();
        self.stats.total_hold += hold;
        Acquisition {
            start,
            end,
            wait: start.since(now),
        }
    }

    /// The instant the lock next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn uncontended_acquire_starts_immediately() {
        let mut l = TimelineLock::new();
        let a = l.acquire(t(100), d(10));
        assert_eq!(a.start, t(100));
        assert_eq!(a.end, t(110));
        assert_eq!(a.wait, SimDuration::ZERO);
        assert_eq!(l.stats().contended.get(), 0);
    }

    #[test]
    fn contended_acquire_waits_fifo() {
        let mut l = TimelineLock::new();
        l.acquire(t(0), d(100));
        let a = l.acquire(t(30), d(10));
        assert_eq!(a.start, t(100));
        assert_eq!(a.wait, d(70));
        let b = l.acquire(t(40), d(5));
        assert_eq!(b.start, t(110), "third waits for second (FIFO)");
    }

    #[test]
    fn stats_accumulate() {
        let mut l = TimelineLock::new();
        l.acquire(t(0), d(50));
        l.acquire(t(10), d(20));
        let s = l.stats();
        assert_eq!(s.acquisitions.get(), 2);
        assert_eq!(s.contended.get(), 1);
        assert_eq!(s.total_wait, d(40));
        assert_eq!(s.total_hold, d(70));
    }

    #[test]
    fn zero_hold_is_allowed() {
        let mut l = TimelineLock::new();
        let a = l.acquire(t(5), SimDuration::ZERO);
        assert_eq!(a.start, a.end);
        assert_eq!(l.free_at(), t(5));
    }
}
