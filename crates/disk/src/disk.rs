//! A single disk with FIFO service and head-position state.

use sim_core::stats::Counter;
use sim_core::{SimDuration, SimTime};

use crate::model::DiskParams;

/// Aggregate statistics for one disk.
#[derive(Clone, Debug, Default)]
pub struct DiskStats {
    /// Completed read requests.
    pub reads: Counter,
    /// Completed write requests.
    pub writes: Counter,
    /// Total time the mechanism was busy (positioning + transfer).
    pub busy: SimDuration,
    /// Total time requests spent queued before service began.
    pub queue_wait: SimDuration,
}

/// A single disk.
///
/// Requests are serviced FIFO. Because service times are deterministic given
/// the head position, the completion time of a request is computed at submit
/// time; the caller is responsible for scheduling the completion event.
#[derive(Clone, Debug)]
pub struct Disk {
    params: DiskParams,
    /// Instant at which the mechanism becomes free.
    free_at: SimTime,
    /// Head position (block number) after the last queued request.
    head: u64,
    stats: DiskStats,
}

impl Disk {
    /// Creates an idle disk with its head at block 0.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            free_at: SimTime::ZERO,
            head: 0,
            stats: DiskStats::default(),
        }
    }

    /// The physical parameters of this disk.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// The instant the mechanism becomes free (last queued completion).
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Current queue-end head position.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Computes when the *mechanical* part of a request for `block` would
    /// finish positioning if submitted at `now`, without committing it.
    /// Returns `(start_of_transfer_earliest, positioning_time)`.
    pub fn positioning(&self, now: SimTime, block: u64) -> (SimTime, SimDuration) {
        let start = if self.free_at > now {
            self.free_at
        } else {
            now
        };
        let distance = self.head.abs_diff(block);
        let mut pos = self.params.seek_time(distance) + self.params.overhead;
        if distance != 0 {
            pos += self.params.avg_rotational_latency();
        }
        (start, pos)
    }

    /// Commits a request whose transfer runs `[transfer_start, completion)`.
    ///
    /// The caller (the adapter layer) decides `transfer_start` after bus
    /// arbitration; this method updates head position, busy accounting and
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if `completion` precedes `transfer_start` or the request is
    /// committed out of order (before the disk is free... i.e. overlapping
    /// the previously committed request).
    pub fn commit(
        &mut self,
        now: SimTime,
        block: u64,
        is_write: bool,
        service_start: SimTime,
        completion: SimTime,
    ) {
        assert!(
            completion >= service_start,
            "completion before service start"
        );
        assert!(
            service_start >= self.free_at || self.free_at == SimTime::ZERO || service_start >= now,
            "request overlaps previous"
        );
        self.stats.queue_wait += service_start.since(now);
        let service = completion.since(service_start);
        self.stats.busy += service;
        if is_write {
            self.stats.writes.bump();
        } else {
            self.stats.reads.bump();
        }
        self.head = block;
        self.free_at = completion;
    }

    /// Per-page transfer time of this disk.
    pub fn page_transfer(&self) -> SimDuration {
        self.params.page_transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn idle_disk_services_immediately() {
        let d = Disk::new(DiskParams::test_disk());
        let (start, pos) = d.positioning(t(100), 0);
        assert_eq!(start, t(100));
        // Head already at block 0: no seek, no rotation, only overhead.
        assert_eq!(pos, SimDuration::from_micros(1));
    }

    #[test]
    fn busy_disk_queues() {
        let mut d = Disk::new(DiskParams::test_disk());
        d.commit(t(0), 50, false, t(0), t(500));
        let (start, _) = d.positioning(t(100), 60);
        assert_eq!(start, t(500), "second request waits for the first");
    }

    #[test]
    fn commit_updates_head_and_stats() {
        let mut d = Disk::new(DiskParams::test_disk());
        d.commit(t(0), 42, true, t(10), t(40));
        assert_eq!(d.head(), 42);
        assert_eq!(d.stats().writes.get(), 1);
        assert_eq!(d.stats().reads.get(), 0);
        assert_eq!(d.stats().busy, SimDuration::from_micros(30));
        assert_eq!(d.stats().queue_wait, SimDuration::from_micros(10));
        assert_eq!(d.free_at(), t(40));
    }

    #[test]
    fn sequential_access_skips_rotation() {
        let d = Disk::new(DiskParams::test_disk());
        let (_, pos_seq) = d.positioning(t(0), 0);
        let mut d2 = Disk::new(DiskParams::test_disk());
        d2.commit(t(0), 0, false, t(0), t(1));
        let (_, pos_far) = d2.positioning(t(10), 5_000);
        assert!(pos_far > pos_seq, "far access must pay seek + rotation");
    }

    #[test]
    #[should_panic(expected = "completion before service start")]
    fn bad_commit_panics() {
        let mut d = Disk::new(DiskParams::test_disk());
        d.commit(t(0), 0, false, t(100), t(50));
    }
}
