//! The releaser daemon.
//!
//! The paper's new kernel daemon: it "functions similarly to the paging
//! daemon, but is specialized to reclaim only the pages indicated by the
//! application". Requests arrive from the PagingDirected PM; the releaser
//!
//! 1. checks the bit vector / PTE to make sure the page has **not been
//!    referenced again** since the request (a re-reference cancels it);
//! 2. performs all actions needed to free the page, including writing back
//!    dirty pages;
//! 3. places freed pages **at the end of the free list**, so pages released
//!    too early can still be rescued.
//!
//! Compared to the paging daemon it "typically operates on smaller blocks
//! of pages, so the locks can be held for much shorter periods of time",
//! and it does less work per page — both properties are reflected in the
//! cost model.

use std::collections::VecDeque;

use sim_core::obs::EventKind;
use sim_core::SimTime;

use crate::addr::{Pid, Vpn};
use crate::frame::FreeSource;
use crate::pagetable::InvalidReason;
use crate::vmsys::VmSys;

/// A queued release request for one page.
#[derive(Clone, Copy, Debug)]
pub struct ReleaseRequest {
    /// Owning process.
    pub pid: Pid,
    /// Page to free.
    pub vpn: Vpn,
    /// When the request was made (re-references after this cancel it).
    pub requested_at: SimTime,
}

/// Persistent releaser state: the work queue.
#[derive(Clone, Debug, Default)]
pub struct Releaser {
    queue: VecDeque<ReleaseRequest>,
}

impl Releaser {
    /// Creates an idle releaser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues one page.
    pub fn enqueue(&mut self, pid: Pid, vpn: Vpn, requested_at: SimTime) {
        self.queue.push_back(ReleaseRequest {
            pid,
            vpn,
            requested_at,
        });
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queue depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Drops all queued requests (crash reconciliation), returning how
    /// many were orphaned.
    pub fn clear(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        n
    }
}

/// Maximum pages the releaser processes per activation; more work yields a
/// re-wake so one activation can't run unboundedly long.
const MAX_PER_ACTIVATION: usize = 512;

impl VmSys {
    /// Runs one releaser activation at `now`.
    ///
    /// Returns `Some(next_wake)` if work remains queued.
    pub fn service_releaser(&mut self, now: SimTime) -> Option<SimTime> {
        if self.releaser.queue.is_empty() {
            return None;
        }
        self.checked_sweep(now);
        self.stats.releaser.activations.bump();
        let batch = self.tun.releaser_batch.max(1) as usize;
        let mut t = now;
        let mut processed = 0;

        while processed < MAX_PER_ACTIVATION {
            // Take a batch of requests for one process (FIFO order, grouped
            // so the lock is taken once per small batch).
            let Some(&first) = self.releaser.queue.front() else {
                break;
            };
            let pid = first.pid;
            let mut chunk: Vec<ReleaseRequest> = Vec::with_capacity(batch);
            while chunk.len() < batch {
                match self.releaser.queue.front() {
                    Some(r) if r.pid == pid => {
                        chunk.push(*r);
                        self.releaser.queue.pop_front();
                    }
                    _ => break,
                }
            }
            processed += chunk.len();

            // Decide per page, then hold the lock once for the chunk.
            let mut hold = self.params.releaser_lock_overhead;
            let mut decisions: Vec<(ReleaseRequest, bool)> = Vec::with_capacity(chunk.len());
            for req in chunk {
                let pte = self.procs[pid.0 as usize].pt.get(req.vpn);
                // The request stands only if it is still the active one and
                // the page was not referenced after it was made.
                let valid_req = pte.resident()
                    && pte.release_requested == Some(req.requested_at)
                    && pte.last_ref <= req.requested_at;
                hold += if valid_req {
                    let mut c = self.params.releaser_free_page;
                    if pte.dirty {
                        c += self.params.daemon_writeback_init;
                    }
                    c
                } else {
                    self.params.releaser_skip_page
                };
                decisions.push((req, valid_req));
            }

            let acq = self.procs[pid.0 as usize].lock.acquire(t, hold);
            for (req, valid_req) in decisions {
                if !valid_req {
                    // Distinguish the two skip reasons for the stats.
                    let pte = self.procs[pid.0 as usize].pt.get(req.vpn);
                    if pte.resident() && pte.last_ref > req.requested_at {
                        self.stats.releaser.skipped_reref.bump();
                        self.obs
                            .emit_page(t, req.pid.0, req.vpn.0, EventKind::ReleaseSkippedReref);
                    } else {
                        self.stats.releaser.skipped_nonresident.bump();
                        self.obs.emit_page(
                            t,
                            req.pid.0,
                            req.vpn.0,
                            EventKind::ReleaseSkippedNonresident,
                        );
                    }
                    continue;
                }
                // Re-check under the lock (the owner may have re-referenced
                // while we waited).
                let pte = self.procs[pid.0 as usize].pt.get(req.vpn);
                if !(pte.resident()
                    && pte.release_requested == Some(req.requested_at)
                    && pte.last_ref <= req.requested_at)
                {
                    self.stats.releaser.skipped_reref.bump();
                    self.obs
                        .emit_page(t, req.pid.0, req.vpn.0, EventKind::ReleaseSkippedReref);
                    continue;
                }
                let dirty = pte.dirty;
                if self.checked()
                    && pte.invalid_reason == Some(InvalidReason::Prefetched)
                    && pte.arrives_at > acq.end
                {
                    self.checked_fail(
                        acq.end,
                        "inflight_prefetch_release",
                        format!(
                            "releaser freeing {} of {} while its prefetch is in \
                             flight until t={}ns",
                            req.vpn,
                            req.pid,
                            pte.arrives_at.as_nanos()
                        ),
                    );
                }
                self.free_page(acq.end, req.pid, req.vpn, FreeSource::Release);
                self.stats.releaser.pages_released.bump();
                if dirty {
                    self.stats.releaser.writebacks.bump();
                }
            }
            t = acq.end;
        }

        self.stats.releaser.busy += t.since(now);
        self.obs.emit(
            now,
            EventKind::ReleaserBatch {
                handled: processed as u64,
                queued: self.releaser.queue.len() as u64,
            },
        );
        if self.releaser.queue.is_empty() {
            None
        } else {
            Some(t + self.tun.releaser_delay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TouchKind;
    use crate::params::{CostParams, Tunables};
    use crate::vmsys::{Backing, VmSys};
    use disk::SwapConfig;
    use sim_core::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn vm() -> VmSys {
        let mut tun = Tunables::for_memory(64);
        tun.min_freemem = 4;
        tun.target_freemem = 8;
        VmSys::new(64, tun, CostParams::default(), SwapConfig::test_array())
    }

    #[test]
    fn released_pages_are_freed_and_rescuable() {
        let mut vm = vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let mut now = t(1);
        for i in 0..4 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let free_before = vm.free_pages();
        vm.release(now, pid, &[r.start, r.start.offset(1)]);
        let next = vm.service_releaser(now + SimDuration::from_micros(200));
        assert!(next.is_none(), "queue drained");
        assert_eq!(vm.free_pages(), free_before + 2);
        assert_eq!(vm.stats().releaser.pages_released.get(), 2);
        assert_eq!(vm.stats().freed.freed_by_release.get(), 2);
        // The freed page can be rescued without I/O.
        let res = vm.touch(t(100), pid, r.start, false);
        assert!(matches!(res.kind, TouchKind::Rescue(FreeSource::Release)));
        assert_eq!(vm.stats().freed.rescued_release.get(), 1);
    }

    #[test]
    fn rereferenced_page_is_not_released() {
        let mut vm = vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let now = t(1);
        let done = vm.touch(now, pid, r.start, false).done_at;
        vm.release(done, pid, &[r.start]);
        // Touch again before the releaser runs.
        let res = vm.touch(done + SimDuration::from_micros(50), pid, r.start, false);
        assert_eq!(res.kind, TouchKind::SoftFaultRelease);
        vm.service_releaser(res.done_at + SimDuration::from_micros(100));
        assert_eq!(vm.stats().releaser.pages_released.get(), 0);
        assert_eq!(vm.stats().releaser.skipped_reref.get(), 1);
        // Page still resident.
        assert_eq!(vm.rss(pid), 1);
    }

    #[test]
    fn dirty_release_writes_back() {
        let mut vm = vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let done = vm.touch(t(1), pid, r.start, true).done_at; // write → dirty
        let writes_before = vm.swap().stats().page_writes.get();
        vm.release(done, pid, &[r.start]);
        vm.service_releaser(done + SimDuration::from_micros(200));
        assert_eq!(vm.swap().stats().page_writes.get(), writes_before + 1);
        assert_eq!(vm.stats().releaser.writebacks.get(), 1);
    }

    #[test]
    fn releaser_uses_short_lock_holds() {
        let mut vm = vm();
        vm.tun.releaser_batch = 4;
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 32, Backing::SwapPrefilled, true);
        let mut now = t(1);
        for i in 0..16 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let vpns: Vec<_> = (0..16).map(|i| r.start.offset(i)).collect();
        vm.release(now, pid, &vpns);
        let acq_before = vm.lock_stats(pid).acquisitions.get();
        vm.service_releaser(now + SimDuration::from_micros(200));
        let acq_after = vm.lock_stats(pid).acquisitions.get();
        // 16 pages at batch 4 → 4 separate (short) lock holds.
        assert_eq!(acq_after - acq_before, 4);
    }

    #[test]
    fn big_queue_yields_and_rewakes() {
        let mut vm = VmSys::new(
            2048,
            Tunables::for_memory(2048),
            CostParams::default(),
            SwapConfig::test_array(),
        );
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 1024, Backing::SwapPrefilled, true);
        let mut now = t(1);
        for i in 0..700 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let vpns: Vec<_> = (0..700).map(|i| r.start.offset(i)).collect();
        vm.release(now, pid, &vpns);
        let next = vm.service_releaser(now);
        assert!(next.is_some(), "512-page cap leaves work queued");
        let next2 = vm.service_releaser(next.unwrap());
        assert!(next2.is_none());
        assert_eq!(vm.stats().releaser.pages_released.get(), 700);
    }

    #[test]
    fn empty_queue_service_is_noop() {
        let mut vm = vm();
        assert!(vm.service_releaser(t(1)).is_none());
        assert_eq!(vm.stats().releaser.activations.get(), 0);
    }
}
